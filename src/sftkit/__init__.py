"""Toolkit for desk-scale questions about d-dimensional shifts of finite type:
normalize forbidden sets to uniform cubes, double compatibility relations to
enumerate allowed blocks, certify emptiness or nonemptiness to a level, and
emit finite central patches."""

from .caps import DEFAULT_CAPS, Caps
from .chain import DChainState, chain_relation, chain_report, chain_start, d_chain_step, run_chain
from .core import (
    Block,
    CubeSet,
    MAX_DIMENSION,
    Pattern,
    SftSpec,
    assemble,
    block_allowed,
    concat,
    make_spec,
    occurs_in,
    pattern_width,
    window,
)
from .errors import (
    ArchiveError,
    BudgetError,
    EmptyStateError,
    FormatError,
    SftError,
    ShapeError,
    SpecError,
    WindowRangeError,
)
from .levels import (
    AnalysisResult,
    LevelReport,
    LevelRow,
    LevelState,
    WitnessResult,
    analyze,
    level0_state,
    nine_window_admissible,
    reduced_step,
    sample_patch,
    with_relations,
    witness_search,
)
from .matrices import (
    CompatMatrix,
    LiteralLevel,
    level0_matrices,
    literal_horiz_pairs,
    literal_vert_pairs,
    otimes,
    step_horizontal,
    step_literal,
)
from .normalize import (
    MODE_ALL,
    MODE_NON_PROPER,
    NormalizationReport,
    build_report,
    enumerate_allowed_cubes,
    forbidden_side,
    normalize_to_cubes,
)
from .oracle import OracleResult, brute_force_allowed, profile_count
from .specio import (
    load_spec_file,
    load_state,
    parse_spec,
    render_block,
    save_state,
    serialize_spec,
)

__version__ = "0.1.0"
