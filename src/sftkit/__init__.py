"""Toolkit for desk-scale questions about d-dimensional shifts of finite type:
normalize forbidden sets to uniform cubes, double compatibility relations to
enumerate allowed blocks, certify emptiness or nonemptiness to a level, and
emit finite central patches.

`import sftkit` loads none of the engine: each public name below, and each
submodule, is imported from its home module on first use (PEP 562). The
package does not keep what it looks up, so `sftkit.analyze` is always the
current `sftkit.levels.analyze`, also while a caller has swapped it.
"""

import importlib

# public names, by home module
_EXPORTS = {
    "caps": ("DEFAULT_CAPS", "Caps"),
    "chain": (
        "DChainState",
        "chain_relation",
        "chain_report",
        "chain_start",
        "d_chain_step",
        "run_chain",
    ),
    "core": (
        "Block",
        "CubeSet",
        "MAX_DIMENSION",
        "Pattern",
        "SftSpec",
        "assemble",
        "block_allowed",
        "concat",
        "make_spec",
        "pattern_width",
        "window",
    ),
    "errors": (
        "ArchiveError",
        "BudgetError",
        "EmptyStateError",
        "FormatError",
        "SftError",
        "ShapeError",
        "SpecError",
        "WindowRangeError",
    ),
    "levels": (
        "AnalysisResult",
        "LevelReport",
        "LevelRow",
        "LevelState",
        "WitnessResult",
        "analyze",
        "level0_state",
        "nine_window_admissible",
        "reduced_step",
        "sample_patch",
        "sample_walk",
        "with_relations",
        "witness_search",
    ),
    "matrices": (
        "CompatMatrix",
        "LiteralLevel",
        "level0_matrices",
        "literal_horiz_pairs",
        "literal_vert_pairs",
        "otimes",
        "step_horizontal",
        "step_literal",
    ),
    "normalize": (
        "MODE_ALL",
        "MODE_NON_PROPER",
        "enumerate_allowed_cubes",
        "forbidden_side",
        "normalize_to_cubes",
    ),
    "oracle": ("OracleResult", "brute_force_allowed", "profile_count"),
    "specio": (
        "load_spec_file",
        "load_state",
        "parse_spec",
        "render_block",
        "save_state",
        "serialize_spec",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "relation"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
