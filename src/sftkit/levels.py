"""Doubling levels of a 2-dimensional spec, and the analysis report.

A level holds the set of allowed squares of side 2^n*l (sorted canonically),
the vertical relation (pairs whose 2:1 stack is allowed), and the horizontal
relation (pairs of stacks whose side-by-side square is allowed). It is a view
over the stages of `chain.py` with axis order (0, 1): squares and vrel are
stage (n, 2); hrel is the relation of the stacks, stage (n+1, 1), whose x-th
block is the x-th sorted vrel pair. Relations are built only when the
next level is asked for, as `relation.Relation` key groups whose sizes give
the block counts of the stages above them; `analyze` never builds the level
it only counts (see `AnalysisResult`). Level 0 uses the seam-slab join of
`relation.pair_relation` (one window scan per cube and per distinct pair of
seam slabs); from level 1 on, everything reduces to set lookups:

* a stack A-over-B is allowed iff A, B and the half-overlapping middle
  square (bottom half of A on top half of B) are allowed;
* a side-by-side square of two stacks is allowed iff both stacks and the
  seam-straddling middle stack are.

Both reductions are exact because a forbidden cube spans at most half of a
level-(n>=1) side, so every cube window lies inside one of the aligned
half-step windows those lookups certify. `analyze` reports one chain walk
in every dimension, or the literal matrices of `matrices.py`.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import AbstractSet, Callable, Sequence

from .caps import DEFAULT_CAPS, Caps
from .chain import (
    DChainState,
    chain_relation,
    chain_report,
    chain_start,
    check_next_stage,
    d_chain_step,
)
from .core import Block, CubeSet, SftSpec, assemble, block_allowed
from .errors import BudgetError, EmptyStateError, SpecError
from .matrices import LiteralLevel, level0_matrices, step_horizontal, step_literal
from .normalize import (
    MODE_ALL,
    build_report,
    enumerate_allowed_cubes,
    normalize_to_cubes,
)


@dataclass(frozen=True)
class LevelState:
    """Allowed squares of one level and their compatibility relations.

    Relations are stored positionally against the sorted `squares` tuple:
    `vrel` holds (upper, lower) index pairs (a `relation.Relation` when the
    kernel built it, a frozenset when loaded); `hrel` holds (a, b, c, d)
    meaning stack a-over-b is horizontally compatible with stack c-over-d.
    Either may be None when a level was built only far enough to count its
    squares. `cubes` is the forbidden set the relations are decided
    against; it is not part of a state's value.
    """

    level: int
    side: int
    squares: tuple[Block, ...]
    vrel: AbstractSet[tuple[int, int]] | None
    hrel: frozenset[tuple[int, int, int, int]] | None
    cubes: CubeSet | None = field(default=None, compare=False, repr=False)


def _square_stage(state: LevelState) -> DChainState:
    return DChainState(2, state.level, 2, state.squares, state.vrel)


def _hrel(vrel, stack_relation) -> frozenset[tuple[int, int, int, int]]:
    pairs = sorted(vrel)
    return frozenset(pairs[x] + pairs[y] for x, y in stack_relation)


def level0_state(allowed_cubes: Sequence[Block], cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> LevelState:
    """Base level: allowed cubes with seam-slab join relations."""
    return with_relations(LevelState(0, cubes.side, tuple(allowed_cubes), None, None, cubes), caps)


def with_relations(
    state: LevelState, caps: Caps = DEFAULT_CAPS, need_hrel: bool = True
) -> LevelState:
    """Fill vrel (and, unless `need_hrel` is off, hrel) of a state. hrel is
    the relation of the level's stacks, chain stage (n+1, 1), whose pair
    checks are held against `max_work` before the stacks are built."""
    if state.vrel is not None and (state.hrel is not None or not need_hrel):
        return state
    if state.cubes is None:
        raise SpecError("relations need the state's forbidden cube set")
    squares = chain_relation(_square_stage(state), state.cubes, caps)
    state = replace(state, vrel=squares.relation)
    if not need_hrel:
        return state
    stages = chain_report(squares, state.cubes, (state.level + 1, 2), caps, build_target=False)
    # an empty level ends the walk on its own (empty) relation
    return replace(state, hrel=_hrel(state.vrel, stages[-1].relation))


def reduced_step(state: LevelState, caps: Caps = DEFAULT_CAPS) -> LevelState:
    """The next level's squares: chain stage (n+1, 2), stepped from the
    stacks with the horizontal relation as their relation. The result
    carries no relations yet (they are only needed to step again)."""
    state = with_relations(state, caps)
    stacks = d_chain_step(_square_stage(state), state.cubes, caps)
    at = {pair: x for x, pair in enumerate(sorted(state.vrel))}
    stacks = replace(stacks, relation=frozenset((at[h[:2]], at[h[2:]]) for h in state.hrel))
    nxt = d_chain_step(stacks, state.cubes, caps)
    return LevelState(nxt.level, 2 * state.side, nxt.blocks, None, None, state.cubes)


def nine_window_admissible(q: Block, prev: LevelState) -> bool:
    """Direct form of the admission rule for a doubled square: all aligned
    half-step windows must be allowed squares of the previous level.
    Equivalent to membership of (a,b,c,d) in the previous hrel; kept as an
    independently checkable predicate."""
    side = prev.side
    half = side // 2
    members = {b.data for b in prev.squares}
    for ro in (0, half, side):
        for co in (0, half, side):
            win = tuple(
                itertools.chain.from_iterable(
                    q.data[(ro + r) * 2 * side + co : (ro + r) * 2 * side + co + side]
                    for r in range(side)
                )
            )
            if win not in members:
                return False
    return True


# ---------------------------------------------------------------------------
# analysis


@dataclass(frozen=True)
class LevelRow:
    level: int
    stage: str
    block_count: int
    relation_count: int | None


@dataclass(frozen=True)
class LevelReport:
    mode: str
    side: int
    cube_count: int
    allowed_count: int
    rows: tuple[LevelRow, ...]
    verdict: str
    reason: str | None = None

    def exit_code(self) -> int:
        if self.verdict == "empty":
            return 2
        if self.verdict == "inconclusive":
            return 3
        return 0


@dataclass(frozen=True)
class AnalysisResult:
    """What `analyze` found. The report's counts come from relation sizes:
    the walk stops one stage short of the target and counts the target's
    blocks from the last relation without building them. For d=2 reduced
    runs, `levels` are read from the walked stages when first accessed,
    and only then is the target level's squares stage built (as
    `export-state` and library callers need it); other runs have no
    levels. Construct it with the levels, or a callable returning them."""

    spec: SftSpec
    cubes: CubeSet
    index: tuple[Block, ...]
    _levels: tuple[LevelState, ...] | Callable[[], tuple[LevelState, ...]]
    report: LevelReport

    @property
    def levels(self) -> tuple[LevelState, ...]:
        if callable(self._levels):
            object.__setattr__(self, "_levels", self._levels())
        return self._levels


def _label(dimension: int, level: int, stage: int) -> tuple[int, str]:
    # d=2 names a level's squares and its vertical stacks, stage (n+1, 1)
    if dimension == 2:
        return (level, "squares") if stage == 2 else (level - 1, "rects")
    return level, "cubes" if stage == dimension else f"dir{stage}"


def _rows(stages: Sequence[DChainState]) -> list[LevelRow]:
    rows = []
    for st in stages:
        rel = None if st.relation is None else len(st.relation)
        rows.append(LevelRow(*_label(st.dimension, st.level, st.stage), len(st.blocks), rel))
    if rel is not None:
        # a next stage left unbuilt still has its block count certified
        rows.append(LevelRow(*_label(st.dimension, *st.next_stage()), rel, None))
    return rows


def level_states(stages: Sequence[DChainState], cubes: CubeSet) -> tuple[LevelState, ...]:
    """The d=2 level states a walk's stages hold: each squares stage with
    its vertical relation, and the relation of the stacks above it as the
    level's hrel."""
    levels: list[LevelState] = []
    for st in stages:
        if st.stage == 2:
            levels.append(LevelState(st.level, cubes.side << st.level, st.blocks, st.relation, None, cubes))
        elif st.relation is not None:
            levels[-1] = replace(levels[-1], hrel=_hrel(levels[-1].vrel, st.relation))
    return tuple(levels)


def verdict_of(rows: Sequence[LevelRow], reason: str | None) -> tuple[str, str | None]:
    """The verdict of a chain report's rows and budget stop reason, and the
    reason it keeps: "empty" when some row counts no block (sound at any
    depth, so a stop is dropped), "inconclusive" after a stop, and
    otherwise nonempty to the level of the last row, the walk's target."""
    if any(r.block_count == 0 for r in rows):
        return "empty", None
    if reason is not None:
        return "inconclusive", reason
    return f"nonempty-to-level-{rows[-1].level}", None


def analyze(
    spec: SftSpec,
    levels: int,
    mode: str = "reduced",
    caps: Caps = DEFAULT_CAPS,
) -> AnalysisResult:
    """Run normalization and the doubling pipeline up to the level budget.

    The verdict is "empty" as soon as some computed block set is empty
    (sound: every configuration contains allowed squares of every side),
    "nonempty-to-level-N" when squares of side 2^N*l exist, and
    "inconclusive" when a budget stop intervened. No finite level ever
    certifies unconditional nonemptiness.
    """
    if levels < 0:
        raise SpecError("level budget must be >= 0")
    if mode not in ("reduced", "literal"):
        raise SpecError(f"unknown engine mode {mode!r}")
    if mode == "literal" and spec.dimension != 2:
        raise SpecError("literal mode is 2-dimensional only; use reduced")
    cubes = normalize_to_cubes(spec, MODE_ALL, caps)
    index = enumerate_allowed_cubes(spec, cubes, caps)
    norm = build_report(spec, cubes, len(index))
    if mode == "literal":
        return _analyze_literal(spec, cubes, index, norm, levels, caps)
    target = (levels, spec.dimension)
    reason = None
    try:
        stages = chain_report(chain_start(index, cubes), cubes, target, caps, build_target=False)
    except BudgetError as e:
        stages, reason = e.partial, str(e)
    else:
        # the target is counted from the last relation, not built, but it is
        # held to the caps it meets when `levels` is read and it is built
        if stages[-1].relation is not None:
            try:
                check_next_stage(stages[-1], caps)
            except BudgetError as e:
                reason = str(e)
    # a walk that reached its target steps into it when `levels` is read
    step = reason is None and stages[-1].relation is not None
    rows = tuple(_rows(stages))
    verdict, reason = verdict_of(rows, reason)
    d2 = spec.dimension == 2
    report = LevelReport(
        "reduced" if d2 else "chain", norm.side, norm.cube_count, norm.allowed_count, rows, verdict, reason
    )
    levels_of = partial(_read_levels, tuple(stages), cubes, caps if step else None)
    return AnalysisResult(spec, cubes, index, levels_of if d2 else (), report)


def _read_levels(stages, cubes: CubeSet, step_caps: Caps | None) -> tuple[LevelState, ...]:
    if step_caps is not None:
        stages = (*stages, d_chain_step(stages[-1], cubes, step_caps))
    return level_states(stages, cubes)


def _analyze_literal(spec, cubes, index, norm, levels, caps) -> AnalysisResult:
    rows: list[LevelRow] = []
    verdict = reason = None
    lits: list[LiteralLevel] = []

    def add(lit: LiteralLevel) -> None:
        lits.append(lit)
        rows.append(LevelRow(lit.level, "vert", len(lit.vert.row_blocks), lit.vert.ones_count()))
        if lit.horiz is not None:
            rows.append(LevelRow(lit.level, "horiz", len(lit.horiz.row_blocks), lit.horiz.ones_count()))

    try:
        if levels >= 1 and index:
            lit = level0_matrices(index, cubes, caps)
            add(lit)
            while lit.level + 2 <= levels and not lit.zero():
                # the vertical step returns before the horizontal pass may
                # stop: perfbench/tracer.py reads a step's counts from it
                lit = step_horizontal(lit, step_literal(lit, caps, compute_h=False), caps)
                add(lit)
    except BudgetError as e:
        # a horizontal stop keeps the vertical matrix built before it
        if isinstance(e.partial, LiteralLevel):
            add(e.partial)
        verdict = "inconclusive"
        reason = str(e)
    if not index or any(l.zero() for l in lits):
        verdict = "empty"
        reason = None
    elif verdict is None:
        reached = lits[-1].level + 1 if lits else 0
        verdict = f"nonempty-to-level-{min(levels, reached) if levels else 0}"
    report = LevelReport(
        "literal", norm.side, norm.cube_count, norm.allowed_count, tuple(rows), verdict, reason
    )
    # literal analysis keeps no reduced level states
    return AnalysisResult(spec, cubes, index, (), report)


# ---------------------------------------------------------------------------
# witnesses and patches


@dataclass(frozen=True)
class WitnessResult:
    block: Block | None
    nodes: int
    reason: str | None
    # no allowed cubes at all: the absence certifies an empty space
    empty: bool = False


def witness_search(
    spec: SftSpec,
    level: int,
    caps: Caps = DEFAULT_CAPS,
) -> WitnessResult:
    """Try to build one allowed square of side 2^level * l by recursive
    2x2 assembly with backtracking over allowed sub-squares.

    Absence is not an emptiness proof: the search is budgeted and
    incomplete. Any returned block has passed a full window rescan.
    """
    cubes = normalize_to_cubes(spec, MODE_ALL, caps)
    base = enumerate_allowed_cubes(spec, cubes, caps)
    if not base:
        return WitnessResult(None, 0, "no allowed cubes: the space is empty", empty=True)
    budget = caps.witness_nodes
    spent = 0

    class _Out(Exception):
        pass

    def spend():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise _Out()

    grid_shape = (2,) * spec.dimension
    corners = 2**spec.dimension

    def pair_ok(left: Block, cand: Block) -> bool:
        # last-axis neighbours share a seam worth checking before recursing
        spend()
        if spec.dimension == 1:
            return block_allowed(assemble([left, cand]), cubes)
        if spec.dimension == 2:
            return block_allowed(assemble([[left, cand]]), cubes)
        return True  # higher dimensions rely on the final full check

    def candidates(lv: int):
        if lv == 0:
            yield from base
            return

        def place(i: int, chosen: list[Block]):
            if i == corners:
                q = assemble(_nest(chosen, grid_shape))
                spend()
                if block_allowed(q, cubes):
                    yield q
                return
            for cand in candidates(lv - 1):
                if i % 2 == 1 and not pair_ok(chosen[i - 1], cand):
                    continue
                chosen.append(cand)
                yield from place(i + 1, chosen)
                chosen.pop()

        yield from place(0, [])

    try:
        for blk in candidates(level):
            return WitnessResult(blk, spent, None)
    except _Out:
        return WitnessResult(None, spent, f"node budget {budget} exhausted")
    return WitnessResult(None, spent, "search space exhausted without a witness")


def _nest(flat: Sequence[Block], gshape: tuple[int, ...]):
    if len(gshape) == 1:
        return list(flat)
    sub = len(flat) // gshape[0]
    return [_nest(flat[i * sub : (i + 1) * sub], gshape[1:]) for i in range(gshape[0])]


def sample_patch(state: LevelState, seed: int) -> Block:
    """Deterministic uniform draw from a level's square set.

    The draw is a central patch of some convergent sequence of larger and
    larger blocks; an individual allowed square need not extend to a full
    configuration, so this is a patch, not a certificate.
    """
    if not state.squares:
        raise EmptyStateError(f"level {state.level} has no allowed squares")
    rng = random.Random(seed)
    return state.squares[rng.randrange(len(state.squares))]
