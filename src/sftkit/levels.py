"""Doubling levels of a 2-dimensional spec, and the analysis report.

A level is chain stage (n, 2) of `chain.py`, axis order (0, 1): its blocks
are the allowed squares of side 2^n*l (sorted canonically), and its
relation the vertical one (pairs whose 2:1 stack is allowed). The
horizontal relation (pairs of stacks whose side-by-side square is allowed)
is the relation of the stacks, stage (n+1, 1), whose x-th block is the x-th
sorted vrel pair; a level keeps that stage once its relation is known.
Every level is read off a walk's stages by `level_states`. Relations are
built only when the next level is asked for, as `relation.Relation` key
groups whose sizes give the block counts of the stages above them;
`analyze` never builds the level it only counts (see `AnalysisResult`).
Level 0 uses the seam-slab join of `relation.pair_relation` (one window
scan per cube and per distinct pair of seam slabs); from level 1 on,
everything reduces to set lookups:

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Iterator, Sequence

from .caps import DEFAULT_CAPS, Caps
from .chain import (
    DChainState,
    chain_relation,
    chain_report,
    chain_start,
    d_chain_step,
    spec_start,
    stage_shape,
)
from .core import Block, Blocks, CubeSet, SftSpec, allowed_data
from .errors import BudgetError, EmptyStateError, SpecError
from .normalize import build_report
from .relation import Relation, join


class StackRelation(Relation):
    """hrel as a view over the stacks' relation: stack x is the x-th sorted
    vrel pair, and (x, y) reads as the two pairs end to end. The 4-tuples
    iterate sorted, from per-stack successor lists off the key groups; two
    views compare as lists, and anything else goes through `Relation`."""

    __slots__ = ("vrel",)

    def __init__(self, vrel: AbstractSet[tuple[int, int]], stacks: Relation):
        super().__init__(stacks.groups)
        self.vrel = sorted(vrel)

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        vrel = self.vrel
        succ: list[list[int]] = [[] for _ in vrel]
        for lows, highs in self.groups:
            for x in lows:
                succ[x] += highs
        return iter([vrel[x] + vrel[y] for x, ys in enumerate(succ) for y in sorted(ys)])

    def __eq__(self, other) -> bool:
        if isinstance(other, StackRelation):
            return len(self) == len(other) and list(self) == list(other)
        return super().__eq__(other)

    __hash__ = Relation.__hash__


@dataclass(frozen=True)
class LevelState(DChainState):
    """A doubling level: chain stage (n, 2), whose blocks are the level's
    `squares` and whose relation is `vrel`, the (upper, lower) index pairs
    whose stack is allowed. `stacks` is stage (n+1, 1), kept once its
    relation is computed; `hrel` reads that relation as (a, b, c, d), stack
    a-over-b beside stack c-over-d (a `StackRelation`). vrel and hrel are
    None until computed. `cubes` is the forbidden set the relations are
    decided against, and not part of a state's value.
    """

    stacks: DChainState | None = None
    cubes: CubeSet | None = field(default=None, compare=False, repr=False)

    @property
    def side(self) -> int:
        return self.shape[0]

    @property
    def squares(self) -> Blocks:
        return self.blocks

    @property
    def vrel(self) -> AbstractSet[tuple[int, int]] | None:
        return self.relation

    @cached_property
    def hrel(self) -> StackRelation | None:
        # built once a state: the view sorts every vrel pair
        return None if self.stacks is None else StackRelation(self.relation, self.stacks.relation)


def level0_state(allowed_cubes: Sequence[Block], cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> LevelState:
    """Base level: allowed cubes with seam-slab join relations."""
    return with_relations(level_states([chain_start(allowed_cubes, cubes)], cubes)[0], caps)


def with_relations(
    state: LevelState, caps: Caps = DEFAULT_CAPS, need_hrel: bool = True
) -> LevelState:
    """Fill vrel (and, unless `need_hrel` is off, hrel) of a level: the walk
    from it to its stacks, stage (n+1, 1), with their relation computed.
    The stacks' pair checks are held against `max_work` before the stacks
    are built."""
    if state.vrel is not None and (state.hrel is not None or not need_hrel):
        return state
    cubes = state.cubes
    if cubes is None:
        raise SpecError("relations need the state's forbidden cube set")
    squares = chain_relation(state, cubes, caps)
    if not need_hrel:
        return level_states([squares], cubes)[0]
    stages = chain_report(squares, cubes, (state.level + 1, 2), caps, build_target=False)
    if not squares.blocks:
        # a walk ends on an empty level: its empty stacks are stepped here
        stages += (chain_relation(d_chain_step(squares, cubes, caps), cubes, caps),)
    return level_states(stages, cubes)[0]


def reduced_step(state: LevelState, caps: Caps = DEFAULT_CAPS) -> LevelState:
    """The next level: chain stage (n+1, 2), stepped from the stacks with
    the horizontal relation as their relation. Its relations are left
    uncomputed (they are only needed to step again)."""
    state = with_relations(state, caps)
    return level_states([d_chain_step(state.stacks, state.cubes, caps)], state.cubes)[0]


def nine_window_admissible(q: Block, prev: LevelState) -> bool:
    """Direct form of the admission rule for a doubled square: all aligned
    half-step windows must be allowed squares of the previous level.
    Equivalent to membership of (a,b,c,d) in the previous hrel. A reference
    oracle, kept apart from `relation.join`/`middle_join` on purpose."""
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
    `walk` holds the chain stages the walk computed, in every dimension; a
    walk that reaches its target stops one stage short of it and counts the
    target's blocks from the last relation without building them. `walk`
    is what `save_state` archives. `stages` are the walk stepped into the
    target the first time they are read (as library callers need it),
    unless the caps (`caps`) refuse that step: then, as after a budget
    stop, they end on the relation that counts it. For d=2 reduced runs,
    `levels` are the level states those stages hold; other runs have no
    levels."""

    spec: SftSpec
    cubes: CubeSet
    index: tuple[Block, ...]
    walk: tuple[DChainState, ...]
    report: LevelReport
    caps: Caps = field(default=DEFAULT_CAPS, compare=False, repr=False)

    @cached_property
    def stages(self) -> tuple[DChainState, ...]:
        # only a walk that reached its target steps into it; a target past
        # the caps stays counted by the last relation
        walk = self.walk
        if self.report.reason is None and walk and walk[-1].relation is not None:
            try:
                return (*walk, d_chain_step(walk[-1], self.cubes, self.caps))
            except BudgetError:
                pass
        return walk

    @cached_property
    def levels(self) -> tuple[LevelState, ...]:
        return level_states(self.stages, self.cubes) if self.report.mode == "reduced" else ()


def _label(dimension: int, level: int, stage: int) -> tuple[int, str]:
    # d=2 names a level's squares and its vertical stacks, stage (n+1, 1)
    if dimension == 2:
        return (level, "squares") if stage == 2 else (level - 1, "rects")
    return level, "cubes" if stage == dimension else f"dir{stage}"


def report_rows(stages: Sequence[DChainState]) -> list[LevelRow]:
    """The report rows a walk's stages certify, one a stage, plus the
    block count of the next stage when the last relation is known."""
    rows = []
    for st in stages:
        rel = None if st.relation is None else len(st.relation)
        rows.append(LevelRow(*_label(st.dimension, st.level, st.stage), len(st.blocks), rel))
    if rel is not None:
        # a next stage left unbuilt still has its block count certified
        rows.append(LevelRow(*_label(st.dimension, *st.next_stage()), rel, None))
    return rows


def level_states(stages: Sequence[DChainState], cubes: CubeSet) -> tuple[LevelState, ...]:
    """The d=2 levels a walk's stages hold: each squares stage, with the
    stacks stage above it when that stage's relation is computed."""
    levels = []
    for st, up in zip(stages, (*stages[1:], None)):
        if st.stage == 2:
            stacks = up if up is not None and up.relation is not None else None
            levels.append(LevelState(2, st.level, 2, st.blocks, st.relation, stacks, cubes))
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
    cubes, index, start = spec_start(spec, caps)
    norm = build_report(spec, cubes, len(index))
    if mode == "literal":
        return _analyze_literal(spec, cubes, index, norm, levels, caps)
    target = (levels, spec.dimension)
    reason = None
    try:
        stages = chain_report(start, cubes, target, caps, build_target=False)
    except BudgetError as e:
        stages, reason = e.partial, str(e)
    rows = tuple(report_rows(stages))
    verdict, stop = verdict_of(rows, reason)
    mode = "reduced" if spec.dimension == 2 else "chain"
    report = LevelReport(mode, norm.side, norm.cube_count, norm.allowed_count, rows, verdict, stop)
    return AnalysisResult(spec, cubes, index, stages, report, caps)


def _analyze_literal(spec, cubes, index, norm, levels, caps) -> AnalysisResult:
    # imported here, so the reduced walk never loads the literal module
    from .matrices import LiteralLevel, level0_matrices, step_horizontal, step_literal

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
        # without a stop the loop above reaches the asked level
        verdict = f"nonempty-to-level-{levels}"
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
    2^d-corner assembly with backtracking over allowed sub-squares.

    Corners are data tuples glued by `relation.join`, the last axis first.
    Each candidate and each pair of last-axis neighbours costs one node;
    candidates are window-scanned, and so are pairs for d <= 2. Absence is
    not an emptiness proof: the search is budgeted and incomplete.
    """
    if level < 0:
        raise SpecError("level must be >= 0")
    cubes, base, _ = spec_start(spec, caps)
    if not base:
        return WitnessResult(None, 0, "no allowed cubes: the space is empty", empty=True)
    budget = caps.witness_nodes
    spent = 0
    d = spec.dimension
    # a first witness of level n costs at least N(n) = 2^d N(n-1) + 2^(d-1) + 1
    # nodes, N(0) = 0: a first witness per corner, the pair checks and the
    # final scan; a level whose N is past the budget is not searched
    least = 0
    for _ in range(level):
        least = 2**d * least + 2 ** (d - 1) + 1
        if least > budget:
            return WitnessResult(None, 0, f"node budget {budget} exhausted")

    class _Out(Exception):
        pass

    def spend():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise _Out()

    def candidates(lv: int):
        # data tuples of the allowed cubes of side 2^lv * l found so far
        if lv == 0:
            yield from (b.data for b in base)
            return
        shape = stage_shape(d, cubes.side, lv - 1, d)
        pair = shape[:-1] + (2 * shape[-1],)

        def place(chosen: list):
            if len(chosen) == 2**d:
                datas, sub = chosen, shape
                for axis in reversed(range(d)):
                    datas = [join(datas[i], datas[i + 1], sub, axis) for i in range(0, len(datas), 2)]
                    sub = sub[:axis] + (2 * sub[axis],) + sub[axis + 1 :]
                spend()
                if allowed_data(datas[0], sub, cubes):
                    yield datas[0]
                return
            for cand in candidates(lv - 1):
                if len(chosen) % 2 == 1:
                    # last-axis neighbours share a seam worth checking before
                    # recursing; higher dimensions rely on the final full check
                    spend()
                    if d <= 2 and not allowed_data(join(chosen[-1], cand, shape, d - 1), pair, cubes):
                        continue
                chosen.append(cand)
                yield from place(chosen)
                chosen.pop()

        yield from place([])

    try:
        for data in candidates(level):
            return WitnessResult(Block(stage_shape(d, cubes.side, level, d), data), spent, None)
    except _Out:
        return WitnessResult(None, spent, f"node budget {budget} exhausted")
    return WitnessResult(None, spent, "search space exhausted without a witness")


def sample_patch(stage: DChainState, seed: int) -> Block:
    """Deterministic uniform draw from a stage's blocks, such as a level's
    squares.

    The draw is a central patch of some convergent sequence of larger and
    larger blocks; an individual allowed block need not extend to a full
    configuration, so this is a patch, not a certificate.
    """
    if not stage.blocks:
        raise EmptyStateError(f"no allowed blocks at level {stage.level}")
    return stage.blocks[random.Random(seed).randrange(len(stage.blocks))]
