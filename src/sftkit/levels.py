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
Level 0 pairs by `relation.pair_relation`'s first-cycle rule: every pair
for l = 1, the middle-square lookups below for l = 2, and for l >= 3 the
seam-slab join (one window scan per cube and per distinct pair of seam
slabs); from level 1 on, everything reduces to set lookups:

* a stack A-over-B is allowed iff A, B and the half-overlapping middle
  square (bottom half of A on top half of B) are allowed;
* a side-by-side square of two stacks is allowed iff both stacks and the
  seam-straddling middle stack are.

Both reductions are exact because a cube window across a seam reaches at
most l-1 cells into either half, which is at most half of a level-(n>=1)
side, and of a level-0 side for l = 2; so every cube window lies inside
one of the aligned half-step windows those lookups certify. `analyze`
reports one chain walk in every dimension, or the literal matrices of
`matrices.py`.
"""
from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Iterator, Sequence

from .caps import DEFAULT_CAPS, Caps, refuse
from .chain import (
    DChainState,
    chain_relation,
    chain_report,
    chain_start,
    check_next_stage,
    d_chain_step,
    spec_start,
    stage_shape,
)
from .core import Block, Blocks, CubeSet, SftSpec, allowed_data
from .errors import BudgetError, EmptyStateError, SpecError
from .relation import _split, join, nth_join


@dataclass(frozen=True)
class LevelState(DChainState):
    """A doubling level: chain stage (n, 2), whose blocks are the level's
    `squares` and whose relation is `vrel`, the (upper, lower) index pairs
    whose stack is allowed. `stacks` is stage (n+1, 1), kept once its
    relation is computed, and `hrel` is that relation: (x, y) puts stack y
    beside stack x, where stack x is the x-th sorted vrel pair, upper
    square over lower square. vrel and hrel are None until computed.
    `cubes` is the forbidden set the relations are decided against, and
    not part of a state's value.
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

    @property
    def hrel(self) -> AbstractSet[tuple[int, int]] | None:
        return None if self.stacks is None else self.stacks.relation


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
    For q with left stack a-over-b and right stack c-over-d, equivalent to
    membership in the previous hrel of (x, y), the positions of (a, b) and
    (c, d) among the sorted vrel pairs. A reference oracle, kept apart from
    `relation.join`/`middle_join` on purpose."""
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
    index: Blocks
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
            levels.append(LevelState(2, st.level, 2, st.blocks, st.relation, stacks=stacks, cubes=cubes))
    return tuple(levels)


def verdict_of(rows: Sequence[LevelRow], reason: str | None, allowed=True, level=None) -> tuple[str, str | None]:
    """The one verdict rule, for every mode, and the stop reason it keeps:
    "empty" when there are no allowed cubes or some row counts no block or
    no pair (sound at any depth, so a stop is dropped), "inconclusive" after
    a stop, and otherwise nonempty to `level`, by default the last row's."""
    if not allowed or any(r.block_count == 0 or r.relation_count == 0 for r in rows):
        return "empty", None
    if reason is not None:
        return "inconclusive", reason
    return f"nonempty-to-level-{rows[-1].level if level is None else level}", None


def _result(spec, cubes, index, walk, rows, reason, caps, mode=None, level=None) -> AnalysisResult:
    """Every `AnalysisResult`: the report of `rows` and a stop `reason`, with
    the normalization counts, the verdict of `verdict_of` and the chain
    walk's mode ("reduced" in 2-d, else "chain") unless `mode` is given."""
    verdict, reason = verdict_of(rows, reason, bool(index), level)
    mode = mode or ("reduced" if spec.dimension == 2 else "chain")
    report = LevelReport(mode, cubes.side, cubes.forbidden_count, len(index), tuple(rows), verdict, reason)
    return AnalysisResult(spec, cubes, index, walk, report, caps)


def analyze(
    spec: SftSpec,
    levels: int,
    mode: str = "reduced",
    caps: Caps = DEFAULT_CAPS,
    lazy: bool = True,
) -> AnalysisResult:
    """Run normalization and the doubling pipeline up to the level budget.

    Both modes take their verdict from `verdict_of`: "empty" as soon as
    some computed block set or relation is empty (sound: every
    configuration contains allowed squares of every side),
    "nonempty-to-level-N" when squares of side 2^N*l exist, and
    "inconclusive" when a budget stop intervened. No finite level ever
    certifies unconditional nonemptiness.

    With `lazy` on, the reduced walk counts the relation of each stage it
    may stop at without building the stage (`chain.chain_report`); a
    caller that reads the walk's last stage, as `save_state` does, turns
    it off, so that stage is built once and not counted as well.
    """
    if levels < 0:
        raise SpecError("level budget must be >= 0")
    if mode not in ("reduced", "literal"):
        raise SpecError(f"unknown engine mode {mode!r}")
    if mode == "literal" and spec.dimension != 2:
        raise SpecError("literal mode is 2-dimensional only; use reduced")
    cubes, index, start = spec_start(spec, caps)
    if mode == "literal":
        return _analyze_literal(spec, cubes, index, levels, caps)
    reason = None
    try:
        stages = chain_report(start, cubes, (levels, spec.dimension), caps, build_target=False, lazy=lazy)
    except BudgetError as e:
        stages, reason = e.partial, str(e)
    return _result(spec, cubes, index, stages, report_rows(stages), reason, caps)


def _analyze_literal(spec, cubes, index, levels, caps) -> AnalysisResult:
    # imported here, so the reduced walk never loads the literal module
    from .matrices import LiteralLevel, level0_matrices, step_horizontal, step_literal

    rows: list[LevelRow] = []
    reason = None

    def add(lit: LiteralLevel) -> None:
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
        reason = str(e)
    # no chain walk; a level's horizontal ones are the next level's squares,
    # so the rows certify the asked level
    return _result(spec, cubes, index, (), rows, reason, caps, "literal", levels)


# ---------------------------------------------------------------------------
# witnesses and patches


@dataclass(frozen=True)
class WitnessResult:
    block: Block | None
    nodes: int
    reason: str | None
    # an exhausted search: the absence certifies an empty level
    empty: bool = False


def witness_search(spec: SftSpec, level: int, caps: Caps = DEFAULT_CAPS) -> WitnessResult:
    """One allowed block of chain stage (level, d), by a lazy depth-first
    walk of the stages: stage (0, d) yields the allowed cubes, every later
    stage each join of two blocks of the stage before it along its next
    axis whose seam is allowed. Both halves are allowed, so only a window
    across the seam can be forbidden, and it lies in the seam block: the
    low block's top l-1 slabs joined to the high block's bottom l-1 slabs,
    as `relation.seam_relation` scans it (for l = 1 no window crosses the
    seam). Each low block's slab is cut once.
    Each stage replays the blocks of the stage below from one generator,
    so each join is tested once; one tested join is one node, and a first
    witness of level n takes from d n nodes up. Every allowed block is two
    allowed halves, so a walk exhausted without a budget stop certifies the
    level empty. Levels whose 2^(d n) - 1 exceeds the node budget are
    refused before the walk, as a depth guard: a level-n block holds
    2^(d n) cubes, and each witness the top stage yields is joined and
    printed whole."""
    if level < 0:
        raise SpecError("level must be >= 0")
    cubes, _, start = spec_start(spec, caps)
    d, budget, spent = spec.dimension, caps.witness_nodes, 0
    t = cubes.side - 1
    if not start.blocks:
        return WitnessResult(None, 0, "no allowed cubes: the space is empty", empty=True)

    def blocks(n: int, i: int) -> Iterator[Sequence[int]]:
        nonlocal spent
        if n == 0:
            yield from start.blocks.datas
            return
        below = (n, i - 1) if i > 1 else (n - 1, d)
        shape, axis = stage_shape(d, cubes.side, *below), i - 1
        slab = shape[:axis] + (t,) + shape[axis + 1 :]
        seam = shape[:axis] + (2 * t,) + shape[axis + 1 :]
        made = itertools.tee(blocks(*below), 1)[0]
        for low in copy.copy(made):
            top = _split(low, shape, axis, shape[axis] - t)[1] if t else None
            for high in copy.copy(made):
                spent += 1
                refuse(spent, budget, "node budget {cap} exhausted")
                if not t or allowed_data(join(top, _split(high, shape, axis, t)[0], slab, axis), seam, cubes):
                    yield join(low, high, shape, axis)

    try:
        # by bit length: 2^(b+1) - 1 is past any budget of b bits
        refuse(2 ** min(d * level, budget.bit_length() + 1) - 1, budget, "node budget {cap} exhausted")
        for data in blocks(level, d):
            return WitnessResult(Block(stage_shape(d, cubes.side, level, d), tuple(data)), spent, None)
    except BudgetError as e:
        return WitnessResult(None, spent, str(e))
    return WitnessResult(None, spent, f"search space exhausted: level {level} is empty", empty=True)


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


def sample_walk(last: DChainState, seed: int, caps: Caps = DEFAULT_CAPS) -> Block:
    """`sample_patch` of the stage a walk was asked for, from the walk's
    `last` stage. A stage without its relation (level 0, or the empty
    full-cube stage a walk ends on) is drawn from itself. Otherwise the
    asked stage is the one the relation would build: it is refused by the
    caps as a built stage is, and its block of the same rank, k =
    randrange(len(relation)), is joined from the relation's key groups
    (`relation.nth_join`) without building the stage."""
    rel = last.relation
    if rel is None:
        return sample_patch(last, seed)
    check_next_stage(last, caps)
    if not rel:
        raise EmptyStateError(f"no allowed blocks at level {last.next_stage()[0]}")
    shape, axis = last.shape, last.next_axis()
    data = nth_join(last.blocks.datas, rel, shape, axis, random.Random(seed).randrange(len(rel)))
    return Block(shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :], tuple(data))
