"""Direction-cycling block chain for arbitrary dimension, and the one walk
every analysis, matrix count and sample runs.

Starting from the allowed l-cubes, each cycle doubles one axis at a time
(axis 0, axis 1, ..., axis d-1, then wraps); after a full cycle the allowed
cubes of twice the side are complete. Stage (n, i) holds all allowed blocks
whose first i axes have length 2^n*l and whose remaining axes have length
2^(n-1)*l, as one `core.Blocks`, empty or not. For d=2, stage (n, 2) is the
doubling level n (`levels.LevelState`) and stage (n+1, 1) its vertical stacks.

Admission of a concatenated pair is `relation.pair_relation` along the
pairing axis. A pair is kept iff the half-overlapping middle block along
the pairing axis belongs to the current stage set, once the pairing extent
is at least 2(l-1): from the second cycle on, and in the first cycle too
for l = 2 (extent l = 2). For l = 1 every pair is kept. Only the first
cycle for l >= 3 is a seam-slab join: each block is window-scanned once
and each distinct pair of seam slabs (the l-1 cells on either side of the
seam) once.

Relations are `relation.Relation` key groups, so a stage's block count is
the size of the relation below it, read without listing a pair. A stage is
built only when something reads its blocks, and so is its relation: a
stage stepped from another knows its block count and joins its blocks on
first read, and the relation on such a stage is counted from the key
groups of the stage below it (`relation.joined_pair_count`), its groups
built with the stage when read. The walk behind `analyze`,
`count --engine matrix`, `export-state` and `sample` stops one stage short
of its target. `analyze` and `count` count the last relation, and any
relation where a budget check may stop the walk, so outside the seam
regime they build neither the target nor the stage below it.
`export-state`, `import-state` and `sample` read the stage below the
target, so their walk builds each stage before its relation and counts
none; `sample` draws its block by rank from the last relation
(`relation.nth_join`). Every stage that is built, or drawn from unbuilt,
is first held to `max_blocks` and `max_cells`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import AbstractSet, Sequence

from .caps import DEFAULT_CAPS, Caps, refuse
from .core import Block, Blocks, Coord, CubeSet, SftSpec, data_type, prod
from .errors import BudgetError, SpecError
from .normalize import MODE_ALL, enumerate_allowed_cubes, normalize_to_cubes
from .relation import Relation, join_pairs, joined_pair_count, pair_relation


@dataclass(frozen=True)
class DChainState:
    """One stage of the chain.

    `level` (n) and `stage` (i) follow the shape law above, with the base
    encoded as (0, d): cubes of side l, nothing doubled yet. `blocks` is a
    `core.Blocks` view sorted by data, so a `Block` is only built where one
    is read. `relation` holds the admitted pairs along the next axis once
    computed; its size is the next stage's block count, and it is what the
    next step materializes. `below` is the stage this one was stepped from,
    whose blocks and relation count this one's relation while its blocks
    are unbuilt; it is not part of a stage's value.
    """

    dimension: int
    level: int
    stage: int
    blocks: Blocks
    relation: AbstractSet[tuple[int, int]] | None
    below: DChainState | None = field(default=None, compare=False, repr=False)

    @property
    def shape(self) -> Coord:
        return self.blocks.shape

    def next_axis(self) -> int:
        return 0 if self.stage == self.dimension else self.stage

    def next_stage(self) -> tuple[int, int]:
        if self.stage == self.dimension:
            return self.level + 1, 1
        return self.level, self.stage + 1


def stage_shape(d: int, side: int, level: int, stage: int) -> Coord:
    """The block shape of stage (n, i): its first i axes doubled n times, the rest n - 1."""
    return tuple(side << level if a < stage else side << (level - 1) for a in range(d))


def stage_of(shape: Coord, side: int) -> tuple[int, int]:
    """(level, stage) of the stage whose blocks have `shape`, the inverse
    of `stage_shape`; a shape of no stage is a SpecError."""
    big = max(shape)
    level = max(big // side, 1).bit_length() - 1
    stage = shape.count(big)
    # stage (0, i) exists only as the base (0, d)
    if (level or stage == len(shape)) and stage_shape(len(shape), side, level, stage) == shape:
        return level, stage
    raise SpecError(
        f"shape {shape} is not a doubling stage: the matrix engine counts blocks whose "
        f"first axes are {side}*2^n and whose other axes are half that, in axis order"
    )


def chain_start(allowed_cubes: Sequence[Block], cubes: CubeSet) -> DChainState:
    """The base stage. Its data type, `bytes` unless the alphabet has more
    than 256 symbols, is kept by every stage the walk joins from it."""
    d, kind = cubes.dimension, data_type(cubes.alphabet_size)
    return DChainState(d, 0, d, Blocks((cubes.side,) * d, sorted(kind(b.data) for b in allowed_cubes)), None)


def spec_start(spec: SftSpec, caps: Caps = DEFAULT_CAPS) -> tuple[CubeSet, Blocks, DChainState]:
    """The entry of every walk: the spec's cube set, its allowed cubes and
    the base stage they make, with no sort: the search lists the cubes in
    row-major dictionary order, the sorted order of their data as `bytes` too."""
    cubes = normalize_to_cubes(spec, MODE_ALL, caps)
    index = enumerate_allowed_cubes(spec, cubes, caps)
    d = cubes.dimension
    return cubes, index, DChainState(d, 0, d, Blocks(index.shape, map(data_type(cubes.alphabet_size), index.datas)), None)


def _check_pairs(n: int, caps: Caps) -> None:
    # a relation over n blocks is refused by its n^2 candidate pairs
    refuse(n * n, caps.max_work, "chain relation needs {count} pair checks (cap {cap})")


def chain_relation(state: DChainState, cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> DChainState:
    """Compute the admitted pairs along the next axis. On a stage whose
    blocks are not built, the relation is counted from the stage below
    (`relation.joined_pair_count`), and its key groups are built, with the
    stage, when first read; in the seam regime it is built at once."""
    if state.relation is not None:
        return state
    _check_pairs(len(state.blocks), caps)
    axis, below = state.next_axis(), state.below
    if below is not None and not state.blocks.built:
        size = joined_pair_count(
            below.blocks.datas, below.relation, below.shape, below.next_axis(), axis, cubes.side
        )
        if size is not None:

            def groups():
                return pair_relation(state.blocks.datas, state.shape, axis, cubes).groups

            return replace(state, relation=Relation.counted(size, groups))
    return replace(state, relation=pair_relation(state.blocks.datas, state.shape, axis, cubes))


def check_next_stage(state: DChainState, caps: Caps = DEFAULT_CAPS) -> None:
    """Refuse the stage that `state`'s relation would build, by its block
    count and by its cell count (blocks times cells per block)."""
    n = len(state.relation)
    refuse(n, caps.max_blocks, "next stage would hold {count} blocks (cap {cap})", n)
    cells = 2 * n * prod(state.shape)
    refuse(cells, caps.max_cells, "next stage needs {count} cells (cap {cap})", n)


def d_chain_step(state: DChainState, cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> DChainState:
    """Advance one direction stage, doubling the next axis. The new stage
    knows its block count, the relation's size, and joins its blocks when
    they are first read, sorted by data (for axis 0, the order of the
    sorted relation pairs)."""
    state = chain_relation(state, cubes, caps)
    assert state.relation is not None
    check_next_stage(state, caps)
    axis = state.next_axis()
    level, stage = state.next_stage()
    shape = state.shape
    new_shape = shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]

    def joined() -> list:
        out = join_pairs(state.blocks.datas, state.relation, shape, axis)
        out.sort()
        return out

    blocks = Blocks.deferred(new_shape, len(state.relation), joined)
    return DChainState(state.dimension, level, stage, blocks, None, state)


def _may_stop(state: DChainState, caps: Caps) -> bool:
    # whether a budget check may stop the walk at `state`: its own n^2 pair
    # checks, or those of its relation, which keeps at most n^2 pairs, and
    # the stage that relation would build
    most = len(state.blocks) ** 2
    cells = 2 * most * prod(state.shape)
    return most * most > caps.max_work or most > caps.max_blocks or cells > caps.max_cells


def chain_report(
    start: DChainState,
    cubes: CubeSet,
    target: tuple[int, int],
    caps: Caps = DEFAULT_CAPS,
    build_target: bool = True,
    lazy: bool = False,
) -> tuple[DChainState, ...]:
    """Walk the chain from `start` towards stage `target` = (level, stage)
    and return the stages walked.

    The walk ends at the target, or at the first empty full-cube stage (an
    empty intermediate stage is walked through, so a walk that finds
    nothing ends on the empty cubes that certify it). With `build_target`
    off, it ends one stage short of the target with the relation computed,
    whose size is the target's block count. A relation is refused by its
    n^2 pair checks before the stage it would pair is built, unless that
    stage is the target. A budget stop raises with the stages certified
    before it as the BudgetError's `partial`; when the last of them has its
    relation computed, that relation's size certifies the next stage's
    block count.

    Every stage past `start` is stepped unbuilt. The walk builds it before
    computing its relation, unless `lazy` is on and the walk may stop
    there: at the stage below an unbuilt target, or where a budget check
    may refuse its relation or the stage it would build. Such a stage's
    relation is counted, and the stage and the relation's groups are built
    only if they are read, as the next step does.
    """
    stages = [start]
    state = start
    try:
        while (state.level, state.stage) < target and (state.blocks or state.stage != state.dimension):
            last = state.next_stage() == target
            if not (lazy and ((last and not build_target) or _may_stop(state, caps))):
                state.blocks.datas  # built now, so its relation is built, not counted
            state = stages[-1] = chain_relation(state, cubes, caps)
            if last:
                if not build_target:
                    break
            else:
                _check_pairs(len(state.relation), caps)
            state = d_chain_step(state, cubes, caps)
            stages.append(state)
    except BudgetError as e:
        e.partial = tuple(stages)
        raise
    return tuple(stages)


def run_chain(
    allowed_cubes: Sequence[Block],
    cubes: CubeSet,
    cycles: int,
    caps: Caps = DEFAULT_CAPS,
) -> list[DChainState]:
    """Run `cycles` full doubling cycles; returns every stage state."""
    start = chain_start(allowed_cubes, cubes)
    return list(chain_report(start, cubes, (cycles, start.dimension), caps))
