"""Direction-cycling block chain for arbitrary dimension, and the one walk
every analysis, matrix count and sample runs.

Starting from the allowed l-cubes, each cycle doubles one axis at a time
(axis 0, axis 1, ..., axis d-1, then wraps); after a full cycle the allowed
cubes of twice the side are complete. Stage (n, i) holds all allowed blocks
whose first i axes have length 2^n*l and whose remaining axes have length
2^(n-1)*l. For d=2, stage (n, 2) holds the squares of doubling level n and
stage (n+1, 1) their vertical stacks (see `levels.LevelState`).

Admission of a concatenated pair is `relation.pair_relation` along the
pairing axis: during the first cycle the pairing extent equals l, so the
half-overlap covering argument does not apply; each block is window-scanned
once and each distinct pair of seam slabs (the l-1 cells on either side of
the seam) once, a seam-slab join. From the second cycle on a pair is kept
iff the half-overlapping middle block along the pairing axis belongs to the
current stage set.

Relations are `relation.Relation` key groups, so a stage's block count is
the size of the relation below it, read without listing a pair. A stage is
built only when something reads its blocks: the walk behind `analyze` and
`count --engine matrix` stops one stage short of its target and counts the
target from the last relation. Every stage that is built is first held to
`max_blocks` and `max_cells`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import AbstractSet, Sequence

from .caps import DEFAULT_CAPS, Caps
from .core import Block, CubeSet, prod
from .errors import BudgetError
from .relation import Relation, join, pair_relation


@dataclass(frozen=True)
class DChainState:
    """One stage of the chain.

    `level` (n) and `stage` (i) follow the shape law above, with the base
    encoded as (0, d): cubes of side l, nothing doubled yet. `relation`
    holds the admitted pairs along the next axis once computed; its size is
    the next stage's block count, and it is what the next step
    materializes.
    """

    dimension: int
    level: int
    stage: int
    blocks: tuple[Block, ...]
    relation: AbstractSet[tuple[int, int]] | None

    def next_axis(self) -> int:
        return 0 if self.stage == self.dimension else self.stage

    def next_stage(self) -> tuple[int, int]:
        if self.stage == self.dimension:
            return self.level + 1, 1
        return self.level, self.stage + 1


def chain_start(allowed_cubes: Sequence[Block], cubes: CubeSet) -> DChainState:
    blocks = tuple(sorted(allowed_cubes, key=lambda b: b.data))
    d = cubes.dimension if cubes.dimension else (blocks[0].dimension if blocks else 1)
    return DChainState(d, 0, d, blocks, None)


def _check_pairs(n: int, caps: Caps) -> None:
    # a relation over n blocks is refused by its n^2 candidate pairs
    if n * n > caps.max_work:
        raise BudgetError(
            f"chain relation needs {n * n} pair checks (cap {caps.max_work})",
            required=n * n,
        )


def chain_relation(state: DChainState, cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> DChainState:
    """Compute the admitted pairs along the next axis."""
    if state.relation is not None:
        return state
    _check_pairs(len(state.blocks), caps)
    if not state.blocks:
        return replace(state, relation=Relation())
    datas = [b.data for b in state.blocks]
    rel = pair_relation(datas, state.blocks[0].shape, state.next_axis(), cubes)
    return replace(state, relation=rel)


def check_next_stage(state: DChainState, caps: Caps = DEFAULT_CAPS) -> None:
    """Refuse the stage that `state`'s relation would build, by its block
    count and by its cell count (blocks times cells per block)."""
    n = len(state.relation)
    if n > caps.max_blocks:
        raise BudgetError(
            f"next stage would hold {n} blocks (cap {caps.max_blocks})",
            required=n,
            partial=n,
        )
    cells = 2 * n * prod(state.blocks[0].shape) if state.blocks else 0
    if cells > caps.max_cells:
        raise BudgetError(
            f"next stage needs {cells} cells (cap {caps.max_cells})",
            required=cells,
            partial=n,
        )


def d_chain_step(state: DChainState, cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> DChainState:
    """Advance one direction stage, doubling the next axis. The new blocks
    are sorted by data, so for axis 0 their order is that of the sorted
    relation pairs."""
    state = chain_relation(state, cubes, caps)
    assert state.relation is not None
    check_next_stage(state, caps)
    axis = state.next_axis()
    level, stage = state.next_stage()
    new_blocks: tuple[Block, ...] = ()
    if state.blocks:
        shape = state.blocks[0].shape
        new_shape = shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]
        datas = [b.data for b in state.blocks]
        out = sorted(join(datas[i], datas[j], shape, axis) for i, j in state.relation)
        new_blocks = tuple(Block(new_shape, d) for d in out)
    return DChainState(state.dimension, level, stage, new_blocks, None)


def chain_report(
    start: DChainState,
    cubes: CubeSet,
    target: tuple[int, int],
    caps: Caps = DEFAULT_CAPS,
    build_target: bool = True,
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
    """
    stages = [start]
    state = start
    try:
        while (state.level, state.stage) < target and (state.blocks or state.stage != state.dimension):
            state = stages[-1] = chain_relation(state, cubes, caps)
            if state.next_stage() == target:
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
