"""Direction-cycling block chain for arbitrary dimension.

Starting from the allowed l-cubes, each cycle doubles one axis at a time
(axis 0, axis 1, ..., axis d-1, then wraps); after a full cycle the allowed
cubes of twice the side are complete. Stage (n, i) holds all allowed blocks
whose first i axes have length 2^n*l and whose remaining axes have length
2^(n-1)*l.

Admission of a concatenated pair is `relation.pair_relation` along the
pairing axis: during the first cycle the pairing extent equals l, so the
half-overlap covering argument does not apply and each candidate is fully
window-scanned; from the second cycle on a pair is kept iff the
half-overlapping middle block along the pairing axis belongs to the current
stage set. For d=2 this reproduces the square pipeline stage by stage.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .caps import DEFAULT_CAPS, Caps
from .core import Block, CubeSet, SftSpec
from .errors import BudgetError
from .levels import AnalysisResult, LevelReport, LevelRow
from .relation import join, pair_relation


@dataclass(frozen=True)
class DChainState:
    """One stage of the chain.

    `level` (n) and `stage` (i) follow the shape law above, with the base
    encoded as (0, d): cubes of side l, nothing doubled yet. `relation`
    holds the admitted pairs along the next axis once computed; it is what
    the next step materializes.
    """

    dimension: int
    level: int
    stage: int
    side_small: int
    blocks: tuple[Block, ...]
    relation: frozenset[tuple[int, int]] | None

    def next_axis(self) -> int:
        return 0 if self.stage == self.dimension else self.stage

    def next_stage(self) -> tuple[int, int]:
        if self.stage == self.dimension:
            return self.level + 1, 1
        return self.level, self.stage + 1


def chain_start(allowed_cubes: Sequence[Block], cubes: CubeSet) -> DChainState:
    blocks = tuple(sorted(allowed_cubes, key=lambda b: b.data))
    d = cubes.dimension if cubes.dimension else (blocks[0].dimension if blocks else 1)
    return DChainState(d, 0, d, cubes.side, blocks, None)


def chain_relation(state: DChainState, cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> DChainState:
    """Compute the admitted pairs along the next axis."""
    if state.relation is not None:
        return state
    n = len(state.blocks)
    if n * n > caps.max_work:
        raise BudgetError(
            f"chain relation needs {n * n} pair checks (cap {caps.max_work})",
            required=n * n,
        )
    if not state.blocks:
        return replace(state, relation=frozenset())
    datas = [b.data for b in state.blocks]
    rel = pair_relation(datas, state.blocks[0].shape, state.next_axis(), cubes)
    return replace(state, relation=rel)


def d_chain_step(state: DChainState, cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> DChainState:
    """Advance one direction stage, doubling the next axis."""
    state = chain_relation(state, cubes, caps)
    assert state.relation is not None
    if len(state.relation) > caps.max_blocks:
        raise BudgetError(
            f"next stage would hold {len(state.relation)} blocks (cap {caps.max_blocks})",
            required=len(state.relation),
            partial=len(state.relation),
        )
    axis = state.next_axis()
    level, stage = state.next_stage()
    new_blocks: tuple[Block, ...] = ()
    if state.blocks:
        shape = state.blocks[0].shape
        new_shape = shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]
        datas = [b.data for b in state.blocks]
        out = sorted(join(datas[i], datas[j], shape, axis) for i, j in state.relation)
        new_blocks = tuple(Block(new_shape, d) for d in out)
    side_small = state.side_small * 2 if stage == 1 else state.side_small
    return DChainState(state.dimension, level, stage, side_small, new_blocks, None)


def run_chain(
    allowed_cubes: Sequence[Block],
    cubes: CubeSet,
    cycles: int,
    caps: Caps = DEFAULT_CAPS,
) -> list[DChainState]:
    """Run `cycles` full doubling cycles; returns every stage state."""
    states: list[DChainState] = []
    _run_into(states, allowed_cubes, cubes, cycles, caps)
    return states


def _run_into(states: list[DChainState], allowed_cubes, cubes, cycles, caps) -> None:
    # fills `states` as the run goes, so a budget stop leaves every stage
    # certified before it in place
    state = chain_start(allowed_cubes, cubes)
    states.append(state)
    for _ in range(cycles * state.dimension):
        if not state.blocks:
            break
        state = chain_relation(state, cubes, caps)
        states[-1] = state
        state = d_chain_step(state, cubes, caps)
        states.append(state)


def chain_report(
    spec: SftSpec,
    cubes: CubeSet,
    index: Sequence[Block],
    norm,
    levels: int,
    caps: Caps,
) -> AnalysisResult:
    """Analysis wrapper used for d != 2 problems."""
    rows: list[LevelRow] = []
    reason = None
    verdict = None
    states: list[DChainState] = []
    try:
        _run_into(states, index, cubes, levels, caps)
    except BudgetError as e:
        verdict = "inconclusive"
        reason = str(e)
    for st in states:
        label = "cubes" if st.stage == st.dimension else f"dir{st.stage}"
        rows.append(
            LevelRow(
                st.level,
                label,
                len(st.blocks),
                None if st.relation is None else len(st.relation),
            )
        )
    if any(not st.blocks for st in states):
        verdict = "empty"
        reason = None
    elif verdict is None:
        reached = states[-1].level if states and states[-1].stage == states[-1].dimension else 0
        verdict = f"nonempty-to-level-{reached}"
    report = LevelReport(
        "chain", norm.side, norm.cube_count, norm.allowed_count, tuple(rows), verdict, reason
    )
    return AnalysisResult(spec, cubes, tuple(index), (), report)
