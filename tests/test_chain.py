import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit import (
    DEFAULT_CAPS,
    BudgetError,
    Pattern,
    SpecError,
    analyze,
    block_allowed,
    enumerate_allowed_cubes,
    level0_state,
    make_spec,
    normalize_to_cubes,
    reduced_step,
    run_chain,
)
from sftkit.chain import stage_of, stage_shape

from conftest import naive_count


def _base(spec):
    cubes = normalize_to_cubes(spec)
    return enumerate_allowed_cubes(spec, cubes), cubes


def test_d1_no_adjacent_ones(d1_no_adjacent_ones):
    index, cubes = _base(d1_no_adjacent_ones)
    states = run_chain(index, cubes, 2)
    counts = [len(st.blocks) for st in states]
    assert counts[0] == 3  # allowed length-2 words
    assert counts[1] == 8  # allowed length-4 words
    assert counts[2] == naive_count(d1_no_adjacent_ones, (8,)) == 55
    for st in states:
        for blk in st.blocks:
            assert block_allowed(blk, cubes)


def test_d3_hard_cubes_base_and_one_direction(d3_hard_cubes):
    index, cubes = _base(d3_hard_cubes)
    assert len(index) == 35
    state = run_chain(index, cubes, 0)[0]
    assert len(state.blocks) == 35
    from sftkit import d_chain_step

    st1 = d_chain_step(state, cubes)
    assert st1.blocks[0].shape == (4, 2, 2)
    assert len(st1.blocks) == naive_count(d3_hard_cubes, (4, 2, 2))


def test_d2_chain_reproduces_reduced(hard_squares):
    index, cubes = _base(hard_squares)
    states = run_chain(index, cubes, 1)
    assert [len(st.blocks) for st in states] == [7, 41, 1234]
    st0 = level0_state(index, cubes)
    lvl1 = reduced_step(st0)
    # stage blocks coincide with pipeline squares / stacked rects exactly
    assert set(states[2].blocks) == set(lvl1.squares)
    stacked = {
        (a.data + b.data) for a, b in ((st0.squares[i], st0.squares[j]) for i, j in st0.vrel)
    }
    assert {b.data for b in states[1].blocks} == stacked


def test_d2_chain_second_cycle_middle_rule(checkerboard):
    index, cubes = _base(checkerboard)
    states = run_chain(index, cubes, 2)
    assert [len(st.blocks) for st in states] == [2, 2, 2, 2, 2]
    res = analyze(checkerboard, 2)
    assert set(states[4].blocks) == set(res.levels[2].squares)


def test_chain_empty_space(kill_all):
    index, cubes = _base(kill_all)
    states = run_chain(index, cubes, 2)
    assert len(states) == 1 and not states[0].blocks


def test_chain_budget(d3_hard_cubes):
    index, cubes = _base(d3_hard_cubes)
    with pytest.raises(BudgetError):
        run_chain(index, cubes, 1, DEFAULT_CAPS.but(max_work=100))


def test_analyze_routes_non_2d(d1_no_adjacent_ones, d3_hard_cubes):
    res = analyze(d1_no_adjacent_ones, 2)
    assert res.report.mode == "chain"
    assert res.report.verdict == "nonempty-to-level-2"
    counts = [r.block_count for r in res.report.rows]
    assert counts == [3, 8, 55]
    res3 = analyze(d3_hard_cubes, 0)
    assert res3.report.rows[0].block_count == 35
    assert res3.report.verdict == "nonempty-to-level-0"


@st.composite
def small_specs(draw):
    # binary specs of cube side 1-3 in d = 1, 2, 3 whose patterns are full
    # cubes: a few of them, or all but a few, so that walks go deep
    d, side = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    cells = list(itertools.product(range(side), repeat=d))
    every = list(itertools.product((0, 1), repeat=len(cells)))
    few = draw(st.sets(st.sampled_from(every), min_size=1, max_size=4))
    if draw(st.booleans()):
        few = set(every) - few
    return make_spec(d, ["0", "1"], [Pattern.from_cells(zip(cells, data)) for data in sorted(few)])


@settings(max_examples=40, deadline=None)
@given(small_specs())
def test_every_walked_stage_follows_the_stage_law(spec):
    index, cubes = _base(spec)
    try:
        stages = run_chain(index, cubes, 3, DEFAULT_CAPS.but(max_work=10**5, max_blocks=10**4))
    except BudgetError as e:
        stages = e.partial
    for state in stages:
        assert stage_shape(spec.dimension, cubes.side, state.level, state.stage) == state.shape
        assert stage_of(state.shape, cubes.side) == (state.level, state.stage)


def test_stage_of_accepts_exactly_the_stage_shapes():
    for d, side in itertools.product((1, 2, 3), (1, 2, 3)):
        law = [(0, d)] + [(n, i) for n in range(1, 5) for i in range(1, d + 1)]
        stages = {stage_shape(d, side, n, i): (n, i) for n, i in law}
        for shape in itertools.product(range(1, 17), repeat=d):
            if shape in stages:
                assert stage_of(shape, side) == stages[shape]
            else:
                with pytest.raises(SpecError, match="is not a doubling stage"):
                    stage_of(shape, side)
