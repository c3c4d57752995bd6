"""The chain walk behind `analyze`, `count --engine matrix` and `sample`,
and the d=2 level states read from its stages."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit import (
    DEFAULT_CAPS,
    BudgetError,
    analyze,
    assemble,
    chain_start,
    enumerate_allowed_cubes,
    level0_state,
    normalize_to_cubes,
    reduced_step,
    with_relations,
)
from sftkit.chain import chain_report

from conftest import hrel_quads, naive_allowed, naive_count, random_square_spec


def test_analyze_refuses_a_relation_before_building_its_stage(full_shift):
    # level 2's 65,536 squares would need 65536^2 vertical pair checks, so
    # they are counted from the level-1 horizontal relation but never built
    res = analyze(full_shift, 3, caps=DEFAULT_CAPS.but(max_work=10**5))
    rows = [(r.level, r.stage, r.block_count, r.relation_count) for r in res.report.rows]
    assert rows[-1] == (2, "squares", 65536, None)
    assert res.levels[-1].level == 1
    assert len(res.levels[-1].hrel) == 65536
    assert res.report.verdict == "inconclusive"
    assert "4294967296 pair checks" in res.report.reason


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**32))
def test_level0_relations_against_naive_oracle(seed):
    spec = random_square_spec(random.Random(seed), 4, 10)
    res = analyze(spec, 1)
    lvl0 = res.levels[0]
    sq = lvl0.squares
    for a, b, c, d in hrel_quads(lvl0):
        assert naive_allowed(assemble([[sq[a], sq[c]], [sq[b], sq[d]]]), spec.forbidden)
    assert len(lvl0.vrel) == naive_count(spec, (4, 2))
    assert len(lvl0.hrel) == len(res.levels[1].squares) == naive_count(spec, (4, 4))


def test_level_states_are_views_over_the_walk(hard_squares, checkerboard):
    # the level states analyze reads from chain stages equal the ones the
    # level functions build one level at a time
    for spec in (hard_squares, checkerboard):
        cubes = normalize_to_cubes(spec)
        st = level0_state(enumerate_allowed_cubes(spec, cubes), cubes)
        nxt = with_relations(reduced_step(st), need_hrel=False)
        res = analyze(spec, 2)
        assert res.levels[0] == st
        assert res.levels[1].squares == nxt.squares
        assert res.levels[1].vrel == nxt.vrel


def test_walk_passes_through_an_empty_intermediate_stage():
    # one allowed 2x2 cube that cannot sit on itself: the stacks stage is
    # empty and the walk goes on to the empty squares that certify it
    from sftkit import Pattern, make_spec
    import itertools

    keep = (0, 1, 1, 0)
    pats = [
        Pattern.from_cells([((0, 0), d[0]), ((0, 1), d[1]), ((1, 0), d[2]), ((1, 1), d[3])])
        for d in itertools.product(range(2), repeat=4)
        if d != keep
    ]
    spec = make_spec(2, ["0", "1"], pats)
    cubes = normalize_to_cubes(spec)
    stages = chain_report(chain_start(enumerate_allowed_cubes(spec, cubes), cubes), cubes, (3, 2))
    assert [(s.level, s.stage, len(s.blocks)) for s in stages] == [(0, 2, 1), (1, 1, 0), (1, 2, 0)]
    rows = [(r.level, r.stage, r.block_count, r.relation_count) for r in analyze(spec, 3).report.rows]
    assert rows == [(0, "squares", 1, 0), (0, "rects", 0, 0), (1, "squares", 0, None)]


def test_walk_without_the_target_ends_on_its_relation(hard_squares):
    cubes = normalize_to_cubes(hard_squares)
    start = chain_start(enumerate_allowed_cubes(hard_squares, cubes), cubes)
    stages = chain_report(start, cubes, (1, 2), build_target=False)
    assert [(s.level, s.stage) for s in stages] == [(0, 2), (1, 1)]
    assert len(stages[-1].relation) == 1234


def test_budget_stop_carries_the_certified_stages(d3_hard_cubes):
    cubes = normalize_to_cubes(d3_hard_cubes)
    start = chain_start(enumerate_allowed_cubes(d3_hard_cubes, cubes), cubes)
    with pytest.raises(BudgetError) as exc:
        chain_report(start, cubes, (1, 3), DEFAULT_CAPS.but(max_work=2000))
    # 35 cubes fit the cap; the stage of their 933 pairs is refused unbuilt
    assert [(s.level, s.stage, len(s.blocks)) for s in exc.value.partial] == [(0, 3, 35)]
    assert exc.value.required == len(exc.value.partial[-1].relation) ** 2 == 933**2
