import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftkit import (
    BudgetError,
    DEFAULT_CAPS,
    EmptyStateError,
    Pattern,
    SpecError,
    analyze,
    block_allowed,
    enumerate_allowed_cubes,
    level0_matrices,
    level0_state,
    make_spec,
    nine_window_admissible,
    normalize_to_cubes,
    reduced_step,
    sample_patch,
    step_literal,
    with_relations,
    witness_search,
)
from sftkit.chain import chain_report, chain_start, d_chain_step, spec_start
from sftkit.levels import level_states, sample_walk

from conftest import hrel_quads, naive_allowed, naive_count, random_square_spec


def _base(spec, caps=DEFAULT_CAPS):
    cubes = normalize_to_cubes(spec, caps=caps)
    return enumerate_allowed_cubes(spec, cubes, caps), cubes


def test_level0_hard_squares(hard_squares):
    index, cubes = _base(hard_squares)
    st = level0_state(index, cubes)
    assert len(st.squares) == 7
    assert len(st.vrel) == 41
    assert len(st.hrel) == 1234


def test_reduced_step_counts_and_soundness(hard_squares):
    index, cubes = _base(hard_squares)
    st = level0_state(index, cubes)
    nxt = reduced_step(st)
    assert nxt.level == 1 and nxt.side == 4
    assert len(nxt.squares) == 1234
    for sq in nxt.squares:
        assert block_allowed(sq, cubes)
    # canonical ordering: strictly increasing row-major data
    assert all(a.data < b.data for a, b in zip(nxt.squares, nxt.squares[1:]))


@pytest.mark.parametrize("name", ["full_shift", "hard_squares"])
def test_every_relation_the_engine_hands_out_is_a_relation(name, request):
    from sftkit.relation import Relation

    spec = request.getfixturevalue(name)
    index, cubes = _base(spec)
    walk = analyze(spec, 1).walk
    assert walk[-1].relation is not None
    assert all(type(st.relation) is Relation for st in walk if st.relation is not None)
    # level 1's horizontal relations only for the full shift: hard squares'
    # level-1 stacks are past the caps
    h1 = name == "full_shift"
    caps = DEFAULT_CAPS.but(max_work=10**8, max_index=70000)
    st0 = level0_state(index, cubes)
    lvl1 = with_relations(reduced_step(st0), caps, need_hrel=h1)
    lit0 = level0_matrices(index, cubes, caps)
    lit1 = step_literal(lit0, caps, compute_h=h1)
    rels = [st0.vrel, st0.hrel, lvl1.vrel, lit0.vert.ones, lit0.horiz.ones, lit0.pair_ones, lit1.vert.ones]
    if h1:
        rels += [lvl1.hrel, lit1.horiz.ones, lit1.pair_ones]
    assert all(type(rel) is Relation for rel in rels)
    assert st0.hrel is st0.stacks.relation
    assert lvl1.hrel is (lvl1.stacks.relation if h1 else None)


def test_checkerboard_relations(checkerboard):
    index, cubes = _base(checkerboard)
    st = level0_state(index, cubes)
    assert len(st.squares) == 2
    assert st.vrel == frozenset({(0, 0), (1, 1)})
    lvl1 = with_relations(reduced_step(st))
    assert len(lvl1.squares) == 2
    assert lvl1.vrel == frozenset({(0, 0), (1, 1)})


def test_nine_window_rule_matches_hrel(checkerboard):
    index, cubes = _base(checkerboard)
    st0 = level0_state(index, cubes)
    lvl1 = with_relations(reduced_step(st0))
    lvl2 = reduced_step(lvl1)
    from sftkit import assemble

    sq = lvl1.squares
    quads = hrel_quads(lvl1)
    admitted = set()
    for a in range(len(sq)):
        for b in range(len(sq)):
            for c in range(len(sq)):
                for d in range(len(sq)):
                    q = assemble([[sq[a], sq[c]], [sq[b], sq[d]]])
                    if nine_window_admissible(q, lvl1):
                        admitted.add(q)
                        assert (a, b, c, d) in quads
                    else:
                        assert (a, b, c, d) not in quads
    assert admitted == set(lvl2.squares)


def test_analyze_hard_squares(hard_squares):
    res = analyze(hard_squares, 1)
    rows = {(r.level, r.stage): (r.block_count, r.relation_count) for r in res.report.rows}
    assert rows[(0, "squares")] == (7, 41)
    assert rows[(0, "rects")] == (41, 1234)
    assert rows[(1, "squares")] == (1234, None)
    assert res.report.verdict == "nonempty-to-level-1"
    assert res.report.exit_code() == 0


def test_analyze_empty(kill_all):
    res = analyze(kill_all, 0)
    assert res.report.verdict == "empty"
    assert res.report.exit_code() == 2


def test_analyze_becomes_empty_later():
    # one allowed cube that cannot stack on itself: empty at level 1
    from sftkit import Pattern, make_spec
    import itertools

    keep = (0, 1, 1, 0)
    pats = [
        Pattern.from_cells([((0, 0), d[0]), ((0, 1), d[1]), ((1, 0), d[2]), ((1, 1), d[3])])
        for d in itertools.product(range(2), repeat=4)
        if d != keep
    ]
    spec = make_spec(2, ["0", "1"], pats)
    res = analyze(spec, 2)
    assert res.report.verdict == "empty"
    counts = [len(st.squares) for st in res.levels]
    assert counts[0] == 1 and counts[1] == 0


def test_analyze_full_shift(full_shift):
    res = analyze(full_shift, 2)
    sizes = {r.level: r.block_count for r in res.report.rows if r.stage == "squares"}
    assert sizes == {n: 2 ** ((2**n) ** 2) for n in range(3)}
    assert res.report.verdict == "nonempty-to-level-2"


def test_analyze_budget_inconclusive(hard_squares):
    res = analyze(hard_squares, 2, caps=DEFAULT_CAPS.but(max_work=1000))
    assert res.report.verdict == "inconclusive"
    assert res.report.exit_code() == 3
    assert "cap" in (res.report.reason or "")


def test_relations_need_cubes_and_analyze_a_known_mode(hard_squares):
    index, cubes = _base(hard_squares)
    without_cubes = level_states([chain_start(index, cubes)], None)[0]
    with pytest.raises(SpecError, match="forbidden cube set"):
        with_relations(without_cubes)
    with pytest.raises(SpecError, match="unknown engine mode 'bogus'"):
        analyze(hard_squares, 1, mode="bogus")


def test_count_monotonicity(hard_squares, checkerboard, full_shift):
    for spec in (hard_squares, checkerboard, full_shift):
        res = analyze(spec, 2, caps=DEFAULT_CAPS.but(max_work=10**6))
        if res.report.verdict == "inconclusive":
            continue
        counts = [len(st.squares) for st in res.levels]
        for a, b in zip(counts, counts[1:]):
            if b > 0:
                assert a > 0


def test_window_completeness_random_specs():
    rng = random.Random(99)
    for _ in range(6):
        spec = random_square_spec(rng, 5, 10)
        index, cubes = _base(spec)
        st = level0_state(index, cubes)
        assert len(st.vrel) == naive_count(spec, (4, 2))
        nxt = reduced_step(st)
        assert len(nxt.squares) == naive_count(spec, (4, 4))


def test_literal_reduced_equivalence_small(checkerboard, full_shift):
    for spec in (checkerboard, full_shift):
        index, cubes = _base(spec)
        st0 = level0_state(index, cubes)
        lit = level0_matrices(index, cubes)
        # base matrices against base relations, as letter-position tuples
        assert lit.vert.ones == st0.vrel
        lit_h = {(a, b, c, d) for (a, b), (c, d) in lit.pair_ones}
        assert lit_h == hrel_quads(st0)
        # vertical ones at the next level against vrel_1
        lvl1 = with_relations(reduced_step(st0), DEFAULT_CAPS.but(max_work=10**8))
        nxt = step_literal(lit, DEFAULT_CAPS.but(max_work=10**8, max_index=70000))
        pos = {b.data: i for i, b in enumerate(lvl1.squares)}
        row_map = [pos.get(b.data) for b in nxt.vert.row_blocks]
        mapped = {(row_map[r], row_map[c]) for r, c in nxt.vert.ones}
        assert None not in {m for pair in mapped for m in pair}
        assert mapped == set(lvl1.vrel)
        # horizontal ones at the next level against hrel_1
        letter_map = [pos.get(b.data) for b in nxt.letters]
        lit_h1 = {
            (letter_map[a], letter_map[b], letter_map[c], letter_map[d])
            for (a, b), (c, d) in nxt.pair_ones
        }
        assert lit_h1 == hrel_quads(lvl1)


def test_witness_hard_squares(hard_squares):
    res = witness_search(hard_squares, 3)
    assert res.block is not None
    assert res.block.shape == (16, 16)
    cubes = normalize_to_cubes(hard_squares)
    assert block_allowed(res.block, cubes)


def test_witness_checkerboard(checkerboard):
    res = witness_search(checkerboard, 2)
    assert res.block is not None and res.block.shape == (8, 8)
    data, side = res.block.data, 8
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                assert data[r * side + c] != data[r * side + c + 1]
            if r + 1 < side:
                assert data[r * side + c] != data[(r + 1) * side + c]


def test_witness_empty_space(kill_all):
    res = witness_search(kill_all, 2)
    assert res.block is None and res.empty
    assert "empty" in res.reason
    # no allowed cube: every level is empty, however deep, at no cost
    res = witness_search(kill_all, 1000)
    assert (res.block, res.nodes, res.reason, res.empty) == (None, 0, "no allowed cubes: the space is empty", True)


def test_witness_budget_exhaustion(hard_squares):
    res = witness_search(hard_squares, 3, DEFAULT_CAPS.but(witness_nodes=1))
    assert res.block is None
    assert "budget" in res.reason


def test_witness_levels_past_the_least_cost_are_not_searched(hard_squares):
    # the all-zero square is found first, one scanned join a stage: d n = 6
    # at level 3; a budget below 2^(d n) - 1 = 63 refuses the level up front
    assert witness_search(hard_squares, 3).nodes == 6
    assert witness_search(hard_squares, 3, DEFAULT_CAPS.but(witness_nodes=63)).block is not None
    res = witness_search(hard_squares, 3, DEFAULT_CAPS.but(witness_nodes=62))
    assert (res.block, res.nodes, res.reason) == (None, 0, "node budget 62 exhausted")


def test_witness_search_stops_when_its_budget_runs_out_mid_search():
    # the first witness costs 482 nodes; a budget of 2^(2*2) - 1 = 15
    # passes the up-front check and the search stops on its sixteenth node
    spec = random_square_spec(random.Random(6), 4, 10)
    assert witness_search(spec, 2).nodes == 482
    res = witness_search(spec, 2, DEFAULT_CAPS.but(witness_nodes=15))
    assert (res.block, res.nodes, res.reason) == (None, 16, "node budget 15 exhausted")


def test_witness_search_scans_each_join_once(monkeypatch):
    # each stage replays the blocks of the stage below, so no (low, high)
    # join of a stage is tested twice, and every test is one node: one scan
    # of the join's seam block (seams themselves repeat across joins)
    import sftkit.levels

    tested = []
    original = sftkit.levels.allowed_data

    def recorded(data, shape, cubes):
        stage = sys._getframe(1).f_locals  # the stage generator that tests
        tested.append((stage["n"], stage["i"], bytes(stage["low"]), bytes(stage["high"])))
        return original(data, shape, cubes)

    monkeypatch.setattr(sftkit.levels, "allowed_data", recorded)
    res = witness_search(random_square_spec(random.Random(6), 4, 10), 2)
    assert res.block is not None and len(tested) == res.nodes
    assert len(set(tested)) == len(tested)


def test_sample_patch_contracts(checkerboard):
    res = analyze(checkerboard, 1)
    lvl1 = res.levels[1]
    cubes = res.cubes
    for seed in (0, 1):
        patch = sample_patch(lvl1, seed)
        assert block_allowed(patch, cubes)
    assert sample_patch(lvl1, 7) == sample_patch(lvl1, 7)
    # singleton set: any seed returns the unique square
    from dataclasses import replace

    single = analyze(checkerboard, 0).levels[0]
    lone = replace(single, blocks=single.squares[:1])
    assert sample_patch(lone, 0) == single.squares[0]
    assert sample_patch(lone, 123) == single.squares[0]


def test_sample_patch_empty(kill_all):
    res = analyze(kill_all, 0)
    with pytest.raises(EmptyStateError):
        sample_patch(res.levels[0], 0)


def _drawn(spec, level, seed, caps, build):
    # the block of stage (level, d) that `sample` prints for `seed`, drawn
    # from the built stage or from the walk stopped one stage short; a stop
    # as its type and text
    cubes, _, start = spec_start(spec, caps)
    try:
        walk = chain_report(start, cubes, (level, spec.dimension), caps, build_target=build)
        return sample_patch(walk[-1], seed) if build else sample_walk(walk[-1], seed, caps)
    except (BudgetError, EmptyStateError) as e:
        return type(e), str(e)


def test_sample_walk_draws_what_sample_patch_draws_from_the_built_stage(
    hard_squares, checkerboard, d1_no_adjacent_ones, kill_all
):
    # "10" is the one allowed cube of `alternate`, and no length-4 block is
    # allowed: its level-1 relation is empty and its level 1 too
    pairs = ((0, 0), (1, 1), (0, 1))
    alternate = make_spec(1, ["0", "1"], [Pattern.from_cells([((0,), a), ((1,), b)]) for a, b in pairs])
    cases = [(hard_squares, 2), (checkerboard, 3), (d1_no_adjacent_ones, 3), (kill_all, 1), (alternate, 2)]
    stops = set()
    for (spec, top), blocks in itertools.product(cases, (1000, DEFAULT_CAPS.max_blocks)):
        caps = DEFAULT_CAPS.but(max_blocks=blocks)
        for level, seed in itertools.product(range(top + 1), (0, 1, 7, 12345)):
            drawn = _drawn(spec, level, seed, caps, build=False)
            assert drawn == _drawn(spec, level, seed, caps, build=True)
            if isinstance(drawn, tuple):
                stops.add(drawn)
    assert stops == {
        (BudgetError, "next stage would hold 1234 blocks (cap 1000)"),
        (BudgetError, "next stage would hold 2584 blocks (cap 1000)"),
        (BudgetError, "chain relation needs 1200889414201 pair checks (cap 10000000)"),
        (EmptyStateError, "no allowed blocks at level 0"),
        (EmptyStateError, "no allowed blocks at level 1"),
    }


def test_sample_walk_refuses_the_asked_stage_by_its_cells(hard_squares):
    # stage (1, 2) of hard squares would hold 1,234 blocks of 16 cells
    cubes, _, start = spec_start(hard_squares)
    last = chain_report(start, cubes, (1, 2), build_target=False)[-1]
    with pytest.raises(BudgetError) as exc:
        sample_walk(last, 7, DEFAULT_CAPS.but(max_cells=19743))
    assert str(exc.value) == "next stage needs 19744 cells (cap 19743)"
    assert sample_walk(last, 7, DEFAULT_CAPS.but(max_cells=19744)) == sample_patch(d_chain_step(last, cubes), 7)


def test_analyze_literal_work_stop_keeps_vertical_level(full_shift):
    # the level-1 horizontal pass is refused by max_work after the vertical
    # matrix is built; the vertical row stays in the report
    res = analyze(full_shift, 2, mode="literal", caps=DEFAULT_CAPS.but(max_work=1000))
    rows = [(r.level, r.stage, r.block_count, r.relation_count) for r in res.report.rows]
    assert rows == [(0, "vert", 2, 4), (0, "horiz", 4, 16), (1, "vert", 16, 256)]
    assert res.report.verdict == "inconclusive"
    assert "stack pairs" in res.report.reason


def test_analyze_reduced_base_horizontal_stop_keeps_vrel(hard_squares):
    res = analyze(hard_squares, 1, caps=DEFAULT_CAPS.but(max_work=1000))
    rows = [(r.level, r.stage, r.block_count, r.relation_count) for r in res.report.rows]
    assert rows == [(0, "squares", 7, 41), (0, "rects", 41, None)]
    assert res.report.verdict == "inconclusive"


_SQUARES = list(itertools.product(range(2), repeat=4))
# with at most 4 of the 16 binary 2x2 cubes allowed, both modes reach level
# 2 without a stop: the literal horizontal index of k^8 letter pairs fits,
# and so does every such spec's pair work under the default max_work
_BOTH_MODES_FIT = DEFAULT_CAPS.but(max_index=4**8)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(_SQUARES), max_size=4), st.integers(1, 2))
@example({(0, 0, 0, 0)}, 2)
@example({(1, 0, 0, 1)}, 1)  # one allowed cube, with no pair either way
def test_literal_ones_are_the_reduced_relation_counts(allowed, level):
    # the literal level-n matrices are the reduced level-n relations: vert
    # ones count the squares' pairs, horiz ones the stacks' (rects') pairs
    cells = ((0, 0), (0, 1), (1, 0), (1, 1))
    forbidden = [Pattern.from_cells(zip(cells, q)) for q in _SQUARES if q not in allowed]
    spec = make_spec(2, ["0", "1"], forbidden)
    literal = analyze(spec, level, "literal", _BOTH_MODES_FIT).report
    reduced = analyze(spec, level, "reduced", _BOTH_MODES_FIT).report
    assert literal.reason is None and reduced.reason is None
    relations = {(r.level, r.stage): r.relation_count for r in reduced.rows}
    stage = {"vert": "squares", "horiz": "rects"}
    for row in literal.rows:
        assert row.relation_count == relations[row.level, stage[row.stage]]
    assert literal.verdict == reduced.verdict


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3))
@example(11, 1)
@example(0, 1)
def test_witness_is_an_allowed_square_of_its_level(seed, level):
    # at level 1 the default budget covers every join of the allowed 2x2
    # cubes, so the search certifies emptiness exactly when no 4x4 exists
    spec = random_square_spec(random.Random(seed), 4, 12)
    res = witness_search(spec, level)
    if res.block is not None:
        assert res.block.shape == (2 << level, 2 << level)
        assert naive_allowed(res.block, spec.forbidden)
    if level == 1:
        assert res.empty == (naive_count(spec, (4, 4)) == 0)
        assert res.empty == (res.reason == "search space exhausted: level 1 is empty")


def _only_allowed(d: int, codes):
    # the binary spec whose allowed 2-cubes are `codes` read as bit strings
    cells = list(itertools.product(range(2), repeat=d))
    allowed = {tuple((c >> k) & 1 for k in reversed(range(len(cells)))) for c in codes}
    cubes = itertools.product(range(2), repeat=len(cells))
    return make_spec(d, ["0", "1"], [Pattern.from_cells(zip(cells, q)) for q in cubes if q not in allowed])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.sets(st.integers(0, 255), min_size=1, max_size=6), st.integers(0, 3))
@example(1, {0b01}, 1)  # 01 tiles with no copy of itself: level 1 is empty
@example(2, {0b0110}, 1)  # lone_cube
@example(3, {0b01101001}, 1)  # one 3-d checkerboard cube: empty too
def test_an_exhausted_witness_search_is_an_empty_chain_stage(d, codes, level):
    # the search is complete: unless its budget stops it, it certifies
    # emptiness exactly when chain stage (n, d) is empty, and a witness it
    # finds is an allowed block of that stage
    spec = _only_allowed(d, {c % 2 ** 2**d for c in codes})
    level = min(level, 4 - d)
    caps = DEFAULT_CAPS.but(max_work=10**5, witness_nodes=20_000)
    res = witness_search(spec, level, caps)
    cubes, _, start = spec_start(spec, caps)
    try:
        stages = chain_report(start, cubes, (level, d), caps)
    except BudgetError as e:
        stages = e.partial
    last = stages[-1]
    reached = (last.level, last.stage) == (level, d)
    if res.block is not None:
        assert res.block.shape == (cubes.side << level,) * d
        assert naive_allowed(res.block, spec.forbidden)
        assert not reached or res.block in last.blocks
    if res.block is None and not res.empty:
        assert res.reason == "node budget 20000 exhausted"
    elif reached or not last.blocks:
        assert res.empty == (not last.blocks)


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 3))
def test_witness_in_one_and_three_dimensions(d1_no_adjacent_ones, d3_hard_cubes, level):
    for spec in (d1_no_adjacent_ones, d3_hard_cubes):
        res = witness_search(spec, level)
        assert res.block.shape == (2 << level,) * spec.dimension
        assert naive_allowed(res.block, spec.forbidden)


def test_reduced_step_builds_the_stacks_once(hard_squares, monkeypatch):
    # level0_state builds stage (1, 1) for its hrel; reduced_step steps on
    # from it instead of building it again
    import sftkit.chain
    import sftkit.levels

    made = []
    original = sftkit.chain.d_chain_step

    def counted(state, *a, **k):
        out = original(state, *a, **k)
        made.append((out.level, out.stage))
        return out

    monkeypatch.setattr(sftkit.chain, "d_chain_step", counted)
    monkeypatch.setattr(sftkit.levels, "d_chain_step", counted)
    index, cubes = _base(hard_squares)
    nxt = reduced_step(level0_state(index, cubes))
    assert made == [(1, 1), (1, 2)]
    assert len(nxt.squares) == 1234


def test_reduced_step_of_an_empty_level_is_empty(kill_all):
    # an empty level has an empty stacks stage with its (empty) relation,
    # so its hrel is empty and the step gives an empty next level
    index, cubes = _base(kill_all)
    st = level0_state(index, cubes)
    assert st.squares == () and st.stacks.blocks == () and st.stacks.relation == set()
    assert st.hrel == set()
    nxt = reduced_step(st)
    assert nxt.level == 1 and nxt.squares == ()
