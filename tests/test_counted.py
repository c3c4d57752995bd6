"""Relations counted from the key groups below them: a stage the walk steps
is built only when its blocks are read, and its relation's size is counted
from the stage it was stepped from (`relation.joined_pair_count`), with the
groups built only when read. The counts, and the blocks and groups built on
read, are the ones the eager walk builds; a walk that reads its last stage
never counts."""
import itertools
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import sftkit.chain
from sftkit import DEFAULT_CAPS, BudgetError, Pattern, analyze, make_spec, parse_spec
from sftkit.chain import chain_relation, chain_report, d_chain_step, spec_start
from sftkit.cli import main
from sftkit.relation import joined_pair_count, pair_relation

CAPS = DEFAULT_CAPS.but(max_work=2 * 10**6, max_blocks=10**4, max_cells=10**6)

HS = {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "1"]], [["1"], ["1"]]]}
# a sparse spec whose walk stops on the pair check after its last relation
SPARSE = {
    "dimension": 2,
    "symbols": ["0", "1"],
    "forbidden": [
        [["0", "0"], ["0", "1"]], [["0", "0"], ["1", "0"]], [["0", "1"], ["1", "0"]], [["1", "0"], ["0", "0"]],
        [["1", "0"], ["0", "1"]], [["1", "0"], ["1", "0"]], [["1", "1"], ["0", "1"]], [["1", "1"], ["1", "1"]],
    ],
}


def _pattern(cells) -> Pattern:
    return Pattern.from_cells(cells)


# one allowed 2x2 cube, which cannot sit on itself: the walk passes through
# the empty stacks stage and ends on the empty level-1 squares
_KEEP = (0, 1, 1, 0)
LONE_CUBE = make_spec(2, ["0", "1"], [
    _pattern([((0, 0), a), ((0, 1), b), ((1, 0), c), ((1, 1), d)])
    for a, b, c, d in itertools.product(range(2), repeat=4)
    if (a, b, c, d) != _KEEP
])
# d = 1, with a relation that reads differently backwards: no 10, 20 or 21
UPHILL = make_spec(1, ["0", "1", "2"], [_pattern([((0,), a), ((1,), b)]) for a, b in ((1, 0), (2, 0), (2, 1))])
# l = 1: every pair of allowed blocks is kept
ONE_CELL = make_spec(2, ["0", "1", "2"], [_pattern([((0, 0), 2)])])


def _rows(width: int):
    """Constant columns whose rows hold no 11 and no 1 at both ends of a
    cube-wide window: cubes of side `width`, and few of them."""
    return make_spec(2, ["0", "1"], [
        _pattern([((0, 0), 0), ((1, 0), 1)]),
        _pattern([((0, 0), 1), ((1, 0), 0)]),
        _pattern([((0, 0), 1), ((0, 1), 1)]),
        _pattern([((0, 0), 1), ((width - 1, width - 1), 1)]),
    ])


# l = 3: the first cycle's stacks pair by the seam-slab join
SEAM = _rows(3)


@st.composite
def small_specs(draw):
    """Specs of d = 1-3 axes, k = 1-3 symbols and cube side l = 1-3 with at
    most 3^9 candidate cubes: up to ten forbidden patterns, of one cell for
    l = 1 and of two cells of the l-box for l > 1, and for l > 1 one more
    that spans the box. One symbol makes a two-cell pattern forbid
    everything, so k = 1 comes with l = 1 only."""
    d, k, l = draw(st.sampled_from([
        (d, k, l) for d, k, l in itertools.product((1, 2, 3), repeat=3) if k ** (l**d) <= 3**9 and (k > 1 or l == 1)
    ]))
    box = list(itertools.product(range(l), repeat=d))
    size = min(l, 2)
    cells = st.lists(st.sampled_from(box), min_size=size, max_size=size, unique=True)
    pats = [
        _pattern([(c, draw(st.integers(0, k - 1))) for c in support])
        for support in draw(st.lists(cells, max_size=10))
    ]
    if l > 1:
        pats.append(_pattern([((0,) * d, draw(st.integers(0, k - 1))), ((l - 1,) * d, draw(st.integers(0, k - 1)))]))
    return make_spec(d, [str(s) for s in range(k)], pats)


def _walk(spec, levels: int, lazy: bool):
    cubes, _, start = spec_start(spec, CAPS)
    try:
        stages = chain_report(start, cubes, (levels, spec.dimension), CAPS, build_target=False, lazy=lazy)
    except BudgetError as e:
        stages = e.partial
    return cubes, stages


def _counted(below, cubes):
    """The stage stepped unbuilt from the built stage `below`, with its
    relation, and the count `joined_pair_count` gives for it."""
    stepped = d_chain_step(below, cubes, CAPS)
    assert not stepped.blocks.built
    size = joined_pair_count(
        below.blocks.datas, below.relation, below.shape, below.next_axis(), stepped.next_axis(), cubes.side
    )
    return chain_relation(stepped, cubes, CAPS), size


@example(parse_spec(SPARSE))
@example(UPHILL)
@example(LONE_CUBE)
@example(ONE_CELL)
@example(SEAM)
@given(small_specs())
@settings(max_examples=200, deadline=None)
def test_counted_relations_are_the_ones_the_built_stages_give(spec):
    cubes, eager = _walk(spec, 2, lazy=False)
    _, lazy = _walk(spec, 2, lazy=True)
    # the lazy walk certifies the same rows, and what it builds on read is
    # what the eager walk built
    assert len(lazy) == len(eager)
    for a, b in zip(lazy, eager):
        assert (a.level, a.stage, len(a.blocks)) == (b.level, b.stage, len(b.blocks))
        assert (a.relation is None) == (b.relation is None)
        if a.relation is not None:
            assert len(a.relation) == len(b.relation)
            assert a.relation.groups == b.relation.groups
        assert a.blocks.datas == b.blocks.datas
    # every rung the walk reaches, stepped unbuilt and counted from the one below
    t = cubes.side - 1
    for below, built in zip(eager, eager[1:]):
        if built.relation is None:
            continue
        state, size = _counted(below, cubes)
        built_rel = pair_relation(built.blocks.datas, built.shape, built.next_axis(), cubes)
        seam = t > 0 and built.shape[built.next_axis()] < 2 * t
        assert (size is None) == seam
        assert state.blocks.built == seam
        assert len(state.relation) == len(built_rel) == len(built.relation)
        if size is not None:
            assert size == len(built_rel)
        assert state.blocks.datas == built.blocks.datas
        assert state.relation.groups == built_rel.groups


def test_the_walk_counts_an_empty_intermediate_stage_and_ends_on_the_empty_cubes():
    cubes, stages = _walk(LONE_CUBE, 3, lazy=True)
    assert [(s.level, s.stage, len(s.blocks)) for s in stages] == [(0, 2, 1), (1, 1, 0), (1, 2, 0)]
    # the stacks' relation is counted, and the empty squares the walk ends
    # on get none
    assert len(stages[1].relation) == 0 and stages[1].relation.groups == ()
    assert stages[-1].relation is None
    rows = [(r.level, r.stage, r.block_count, r.relation_count) for r in analyze(LONE_CUBE, 3).report.rows]
    assert rows == [(0, "squares", 1, 0), (0, "rects", 0, 0), (1, "squares", 0, None)]


def test_one_cell_cubes_count_every_pair():
    cubes, stages = _walk(ONE_CELL, 2, lazy=False)
    for below, built in zip(stages, stages[1:]):
        state, size = _counted(below, cubes)
        assert size == len(below.relation) ** 2 == len(state.relation) == len(built.relation)
        assert state.blocks.datas == built.blocks.datas


def test_the_seam_regime_is_built_not_counted():
    # l = 3 stacks pair along an axis of extent 3 < 2(l-1); l = 4 stacks
    # along one of extent 4 < 6, where the middle rule would be wrong
    for spec, side in ((SEAM, 3), (_rows(4), 4)):
        cubes, stages = _walk(spec, 1, lazy=False)
        assert cubes.side == side and [(s.level, s.stage) for s in stages] == [(0, 2), (1, 1)]
        state, size = _counted(stages[0], cubes)
        assert size is None and state.blocks.built
        assert state.relation == stages[1].relation


# ---------------------------------------------------------------------------
# what the walk joins, hash-joins and counts


def _file(tmp_path, doc, name):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _kernel_calls(monkeypatch) -> list:
    """Each stage the walk joins ("join", with the shape it makes), pairs
    ("pair", with the shape it pairs) or counts ("count", with the shape it
    counts the relation of) from now on."""
    calls = []
    join_pairs, pair_relation_, count = sftkit.chain.join_pairs, sftkit.chain.pair_relation, sftkit.chain.joined_pair_count

    def joined(datas, pairs, shape, axis):
        calls.append(("join", shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]))
        return join_pairs(datas, pairs, shape, axis)

    def paired(datas, shape, axis, cubes):
        calls.append(("pair", shape))
        return pair_relation_(datas, shape, axis, cubes)

    def counted(datas, rel, shape, axis, next_axis, side):
        calls.append(("count", shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]))
        return count(datas, rel, shape, axis, next_axis, side)

    monkeypatch.setattr(sftkit.chain, "join_pairs", joined)
    monkeypatch.setattr(sftkit.chain, "pair_relation", paired)
    monkeypatch.setattr(sftkit.chain, "joined_pair_count", counted)
    return calls


def test_count_8x4_never_builds_the_stage_below_its_target(tmp_path, monkeypatch, capsys):
    # the 1,234 level-1 squares are counted from the 41 stacks' relation
    calls = _kernel_calls(monkeypatch)
    assert main(["count", _file(tmp_path, HS, "hs.json"), "--engine", "matrix", "--shape", "8x4"]) == 0
    assert capsys.readouterr().out.strip() == "1095851"
    assert calls == [("pair", (2, 2)), ("join", (4, 2)), ("pair", (4, 2)), ("count", (4, 4))]


def test_analyze_stopped_by_the_pair_check_never_builds_its_last_stage(tmp_path, monkeypatch, capsys):
    calls = _kernel_calls(monkeypatch)
    assert main(["analyze", _file(tmp_path, SPARSE, "sparse.json"), "--levels", "3", "--format", "csv"]) == 3
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "1,rects,820,4090,inconclusive",
        "2,squares,4090,,inconclusive",
    ]
    # the 820 stacks of 8x4 cells are neither joined nor paired: their
    # relation is counted from the 75 level-1 squares, which were counted
    # too, as a walk may stop at a stage of 75 blocks
    assert ("join", (8, 4)) not in calls and ("pair", (8, 4)) not in calls
    assert [c for c in calls if c[0] == "count"] == [("count", (4, 4)), ("count", (8, 4))]


def test_walks_that_read_their_last_stage_count_nothing(tmp_path, monkeypatch, capsys):
    # export-state, import-state and sample read the stage below the
    # target: it is built once, and no rung is counted and built too
    calls = _kernel_calls(monkeypatch)
    for doc, name in ((HS, "hs.json"), (SPARSE, "sparse.json")):
        path, state = _file(tmp_path, doc, name), str(tmp_path / "state.json")
        code = main(["export-state", path, "--levels", "2", "--out", state])
        assert main(["import-state", state]) == code
        assert main(["sample", path, "--level", "1", "--seed", "7"]) == 0
    capsys.readouterr()
    assert calls and not [c for c in calls if c[0] == "count"]


def test_the_walk_counts_only_where_it_may_stop(hard_squares, monkeypatch):
    # the 41 stacks' relation keeps at most 41^2 pairs, which no cap stops:
    # they are built; the 1,234 level-1 squares' relation is counted, and
    # its 1,095,851 pairs stop the walk
    calls = _kernel_calls(monkeypatch)
    res = analyze(hard_squares, 2)
    assert res.report.rows[-1].block_count == 1095851
    assert [c for c in calls if c[0] == "count"] == [("count", (4, 4))]
    assert ("join", (4, 2)) in calls and ("join", (4, 4)) not in calls
