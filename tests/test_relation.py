import itertools
import json
import math
import random
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sftkit.chain
import sftkit.relation
from sftkit import Block, Pattern, concat, make_spec, normalize_to_cubes, parse_spec, window
from sftkit.cli import main
from sftkit.relation import join, pair_relation, seam_relation

from conftest import cube_set, naive_allowed, naive_allowed_set


@st.composite
def block_pairs(draw):
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=d, max_size=d)))
    cells = 1
    for s in shape:
        cells *= s
    data = st.tuples(*[st.integers(0, 2)] * cells)
    return shape, draw(data), draw(data), draw(st.integers(0, d - 1))


@settings(max_examples=200, deadline=None)
@given(block_pairs())
def test_join_equals_concat(case):
    shape, p, q, axis = case
    joined = concat(Block(shape, p), Block(shape, q), axis)
    assert join(p, q, shape, axis) == joined.data
    # independent of the kernel: the two aligned windows give back p and q
    high = tuple(shape[axis] if a == axis else 0 for a in range(len(shape)))
    assert window(joined, (0,) * len(shape), shape).data == p
    assert window(joined, high, shape).data == q


def _random_spec(seed: int, dimension: int):
    """Binary spec of random forbidden patterns of width 1 or 2."""
    rng = random.Random(seed)
    pats = []
    for _ in range(rng.randint(1, 4)):
        ext = [rng.randint(1, 2) for _ in range(dimension)]
        coords = list(itertools.product(*[range(e) for e in ext]))
        cells = rng.sample(coords, rng.randint(1, len(coords)))
        pats.append(Pattern.from_cells([(c, rng.randrange(2)) for c in cells]))
    return make_spec(dimension, ["0", "1"], pats)


def _naive_relation(datas, shape, axis, spec):
    joined = shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]
    return {
        (i, j)
        for i, p in enumerate(datas)
        for j, q in enumerate(datas)
        if naive_allowed(Block(joined, join(p, q, shape, axis)), spec.forbidden)
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.data())
def test_pair_relation_scan_branch(seed, dimension, data):
    # the seam join over any blocks, forbidden ones among them
    spec = _random_spec(seed, dimension)
    cubes = normalize_to_cubes(spec)
    shape = (cubes.side,) * dimension
    rng = random.Random(seed)
    cells = cubes.side**dimension
    datas = list({tuple(rng.randrange(2) for _ in range(cells)) for _ in range(12)})
    axis = data.draw(st.integers(0, dimension - 1))
    got = seam_relation(datas, shape, axis, cubes)
    assert got == _naive_relation(datas, shape, axis, spec)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.data())
def test_pair_relation_join_branch(seed, dimension, data):
    # pairing extent of at least twice the cube side over the complete
    # allowed set of the shape: middle-block lookups
    spec = _random_spec(seed, dimension)
    cubes = normalize_to_cubes(spec)
    axis = data.draw(st.integers(0, dimension - 1))
    shape = tuple(
        data.draw(st.integers(2 * cubes.side, 5)) if a == axis else cubes.side
        for a in range(dimension)
    )
    datas = sorted(naive_allowed_set(spec, shape))
    got = pair_relation(datas, shape, axis, cubes)
    assert got == _naive_relation(datas, shape, axis, spec)


# ---------------------------------------------------------------------------
# the seam join, over any blocks of a pairing extent in [l, 2l)


def _spec_of_side(rng: random.Random, dimension: int, side: int, count: int = 0):
    """Binary spec of `count` (else 1-4) random forbidden patterns of width
    at most `side`, one of them exactly `side` wide, so the cube side is
    `side`."""
    pats = []
    for n in range(count or rng.randint(1, 4)):
        ext = [rng.randint(1, side) for _ in range(dimension)]
        if n == 0:
            ext[rng.randrange(dimension)] = side
        coords = list(itertools.product(*[range(e) for e in ext]))
        # keep the far corner so the pattern spans its whole box
        cells = {tuple(e - 1 for e in ext), (0,) * dimension}
        cells |= set(rng.sample(coords, rng.randint(0, min(3, len(coords)))))
        pats.append(Pattern.from_cells([(c, rng.randrange(2)) for c in cells]))
    return make_spec(dimension, ["0", "1"], pats)


@st.composite
def seam_cases(draw):
    """A spec of cube side 1, 2 or 3, a block shape whose pairing extent
    lies in [l, 2l) and whose other axes are l or 2l, and a set of blocks of
    mixed density, so that it holds allowed and forbidden blocks alike."""
    side = draw(st.integers(1, 3))
    dimension = draw(st.integers(1, 2 if side == 3 else 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    spec = _spec_of_side(rng, dimension, side)
    axis = draw(st.integers(0, dimension - 1))
    shape = tuple(
        draw(st.integers(side, 2 * side - 1)) if a == axis else draw(st.sampled_from((side, 2 * side)))
        for a in range(dimension)
    )
    datas = set()
    for _ in range(draw(st.integers(1, 12))):
        ones = rng.choice((0.0, 0.15, 0.35, 0.6))
        datas.add(tuple(int(rng.random() < ones) for _ in range(math.prod(shape))))
    return spec, shape, axis, sorted(datas)


def _slab_counts(datas, shape, axis, side):
    # distinct top and bottom (side - 1)-slabs along `axis`, read by windows
    t = side - 1
    if t == 0:
        return 1, 1
    slab = tuple(t if a == axis else s for a, s in enumerate(shape))
    top = tuple(shape[axis] - t if a == axis else 0 for a in range(len(shape)))
    his = {window(Block(shape, p), top, slab).data for p in datas}
    los = {window(Block(shape, p), (0,) * len(shape), slab).data for p in datas}
    return len(his), len(los)


def _counted(fn):
    calls = []

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper, calls


@settings(max_examples=150, deadline=None)
@given(seam_cases())
def test_pair_relation_seam_slabs(case):
    spec, shape, axis, datas = case
    cubes = normalize_to_cubes(spec)
    assert cubes.side * 2 > shape[axis]
    scan, calls = _counted(sftkit.relation.allowed_data)
    with mock.patch.object(sftkit.relation, "allowed_data", scan):
        got = seam_relation(datas, shape, axis, cubes)
    assert got == _naive_relation(datas, shape, axis, spec)
    # one scan per block, plus one per distinct seam slab pair
    his, los = _slab_counts(datas, shape, axis, cubes.side)
    assert len(calls) <= len(datas) + his * los


def test_pair_relation_seam_slabs_on_a_cube_index_with_forbidden_cubes(hard_squares):
    # the level-0 matrices pair the full cube index, forbidden cubes included
    cubes = normalize_to_cubes(hard_squares)
    for shape, axis, step in (((2, 2), 0, 1), ((2, 2), 1, 1), ((4, 2), 1, 7), ((2, 4), 0, 7)):
        blocks = list(itertools.product(range(2), repeat=shape[0] * shape[1]))[::step]
        got = seam_relation(blocks, shape, axis, cubes)
        assert got == _naive_relation(blocks, shape, axis, hard_squares)


# no two 1s within distance 2 along a row or a column: cube side 3
SPREAD_ONES = {
    "dimension": 2,
    "symbols": ["0", "1"],
    "forbidden": [
        [["1", "1"]],
        [["1"], ["1"]],
        [[[0, 0], "1"], [[0, 2], "1"]],
        [[[0, 0], "1"], [[2, 0], "1"]],
    ],
}


def test_first_cycle_scans_follow_distinct_seam_slabs(tmp_path, monkeypatch, capsys):
    # for l = 3 the first cycle pairs at extent 3, below 2(l-1) = 4
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(SPREAD_ONES))
    scan, calls = _counted(sftkit.relation.allowed_data)
    monkeypatch.setattr(sftkit.relation, "allowed_data", scan)
    relations = []

    def pair(datas, shape, axis, cubes):
        before = len(calls)
        rel = pair_relation(datas, shape, axis, cubes)
        relations.append((len(datas), _slab_counts(datas, shape, axis, cubes.side), len(calls) - before))
        return rel

    monkeypatch.setattr(sftkit.chain, "pair_relation", pair)
    assert main(["analyze", str(path), "--levels", "1", "--format", "csv"]) == 0
    # 739 and 259,651 are `profile_count` of 6x3 and 6x6
    assert "0,rects,739,259651," in capsys.readouterr().out
    # the vertical relation of the cubes and the horizontal one of the stacks
    assert len(relations) == 2
    for n, (his, los), scans in relations:
        assert scans <= n + his * los
    # an all-pairs scan makes 34^2 + 739^2 = 547,277 of them
    assert len(calls) < 20000


def test_first_cycle_makes_no_window_scan_for_cubes_of_side_2(tmp_path, monkeypatch, capsys):
    # for l = 2 every pairing extent is at least 2(l-1) = 2, so every
    # relation of the walk is a middle join
    spec = {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "1"]], [["1"], ["1"]]]}
    path = tmp_path / "hs.json"
    path.write_text(json.dumps(spec))
    scan, calls = _counted(sftkit.relation.allowed_data)
    monkeypatch.setattr(sftkit.relation, "allowed_data", scan)
    assert main(["analyze", str(path), "--levels", "1", "--format", "csv"]) == 0
    assert "1,squares,1234," in capsys.readouterr().out
    assert calls == []


# complete allowed sets: (cube side l, dimension, pairing extent) at the
# extents 2(l-1), l and 2l, in blocks of at most 12 cells, since
# `naive_allowed_set` tests every one of the 2^cells blocks
_COMPLETE = [
    (side, d, extent)
    for side in (1, 2, 3)
    for d in (1, 2, 3)
    for extent in sorted({max(side, 2 * (side - 1)), side, 2 * side})
    if extent * side ** (d - 1) <= 12
]


def _spec_of_symbols(rng: random.Random, dimension: int):
    """Spec over three symbols that forbids one or two of them: cube side 1,
    and two or one allowed symbols a cell."""
    gone = rng.sample(range(3), rng.randint(1, 2))
    return make_spec(dimension, ["0", "1", "2"], [Pattern.from_cells([((0,) * dimension, s)]) for s in gone])


@st.composite
def complete_cases(draw):
    """A spec of cube side l drawn from `_COMPLETE`, and a block shape whose
    pairing axis has that case's extent and whose other axes are l."""
    side, dimension, extent = draw(st.sampled_from(_COMPLETE))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if side == 1:
        spec = _spec_of_symbols(rng, dimension)
    else:
        spec = _spec_of_side(rng, dimension, side, draw(st.integers(1, 8)))
    axis = draw(st.integers(0, dimension - 1))
    return spec, tuple(extent if a == axis else side for a in range(dimension)), axis


# l = 3 at extent 3 = 2(l-1) - 1: the window over cells 2-4 of a join lies
# in neither block nor in the middle block a cut at 1 would make
_GAP_ONES = {"dimension": 1, "symbols": ["0", "1"], "forbidden": [[[[0], "1"], [[2], "1"]]]}
_NO_TWOS = {"dimension": 2, "symbols": ["0", "1", "2"], "forbidden": [[["2"]]]}


@settings(max_examples=150, deadline=None)
@given(complete_cases())
@example((parse_spec(_GAP_ONES), (3,), 0))
@example((parse_spec(SPREAD_ONES), (3, 3), 0))
@example((parse_spec(SPREAD_ONES), (3, 3), 1))
@example((parse_spec(_NO_TWOS), (2, 1), 0))
def test_pair_relation_on_complete_allowed_sets(case):
    spec, shape, axis = case
    cubes = normalize_to_cubes(spec)
    datas = sorted(naive_allowed_set(spec, shape))
    # the naive relation joins and scans all n^2 pairs
    assume(len(datas) <= 64)
    rel = pair_relation(datas, shape, axis, cubes)
    _assert_groups_count_pairs(rel, _naive_relation(datas, shape, axis, spec))
    # the chain's `bytes` blocks take the same rule and keep the same groups
    assert pair_relation([bytes(p) for p in datas], shape, axis, cubes).groups == rel.groups


# ---------------------------------------------------------------------------
# relations held as key groups


def _assert_groups_count_pairs(rel, naive):
    pairs = list(rel)
    # every pair has one key, so the groups' sizes add up to distinct pairs
    assert len(rel) == len(set(pairs)) == len(pairs) == len(naive)
    assert len(rel) == sum(len(lows) * len(highs) for lows, highs in rel.groups)
    assert set(pairs) == naive


@settings(max_examples=100, deadline=None)
@given(seam_cases())
def test_grouped_relation_size_on_the_seam_branch(case):
    spec, shape, axis, datas = case
    rel = seam_relation(datas, shape, axis, normalize_to_cubes(spec))
    _assert_groups_count_pairs(rel, _naive_relation(datas, shape, axis, spec))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.data())
def test_grouped_relation_size_on_the_join_branch(seed, dimension, data):
    spec = _random_spec(seed, dimension)
    cubes = normalize_to_cubes(spec)
    axis = data.draw(st.integers(0, dimension - 1))
    shape = tuple(
        data.draw(st.integers(2 * cubes.side, 5)) if a == axis else cubes.side
        for a in range(dimension)
    )
    datas = sorted(naive_allowed_set(spec, shape))
    rel = pair_relation(datas, shape, axis, cubes)
    _assert_groups_count_pairs(rel, _naive_relation(datas, shape, axis, spec))


def test_grouped_relation_has_set_semantics(hard_squares):
    datas = sorted(naive_allowed_set(hard_squares, (2, 2)))
    rel = pair_relation(datas, (2, 2), 0, normalize_to_cubes(hard_squares))
    naive = frozenset(_naive_relation(datas, (2, 2), 0, hard_squares))
    assert rel == naive and naive == rel and rel == set(naive)
    assert hash(rel) == hash(naive)
    assert all(p in rel for p in naive) and (0, len(datas)) not in rel
    one = next(iter(naive))
    assert rel != naive - {one} and rel - {one} == naive - {one}
    assert isinstance(rel | naive, frozenset)
    assert pair_relation([], (2, 2), 0, normalize_to_cubes(hard_squares)) == frozenset()


def test_join_of_wide_blocks_past_the_gather_bound():
    # blocks past the cached gather's cell bound are joined chunk by chunk
    for shape, axis in (((3, 1500), 1), ((2, 40, 60), 1), ((2, 40, 60), 2)):
        n = math.prod(shape)
        assert n > sftkit.relation._GATHER_CELLS
        rng = random.Random(n + axis)
        p = tuple(rng.randrange(3) for _ in range(n))
        q = tuple(rng.randrange(3) for _ in range(n))
        doubled = tuple(2 * s if a == axis else s for a, s in enumerate(shape))
        joined = Block(doubled, join(p, q, shape, axis))
        high = tuple(shape[axis] if a == axis else 0 for a in range(len(shape)))
        assert window(joined, (0,) * len(shape), shape).data == p
        assert window(joined, high, shape).data == q


# ---------------------------------------------------------------------------
# the middle join over letter positions (the literal step's two joins)

from sftkit.relation import middle_join  # noqa: E402


def _naive_middle_pairs(datas, shape, axis):
    members = set(datas)
    cut = shape[axis] // 2
    offset = tuple(cut if a == axis else 0 for a in range(len(shape)))
    return {
        (i, j)
        for i, p in enumerate(datas)
        for j, q in enumerate(datas)
        if window(concat(Block(shape, p), Block(shape, q), axis), offset, shape).data in members
    }


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([((2, 2), 0), ((4, 2), 1)]),
    st.integers(2, 4),
    st.data(),
)
def test_middle_join_equals_naive_membership(case, letters, data):
    shape, axis = case
    cells = shape[0] * shape[1]
    datas = sorted(
        data.draw(st.sets(st.tuples(*[st.integers(0, letters - 1)] * cells), max_size=40))
    )
    rel = middle_join(datas, shape, axis)
    _assert_groups_count_pairs(rel, _naive_middle_pairs(datas, shape, axis))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([((2, 2), 0), ((4, 2), 1)]), st.integers(2, 4), st.data())
def test_middle_join_keeps_no_group_without_a_middle(case, letters, data):
    # a key whose middle block is missing admits no pair, and its group
    # would still be written to an archive
    shape, axis = case
    cells = shape[0] * shape[1]
    datas = sorted(data.draw(st.sets(st.tuples(*[st.integers(0, letters - 1)] * cells), max_size=40)))
    assert all(lows and highs for lows, highs in middle_join(datas, shape, axis).groups)


# ---------------------------------------------------------------------------
# `bytes` blocks, read as big-endian ints, against the same blocks as tuples

from sftkit.core import CubeSet  # noqa: E402
from sftkit.relation import _split, _split_keys, join_pairs  # noqa: E402

# shapes past the gather bound, so tuples are split and joined chunk by chunk
_WIDE = ((3, 1367), (1367, 3), (2, 41, 51), (5, 3, 275), (3, 5, 275))


def _cells(rng, count, k, nonzero):
    # `count` cells over k symbols, each nonzero with chance `nonzero`
    return [rng.randrange(1, k) if rng.random() < nonzero else 0 for _ in range(count)]


@st.composite
def coded_cases(draw):
    """Blocks of one shape over 2-4 symbols or all 256 byte values, in
    d = 1, 2, 3 with odd extents among them or past the gather bound, a
    pairing axis of extent at least 2 (mostly one that row-major slices
    cannot split), and cubes of a side that fits every axis. The blocks are
    windows of a random tape three blocks long along the pairing axis, so
    the middle join keeps pairs, plus a few random blocks; the cubes are
    windows of the tape too. Some draws zero every block's first cell, the
    int's leading byte."""
    wide = draw(st.integers(0, 9)) == 0
    if wide:
        shape = draw(st.sampled_from(_WIDE))
    else:
        d = draw(st.sampled_from((2, 3, 1, 2, 3)))
        shape = tuple(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    axes = [a for a, s in enumerate(shape) if s >= 2] or [0]
    inner = [a for a in axes if max(shape[:a], default=1) > 1]
    axis = draw(st.sampled_from(inner if inner and draw(st.integers(0, 3)) < 3 else axes))
    shape = shape[:axis] + (max(2, shape[axis]),) + shape[axis + 1 :]
    k = draw(st.sampled_from((2, 3, 4, 256)))
    side = max(1, min(3, *shape) - draw(st.integers(0, 2)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    extent, n = shape[axis], math.prod(shape)
    tape_shape = shape[:axis] + (3 * extent,) + shape[axis + 1 :]
    tape = Block(tape_shape, tuple(_cells(rng, 3 * n, k, rng.choice((0.1, 0.3, 1.0)))))
    # the middle of the windows at o and o + extent is the one at o + extent // 2
    starts = {0, 1, extent // 2, extent, extent + 1, extent + extent // 2, 2 * extent}
    offsets = [tuple(o if a == axis else 0 for a in range(len(shape))) for o in sorted(starts)]
    datas = [list(window(tape, o, shape).data) for o in offsets]
    datas += [_cells(rng, n, k, rng.choice((0.0, 0.1, 1.0))) for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        for cells in datas:
            cells[0] = 0
    # forbidden cubes cut from the tape, so that some blocks and seams hold them
    cube = (side,) * len(shape)
    corners = [tuple(rng.randrange(s - side + 1) for s in tape_shape) for _ in range(draw(st.integers(0, 4)))]
    blocks = sorted({bytes(cells) for cells in datas})
    forbidden = [window(tape, corner, cube).data for corner in corners]
    return shape, axis, blocks, _joins_cube_set(blocks, shape, axis, side, k, forbidden)


def _unit_axes_case(shape, axis, k, side, seed):
    # blocks of `shape` whose axes before `axis` all have length 1, cut from
    # a random tape three blocks long along `axis`, with cubes from the tape
    rng = random.Random(seed)
    extent, n = shape[axis], math.prod(shape)
    tape_shape = shape[:axis] + (3 * extent,) + shape[axis + 1 :]
    tape = Block(tape_shape, tuple(_cells(rng, 3 * n, k, 0.3)))
    offsets = [tuple(o if a == axis else 0 for a in range(len(shape))) for o in range(2 * extent + 1)]
    datas = [window(tape, o, shape).data for o in offsets]
    corners = [tuple(rng.randrange(s - side + 1) for s in tape_shape) for _ in range(3)]
    blocks = sorted({bytes(p) for p in datas})
    forbidden = [window(tape, corner, (side,) * len(shape)).data for corner in corners]
    return shape, axis, blocks, _joins_cube_set(blocks, shape, axis, side, k, forbidden)


def _joins_cube_set(blocks, shape, axis, side, k, forbidden):
    """The cube set that forbids the cubes of `forbidden` and allows every
    other l-cube that some join of two of the blocks along `axis` holds.
    Each window the seam join scans lies in such a join, so on these blocks
    it scans as the set that allows every other cube over k symbols, which
    is too large to list for 256 symbols or 3x3x3 cubes."""
    d = len(shape)
    joined = shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]
    outer, inner = math.prod(shape[:axis]), math.prod(shape[axis:])
    cube = list(itertools.product(range(side), repeat=d))

    def reads(src, starts):
        # one getter per window at `starts`, reading its cells and a sentinel
        st = [math.prod(src[a + 1 :]) for a in range(d)]
        return [
            itemgetter(*[sum((o + c) * s for o, c, s in zip(off, cell, st)) for cell in cube], -1)
            for off in itertools.product(*starts)
        ]

    inside = reads(shape, [range(s - side + 1) for s in shape])
    # the windows of a join that cross its seam
    seam = range(shape[axis] - side + 1, shape[axis])
    across = reads(joined, [seam if a == axis else range(j - side + 1) for a, j in enumerate(joined)])
    universe = set()
    for a in blocks:
        cells = [*a, None]
        universe.update(r(cells)[:-1] for r in inside)
    for a, b in itertools.product(blocks, repeat=2):
        cells = [x for o in range(outer) for half in (a, b) for x in half[o * inner : (o + 1) * inner]]
        cells.append(None)
        universe.update(r(cells)[:-1] for r in across)
    return cube_set(side, forbidden, k, d, sorted(universe))


@settings(max_examples=150, deadline=None)
@given(coded_cases())
@example(_unit_axes_case((7,), 0, 3, 2, 1))
@example(_unit_axes_case((4, 3), 0, 2, 2, 2))
@example(_unit_axes_case((5, 2, 3), 0, 4, 2, 3))
@example(_unit_axes_case((1, 6), 1, 256, 1, 4))
@example(_unit_axes_case((1, 4, 3), 1, 3, 1, 5))
def test_int_coded_bytes_match_the_tuple_path(case):
    shape, axis, datas, cubes = case
    tuples = [tuple(p) for p in datas]
    if math.prod(shape[:axis]) == 1:
        # the slice cut, made once for all blocks, gives `_split`'s halves
        for blocks, cut in itertools.product((datas, tuples), range(1, shape[axis])):
            assert list(_split_keys(blocks, shape, axis, cut)) == [_split(p, shape, axis, cut) for p in blocks]
    rel = middle_join(datas, shape, axis)
    assert rel.groups == middle_join(tuples, shape, axis).groups
    seam = seam_relation(datas, shape, axis, cubes)
    assert seam.groups == seam_relation(tuples, shape, axis, cubes).groups
    every = list(itertools.product(range(len(datas)), repeat=2))
    for pairs in (rel, seam, every):
        joined = join_pairs(datas, pairs, shape, axis)
        assert joined == [bytes(p) for p in join_pairs(tuples, pairs, shape, axis)]


def test_relation_against_other_types_and_repr():
    from sftkit.relation import Relation

    rel = Relation([((0, 1), (2,)), ((3,), (0, 1))])
    # only sets compare: a list of the same pairs is no relation
    assert rel.__eq__([(0, 2), (1, 2), (3, 0), (3, 1)]) is NotImplemented
    assert rel != [(0, 2), (1, 2), (3, 0), (3, 1)]
    assert rel == {(0, 2), (1, 2), (3, 0), (3, 1)}
    assert repr(rel) == "Relation(4 pairs in 2 groups)"


def test_relations_with_equal_groups_are_equal_without_their_pairs(monkeypatch):
    from sftkit.relation import Relation

    groups = [((0, 1), (2,)), ((3,), (0, 1))]
    a, b = Relation(groups), Relation(groups)
    # as many groups, fewer pairs
    assert a != Relation([((0,), (2,)), ((3,), (0, 1))])

    def no_pairs(self):
        raise AssertionError("the pairs were listed")

    monkeypatch.setattr(Relation, "pairs", no_pairs)
    assert a == b and not a != b


def test_relation_equality_is_symmetric_when_a_pair_repeats():
    from sftkit.relation import Relation

    # the same one pair, listed twice on the left: two sizes, one pair set
    repeated, once = Relation([([1, 1], [2])]), Relation([([1], [2])])
    assert len(repeated) == 2 and len(once) == 1
    assert repeated != once and once != repeated
    assert not repeated == once and not once == repeated


# ---------------------------------------------------------------------------
# the k-th joined block in sorted order, drawn from the key groups

from sftkit.relation import Relation, nth_join  # noqa: E402


def _scaled(case, factor):
    # the same blocks and cubes as tuples with every symbol times `factor`:
    # the same order, over more than 256 symbols when factor * k > 256
    shape, axis, datas, cubes = case
    # (a cube with any other symbol is forbidden too, and no block holds one)
    scaled = tuple(tuple(map(factor.__mul__, c)) for c in cubes.allowed)
    blocks = [tuple(factor * x for x in p) for p in datas]
    return blocks, CubeSet(cubes.side, scaled, factor * cubes.alphabet_size, cubes.dimension)


@settings(max_examples=150, deadline=None)
@given(coded_cases())
@example(_unit_axes_case((7,), 0, 3, 2, 1))
@example(_unit_axes_case((5, 2, 3), 0, 4, 2, 3))
@example(_unit_axes_case((1, 4, 3), 1, 3, 1, 5))
def test_nth_join_is_the_kth_sorted_join(case):
    shape, axis, datas, cubes = case
    n = len(datas)
    for blocks, cset in ((datas, cubes), _scaled(case, 1), _scaled(case, 300)):
        assert blocks == sorted(blocks)
        # one list on both sides, as the seam join keeps it for cubes of side 1
        ids = list(range(n))
        every = Relation([(ids, ids)])
        for rel in (middle_join(blocks, shape, axis), seam_relation(blocks, shape, axis, cset), every):
            want = sorted(join_pairs(blocks, rel, shape, axis))
            assert [nth_join(blocks, rel, shape, axis, k) for k in range(len(rel))] == want
            for k in (-1, len(rel)):
                with pytest.raises(IndexError):
                    nth_join(blocks, rel, shape, axis, k)
