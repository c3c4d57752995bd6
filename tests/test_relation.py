import itertools
import json
import math
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import sftkit.chain
import sftkit.relation
from sftkit import Block, Pattern, concat, make_spec, normalize_to_cubes, window
from sftkit.cli import main
from sftkit.relation import join, pair_relation

from conftest import naive_allowed, naive_allowed_set


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
    # pairing extent below twice the cube side: any blocks, scanned
    spec = _random_spec(seed, dimension)
    cubes = normalize_to_cubes(spec)
    shape = (cubes.side,) * dimension
    rng = random.Random(seed)
    cells = cubes.side**dimension
    datas = list({tuple(rng.randrange(2) for _ in range(cells)) for _ in range(12)})
    axis = data.draw(st.integers(0, dimension - 1))
    got = pair_relation(datas, shape, axis, cubes)
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
# the seam-slab branch (pairing extent below twice the cube side)


def _spec_of_side(rng: random.Random, dimension: int, side: int):
    """Binary spec of random forbidden patterns of width at most `side`,
    one of them exactly `side` wide, so the cube side is `side`."""
    pats = []
    for n in range(rng.randint(1, 4)):
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
        got = pair_relation(datas, shape, axis, cubes)
    assert got == _naive_relation(datas, shape, axis, spec)
    # one scan per block, plus one per distinct seam slab pair
    his, los = _slab_counts(datas, shape, axis, cubes.side)
    assert len(calls) <= len(datas) + his * los


def test_pair_relation_seam_slabs_on_a_cube_index_with_forbidden_cubes(hard_squares):
    # the level-0 matrices pair the full cube index, forbidden cubes included
    cubes = normalize_to_cubes(hard_squares)
    for shape, axis, step in (((2, 2), 0, 1), ((2, 2), 1, 1), ((4, 2), 1, 7), ((2, 4), 0, 7)):
        blocks = list(itertools.product(range(2), repeat=shape[0] * shape[1]))[::step]
        got = pair_relation(blocks, shape, axis, cubes)
        assert got == _naive_relation(blocks, shape, axis, hard_squares)


def test_first_cycle_scans_follow_distinct_seam_slabs(tmp_path, monkeypatch, capsys):
    spec = {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "1"]], [["1"], ["1"]]]}
    path = tmp_path / "hs.json"
    path.write_text(json.dumps(spec))
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
    assert "1,squares,1234," in capsys.readouterr().out
    # the vertical relation of the cubes and the horizontal one of the stacks
    assert len(relations) == 2
    for n, (his, los), scans in relations:
        assert scans <= n + his * los
    # an all-pairs scan makes 7^2 + 41^2 = 1730 of them
    assert len(calls) < 200


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
    rel = pair_relation(datas, shape, axis, normalize_to_cubes(spec))
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
from sftkit.relation import _seam_relation, join_pairs  # noqa: E402

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
    cubes = frozenset(window(tape, corner, cube) for corner in corners)
    return shape, axis, sorted({bytes(cells) for cells in datas}), CubeSet(side, cubes, k)


@settings(max_examples=150, deadline=None)
@given(coded_cases())
def test_int_coded_bytes_match_the_tuple_path(case):
    shape, axis, datas, cubes = case
    tuples = [tuple(p) for p in datas]
    rel = middle_join(datas, shape, axis)
    assert rel.groups == middle_join(tuples, shape, axis).groups
    seam = _seam_relation(datas, shape, axis, cubes)
    assert seam.groups == _seam_relation(tuples, shape, axis, cubes).groups
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
