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
