import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit import Block, Pattern, concat, make_spec, normalize_to_cubes, window
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
