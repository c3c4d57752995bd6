import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit import (
    Block,
    CubeSet,
    Pattern,
    ShapeError,
    SpecError,
    WindowRangeError,
    assemble,
    block_allowed,
    concat,
    make_spec,
    pattern_width,
    window,
)

from conftest import naive_occurs


def test_pattern_width_single_cell():
    assert pattern_width(Pattern.from_cells([((0, 0), 0)])) == 1


def test_pattern_width_domino():
    p = Pattern.from_cells([((0, 0), 1), ((0, 1), 1)])
    assert pattern_width(p) == 2


def test_pattern_width_l_shape():
    p = Pattern.from_cells([((0, 0), 0), ((1, 0), 0), ((1, 1), 0), ((2, 1), 0)])
    assert pattern_width(p) == 3


def test_pattern_anchoring():
    p = Pattern.from_cells([((5, 3), 1), ((6, 3), 0)])
    assert p.cells == (((0, 0), 1), ((1, 0), 0))


def test_pattern_rejects_empty_and_conflicts():
    with pytest.raises(SpecError):
        Pattern.from_cells([])
    with pytest.raises(SpecError):
        Pattern.from_cells([((0, 0), 0), ((0, 0), 1)])


def test_block_rejects_bad_shapes():
    with pytest.raises(ShapeError, match="data length 3 does not match shape"):
        Block((2, 2), (0, 1, 0))
    with pytest.raises(ShapeError, match="extents must be positive"):
        Block((0, 2), ())


def test_window_identity():
    b = Block((2, 2), (0, 1, 2, 3))
    assert window(b, (0, 0), b.shape) == b


def test_window_bottom_row():
    b = Block((2, 2), (0, 1, 2, 3))  # rows: (0,1) / (2,3)
    assert window(b, (1, 0), (1, 2)) == Block((1, 2), (2, 3))


def test_window_central():
    b = Block((4, 4), tuple(range(16)))
    assert window(b, (1, 1), (2, 2)) == Block((2, 2), (5, 6, 9, 10))


def test_window_out_of_range():
    b = Block((2, 2), (0, 1, 2, 3))
    with pytest.raises(WindowRangeError):
        window(b, (1, 1), (2, 2))
    with pytest.raises(WindowRangeError):
        window(b, (0, 0), (3, 1))


def test_assemble_identity():
    b = Block((2, 2), (0, 1, 2, 3))
    assert assemble([[b]]) == b


def test_assemble_vertical_stack():
    top, bottom = Block((1, 1), (0,)), Block((1, 1), (1,))
    assert assemble([[top], [bottom]]) == Block((2, 1), (0, 1))


def test_assemble_window_round_trip():
    blocks = [[Block((2, 2), tuple(range(i * 4, i * 4 + 4))) for i in (j, j + 2)] for j in (0, 4)]
    big = assemble(blocks)
    assert big.shape == (4, 4)
    for gr in range(2):
        for gc in range(2):
            assert window(big, (2 * gr, 2 * gc), (2, 2)) == blocks[gr][gc]


def test_assemble_shape_mismatch():
    with pytest.raises(ShapeError):
        assemble([[Block((1, 1), (0,)), Block((1, 2), (0, 1))]])


def test_concat_axes():
    a, b = Block((2, 2), (0, 1, 2, 3)), Block((2, 2), (4, 5, 6, 7))
    assert concat(a, b, 0) == Block((4, 2), (0, 1, 2, 3, 4, 5, 6, 7))
    assert concat(a, b, 1) == Block((2, 4), (0, 1, 4, 5, 2, 3, 6, 7))


HARD_CUBES = CubeSet(
    2,
    frozenset(
        Block((2, 2), data)
        for data in itertools.product(range(2), repeat=4)
        if (data[0] and data[1]) or (data[2] and data[3]) or (data[0] and data[2]) or (data[1] and data[3])
    ),
    2,
)


def test_block_allowed_empty_cube_set():
    empty = CubeSet(1, frozenset(), 2)
    assert block_allowed(Block((3, 3), (1,) * 9), empty)


def test_block_allowed_hard_squares():
    assert block_allowed(Block((2, 2), (0, 0, 0, 0)), HARD_CUBES)
    bad = [0] * 16
    bad[1 * 4 + 1] = 1
    bad[1 * 4 + 2] = 1
    assert not block_allowed(Block((4, 4), tuple(bad)), HARD_CUBES)


def test_scan_block_undersized_flag():
    # a block thinner than the cube side holds no cube, so it is allowed
    assert block_allowed(Block((1, 3), (1, 1, 1)), HARD_CUBES)


def test_block_allowed_alphabet_mismatch():
    with pytest.raises(SpecError):
        block_allowed(Block((2, 2), (0, 2, 0, 0)), HARD_CUBES)


SQUARE = Block((2, 2), (0, 0, 0, 0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Pattern.from_cells([((0, 0), 1), ((1,), 1)]), SpecError, "cells must share one dimension"),
        (lambda: window(SQUARE, (0,), (1, 1)), WindowRangeError, "offset/shape dimension mismatch"),
        (lambda: assemble([[SQUARE, SQUARE], [SQUARE]]), ShapeError, "grid is not rectangular"),
        (lambda: assemble([[[Block((1,), (0,))]]]), ShapeError, "grid depth must equal block dimension"),
        (lambda: concat(SQUARE, Block((1, 2), (0, 0)), 0), ShapeError, "mixed block shapes (2, 2) vs (1, 2)"),
        (lambda: CubeSet(2, frozenset({Block((1, 2), (0, 0))}), 2), SpecError, "cube of shape (1, 2) in a side-2 set"),
        (lambda: block_allowed(Block((2, 2, 2), (0,) * 8), HARD_CUBES), SpecError, "block dimension 3 does not match"),
    ],
    ids=["mixed-pattern-cells", "window-offset", "ragged-grid", "deep-grid", "concat-shapes", "cube-shape", "block-dimension"],
)
def test_typed_errors_name_their_cause(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@st.composite
def grids(draw):
    d = draw(st.integers(1, 2))
    gshape = tuple(draw(st.integers(1, 3)) for _ in range(d))
    bshape = tuple(draw(st.integers(1, 2)) for _ in range(d))
    cells = 1
    for s in bshape:
        cells *= s

    def blk():
        return Block(bshape, tuple(draw(st.integers(0, 2)) for _ in range(cells)))

    def nest(shape):
        if len(shape) == 1:
            return [blk() for _ in range(shape[0])]
        return [nest(shape[1:]) for _ in range(shape[0])]

    return gshape, bshape, nest(gshape)


@given(grids())
@settings(max_examples=60, deadline=None)
def test_window_assemble_round_trip_property(grid):
    gshape, bshape, nested = grid
    big = assemble(nested)
    assert big.shape == tuple(g * s for g, s in zip(gshape, bshape))
    for coord in itertools.product(*[range(g) for g in gshape]):
        node = nested
        for c in coord:
            node = node[c]
        off = tuple(c * s for c, s in zip(coord, bshape))
        assert window(big, off, bshape) == node


@st.composite
def cube_sets_and_blocks(draw):
    side = draw(st.integers(1, 2))
    ka = draw(st.integers(1, 3))
    cells = side * side
    all_cubes = list(itertools.product(range(ka), repeat=cells))
    chosen = draw(st.sets(st.sampled_from(all_cubes), max_size=min(8, len(all_cubes))))
    cubes = CubeSet(side, frozenset(Block((side, side), d) for d in chosen), ka)
    shape = (draw(st.integers(side, 6)), draw(st.integers(side, 6)))
    n = shape[0] * shape[1]
    data = tuple(draw(st.integers(0, ka - 1)) for _ in range(n))
    return cubes, Block(shape, data)


@given(cube_sets_and_blocks())
@settings(max_examples=80, deadline=None)
def test_block_allowed_matches_naive_scanner(case):
    cubes, blk = case
    want = not any(
        naive_occurs(blk, [((r, c), cube.data[r * cubes.side + c])
                           for r in range(cubes.side) for c in range(cubes.side)])
        for cube in cubes.cubes
    )
    assert block_allowed(blk, cubes) == want


@given(cube_sets_and_blocks())
@settings(max_examples=50, deadline=None)
def test_block_allowed_monotone_under_windows(case):
    cubes, blk = case
    if not block_allowed(blk, cubes):
        return
    side = cubes.side
    rng = random.Random(7)
    for _ in range(5):
        h = rng.randint(side, blk.shape[0])
        w = rng.randint(side, blk.shape[1])
        r = rng.randint(0, blk.shape[0] - h)
        c = rng.randint(0, blk.shape[1] - w)
        assert block_allowed(window(blk, (r, c), (h, w)), cubes)


def test_make_spec_validation():
    with pytest.raises(SpecError):
        make_spec(0, ["0"], [])
    with pytest.raises(SpecError):
        make_spec(2, [], [])
    with pytest.raises(SpecError):
        make_spec(2, ["0", "0"], [])
    with pytest.raises(SpecError):
        make_spec(2, ["0"], [Pattern.from_cells([((0, 0), 1)])])
    with pytest.raises(SpecError):
        make_spec(2, ["0"], [Pattern.from_cells([((0,), 0)])])


def test_blocks_against_other_types_hash_and_repr():
    from sftkit.core import Blocks

    blocks = Blocks((1, 2), [b"\x00\x01", b"\x01\x00"])
    as_tuple = (Block((1, 2), (0, 1)), Block((1, 2), (1, 0)))
    # anything but a sequence is left to the other operand's comparison
    assert blocks.__eq__(3) is NotImplemented and blocks != 3
    assert blocks == as_tuple and blocks != as_tuple[:1]
    assert hash(blocks) == hash(as_tuple) == hash(Blocks((1, 2), [(0, 1), (1, 0)]))
    assert repr(blocks) == "Blocks((1, 2), 2 blocks)"
