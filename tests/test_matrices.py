import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit import (
    Block,
    BudgetError,
    CubeSet,
    DEFAULT_CAPS,
    ShapeError,
    block_allowed,
    enumerate_allowed_cubes,
    level0_matrices,
    level0_state,
    literal_horiz_pairs,
    literal_vert_pairs,
    normalize_to_cubes,
    otimes,
    reduced_step,
    step_literal,
    with_relations,
)
from sftkit.matrices import _colwise_pos, _rowwise_pos
from sftkit.normalize import iter_cubes

from conftest import hrel_quads, random_square_spec


def test_otimes_annihilation():
    p = [[0, 0], [0, 0]]
    m = [[1] * 4 for _ in range(4)]
    assert otimes(p, m) == (0,) * 16


def test_otimes_identity_times_ones():
    p = [[1, 0], [0, 1]]
    m = [[1] * 4 for _ in range(4)]
    assert otimes(p, m) == (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1)


def test_otimes_shape_errors():
    with pytest.raises(ShapeError):
        otimes([[1, 0]], [[1]])
    with pytest.raises(ShapeError):
        otimes([[1, 0], [0, 1]], [[1] * 3 for _ in range(3)])


def test_index_equation_corner_values():
    k = 2
    r = lambda a, b, g, d: a * k**3 + b * k**2 + g * k + d - (k**3 + k**2 + k)
    assert r(1, 1, 1, 1) == 1
    assert r(2, 2, 2, 2) == 16


def test_otimes_index_equation():
    # entry r (1-based) must equal p[a][b] * block(a,b)[g][d] for the unique
    # base-k digits of r
    rng = random.Random(1)
    for k in (2, 3):
        p = [[rng.randrange(2) for _ in range(k)] for _ in range(k)]
        m = [[rng.randrange(2) for _ in range(k * k)] for _ in range(k * k)]
        row = otimes(p, m)
        assert len(row) == k**4
        for a, b, g, d in itertools.product(range(1, k + 1), repeat=4):
            r = a * k**3 + b * k**2 + g * k + d - (k**3 + k**2 + k)
            want = p[a - 1][b - 1] * m[(a - 1) * k + (g - 1)][(b - 1) * k + (d - 1)]
            assert row[r - 1] == want


def _index_and_cubes(spec):
    cubes = normalize_to_cubes(spec)
    return enumerate_allowed_cubes(spec, cubes), cubes


def test_level0_full_shift(full_shift):
    index, cubes = _index_and_cubes(full_shift)
    lvl = level0_matrices(index, cubes)
    assert lvl.vert.shape == (2, 2) and lvl.vert.ones_count() == 4
    assert lvl.horiz.shape == (4, 4) and lvl.horiz.ones_count() == 16
    from sftkit import literal_horiz_pairs

    pairs = literal_horiz_pairs(lvl)
    assert len(pairs) == 16
    assert all(a.shape == (2, 1) and b.shape == (2, 1) for a, b in pairs)


def test_level0_hard_squares_reduced_index(hard_squares):
    index, cubes = _index_and_cubes(hard_squares)
    lvl = level0_matrices(index, cubes)
    assert lvl.vert.ones_count() == 41
    assert lvl.horiz.ones_count() == 1234


def test_level0_hard_squares_literal_index(hard_squares):
    cubes = normalize_to_cubes(hard_squares)
    lvl = level0_matrices(tuple(iter_cubes(hard_squares, 2)), cubes)
    assert lvl.vert.shape == (16, 16)
    assert lvl.vert.ones_count() == 41
    assert lvl.horiz.ones_count() == 1234


def test_zero_row_law(hard_squares):
    cubes = normalize_to_cubes(hard_squares)
    letters = tuple(iter_cubes(hard_squares, 2))
    lvl = level0_matrices(letters, cubes)
    row_has_one = {r for r, _ in lvl.vert.ones}
    for i, blk in enumerate(letters):
        if not block_allowed(blk, cubes):
            assert i not in row_has_one
    for r, c in lvl.vert.ones:
        assert block_allowed(letters[r], cubes)
        assert block_allowed(letters[c], cubes)


def test_step_literal_full_shift_all_ones(full_shift):
    index, cubes = _index_and_cubes(full_shift)
    lvl = level0_matrices(index, cubes)
    nxt = step_literal(lvl, DEFAULT_CAPS.but(max_work=10**6))
    assert nxt.vert.shape == (16, 16)
    assert nxt.vert.ones_count() == 256  # all-ones: every stack of 2x2s is fine
    assert nxt.horiz.shape == (256, 256)
    assert nxt.horiz.ones_count() == 256 * 256


def test_step_literal_zero_when_no_squares():
    # only the cube 01/10 is allowed; it cannot sit on top of itself, so
    # there are no allowed 2l-squares and the next matrix is zero
    keep = (0, 1, 1, 0)
    cubes = CubeSet(
        2,
        frozenset(
            Block((2, 2), d) for d in itertools.product(range(2), repeat=4) if d != keep
        ),
        2,
    )
    lvl = level0_matrices((Block((2, 2), keep),), cubes)
    assert lvl.vert.is_zero() and lvl.horiz.is_zero()
    nxt = step_literal(lvl)
    assert nxt.vert.is_zero()
    # the same conclusion holds over the full 16-cube index
    full = level0_matrices(tuple(iter_cubes_like(cubes)), cubes)
    assert full.vert.is_zero() and full.horiz.is_zero()
    nxt_full = step_literal(full, DEFAULT_CAPS.but(max_index=16**4), compute_h=False)
    assert nxt_full.vert.is_zero()


def iter_cubes_like(cubes):
    for data in itertools.product(range(cubes.alphabet_size), repeat=cubes.side**2):
        yield Block((cubes.side, cubes.side), data)


def test_step_literal_budget_advises_reduced(hard_squares):
    cubes = normalize_to_cubes(hard_squares)
    lvl = level0_matrices(tuple(iter_cubes(hard_squares, 2)), cubes)
    with pytest.raises(BudgetError) as exc:
        step_literal(lvl)  # 16^4 = 65536 > default cap
    assert "reduced" in str(exc.value)


def test_a_vertical_only_level_has_no_horizontal_step(hard_squares):
    cubes = normalize_to_cubes(hard_squares)
    base = level0_matrices(enumerate_allowed_cubes(hard_squares, cubes), cubes)
    vertical_only = step_literal(base, compute_h=False)
    for read in (step_literal, literal_horiz_pairs):
        with pytest.raises(ShapeError, match="horizontal matrix missing"):
            read(vertical_only)


def test_step_literal_rows_match_otimes_and_rescan(checkerboard):
    # dual route: sparse rows == otimes expansion == direct block rescans
    index, cubes = _index_and_cubes(checkerboard)
    lvl = level0_matrices(index, cubes)
    k = len(lvl.letters)
    nxt = step_literal(lvl, DEFAULT_CAPS.but(max_work=10**6))

    # dense horizontal matrix in pair order
    h = [[0] * (k * k) for _ in range(k * k)]
    for (a, b), (c, d) in lvl.pair_ones:
        h[a * k + b][c * k + d] = 1

    ones = nxt.vert.ones
    for q in itertools.product(range(k), repeat=4):
        i, j, r, s = q
        allowed_q = ((i, r), (j, s)) in lvl.pair_ones
        block_r = [[h[r * k + u][s * k + v] for v in range(k)] for u in range(k)]
        row = otimes(block_r, h) if allowed_q else (0,) * k**4
        for p in itertools.product(range(k), repeat=4):
            got = (_colwise_pos(k, q), _colwise_pos(k, p)) in ones
            assert got == bool(row[_rowwise_pos(k, p)])
            # independent recomputation: the stacked pair must rescan clean
            qa = _assemble_square(lvl.letters, q)
            pa = _assemble_square(lvl.letters, p)
            stacked = Block((8, 4), qa.data + pa.data)
            assert got == block_allowed(stacked, cubes)


def _assemble_square(letters, q):
    from sftkit import assemble

    i, j, r, s = q
    return assemble([[letters[i], letters[j]], [letters[r], letters[s]]])


def test_literal_vert_pairs_are_allowed_stacks(checkerboard):
    index, cubes = _index_and_cubes(checkerboard)
    lvl = level0_matrices(index, cubes)
    nxt = step_literal(lvl, DEFAULT_CAPS.but(max_work=10**6), compute_h=False)
    for top, bottom in literal_vert_pairs(nxt):
        assert block_allowed(Block((8, 4), top.data + bottom.data), cubes)


def _otimes_rows(lvl):
    # level-1 vertical ones, row by row, from the `otimes` expansion of the
    # level-0 horizontal matrix (dense, in pair order)
    k = len(lvl.letters)
    h = [[0] * (k * k) for _ in range(k * k)]
    for (a, b), (c, d) in lvl.pair_ones:
        h[a * k + b][c * k + d] = 1
    # otimes rows run over row-wise positions, the matrix over column-wise ones
    to_col = [_colwise_pos(k, p) for p in itertools.product(range(k), repeat=4)]
    below = {}
    ones = set()
    for (i, r), (j, s) in lvl.pair_ones:
        if (r, s) not in below:
            block_r = [[h[r * k + u][s * k + v] for v in range(k)] for u in range(k)]
            below[r, s] = [to_col[x] for x, v in enumerate(otimes(block_r, h)) if v]
        q = _colwise_pos(k, (i, j, r, s))
        ones.update((q, p) for p in below[r, s])
    return ones


@given(st.integers(0, 2**32), st.integers(6, 14), st.booleans())
@settings(max_examples=10, deadline=None)
def test_step_literal_matches_otimes_and_reduced(seed, patterns, full_index):
    _check_step(random_square_spec(random.Random(seed), patterns, patterns), full_index)


@given(st.integers(0, 2**32), st.integers(11, 14))
@settings(max_examples=15, deadline=None)
def test_step_literal_horizontal_matches_reduced(seed, patterns):
    # at most 5 allowed cubes: the horizontal matrix of the allowed index fits
    spec = random_square_spec(random.Random(seed), patterns, patterns)
    assert _check_step(spec, False, max_index=5**8)


def _check_step(spec, full_index, max_index=70000):
    """Step the literal pipeline once and check it against the `otimes`
    expansion and the reduced relations; True if the horizontal matrix was
    built and checked."""
    caps = DEFAULT_CAPS.but(max_index=max_index, max_work=10**8)
    cubes = normalize_to_cubes(spec, caps=caps)
    allowed = enumerate_allowed_cubes(spec, cubes, caps)
    letters = tuple(iter_cubes(spec, cubes.side)) if full_index else allowed
    lvl = level0_matrices(letters, cubes, caps)
    k = len(letters)
    compute_h = k**8 <= caps.max_index
    nxt = step_literal(lvl, caps, compute_h=compute_h)
    assert nxt.vert.shape == (k**4, k**4) and len(nxt.letters) == k**4
    assert set(nxt.vert.ones) == _otimes_rows(lvl)

    # the same ones against the reduced level-1 relations, through block data
    lvl1 = reduced_step(level0_state(allowed, cubes, caps), caps)
    lvl1 = with_relations(lvl1, caps, need_hrel=compute_h)
    pos = {b.data: i for i, b in enumerate(lvl1.squares)}
    row_map = [pos.get(b.data) for b in nxt.vert.row_blocks]
    assert {(row_map[r], row_map[c]) for r, c in nxt.vert.ones} == set(lvl1.vrel)
    if not compute_h:
        assert nxt.horiz is None and not nxt.pair_ones
        return False
    sq = lvl1.squares
    stack_pos = {sq[a].data + sq[b].data: (a, b) for a, b in lvl1.vrel}
    rects = nxt.horiz.row_blocks
    mapped = {stack_pos[rects[x].data] + stack_pos[rects[y].data] for x, y in nxt.horiz.ones}
    assert mapped == hrel_quads(lvl1)
    n = len(nxt.letters)
    assert nxt.horiz.ones == {(a * n + b, c * n + d) for (a, b), (c, d) in nxt.pair_ones}
    return True


def test_step_literal_index_order(checkerboard):
    # the lazily built index blocks are the 2x2 arrangements at their
    # row-wise and column-wise positions, read by position and in order
    index, cubes = _index_and_cubes(checkerboard)
    lvl = level0_matrices(index, cubes)
    nxt = step_literal(lvl, DEFAULT_CAPS.but(max_work=10**6))
    k = len(lvl.letters)
    for q in itertools.product(range(k), repeat=4):
        want = _assemble_square(lvl.letters, q)
        assert nxt.letters[_rowwise_pos(k, q)] == want
        assert nxt.vert.row_blocks[_colwise_pos(k, q)] == want
    assert list(nxt.vert.row_blocks) == [nxt.vert.row_blocks[x] for x in range(k**4)]
    assert list(nxt.letters) == [nxt.letters[x] for x in range(k**4)]
    assert nxt.vert.row_blocks is nxt.vert.col_blocks
    as_tuple = tuple(nxt.vert.row_blocks)
    assert nxt.vert.row_blocks == as_tuple and hash(nxt.vert.row_blocks) == hash(as_tuple)
    assert nxt.vert.row_blocks[-1] == nxt.vert.row_blocks[k**4 - 1]
    with pytest.raises(IndexError):
        nxt.vert.row_blocks[k**4]
    stacks = nxt.horiz.row_blocks
    n = k**4
    assert stacks[3 * n + 5] == Block((8, 4), nxt.letters[3].data + nxt.letters[5].data)


def test_step_literal_horizontal_work_stop_keeps_vertical(full_shift):
    index, cubes = _index_and_cubes(full_shift)
    lvl = level0_matrices(index, cubes)
    with pytest.raises(BudgetError) as exc:
        step_literal(lvl, DEFAULT_CAPS.but(max_work=1000))
    part = exc.value.partial
    assert exc.value.required == 256**2
    assert part.horiz is None and part.vert.ones_count() == 256


def test_compat_matrix_scans_every_index_but_pairs(hard_squares):
    import dataclasses

    from sftkit import CompatMatrix
    from sftkit.matrices import Pairs

    assert [f.name for f in dataclasses.fields(CompatMatrix)] == [
        "row_blocks", "col_blocks", "ones",
    ]
    index, _ = _index_and_cubes(hard_squares)
    with pytest.raises(ShapeError, match="duplicate"):
        CompatMatrix(index + index[:1], index, frozenset())
    with pytest.raises(ShapeError, match="outside"):
        CompatMatrix(index, index, frozenset({(0, len(index))}))
    # a Pairs index is duplicate-free by construction and is not scanned:
    # 10^4 parts stand for 10^8 blocks, built only when read
    parts = tuple(Block((1, 1), (i,)) for i in range(10**4))
    rects = Pairs(parts)
    m = CompatMatrix(rects, rects, frozenset({(0, 1)}))
    assert m.shape == (10**8, 10**8) and m.ones_count() == 1


def test_step_literal_joins_the_letter_squares_once(full_shift, monkeypatch):
    # the horizontal pass goes on from the (2, 2) join of the vertical pass
    import sftkit.matrices

    shapes = []
    original = sftkit.matrices.middle_join

    def counted(datas, shape, axis):
        shapes.append(shape)
        return original(datas, shape, axis)

    monkeypatch.setattr(sftkit.matrices, "middle_join", counted)
    cubes = normalize_to_cubes(full_shift)
    lvl = level0_matrices(enumerate_allowed_cubes(full_shift, cubes), cubes)
    nxt = step_literal(lvl, DEFAULT_CAPS)
    assert shapes == [(2, 2), (4, 2)]
    assert nxt.horiz.ones_count() == 65536 and nxt.vjoin is None


def test_step_literal_maps_each_shared_key_list_once(hard_squares):
    # level 0 -> 1 over the full cube index: the join's 1,234 groups share
    # 82 distinct index lists (one per half key), and the vertical ones
    # share them the same way, each mapped onto column-wise positions once
    caps = DEFAULT_CAPS.but(max_index=70000, max_work=10**8)
    cubes = normalize_to_cubes(hard_squares)
    lvl = level0_matrices(tuple(iter_cubes(hard_squares, 2)), cubes, caps)
    nxt = step_literal(lvl, caps, compute_h=False)
    squares, vrel = nxt.vjoin
    groups = nxt.vert.ones.groups
    assert len(groups) == len(vrel.groups) == 1234
    assert len({id(ids) for group in groups for ids in group}) == 82
    # each group is the per-pair remap of the join's group
    at = [_colwise_pos(len(lvl.letters), q) for q in squares]
    assert groups == tuple(([at[i] for i in lows], [at[j] for j in highs]) for lows, highs in vrel.groups)


def test_pairs_slices_compare_and_hash_as_their_blocks():
    from sftkit.matrices import Pairs

    letters = (Block((1, 1), (0,)), Block((1, 1), (1,)))
    stacks = Pairs(letters, 0)
    every = tuple(stacks)
    assert [b.data for b in every] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert stacks[1:3] == every[1:3] and stacks[::-1] == every[::-1] and stacks[5:] == ()
    assert stacks.__eq__(3) is NotImplemented and stacks != 3
    assert stacks == Pairs(letters, 0) and stacks == every and stacks != Pairs(letters, 1)
    assert hash(stacks) == hash(every)
