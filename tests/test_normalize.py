import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit import (
    Block,
    BudgetError,
    DEFAULT_CAPS,
    MODE_ALL,
    MODE_NON_PROPER,
    Pattern,
    SpecError,
    enumerate_allowed_cubes,
    forbidden_side,
    make_spec,
    normalize_to_cubes,
)
from sftkit.core import Blocks
from sftkit.normalize import iter_cubes

from conftest import cube_set, naive_allowed_set, naive_cell, naive_count, naive_occurs, random_square_spec, scan_cubes


def _forbidden(cubes) -> set:
    """The cubes a set forbids: every candidate it does not list."""
    every = itertools.product(range(cubes.alphabet_size), repeat=cubes.side**cubes.dimension)
    return set(every) - set(cubes.allowed)


def test_empty_forbidden_set(full_shift):
    cubes = normalize_to_cubes(full_shift)
    assert cubes.side == 1 and cubes.forbidden_count == 0 and scan_cubes(full_shift)[1] == []
    index = enumerate_allowed_cubes(full_shift, cubes)
    assert [b.data for b in index] == [(0,), (1,)]


def test_single_cell_pattern():
    spec = make_spec(2, ["0", "1"], [Pattern.from_cells([((0, 0), 1)])])
    cubes = normalize_to_cubes(spec)
    assert cubes.side == 1
    assert _forbidden(cubes) == {(1,)}
    assert (list(cubes.allowed), [(1,)]) == scan_cubes(spec)


def test_hard_squares_normalization(hard_squares):
    cubes = normalize_to_cubes(hard_squares)
    assert cubes.side == 2
    assert cubes.forbidden_count == 9
    index = enumerate_allowed_cubes(hard_squares, cubes)
    assert len(index) == 7
    assert (cubes.side, cubes.forbidden_count, cubes.mode, len(index)) == (2, 9, MODE_ALL, 7)
    # the forbidden cubes are exactly the arrangements with an adjacent 1-pair
    expect = {
        d
        for d in itertools.product(range(2), repeat=4)
        if (d[0] and d[1]) or (d[2] and d[3]) or (d[0] and d[2]) or (d[1] and d[3])
    }
    assert _forbidden(cubes) == expect
    assert (list(cubes.allowed), sorted(expect)) == scan_cubes(hard_squares)


def test_kill_all_leaves_nothing(kill_all):
    cubes = normalize_to_cubes(kill_all)
    assert cubes.side == 1
    assert enumerate_allowed_cubes(kill_all, cubes) == ()


def test_forbidden_cube_appears_verbatim():
    rng = random.Random(11)
    for _ in range(10):
        spec = random_square_spec(rng)
        cubes = normalize_to_cubes(spec)
        bad = _forbidden(cubes)
        assert sorted(bad) == scan_cubes(spec)[1]
        for p in spec.forbidden:
            # full-support width-l patterns are l-cubes themselves
            data = tuple(sym for _, sym in sorted(p.cells))
            assert data in bad


def test_non_proper_subset_and_same_counts_at_l2():
    rng = random.Random(5)
    for _ in range(10):
        spec = random_square_spec(rng)
        allc = normalize_to_cubes(spec, MODE_ALL)
        nonp = normalize_to_cubes(spec, MODE_NON_PROPER)
        assert _forbidden(nonp) <= _forbidden(allc)
        # every cell of a 2-cube is on its boundary, so the modes coincide
        assert nonp.allowed == allc.allowed == tuple(scan_cubes(spec, MODE_NON_PROPER)[0])


def test_mode_equivalence_on_block_language():
    # the two cube sets generate identical allowed-block languages at l <= 2
    rng = random.Random(23)
    for _ in range(5):
        spec = random_square_spec(rng, 2, 6)
        allc = normalize_to_cubes(spec, MODE_ALL)
        nonp = normalize_to_cubes(spec, MODE_NON_PROPER)
        for shape in [(2, 2), (3, 3), (2, 4), (4, 4)]:
            truth = naive_allowed_set(spec, shape)
            for cubes in (allc, nonp):
                got = {
                    data
                    for data in itertools.product(range(2), repeat=shape[0] * shape[1])
                    if _scan(data, shape, cubes)
                }
                assert got == truth, (shape, cubes.mode)


def _scan(data, shape, cubes):
    from sftkit.core import allowed_data

    return allowed_data(data, shape, cubes)


def test_non_proper_strictly_smaller_at_l3():
    # a single-cell pattern inside a width-3 normalization: a cube whose only
    # occurrence sits at the centre is a proper extension and gets dropped
    spec = make_spec(
        2,
        ["0", "1"],
        [
            Pattern.from_cells([((0, 0), 1)]),
            Pattern.from_cells([((0, 0), 1), ((0, 2), 1)]),
        ],
    )
    assert forbidden_side(spec) == 3
    allc = normalize_to_cubes(spec)
    nonp = normalize_to_cubes(spec, MODE_NON_PROPER)
    assert nonp.forbidden_count < allc.forbidden_count
    assert nonp.allowed == tuple(scan_cubes(spec, MODE_NON_PROPER)[0])
    # lone centre 1: the single-cell pattern occurs only strictly inside
    cube = Block((3, 3), (0, 0, 0, 0, 1, 0, 0, 0, 0))
    assert cube.data in _forbidden(allc)
    assert cube.data not in _forbidden(nonp)


def test_gapped_support_normalizes_correctly():
    # diagonal pattern: support {(0,0),(1,1)}, cells (0,1) and (1,0) are free
    spec = make_spec(2, ["0", "1"], [Pattern.from_cells([((0, 0), 1), ((1, 1), 1)])])
    cubes = normalize_to_cubes(spec)
    assert cubes.side == 2
    assert _forbidden(cubes) == {
        (1, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)
    }
    assert list(cubes.allowed) == scan_cubes(spec)[0]
    from sftkit import brute_force_allowed, level0_state, reduced_step

    index = enumerate_allowed_cubes(spec, cubes)
    st1 = reduced_step(level0_state(index, cubes))
    assert len(st1.squares) == brute_force_allowed(spec, (4, 4)).count == naive_count(spec, (4, 4))


def test_unknown_normalization_mode_is_refused(hard_squares):
    with pytest.raises(SpecError, match="unknown normalization mode 'bogus'"):
        normalize_to_cubes(hard_squares, mode="bogus")


def test_budget_error_names_requirement():
    spec = make_spec(2, ["0", "1"], [Pattern.from_cells([((0, 0), 1), ((2, 2), 1)])])
    with pytest.raises(BudgetError) as exc:
        normalize_to_cubes(spec, caps=DEFAULT_CAPS.but(max_cubes=10))
    assert exc.value.required == 2**9


def test_cube_count_bound():
    rng = random.Random(3)
    for _ in range(5):
        spec = random_square_spec(rng)
        cubes = normalize_to_cubes(spec)
        assert cubes.forbidden_count == len(scan_cubes(spec)[1]) <= 2 ** (2 * 2)


def test_check_power_decides_before_building_the_power():
    from sftkit.caps import check_power

    check_power(2, 20, 2**20, "{count}")
    check_power(1, 10**30, 1, "{count}")
    with pytest.raises(BudgetError) as exc:
        check_power(2, 21, 2**20, "{count} past {cap}")
    assert (str(exc.value), exc.value.required) == (f"{2**21} past {2**20}", 2**21)
    # 2^(10^18) is never built: it is refused by its bit length alone
    with pytest.raises(BudgetError) as exc:
        check_power(2, 10**18, 10**6, "{count}")
    assert (str(exc.value), exc.value.required) == (f"2^{10**18}", None)
    with pytest.raises(BudgetError, match=r"^3\^\(a 16610-bit number\)$"):
        check_power(3, 10**5000, 10**6, "{count}")


# (dimension, symbols, largest side) with at most 512 candidate cubes
_SIZES = ((1, 1, 6), (1, 2, 4), (1, 3, 3), (2, 1, 4), (2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 2, 2), (3, 3, 1))


@st.composite
def _specs_and_modes(draw):
    # cells anywhere in the side-l box, so patterns are gapped, thinner than
    # the side on some axes, or a single cell
    d, k, side = draw(st.sampled_from(_SIZES))
    cell = st.tuples(st.tuples(*[st.integers(0, side - 1)] * d), st.integers(0, k - 1))
    pattern = st.lists(cell, min_size=1, max_size=3, unique_by=lambda c: c[0]).map(Pattern.from_cells)
    forbidden = draw(st.lists(pattern, min_size=1, max_size=3))
    spec = make_spec(d, [str(s) for s in range(k)], forbidden)
    return spec, draw(st.sampled_from((MODE_ALL, MODE_NON_PROPER)))


def _occurs_on_the_boundary(cube: Block, cells) -> bool:
    """Does the pattern occur in the cube with a cell on its boundary?"""
    side = cube.shape[0]
    for off in itertools.product(range(side), repeat=len(cube.shape)):
        placed = [(tuple(o + c for o, c in zip(off, coord)), sym) for coord, sym in cells]
        if (
            all(max(at) < side for at, _ in placed)
            and all(naive_cell(cube, at) == sym for at, sym in placed)
            and any(0 in at or side - 1 in at for at, _ in placed)
        ):
            return True
    return False


@given(_specs_and_modes())
@settings(max_examples=150, deadline=None)
def test_cube_set_is_the_cubes_that_hold_a_pattern(spec_and_mode):
    spec, mode = spec_and_mode
    cubes = normalize_to_cubes(spec, mode)
    # the search lists what the candidate scan keeps, in the same order
    allowed, forbidden = scan_cubes(spec, mode)
    assert cubes.allowed == tuple(allowed)
    assert cubes.forbidden_count == len(forbidden)
    assert (cubes.side, cubes.dimension, cubes.mode) == (forbidden_side(spec), spec.dimension, mode)
    occurs = naive_occurs if mode == MODE_ALL else _occurs_on_the_boundary
    every = list(iter_cubes(spec, cubes.side))
    held = [c.data for c in every if any(occurs(c, list(p.cells)) for p in spec.forbidden)]
    assert forbidden == held
    index = enumerate_allowed_cubes(spec, cubes)
    assert [c.data for c in index] == allowed
    assert all(c.shape == every[0].shape for c in index)


def test_a_cube_set_is_its_allowed_cubes(hard_squares):
    cubes = normalize_to_cubes(hard_squares)
    by_hand = cube_set(2, scan_cubes(hard_squares)[1], 2, 2)
    # a set is its side, allowed cubes, alphabet, dimension and mode; its
    # lookup set and forbidden count follow from them
    assert by_hand == cubes and by_hand.allowed_set == cubes.allowed_set
    assert (by_hand.forbidden_count, cubes.forbidden_count) == (9, 9)
    # the index is a view over the list, not a copy of it
    index = enumerate_allowed_cubes(hard_squares, by_hand)
    assert isinstance(index, Blocks) and index.datas is by_hand.allowed
    assert index == enumerate_allowed_cubes(hard_squares, cubes)


def test_analyze_walks_the_candidate_cubes_once(hard_squares, monkeypatch):
    import sftkit.normalize
    from sftkit import analyze

    calls = []
    real = sftkit.normalize._search

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(sftkit.normalize, "_search", counted)
    analyze(hard_squares, 1)
    assert len(calls) == 1


def test_a_one_symbol_cube_of_3600_cells_is_searched_without_recursion():
    # one symbol, so one candidate 60x60 cube; the gapped corner pattern is
    # tested only when the cube's last cell is placed, 3,600 cells deep
    row = Pattern.from_cells([((0, c), 0) for c in range(60)])
    corners = Pattern.from_cells([((0, 0), 0), ((59, 59), 0)])
    for pattern, mode in ((row, MODE_ALL), (corners, MODE_ALL), (corners, MODE_NON_PROPER)):
        cubes = normalize_to_cubes(make_spec(2, ["0"], [pattern]), mode)
        assert (cubes.side, cubes.allowed, cubes.forbidden_count) == (60, (), 1)


def _wang_spec(tiles: int, colours: int, seed: int):
    """A random Wang tile set as a spec: each tile has four edge colours,
    and a horizontal or vertical pair of tiles is forbidden when the edges
    they share differ."""
    rng = random.Random(seed)
    edges = [tuple(rng.randrange(colours) for _ in range(4)) for _ in range(tiles)]  # north, east, south, west
    forbidden = []
    for (a, ea), (b, eb) in itertools.product(enumerate(edges), repeat=2):
        if ea[1] != eb[3]:
            forbidden.append(Pattern.from_cells([((0, 0), a), ((0, 1), b)]))
        if ea[2] != eb[0]:
            forbidden.append(Pattern.from_cells([((0, 0), a), ((1, 0), b)]))
    return make_spec(2, [f"t{i}" for i in range(tiles)], forbidden)


def test_a_sixteen_tile_wang_set_is_searched_fast(tmp_path, capsys):
    import json
    import time

    from sftkit import profile_count, serialize_spec
    from sftkit.cli import main

    spec = _wang_spec(16, 4, 16)
    start = time.perf_counter()
    cubes = normalize_to_cubes(spec)
    assert time.perf_counter() - start < 0.1
    assert cubes.allowed and cubes.forbidden_count == 16**4 - len(cubes.allowed)
    path = tmp_path / "wang.json"
    path.write_text(json.dumps(serialize_spec(spec)))
    assert main(["count", str(path), "--engine", "matrix", "--shape", "4x2", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split(",")[-1] == str(profile_count(spec, (4, 2)))
