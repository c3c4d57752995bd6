import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sftkit.oracle as oracle_mod
from sftkit import (
    BudgetError,
    DEFAULT_CAPS,
    Pattern,
    SpecError,
    brute_force_allowed,
    make_spec,
    profile_count,
)
from sftkit.cli import main

from conftest import naive_count, random_square_spec


def test_full_shift_2x2(full_shift):
    assert brute_force_allowed(full_shift, (2, 2)).count == 16


def test_hard_squares_small_shapes(hard_squares):
    assert brute_force_allowed(hard_squares, (3, 3)).count == 63
    assert brute_force_allowed(hard_squares, (2, 3)).count == 17
    assert brute_force_allowed(hard_squares, (4, 4)).count == 1234


def test_patterns_mode_agrees_with_cubes_mode():
    rng = random.Random(17)
    for _ in range(5):
        spec = random_square_spec(rng)
        a = brute_force_allowed(spec, (3, 4), mode="cubes").count
        b = brute_force_allowed(spec, (3, 4), mode="patterns").count
        assert a == b == naive_count(spec, (3, 4))


def test_profile_matches_brute_force(hard_squares, checkerboard):
    assert profile_count(hard_squares, (4, 4)) == 1234
    assert profile_count(checkerboard, (8, 8)) == 2
    for shape in [(2, 2), (3, 3), (3, 6), (6, 3)]:
        assert profile_count(hard_squares, shape) == brute_force_allowed(hard_squares, shape).count


def test_profile_large_strip(hard_squares):
    # scalable cross-check beyond brute-force reach; value pinned by the
    # engine's literal ones count as well (test_acceptance criterion 4)
    assert profile_count(hard_squares, (8, 4)) == 1095851


def test_profile_undersized(hard_squares):
    assert profile_count(hard_squares, (1, 5)) == 2**5
    assert brute_force_allowed(hard_squares, (1, 5)).count == 2**5


def test_oracle_self_agreement_random():
    rng = random.Random(4242)
    for _ in range(8):
        spec = random_square_spec(rng)
        assert (
            brute_force_allowed(spec, (4, 4)).count
            == profile_count(spec, (4, 4))
        )


def test_full_shift_l1_profile(full_shift):
    # side 1 degenerates to an empty profile; every assignment is allowed
    assert profile_count(full_shift, (3, 3)) == 2**9


def test_brute_budget_suggests_profile(hard_squares):
    with pytest.raises(BudgetError) as exc:
        brute_force_allowed(hard_squares, (8, 8))
    assert "profile" in str(exc.value)


def test_profile_budget(hard_squares):
    with pytest.raises(BudgetError):
        profile_count(hard_squares, (8, 30), caps=DEFAULT_CAPS.but(profile_states=100))


def test_dimension_checks(hard_squares, d1_no_adjacent_ones):
    with pytest.raises(SpecError):
        brute_force_allowed(hard_squares, (4,))
    with pytest.raises(SpecError):
        profile_count(d1_no_adjacent_ones, (4, 4))
    assert brute_force_allowed(d1_no_adjacent_ones, (6,)).count == 21


def test_threads_match_sequential(hard_squares):
    seq = brute_force_allowed(hard_squares, (4, 4))
    par = brute_force_allowed(hard_squares, (4, 4), caps=DEFAULT_CAPS.but(threads=2))
    assert seq.count == par.count == 1234


def test_threads_clamped_to_cpu_count(monkeypatch, hard_squares):
    # the pool is faked, so no process starts: it records its size and maps
    # in-process
    sizes = []

    class FakePool:
        def __init__(self, n):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(j) for j in jobs]

    monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oracle_mod.multiprocessing, "Pool", FakePool)
    res = brute_force_allowed(hard_squares, (4, 4), caps=DEFAULT_CAPS.but(threads=64))
    assert res.count == 1234
    assert sizes == [2]
    # the workers' other branches: an undersized shape counts every
    # candidate, and patterns mode rescans the raw patterns
    two = DEFAULT_CAPS.but(threads=2)
    assert brute_force_allowed(hard_squares, (1, 13), caps=two).count == 2**13
    patterns = brute_force_allowed(hard_squares, (3, 4), mode="patterns", caps=two)
    assert patterns.count == naive_count(hard_squares, (3, 4))
    assert sizes == [2, 2, 2]
    monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: None)
    assert brute_force_allowed(hard_squares, (4, 4), caps=DEFAULT_CAPS.but(threads=8)).count == 1234
    assert sizes == [2, 2, 2]  # an unknown core count runs in-process


# a side-1 spec: every cell avoids the symbol 1
NO_ONES = make_spec(2, ["0", "1"], [Pattern.from_cells([((0, 0), 1)])])


@st.composite
def _spec_and_shape(draw):
    # up to four patterns in a side x side box, each cell a symbol or the
    # fill marker (None); the shape has at most 2^16 candidates
    k = draw(st.sampled_from([2, 3]))
    side = draw(st.integers(1, 3))
    cell = st.one_of(st.none(), st.integers(0, k - 1))
    patterns = []
    for _ in range(draw(st.integers(1, 4))):
        box = draw(st.lists(cell, min_size=side * side, max_size=side * side))
        cells = [((i // side, i % side), a) for i, a in enumerate(box) if a is not None]
        if cells:
            patterns.append(Pattern.from_cells(cells))
    spec = make_spec(2, [str(a) for a in range(k)], patterns)
    most = 16 if k == 2 else 10
    r = draw(st.integers(1, most))
    s = draw(st.integers(1, most // r))
    return spec, (r, s)


@given(_spec_and_shape())
@example((NO_ONES, (2, 3)))
@settings(max_examples=40, deadline=None)
def test_profile_sweep_matches_brute_force(case):
    spec, shape = case
    assert profile_count(spec, shape) == brute_force_allowed(spec, shape).count


def test_side_one_sweep_builds_no_row_list():
    # one profile state, but a row-at-a-time sweep would list all 2^18 rows
    # of width 18 (about 50 MB); the cell sweep holds only the empty state
    tracemalloc.start()
    try:
        count = profile_count(NO_ONES, (2, 18), caps=DEFAULT_CAPS.but(profile_states=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 2**20


def test_profile_reaches_hard_squares_16x16(tmp_path, capsys):
    path = tmp_path / "hs.json"
    path.write_text('{"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "1"]], [["1"], ["1"]]]}')
    start = time.perf_counter()
    assert main(["count", str(path), "--engine", "dp", "--shape", "16x16"]) == 0
    assert time.perf_counter() - start < 30
    assert capsys.readouterr().out.strip() == "18396766424410124752958806046933947217821482942"
