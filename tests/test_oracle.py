import ast
import itertools
import multiprocessing
import random
import time
import tracemalloc
from pathlib import Path

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
    chain_report,
    chain_start,
    enumerate_allowed_cubes,
    load_spec_file,
    make_spec,
    normalize_to_cubes,
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
    # naive_count rescans every candidate against the raw patterns, with no
    # normalization; the brute force searches against the normalized cubes
    rng = random.Random(17)
    for _ in range(5):
        spec = random_square_spec(rng)
        assert brute_force_allowed(spec, (3, 4)).count == naive_count(spec, (3, 4))


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


def test_brute_budget_stops_at_the_cap(hard_squares):
    with pytest.raises(BudgetError) as exc:
        brute_force_allowed(hard_squares, (8, 8))
    assert str(exc.value) == "brute force would enumerate 18446744073709551616 candidates (cap 16777216)"


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
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    res = brute_force_allowed(hard_squares, (4, 4), caps=DEFAULT_CAPS.but(threads=64))
    assert res.count == 1234
    assert sizes == [2]
    # the workers' other branch: an undersized shape counts every candidate
    two = DEFAULT_CAPS.but(threads=2)
    assert brute_force_allowed(hard_squares, (1, 13), caps=two).count == 2**13
    assert sizes == [2, 2]
    monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: None)
    assert brute_force_allowed(hard_squares, (4, 4), caps=DEFAULT_CAPS.but(threads=8)).count == 1234
    assert sizes == [2, 2]  # an unknown core count runs in-process


def test_workers_past_the_symbol_count_widen_the_prefix(monkeypatch, hard_squares):
    # 8 workers over 2 symbols split the prefixes of the first 3 cells; the
    # pool maps in-process, so no process starts
    import contextlib
    import types

    jobs = []
    count_range = oracle_mod._count_range

    def recorded(job):
        jobs.append(job[2:5])
        return count_range(job)

    monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(oracle_mod, "_count_range", recorded)
    monkeypatch.setattr(multiprocessing, "Pool", lambda n: contextlib.nullcontext(types.SimpleNamespace(map=map)))
    assert brute_force_allowed(hard_squares, (4, 4), caps=DEFAULT_CAPS.but(threads=8)).count == 1234
    assert jobs == [(3, i, i + 1) for i in range(8)]
    assert brute_force_allowed(hard_squares, (4, 4)).count == 1234


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


# one forbidden cube, all ones, which a (2, 2, 2) shape completes only at its
# last cell
ALL_ONES_CUBE = make_spec(
    3, ["0", "1"], [Pattern.from_cells([(c, 1) for c in itertools.product(range(2), repeat=3)])]
)


@st.composite
def _cube_spec_and_shape(draw):
    # up to four patterns in a side^d box, each cell a symbol or the fill
    # marker (None); every axis is at least the side, and the shape has at
    # most 2^13 (k = 2) or 3^8 (k = 3) candidates
    k = draw(st.sampled_from([2, 3]))
    most = 13 if k == 2 else 8
    d = draw(st.integers(1, 3))
    side = draw(st.sampled_from([l for l in (1, 2, 3) if l**d <= most]))
    cell = st.one_of(st.none(), st.integers(0, k - 1))
    patterns = []
    for _ in range(draw(st.integers(1, 4))):
        box = draw(st.lists(cell, min_size=side**d, max_size=side**d))
        coords = itertools.product(range(side), repeat=d)
        cells = [(c, a) for c, a in zip(coords, box) if a is not None]
        if cells:
            patterns.append(Pattern.from_cells(cells))
    shape = []
    room = most
    for axis in range(d):
        s = draw(st.integers(side, room // side ** (d - axis - 1)))
        shape.append(s)
        room //= s
    return make_spec(d, [str(a) for a in range(k)], patterns), tuple(shape)


@given(_cube_spec_and_shape())
@example((make_spec(2, ["0", "1"], []), (3, 4)))
@example((NO_ONES, (3, 4)))
@example((ALL_ONES_CUBE, (2, 2, 2)))
@settings(max_examples=60, deadline=None)
def test_pruned_enumeration_matches_naive_count(case):
    spec, shape = case
    assert brute_force_allowed(spec, shape).count == naive_count(spec, shape)


# three symbols, one forbidden 2x2 cube: 3^9 candidates, and 3^m prefixes
# never split evenly between two workers
THREE_SYMBOL = make_spec(
    2, ["0", "1", "2"], [Pattern.from_cells([((0, 0), 0), ((0, 1), 1), ((1, 0), 2), ((1, 1), 0)])]
)


def test_worker_ranges_sum_to_the_sequential_count(monkeypatch):
    two = DEFAULT_CAPS.but(threads=2)
    monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: 2)
    seq = brute_force_allowed(THREE_SYMBOL, (3, 3)).count
    assert seq == naive_count(THREE_SYMBOL, (3, 3))
    assert brute_force_allowed(THREE_SYMBOL, (3, 3), caps=two).count == seq

    jobs = []

    class FakePool:
        def __init__(self, n):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            jobs.extend(args)
            return [fn(j) for j in args]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    assert brute_force_allowed(THREE_SYMBOL, (3, 3), caps=two).count == seq
    assert len(jobs) == 2


def test_a_pool_that_cannot_start_counts_in_process(monkeypatch, hard_squares):
    started = []

    def no_pool(n):
        started.append(n)
        raise OSError("no processes")

    monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert brute_force_allowed(hard_squares, (4, 4), caps=DEFAULT_CAPS.but(threads=2)).count == 1234
    assert started == [2]


def test_compare_reaches_the_candidate_cap(tmp_path, capsys):
    # 2^24 candidates per shape, exactly the cap
    path = tmp_path / "hs.json"
    path.write_text('{"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "1"]], [["1"], ["1"]]]}')
    start = time.perf_counter()
    code = main(["compare", str(path), "--shapes", "6x4,4x6", "--engine", "dp", "--format", "csv"])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "shape,engine_count,oracle_count,match",
        "6x4,36787,36787,true",
        "4x6,36787,36787,true",
    ]


def test_oracle_shares_no_engine_code():
    # the oracle checks the engine, so it must not import the window scanner
    # or the relation kernel and the engines built on it
    tree = ast.parse(Path(oracle_mod.__file__).read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
    assert "allowed_data" not in names
    engine = {"relation", "chain", "levels", "matrices"}
    assert not {m.rsplit(".", 1)[-1] for m in modules} & engine
    assert not names & engine  # `from . import relation`


def test_profile_refuses_a_shape_of_another_dimension(hard_squares):
    # the brute force's message, not an unpacking error
    with pytest.raises(SpecError, match=r"shape \(4, 4, 4\) does not match dimension 2"):
        profile_count(hard_squares, (4, 4, 4))
    with pytest.raises(SpecError, match=r"shape \(4, 4, 4\) does not match dimension 2"):
        brute_force_allowed(hard_squares, (4, 4, 4))


@pytest.mark.parametrize("shape", [(-1, 4), (0, 4), (4, 0), (2, -3)])
def test_oracles_refuse_extents_below_one(hard_squares, shape):
    # a negative extent used to give a float count, k^n with n < 0
    with pytest.raises(SpecError, match="extent below 1"):
        profile_count(hard_squares, shape)
    with pytest.raises(SpecError, match="extent below 1"):
        brute_force_allowed(hard_squares, shape)


@st.composite
def _box_spec_and_shape(draw):
    # the cube strategy's case, or the same spec on a box cut to any
    # extents from 1 up, so that some axes are thinner than the cube side
    spec, shape = draw(_cube_spec_and_shape())
    if draw(st.booleans()):
        shape = tuple(draw(st.integers(1, s)) for s in shape)
    return spec, shape


# a 0 only at the start of a line along the last axis: the high corner of
# a cube's cut window is not its low corner
ZERO_STARTS_LINES = make_spec(
    3, ["0", "1"], [Pattern.from_cells([((0, 0, 0), a), ((0, 0, 1), 0)]) for a in (0, 1)]
)


@given(_box_spec_and_shape())
@example((ZERO_STARTS_LINES, (2, 2, 2)))
@example((ALL_ONES_CUBE, (2, 2, 2)))
@example((THREE_SYMBOL, (3, 3)))
@example((NO_ONES, (1, 4)))
@settings(max_examples=60, deadline=None)
def test_profile_matches_brute_force_in_every_dimension(case):
    spec, shape = case
    assert profile_count(spec, shape) == brute_force_allowed(spec, shape).count


GOLDEN_SPECS = Path(__file__).parent / "data" / "golden" / "specs"


def _chain_counts(spec, target):
    cubes = normalize_to_cubes(spec)
    start = chain_start(enumerate_allowed_cubes(spec, cubes), cubes)
    return {stage.blocks[0].shape: len(stage.blocks) for stage in chain_report(start, cubes, target)}


def test_profile_matches_the_chain_in_three_dimensions(d3_hard_cubes):
    diag = load_spec_file(str(GOLDEN_SPECS / "d3_diag.json"))
    chain = _chain_counts(diag, (1, 2))
    assert chain == {(2, 2, 2): 19, (4, 2, 2): 281, (4, 4, 2): 39543}
    for shape, count in chain.items():
        assert profile_count(diag, shape) == count
    assert _chain_counts(d3_hard_cubes, (1, 2))[(4, 4, 2)] == 536453
    assert profile_count(d3_hard_cubes, (4, 4, 2)) == 536453


def test_profile_pins_three_dimensional_cubes(d3_hard_cubes):
    # d3_diag 4x4x4 is the chain's value (count --engine matrix)
    diag = load_spec_file(str(GOLDEN_SPECS / "d3_diag.json"))
    assert profile_count(diag, (4, 4, 4)) == 536_057_854
    assert profile_count(d3_hard_cubes, (4, 4, 4)) == 121_039_421_240


def test_profile_budget_bounds_the_live_states_in_three_dimensions():
    # 3x4x5 holds 2^20 profiles of its 4x5 faces, but the first cube ends at
    # its 27th cell, so 2^26 states would be live before any window prunes
    with pytest.raises(BudgetError, match=r"profile DP needs 33554432 states \(cap 1048576\)"):
        profile_count(ALL_ONES_CUBE, (3, 4, 5))
