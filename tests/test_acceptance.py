"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All numeric checks are exact (tolerance 0); each criterion also enforces its
wall-clock budget.
"""
import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager


from sftkit import (
    DEFAULT_CAPS,
    analyze,
    block_allowed,
    brute_force_allowed,
    enumerate_allowed_cubes,
    level0_matrices,
    level0_state,
    normalize_to_cubes,
    otimes,
    profile_count,
    reduced_step,
    run_chain,
    step_literal,
    with_relations,
)
from sftkit.cli import main as cli_main
from sftkit.normalize import iter_cubes

from conftest import hrel_quads, random_square_spec


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    dt = time.monotonic() - t0
    ok = dt < budget_s
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s / {budget_s:.0f}s) - {desc}")
    assert ok, f"criterion {num} runtime {dt:.2f}s exceeds {budget_s}s"


def test_criterion_1_hard_square_suite(hard_squares):
    with criterion(1, "hard squares: normalization and level counts match brute force", 5.0):
        cubes = normalize_to_cubes(hard_squares)
        index = enumerate_allowed_cubes(hard_squares, cubes)
        assert cubes.side == 2
        assert len(cubes.cubes) == 9
        assert len(index) == 7

        st0 = level0_state(index, cubes)
        lit = level0_matrices(index, cubes)
        st1 = reduced_step(st0)
        assert len(st0.squares) == 7
        assert len(st0.vrel) == lit.vert.ones_count() == 41
        assert len(st1.squares) == lit.horiz.ones_count() == 1234

        assert brute_force_allowed(hard_squares, (2, 2)).count == 7
        assert brute_force_allowed(hard_squares, (4, 2)).count == 41
        assert brute_force_allowed(hard_squares, (4, 4)).count == 1234


def test_criterion_2_checkerboard_suite(checkerboard):
    with criterion(2, "checkerboard: two squares at every level, oracle-confirmed", 5.0):
        res = analyze(checkerboard, 2)
        sizes = [len(st.squares) for st in res.levels]
        assert sizes == [2, 2, 2]
        assert brute_force_allowed(checkerboard, (2, 2)).count == 2
        assert brute_force_allowed(checkerboard, (4, 4)).count == 2
        assert profile_count(checkerboard, (8, 8)) == 2


def test_criterion_3_emptiness_certification(tmp_path, full_shift):
    with criterion(3, "emptiness certified at level 0 (exit 2); full shift to level 2", 1.0):
        kill = tmp_path / "kill.json"
        kill.write_text(
            json.dumps({"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["0"]], [["1"]]]})
        )
        code = cli_main(["analyze", str(kill), "--levels", "0"])
        assert code == 2

        res = analyze(full_shift, 2)
        assert res.report.verdict == "nonempty-to-level-2"
        for n, st in enumerate(res.levels):
            assert len(st.squares) == 2 ** ((2**n) ** 2)


def _equiv_one_spec(spec, caps):
    """Literal V1/H0 nonzero patterns equal the reduced relations."""
    cubes = normalize_to_cubes(spec, caps=caps)
    index = enumerate_allowed_cubes(spec, cubes, caps)
    full = tuple(iter_cubes(spec, cubes.side))
    lit0 = level0_matrices(full, cubes, caps)

    st0 = level0_state(index, cubes, caps)
    pos0 = {b.data: i for i, b in enumerate(st0.squares)}

    # base matrices vs base relations: ones only touch allowed cubes
    mapped_v0 = {
        (pos0[full[i].data], pos0[full[j].data]) for i, j in lit0.vert.ones
    }
    assert mapped_v0 == set(st0.vrel)
    mapped_h = {
        (pos0[full[a].data], pos0[full[b].data], pos0[full[c].data], pos0[full[d].data])
        for (a, b), (c, d) in lit0.pair_ones
    }
    assert mapped_h == hrel_quads(st0)

    # literal next vertical matrix vs vrel at level 1
    lvl1 = with_relations(reduced_step(st0, caps), caps, need_hrel=False)
    lit1 = step_literal(lit0, caps, compute_h=False)
    pos1 = {b.data: i for i, b in enumerate(lvl1.squares)}
    row_map = [pos1.get(b.data) for b in lit1.vert.row_blocks]
    mapped_v = set()
    for r, c in lit1.vert.ones:
        a, b = row_map[r], row_map[c]
        assert a is not None and b is not None  # ones imply allowed indices
        mapped_v.add((a, b))
    assert mapped_v == set(lvl1.vrel)


def test_criterion_4_literal_reduced_equivalence(hard_squares):
    with criterion(4, "literal matrices equal reduced relations (hard squares + 20 random)", 60.0):
        caps = DEFAULT_CAPS.but(max_index=70000, max_work=10**8)
        _equiv_one_spec(hard_squares, caps)
        rng = random.Random(20240)
        for _ in range(20):
            _equiv_one_spec(random_square_spec(rng, 6, 11), caps)


def test_criterion_5_otimes_contract():
    with criterion(5, "index equation bijective (K=2,3,4); otimes matches the formula", 1.0):
        for k in (2, 3, 4):
            seen = set()
            for a, b, g, d in itertools.product(range(1, k + 1), repeat=4):
                seen.add(a * k**3 + b * k**2 + g * k + d - (k**3 + k**2 + k))
            assert seen == set(range(1, k**4 + 1))

        rng = random.Random(5)
        for _ in range(100):
            k = rng.choice((2, 3))
            p = [[rng.randrange(2) for _ in range(k)] for _ in range(k)]
            m = [[rng.randrange(2) for _ in range(k * k)] for _ in range(k * k)]
            row = otimes(p, m)
            for a, b, g, d in itertools.product(range(1, k + 1), repeat=4):
                r = a * k**3 + b * k**2 + g * k + d - (k**3 + k**2 + k)
                assert row[r - 1] == p[a - 1][b - 1] * m[(a - 1) * k + g - 1][(b - 1) * k + d - 1]


def test_criterion_6_randomized_oracle_property():
    with criterion(6, "50 random specs: engine counts at 4x2 and 4x4 equal brute force", 120.0):
        rng = random.Random(606)
        for _ in range(50):
            spec = random_square_spec(rng, 4, 10)
            cubes = normalize_to_cubes(spec)
            index = enumerate_allowed_cubes(spec, cubes)
            st0 = level0_state(index, cubes)
            st1 = reduced_step(st0)
            assert len(st0.vrel) == brute_force_allowed(spec, (4, 2)).count
            assert len(st1.squares) == brute_force_allowed(spec, (4, 4)).count


def test_criterion_7_d_chain(d1_no_adjacent_ones, d3_hard_cubes, hard_squares):
    with criterion(7, "chain engine: d=1, d=3 brute-force counts; d=2 matches pipeline", 10.0):
        idx1 = enumerate_allowed_cubes(
            d1_no_adjacent_ones, normalize_to_cubes(d1_no_adjacent_ones)
        )
        cubes1 = normalize_to_cubes(d1_no_adjacent_ones)
        states = run_chain(idx1, cubes1, 1)
        assert [len(st.blocks) for st in states] == [3, 8]
        assert brute_force_allowed(d1_no_adjacent_ones, (2,)).count == 3
        assert brute_force_allowed(d1_no_adjacent_ones, (4,)).count == 8

        cubes3 = normalize_to_cubes(d3_hard_cubes)
        idx3 = enumerate_allowed_cubes(d3_hard_cubes, cubes3)
        assert len(idx3) == 35
        assert brute_force_allowed(d3_hard_cubes, (2, 2, 2)).count == 35

        cubes2 = normalize_to_cubes(hard_squares)
        idx2 = enumerate_allowed_cubes(hard_squares, cubes2)
        chain_states = run_chain(idx2, cubes2, 1)
        assert [len(st.blocks) for st in chain_states] == [7, 41, 1234]
        st0 = level0_state(idx2, cubes2)
        assert len(st0.squares) == 7 and len(st0.vrel) == 41
        assert set(chain_states[2].blocks) == set(reduced_step(st0).squares)


def test_criterion_8_soundness_rescan(
    hard_squares, checkerboard, full_shift, d1_no_adjacent_ones, d3_hard_cubes
):
    with criterion(8, "every computed square/block passes a full window rescan", 30.0):
        for spec, levels in ((hard_squares, 1), (checkerboard, 2), (full_shift, 2)):
            res = analyze(spec, levels)
            for st in res.levels:
                for sq in st.squares:
                    assert block_allowed(sq, res.cubes)
        for spec, cycles in ((d1_no_adjacent_ones, 2), (d3_hard_cubes, 0), (hard_squares, 1)):
            cubes = normalize_to_cubes(spec)
            index = enumerate_allowed_cubes(spec, cubes)
            for st in run_chain(index, cubes, cycles):
                for blk in st.blocks:
                    assert block_allowed(blk, cubes)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "repeated analyze and sample runs are byte-identical", 30.0):
        cb = tmp_path / "cb.json"
        cb.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "symbols": ["0", "1"],
                    "forbidden": [[["0", "0"]], [["1", "1"]], [["0"], ["0"]], [["1"], ["1"]]],
                }
            )
        )
        analyze_cmd = [
            sys.executable, "-m", "sftkit", "analyze", str(cb), "--levels", "2", "--format", "csv",
        ]
        sample_cmd = [sys.executable, "-m", "sftkit", "sample", str(cb), "--level", "1", "--seed", "7"]
        a1 = subprocess.run(analyze_cmd, capture_output=True)
        a2 = subprocess.run(analyze_cmd, capture_output=True)
        assert a1.returncode == a2.returncode == 0
        assert a1.stdout == a2.stdout and a1.stdout
        s1 = subprocess.run(sample_cmd, capture_output=True)
        s2 = subprocess.run(sample_cmd, capture_output=True)
        assert s1.returncode == s2.returncode == 0
        assert s1.stdout == s2.stdout and s1.stdout
