"""Counts read from relation sizes: the stage a walk only counts is never
built, relations stay key groups, and the cell cap bounds every stage that
is built."""
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftkit.chain
import sftkit.levels
from sftkit import (
    DEFAULT_CAPS,
    BudgetError,
    DChainState,
    analyze,
    enumerate_allowed_cubes,
    level0_matrices,
    make_spec,
    normalize_to_cubes,
    step_literal,
)
from sftkit.chain import check_next_stage
from sftkit.cli import main
from sftkit.core import Blocks
from sftkit.relation import Relation

from conftest import random_square_spec

HS = {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "1"]], [["1"], ["1"]]]}
FULL = {"dimension": 2, "symbols": ["0", "1"], "forbidden": []}


def _file(tmp_path, doc, name):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_matrix_count_stays_small_in_memory(tmp_path, capsys):
    # 1,095,851 relation pairs listed as a frozenset of tuples take about
    # 100 MB; as key groups they are lists of the 1,234 squares' indices
    path = _file(tmp_path, HS, "hs.json")
    tracemalloc.start()
    try:
        assert main(["count", path, "--engine", "matrix", "--shape", "8x4"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.strip() == "1095851"
    assert peak < 8 * 2**20


def test_literal_analyze_stays_small_in_memory(tmp_path, capsys):
    # the level-1 vertical matrix has 1,095,851 ones; kept as key groups
    # over column-wise positions, they are counted without being listed
    path = _file(tmp_path, HS, "hs.json")
    tracemalloc.start()
    try:
        code = main(["analyze", path, "--mode", "literal", "--levels", "2", "--format", "csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().out.splitlines() == [
        "level,stage,block_count,relation_count,verdict",
        "0,vert,7,41,inconclusive",
        "0,horiz,49,1234,inconclusive",
        "1,vert,2401,1095851,inconclusive",
    ]
    assert peak < 8 * 2**20


@given(st.integers(0, 2**32), st.integers(6, 12))
@settings(max_examples=25, deadline=None)
def test_literal_vertical_count_is_its_listed_ones(seed, patterns):
    # at most 10 allowed cubes: the listed ones stay in the millions at most
    spec = random_square_spec(random.Random(seed), patterns, patterns)
    caps = DEFAULT_CAPS.but(max_index=10**6, max_work=10**8)
    cubes = normalize_to_cubes(spec, caps=caps)
    lvl = level0_matrices(enumerate_allowed_cubes(spec, cubes, caps), cubes, caps)
    vert = step_literal(lvl, caps, compute_h=False).vert
    assert vert.ones_count() == len(frozenset(vert.ones))


def _stepped_stages(monkeypatch):
    made = []

    def step(state, *a, **k):
        out = original(state, *a, **k)
        made.append((out.level, out.stage))
        return out

    original = sftkit.chain.d_chain_step
    monkeypatch.setattr(sftkit.chain, "d_chain_step", step)
    monkeypatch.setattr(sftkit.levels, "d_chain_step", step)
    return made


def test_analyze_never_steps_into_its_target(tmp_path, monkeypatch, capsys):
    made = _stepped_stages(monkeypatch)
    path = _file(tmp_path, FULL, "full.json")
    assert main(["analyze", path, "--levels", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "2,squares,65536,,nonempty-to-level-2"
    assert made == [(1, 1), (1, 2), (2, 1)]


def test_reading_levels_steps_into_the_target_once(full_shift, monkeypatch):
    made = _stepped_stages(monkeypatch)
    res = analyze(full_shift, 2)
    assert (2, 2) not in made
    assert len(res.levels[-1].squares) == 65536 == res.report.rows[-1].block_count
    assert res.levels[-1].vrel is None and len(res.levels[1].hrel) == 65536
    assert res.levels is res.levels
    assert made.count((2, 2)) == 1


def test_analyze_certifies_its_unbuilt_target_past_max_blocks(tmp_path, monkeypatch, capsys):
    # the 65,536 level-2 squares are counted from the last relation, never
    # built, so max_blocks has nothing to refuse
    made = _stepped_stages(monkeypatch)
    path = _file(tmp_path, FULL, "full.json")
    args = ["analyze", path, "--levels", "2", "--max-blocks", "1000"]
    assert main(args + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[1:] == [
        "0,squares,2,4,nonempty-to-level-2",
        "0,rects,4,16,nonempty-to-level-2",
        "1,squares,16,256,nonempty-to-level-2",
        "1,rects,256,65536,nonempty-to-level-2",
        "2,squares,65536,,nonempty-to-level-2",
    ]
    assert main(args) == 0
    assert "reason:" not in capsys.readouterr().out
    assert (2, 2) not in made
    # the archive ends on the relation that counts the target, and loads
    # back to the same rows and exit code
    state = str(tmp_path / "state.json")
    assert main(["export-state", *args[1:], "--out", state, "--format", "csv"]) == 0
    exported = capsys.readouterr().out
    assert main(["import-state", state, "--max-blocks", "1000", "--format", "csv"]) == 0
    assert capsys.readouterr().out == exported


def test_a_budget_stop_on_the_target_keeps_levels_unstepped(full_shift, monkeypatch):
    # reading the stages steps into the target, which max_blocks refuses:
    # they end on the relation that counts it, and the report stands
    made = _stepped_stages(monkeypatch)
    res = analyze(full_shift, 2, caps=DEFAULT_CAPS.but(max_blocks=1000))
    assert res.report.verdict == "nonempty-to-level-2"
    assert [len(lv.squares) for lv in res.levels] == [2, 16]
    assert (res.stages[-1].level, res.stages[-1].stage, len(res.stages[-1].relation)) == (2, 1, 65536)
    assert (2, 2) not in made


# ---------------------------------------------------------------------------
# the cell cap


def test_cell_cap_refuses_a_stage_before_it_is_built(checkerboard, monkeypatch):
    # two checkerboard squares of side 32 hold 2048 cells; their stacks 1024
    made = _stepped_stages(monkeypatch)
    res = analyze(checkerboard, 5, caps=DEFAULT_CAPS.but(max_cells=2000))
    assert res.report.verdict == "inconclusive"
    assert res.report.reason == "next stage needs 2048 cells (cap 2000)"
    rows = [(r.level, r.stage, r.block_count, r.relation_count) for r in res.report.rows]
    assert rows[-2:] == [(3, "rects", 2, 2), (4, "squares", 2, None)]
    assert (4, 2) not in made


def test_cell_cap_leaves_the_unbuilt_target_certified(checkerboard, monkeypatch):
    # level 4's two squares hold 2048 cells, but they are only counted
    made = _stepped_stages(monkeypatch)
    res = analyze(checkerboard, 4, caps=DEFAULT_CAPS.but(max_cells=2000))
    assert res.report.verdict == "nonempty-to-level-4" and res.report.reason is None
    assert res.report == analyze(checkerboard, 4, caps=DEFAULT_CAPS.but(max_cells=2048)).report
    assert (4, 2) not in made


def test_cell_cap_stops_a_wide_dimension_spec():
    # one symbol, nothing forbidden, 64 axes: the level-1 stages double one
    # axis at a time, so stage (1, i) holds one block of 2^i cells
    spec = make_spec(64, ["0"], [])
    res = analyze(spec, 1, caps=DEFAULT_CAPS.but(max_cells=10**4))
    assert res.report.verdict == "inconclusive"
    assert res.report.reason == "next stage needs 16384 cells (cap 10000)"
    # stage (1, 14) is counted from the relation below it, never built
    last = res.report.rows[-1]
    assert (last.level, last.stage, last.block_count) == (1, "dir14", 1)


def test_default_cell_cap_refuses_the_wide_stage_unbuilt():
    # the default cap stops the 64-axis walk at 2^27 cells; checked on a
    # stand-in block so that no such stage is built
    blocks = Blocks((2,) * 26 + (1,) * 38, [b""])
    state = DChainState(64, 1, 26, blocks, Relation([([0], [0])]))
    with pytest.raises(BudgetError) as exc:
        check_next_stage(state)
    assert exc.value.required == 2**27 > DEFAULT_CAPS.max_cells
    check_next_stage(DChainState(64, 1, 25, Blocks((2,) * 25 + (1,) * 39, [b""]), Relation([([0], [0])])))
