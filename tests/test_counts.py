"""Counts read from relation sizes: the stage a walk only counts is never
built, relations stay key groups, and the cell cap bounds every stage that
is built."""
import json
import tracemalloc
from types import SimpleNamespace

import pytest

import sftkit.chain
import sftkit.levels
from sftkit import DEFAULT_CAPS, BudgetError, DChainState, analyze, make_spec
from sftkit.chain import check_next_stage
from sftkit.cli import main
from sftkit.relation import Relation

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


def test_analyze_holds_its_unbuilt_target_to_max_blocks(tmp_path, capsys):
    path = _file(tmp_path, FULL, "full.json")
    args = ["analyze", path, "--levels", "2", "--max-blocks", "1000"]
    assert main(args + ["--format", "csv"]) == 3
    assert capsys.readouterr().out.strip().splitlines()[1:] == [
        "0,squares,2,4,inconclusive",
        "0,rects,4,16,inconclusive",
        "1,squares,16,256,inconclusive",
        "1,rects,256,65536,inconclusive",
        "2,squares,65536,,inconclusive",
    ]
    assert main(args) == 3
    assert "reason: next stage would hold 65536 blocks (cap 1000)" in capsys.readouterr().out


def test_a_budget_stop_on_the_target_keeps_levels_unstepped(full_shift, monkeypatch):
    made = _stepped_stages(monkeypatch)
    res = analyze(full_shift, 2, caps=DEFAULT_CAPS.but(max_blocks=1000))
    assert res.report.verdict == "inconclusive"
    assert [len(lv.squares) for lv in res.levels] == [2, 16]
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


def test_cell_cap_holds_the_unbuilt_target_too(checkerboard):
    res = analyze(checkerboard, 4, caps=DEFAULT_CAPS.but(max_cells=2000))
    assert res.report.verdict == "inconclusive"
    assert "2048 cells" in res.report.reason
    assert analyze(checkerboard, 4, caps=DEFAULT_CAPS.but(max_cells=2048)).report.verdict == "nonempty-to-level-4"


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
    block = SimpleNamespace(shape=(2,) * 26 + (1,) * 38)
    state = DChainState(64, 1, 26, (block,), Relation([([0], [0])]))
    with pytest.raises(BudgetError) as exc:
        check_next_stage(state)
    assert exc.value.required == 2**27 > DEFAULT_CAPS.max_cells
    check_next_stage(DChainState(64, 1, 25, (SimpleNamespace(shape=(2,) * 25 + (1,) * 39),), Relation([([0], [0])])))
