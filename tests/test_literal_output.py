"""Literal-mode output of `analyze --mode literal` on the golden fixture
specs in `tests/data/golden/specs`, and the literal pipeline's budget stops.

The pinned CSV stdout, stderr and exit codes cover levels 0-2. Three symbol
past level 0 is left out of the pins: its level-0 horizontal pass is
refused by `max_work`, which `test_three_symbol_literal_stops_at_level_0`
checks.
"""
import contextlib
import io
import os

import pytest

import sftkit.matrices
from sftkit import DEFAULT_CAPS, BudgetError, analyze, enumerate_allowed_cubes, level0_matrices, normalize_to_cubes
from sftkit.cli import main
from sftkit.relation import seam_relation

SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "specs")
HEAD = "level,stage,block_count,relation_count,verdict\n"
LITERAL_2D = "error: literal mode is 2-dimensional only; use reduced\n"

PINNED = {
    ("hard_squares", 0): (0, HEAD),
    ("hard_squares", 1): (0, HEAD + "0,vert,7,41,nonempty-to-level-1\n0,horiz,49,1234,nonempty-to-level-1\n"),
    ("hard_squares", 2): (
        3,
        HEAD
        + "0,vert,7,41,inconclusive\n0,horiz,49,1234,inconclusive\n"
        + "1,vert,2401,1095851,inconclusive\n",
    ),
    ("checkerboard", 0): (0, HEAD),
    ("checkerboard", 1): (0, HEAD + "0,vert,2,2,nonempty-to-level-1\n0,horiz,4,2,nonempty-to-level-1\n"),
    ("checkerboard", 2): (
        0,
        HEAD
        + "0,vert,2,2,nonempty-to-level-2\n0,horiz,4,2,nonempty-to-level-2\n"
        + "1,vert,16,2,nonempty-to-level-2\n1,horiz,256,2,nonempty-to-level-2\n",
    ),
    ("full_shift", 0): (0, HEAD),
    ("full_shift", 1): (0, HEAD + "0,vert,2,4,nonempty-to-level-1\n0,horiz,4,16,nonempty-to-level-1\n"),
    ("full_shift", 2): (
        0,
        HEAD
        + "0,vert,2,4,nonempty-to-level-2\n0,horiz,4,16,nonempty-to-level-2\n"
        + "1,vert,16,256,nonempty-to-level-2\n1,horiz,256,65536,nonempty-to-level-2\n",
    ),
    ("three_symbol", 0): (0, HEAD),
    # no allowed cube: no rows, and empty at every level
    ("kill_all", 0): (2, HEAD),
    ("kill_all", 1): (2, HEAD),
    ("kill_all", 2): (2, HEAD),
    # one allowed 2x2 cube that pairs with nothing, in either direction
    ("lone_cube", 0): (0, HEAD),
    ("lone_cube", 1): (2, HEAD + "0,vert,1,0,empty\n0,horiz,1,0,empty\n"),
    ("lone_cube", 2): (2, HEAD + "0,vert,1,0,empty\n0,horiz,1,0,empty\n"),
}


def _analyze(spec: str, *args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    argv = ["analyze", os.path.join(SPECS, spec + ".json"), "--mode", "literal", "--format", "csv", *args]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("spec,level", sorted(PINNED))
def test_literal_csv_is_pinned(spec, level):
    code, out = PINNED[spec, level]
    assert _analyze(spec, "--levels", str(level)) == (code, out, "")


@pytest.mark.parametrize("spec", ["d1", "d3_diag"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_literal_refuses_other_dimensions(spec, level):
    assert _analyze(spec, "--levels", str(level)) == (4, "", LITERAL_2D)


@pytest.fixture
def no_level0_horizontal_pass(monkeypatch):
    # the level-0 horizontal pass is the seam join along axis 1; on three
    # symbol it would list 38,445,598 ones, so the test fails fast instead
    def vertical_only(datas, shape, axis, cubes):
        assert axis == 0, "the horizontal pass ran past its max_work stop"
        return seam_relation(datas, shape, axis, cubes)

    monkeypatch.setattr(sftkit.matrices, "seam_relation", vertical_only)


@pytest.mark.parametrize("level", [1, 2])
def test_three_symbol_literal_stops_at_level_0(no_level0_horizontal_pass, level):
    # 80 letters and 6,319 vertical ones: 6319^2 stack pairs pass max_work
    code, out, err = _analyze("three_symbol", "--levels", str(level))
    assert (code, out, err) == (3, HEAD + "0,vert,80,6319,inconclusive\n", "")
    code, out, err = _analyze("three_symbol", "--levels", str(level), "--format", "table")
    assert "reason: horizontal step would examine 39929761 stack pairs (cap 10000000)" in out


def test_level0_work_stop_carries_the_vertical_level(no_level0_horizontal_pass):
    spec = sftkit.load_spec_file(os.path.join(SPECS, "three_symbol.json"))
    cubes = normalize_to_cubes(spec)
    index = enumerate_allowed_cubes(spec, cubes)
    with pytest.raises(BudgetError) as exc:
        level0_matrices(index, cubes)
    part = exc.value.partial
    assert exc.value.required == 6319**2
    assert part.level == 0 and part.horiz is None and not part.pair_ones
    assert part.vert.shape == (80, 80) and part.vert.ones_count() == 6319


def test_hard_squares_literal_work_stop_at_level_0(hard_squares):
    res = analyze(hard_squares, 1, mode="literal", caps=DEFAULT_CAPS.but(max_work=1000))
    rows = [(r.level, r.stage, r.block_count, r.relation_count) for r in res.report.rows]
    assert rows == [(0, "vert", 7, 41)]
    assert res.report.verdict == "inconclusive"
    assert res.report.reason == "horizontal step would examine 1681 stack pairs (cap 1000)"
