import json
import os
import subprocess
import sys
import time

import pytest

from sftkit.cli import main

HS = {
    "dimension": 2,
    "symbols": ["0", "1"],
    "forbidden": [[["1", "1"]], [["1"], ["1"]]],
}
KILL = {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["0"]], [["1"]]]}
FULL = {"dimension": 2, "symbols": ["0", "1"], "forbidden": []}
GOLDEN_SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "specs")


@pytest.fixture
def hs_file(tmp_path):
    p = tmp_path / "hs.json"
    p.write_text(json.dumps(HS))
    return str(p)


@pytest.fixture
def kill_file(tmp_path):
    p = tmp_path / "kill.json"
    p.write_text(json.dumps(KILL))
    return str(p)


def test_validate(hs_file, capsys):
    assert main(["validate", hs_file]) == 0
    out = capsys.readouterr().out
    assert "dimension 2" in out and "width 2" in out


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dimension": 2, "symbols": ["0"], "oops": 1}')
    assert main(["validate", str(p)]) == 4
    assert main(["validate", str(tmp_path / "missing.json")]) == 4


def test_normalize_csv(hs_file, capsys):
    assert main(["normalize", hs_file, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == "side,cube_count,mode,allowed_count\n2,9,all-extensions,7\n"
    assert main(["normalize", hs_file]) == 0
    assert capsys.readouterr().out == "side: 2\ncube_count: 9\nmode: all-extensions\nallowed_count: 7\n"


def test_normalize_nonproper(hs_file, capsys):
    assert main(["normalize", hs_file, "--mode", "nonproper", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "non-proper-only" in out


def test_analyze_csv_and_exit_codes(hs_file, kill_file, capsys):
    assert main(["analyze", hs_file, "--levels", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "level,stage,block_count,relation_count,verdict"
    assert "0,squares,7,41,nonempty-to-level-1" in lines
    assert "0,rects,41,1234,nonempty-to-level-1" in lines
    assert "1,squares,1234,,nonempty-to-level-1" in lines

    assert main(["analyze", kill_file, "--levels", "0"]) == 2
    out = capsys.readouterr().out
    assert "verdict: empty" in out


def test_analyze_budget_exit(hs_file, capsys):
    assert main(["analyze", hs_file, "--levels", "2", "--max-work", "1000"]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_analyze_literal_modes(tmp_path, hs_file, capsys):
    p = tmp_path / "full.json"
    p.write_text(json.dumps(FULL))
    assert main(["analyze", str(p), "--levels", "2", "--mode", "literal", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "1,vert,16,256,nonempty-to-level-2" in out
    assert "1,horiz,256,65536,nonempty-to-level-2" in out
    # hard squares blow the default literal index budget at level 2
    assert main(["analyze", hs_file, "--levels", "2", "--mode", "literal"]) == 3
    assert "reduced" in capsys.readouterr().out


def test_count_engines(hs_file, capsys):
    for engine, expect in (("oracle", 1234), ("dp", 1234), ("matrix", 1234)):
        assert main(["count", hs_file, "--shape", "4x4", "--engine", engine]) == 0
        assert capsys.readouterr().out.strip() == str(expect)
    assert main(["count", hs_file, "--shape", "4x2", "--engine", "matrix"]) == 0
    assert capsys.readouterr().out.strip() == "41"
    assert main(["count", hs_file, "--shape", "8x4", "--engine", "dp", "--format", "csv"]) == 0
    assert "8x4,dp,1095851" in capsys.readouterr().out


def test_count_bad_shape(hs_file, capsys):
    assert main(["count", hs_file, "--shape", "3x5", "--engine", "matrix"]) == 4
    assert main(["count", hs_file, "--shape", "4x4x4", "--engine", "oracle"]) == 4


def test_count_budget_exit(hs_file, capsys):
    assert main(["count", hs_file, "--shape", "8x8", "--engine", "oracle"]) == 3


def test_sample_and_determinism(tmp_path, capsys):
    p = tmp_path / "cb.json"
    p.write_text(
        json.dumps(
            {
                "dimension": 2,
                "symbols": ["0", "1"],
                "forbidden": [[["0", "0"]], [["1", "1"]], [["0"], ["0"]], [["1"], ["1"]]],
            }
        )
    )
    assert main(["sample", str(p), "--level", "1", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", str(p), "--level", "1", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 4


def test_sample_empty(kill_file, capsys):
    assert main(["sample", kill_file, "--level", "0", "--seed", "1"]) == 2
    # the walk ends on the empty level 0, and the message names it
    capsys.readouterr()
    assert main(["sample", kill_file, "--level", "2", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "empty: no allowed blocks at level 0\n"


def test_sample_d1(tmp_path, capsys):
    p = tmp_path / "d1.json"
    p.write_text(json.dumps({"dimension": 1, "symbols": ["0", "1"], "forbidden": [["1", "1"]]}))
    assert main(["sample", str(p), "--level", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 4 and "11" not in out


def test_witness(hs_file, kill_file, capsys):
    assert main(["witness", hs_file, "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 8
    assert main(["witness", kill_file, "--level", "1"]) == 2


def test_witness_exhausted(tmp_path, capsys):
    # one allowed cube that cannot tile with itself: the complete search
    # exhausts, which certifies the level empty (exit 2)
    cubes = []
    keep = (0, 1, 1, 0)
    import itertools

    for d in itertools.product(range(2), repeat=4):
        if d != keep:
            cubes.append([[str(d[0]), str(d[1])], [str(d[2]), str(d[3])]])
    p = tmp_path / "rigid.json"
    p.write_text(json.dumps({"dimension": 2, "symbols": ["0", "1"], "forbidden": cubes}))
    assert main(["witness", str(p), "--level", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "absent: search space exhausted: level 1 is empty\n"


def test_witness_refuses_a_deep_level_at_once(capsys):
    # 2^(2 * 10^11) - 1 nodes: refused by its bit length, without the power
    # of 2.5e10 bytes being built
    hs = os.path.join(GOLDEN_SPECS, "hard_squares.json")
    start = time.perf_counter()
    assert main(["witness", hs, "--level", "100000000000"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "absent: node budget 200000 exhausted (not an emptiness proof)\n"


def test_witness_agrees_with_analyze_on_an_empty_level(capsys):
    # lone_cube's one allowed cube pairs with itself along no axis: both
    # commands certify level 1 empty
    lone = os.path.join(GOLDEN_SPECS, "lone_cube.json")
    assert main(["analyze", lone, "--levels", "1"]) == 2
    capsys.readouterr()
    assert main(["witness", lone, "--level", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "level 1 is empty" in err
    assert "not an emptiness proof" not in err


def test_compare(hs_file, capsys):
    assert main(["compare", hs_file, "--shapes", "4x2,4x4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "4x2,41,41,true" in out
    assert "4x4,1234,1234,true" in out
    assert main(["compare", hs_file, "--shapes", "4x2,4x4"]) == 0
    assert capsys.readouterr().out == "4x2: engine=41 oracle=41 ok\n4x4: engine=1234 oracle=1234 ok\n"


def test_compare_checks_each_shape_before_any_oracle_runs(hs_file, monkeypatch, capsys):
    # 18x17 is no doubling stage: the matrix engine's shape check comes
    # before the oracles, which would run first and long
    import sftkit.oracle

    def refused(*a, **k):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(sftkit.oracle, "brute_force_allowed", refused)
    monkeypatch.setattr(sftkit.oracle, "profile_count", refused)
    for shapes in ("18x17", "4x2,18x17"):
        assert main(["compare", hs_file, "--shapes", shapes]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: shape (18, 17) is not a doubling stage")


def test_compare_past_the_brute_force_cap_keeps_an_independent_oracle(hs_file, capsys):
    # 8x4 is 2^32 candidates: the matrix engine is checked against the DP,
    # and the DP, which has no oracle left but itself, stops on the cap
    assert main(["compare", hs_file, "--shapes", "8x4", "--engine", "matrix"]) == 0
    assert capsys.readouterr().out == "8x4: engine=1095851 oracle=1095851 ok\n"
    assert main(["compare", hs_file, "--shapes", "4x4,8x4", "--engine", "dp"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "budget: no oracle for 8x4 but the DP under test: "
        "brute force would enumerate 4294967296 candidates (cap 16777216)\n"
    )


def test_export_import_round_trip(tmp_path, hs_file, capsys):
    out_file = tmp_path / "state.json"
    assert main(["export-state", hs_file, "--levels", "1", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["import-state", str(out_file), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "0,squares,7,41,nonempty-to-level-1" in out
    # tampering is rejected
    text = out_file.read_text().replace('"cube_count":9', '"cube_count":8')
    out_file.write_text(text)
    assert main(["import-state", str(out_file)]) == 4


def test_cli_byte_determinism(tmp_path, hs_file):
    cmd = [sys.executable, "-m", "sftkit", "analyze", hs_file, "--levels", "1", "--format", "csv"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_count_matrix_takes_next_stage_from_relation(tmp_path, hs_file, capsys):
    # the asked stage is a relation size: it is neither built nor stepped past
    assert main(["count", hs_file, "--shape", "4x2", "--engine", "matrix", "--max-work", "100"]) == 0
    assert capsys.readouterr().out.strip() == "41"
    assert main(["count", hs_file, "--shape", "8x4", "--engine", "matrix"]) == 0
    assert capsys.readouterr().out.strip() == "1095851"
    p = tmp_path / "cubes.json"
    forbidden = [[[[0, 0, 0], "1"], [c, "1"]] for c in ([0, 0, 1], [0, 1, 0], [1, 0, 0])]
    p.write_text(json.dumps({"dimension": 3, "symbols": ["0", "1"], "forbidden": forbidden}))
    args = ["count", str(p), "--shape", "4x2x2", "--engine", "matrix", "--max-work", "2000"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "933"
    # a level-0 block with one axis halved is no chain stage
    assert main(["count", str(p), "--shape", "2x1x1", "--engine", "matrix"]) == 4


def test_analyze_level0_builds_no_relations(tmp_path, capsys):
    # 80 allowed cubes: level-0 relations would exceed the work cap
    p = tmp_path / "three.json"
    p.write_text(
        json.dumps({"dimension": 2, "symbols": ["0", "1", "2"], "forbidden": [[["0", "1"], ["2", "0"]]]})
    )
    assert main(["analyze", str(p), "--levels", "0", "--format", "csv"]) == 0
    assert "0,squares,80,,nonempty-to-level-0" in capsys.readouterr().out.splitlines()


def test_analyze_literal_keeps_vertical_level_on_horizontal_stop(hs_file, capsys):
    # the level-1 vertical matrix fits the index cap, the horizontal one
    # does not: the vertical row is reported before the stop
    assert main(["analyze", hs_file, "--levels", "2", "--mode", "literal", "--format", "csv"]) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == [
        "0,vert,7,41,inconclusive",
        "0,horiz,49,1234,inconclusive",
        "1,vert,2401,1095851,inconclusive",
    ]
    assert main(["analyze", hs_file, "--levels", "2", "--mode", "literal"]) == 3
    assert "reduced" in capsys.readouterr().out


def test_analyze_reduced_keeps_vrel_on_horizontal_stop(hs_file, capsys):
    assert main(["analyze", hs_file, "--levels", "2", "--format", "csv"]) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2:] == ["1,squares,1234,1095851,inconclusive", "1,rects,1095851,,inconclusive"]


def test_analyze_chain_keeps_stages_on_budget_stop(tmp_path, capsys):
    # d=3 hard cubes, also without 1s on three face diagonals: 19 cubes
    pairs = [
        ([0, 0, 0], [0, 0, 1]), ([0, 0, 0], [0, 1, 0]), ([0, 0, 0], [1, 0, 0]),
        ([0, 0, 0], [0, 1, 1]), ([0, 0, 1], [0, 1, 0]), ([0, 0, 0], [1, 1, 0]),
    ]
    p = tmp_path / "diag.json"
    forbidden = [[[a, "1"], [b, "1"]] for a, b in pairs]
    p.write_text(json.dumps({"dimension": 3, "symbols": ["0", "1"], "forbidden": forbidden}))
    args = ["analyze", str(p), "--levels", "1", "--max-work", "1000", "--format", "csv"]
    assert main(args) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["0,cubes,19,281,inconclusive", "1,dir1,281,,inconclusive"]


def test_witness_exit_code_comes_from_the_typed_status(hs_file, kill_file, monkeypatch, capsys):
    import sftkit.levels
    from sftkit import WitnessResult

    # a search that found nothing, whatever its reason says, is no proof
    found_nothing = WitnessResult(None, 12, "every branch came back empty")
    monkeypatch.setattr(sftkit.levels, "witness_search", lambda *a, **k: found_nothing)
    assert main(["witness", hs_file, "--level", "2"]) == 3
    assert "not an emptiness proof" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["witness", kill_file, "--level", "1"]) == 2


def test_import_state_rejects_a_resigned_archive_missing_a_field(tmp_path, hs_file, capsys):
    import hashlib

    out_file = tmp_path / "state.json"
    assert main(["export-state", hs_file, "--levels", "0", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    del payload["separator"], payload["checksum"]
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    out_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["import-state", str(out_file)]) == 4
    assert "archive: archive field separator is missing" in capsys.readouterr().err


def _resign(path, edit):
    import hashlib

    payload = json.loads(path.read_text())
    del payload["checksum"]
    edit(payload)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(payload))


def _hs_archives(tmp_path, hs_file):
    """Hard squares at --levels 1 as export-state writes it, ending on the
    relation of the rects, stage 1, and as archives were written before,
    holding the level-1 squares as stage 2."""
    from sftkit import analyze, parse_spec, save_state

    from conftest import with_target

    out_file, old_file = tmp_path / "state.json", tmp_path / "with_target.json"
    assert main(["export-state", hs_file, "--levels", "1", "--out", str(out_file)]) == 0
    save_state(with_target(analyze(parse_spec(HS), 1)), str(old_file))
    return out_file, old_file


def test_import_state_rescans_a_forged_square(tmp_path, hs_file, capsys):
    out_file, old_file = _hs_archives(tmp_path, hs_file)
    # two adjacent ones in a 4x2 rect, and in a 4x4 square
    for path, i, forged in ((out_file, 1, "11000000"), (old_file, 2, "1100000000000000")):
        _resign(path, lambda p: p["stages"][i]["blocks"].__setitem__(0, forged))
        capsys.readouterr()
        assert main(["import-state", str(path)]) == 4
        assert f"archive: archive field stages[{i}].blocks holds a forbidden block" in capsys.readouterr().err


def _one_more_square(p):
    p["report_rows"][-1][2] += 1


def _one_pair_fewer(p):
    p["report_rows"][0][3] -= 1


def _last_row_dropped(p):
    p["report_rows"].pop()


def _level_renumbered(p):
    # the last stage: the rects, or the level-1 squares of an archive that
    # holds them
    p["stages"][-1]["level"] = 2


@pytest.mark.parametrize("edit", [_one_more_square, _one_pair_fewer, _last_row_dropped, _level_renumbered])
def test_import_state_checks_report_rows_against_the_levels(tmp_path, hs_file, capsys, edit):
    for path in _hs_archives(tmp_path, hs_file):
        _resign(path, edit)
        capsys.readouterr()
        assert main(["import-state", str(path)]) == 4
        assert "archive: " in capsys.readouterr().err


def test_candidate_counts_too_long_to_print_are_budget_stops(tmp_path, hs_file, capsys):
    # 2^40000 and 2^20000 candidates pass the interpreter's limit on
    # printing ints: they are refused as k^n, without being built
    wide = tmp_path / "wide.json"
    pattern = [[[0, 0], "1"], [[199, 0], "1"]]
    wide.write_text(json.dumps({"dimension": 2, "symbols": ["0", "1"], "forbidden": [pattern]}))
    cases = [
        (["analyze", str(wide), "--levels", "0"],
         "normalization needs 2^40000 candidate cubes; raise max_cubes to at least 2^40000"),
        (["count", hs_file, "--shape", "200x200"],
         "brute force would enumerate 2^40000 candidates (cap 16777216)"),
        (["count", hs_file, "--engine", "dp", "--shape", "4x20000"],
         "profile DP needs 2^20000 states (cap 1048576)"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"budget: {message}\n"


def test_undersized_counts_too_long_to_print_are_budget_stops(hs_file, capsys):
    # a 1-row shape holds no 2x2 cube, so every one of its 2^n fillings
    # counts; 2^100 is printed, 2^20000 is refused as k^n without being built
    assert main(["count", hs_file, "--engine", "dp", "--shape", "1x100"]) == 0
    assert capsys.readouterr().out.strip() == str(2**100)
    assert main(["count", hs_file, "--engine", "dp", "--shape", "1x20000"]) == 3
    assert capsys.readouterr().err == "budget: profile DP count 2^20000 is too long to print\n"


def test_full_box_dp_counts_too_long_to_print_are_budget_stops(tmp_path, capsys):
    # with the symbol 2 forbidden, an r x s box holds 2^(rs) blocks: 2^14000
    # (PRINTED_MAX) is printed, 2^14400 (120x120) is refused as a thin box's
    # count is, by `count`, and 2^16384 by `compare` on the doubling stage
    # 128x128, where it takes the DP as its oracle
    spec = tmp_path / "no_twos.json"
    spec.write_text(json.dumps({"dimension": 2, "symbols": ["0", "1", "2"], "forbidden": [[["2"]]]}))
    assert main(["count", str(spec), "--engine", "dp", "--shape", "140x100"]) == 0
    assert capsys.readouterr().out.strip() == str(2**14000)
    for argv, bits in ((["count", "--engine", "dp", "--shape", "120x120"], 14401), (["compare", "--shapes", "128x128"], 16385)):
        assert main([argv[0], str(spec), *argv[1:]]) == 3
        assert capsys.readouterr().err == f"budget: profile DP count of {bits} bits is too long to print\n"


# ---------------------------------------------------------------------------
# one subparser per call, under the whole tree's help and error text

import argparse  # noqa: E402

from sftkit.cli import _COMMANDS, build_parser  # noqa: E402


def _exit_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as e:
        parse(argv)
    out = capsys.readouterr()
    return e.value.code, out.out, out.err


def _as_main(exit_text):
    # main exits 4 where argparse refuses an argv with 2 (2 is the
    # certified-empty code); help exits 0 in both
    code, out, err = exit_text
    return {0: 0, 2: 4}[code], out, err


@pytest.mark.parametrize("name", [c[0] for c in _COMMANDS])
def test_one_subparser_speaks_like_the_whole_tree(name, monkeypatch, capsys):
    whole = build_parser().parse_args
    for argv in ([name, "-h"], [name], [name, "x", "--bogus"], [name, "x", "--threads", "q"]):
        assert _exit_text(main, argv, capsys) == _as_main(_exit_text(whole, argv, capsys))
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, command, **kwargs):
        built.append(command)
        return add_parser(self, command, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    _exit_text(main, [name, "-h"], capsys)
    assert built == [name]


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]])
def test_top_level_text_is_the_whole_tree(argv, capsys):
    code, out, err = _exit_text(main, argv, capsys)
    assert (code, out, err) == _as_main(_exit_text(build_parser().parse_args, argv, capsys))
    assert "{validate,normalize,analyze,count,sample,witness,compare,export-state,import-state}" in out + err


@pytest.mark.parametrize("spec, levels, code", [("kill", "1", 2), ("hs", "2", 3)])
def test_import_state_exits_with_the_reports_code(tmp_path, hs_file, kill_file, capsys, spec, levels, code):
    out_file = str(tmp_path / "state.json")
    spec_file = {"hs": hs_file, "kill": kill_file}[spec]
    assert main(["export-state", spec_file, "--levels", levels, "--out", out_file, "--format", "csv"]) == code
    exported = capsys.readouterr().out
    assert main(["import-state", out_file, "--format", "csv"]) == code
    assert capsys.readouterr().out == exported


def test_budget_stopped_export_writes_key_groups_not_pairs(tmp_path, hs_file, capsys):
    # the stop leaves level 1's 1,095,851 squares pairs as the last relation:
    # archived as its 1,234 key groups, not pair by pair
    out_file = tmp_path / "state.json"
    caps = ["--max-blocks", "2000", "--format", "csv"]
    assert main(["export-state", hs_file, "--levels", "2", "--out", str(out_file), *caps]) == 3
    exported = capsys.readouterr().out
    assert exported.splitlines()[-2:] == ["1,squares,1234,1095851,inconclusive", "1,rects,1095851,,inconclusive"]
    assert out_file.stat().st_size <= 10**6
    assert main(["import-state", str(out_file), *caps]) == 3
    assert capsys.readouterr().out == exported


@pytest.mark.parametrize(
    "argv, code",
    [
        (["witness", "{hs}", "--level", "-1"], 4),
        (["witness", "{hs}", "--level", "1000"], 3),
        (["export-state", "{hs}", "--levels", "1", "--out", "{tmp}/missing/state.json"], 4),
        (["export-state", "{hs}", "--levels", "1", "--out", "{tmp}"], 4),
        (["analyze", "{hs}", "--levels", "-1"], 4),
        (["sample", "{hs}", "--level", "-1", "--seed", "1"], 4),
        (["sample", "{hs}", "--level", "1000", "--seed", "1"], 3),
        (["count", "{tmp}/missing.json", "--shape", "4x4"], 4),
        (["count", "{hs}", "--shape", "4x"], 4),
        # named, so that the mutation gate's `_caps_of` mutant names it
        pytest.param(["analyze", "{hs}", "--levels", "1", "--threads", "0"], 4, id="threads-0"),
        (["import-state", "{tmp}"], 4),
        (["compare", "{hs}", "--shapes", ","], 4),
    ],
)
def test_bad_inputs_stop_with_a_message(tmp_path, hs_file, capsys, argv, code):
    # each case stops at its first check or budget, without a traceback
    argv = [a.format(hs=hs_file, tmp=tmp_path) for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err and "Traceback" not in err
    if code == 4:
        assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "{hs}", "--engine", "matrix", "--shape", "4x3"],
         "shape (4, 3) is not a doubling stage: the matrix engine counts blocks whose first axes "
         "are 2*2^n and whose other axes are half that, in axis order"),
        # every command checks the common flags
        (["validate", "{hs}", "--threads", "0"], "--threads must be >= 1"),
        # the spec is read before the flags
        (["validate", "{tmp}/missing.json", "--threads", "0"], "cannot read {tmp}/missing.json"),
        # a cap below 0 is refused before any engine runs; 0 is a cap
        (["count", "{hs}", "--engine", "matrix", "--shape", "4x2", "--max-work", "-1"],
         "--max-work must be >= 0"),
        (["analyze", "{hs}", "--levels", "1", "--max-cubes", "-1"], "--max-cubes must be >= 0"),
        (["sample", "{hs}", "--level", "1", "--seed", "1", "--max-index", "-1"], "--max-index must be >= 0"),
        (["validate", "{hs}", "--max-blocks", "-5"], "--max-blocks must be >= 0"),
    ],
    ids=["matrix-shape", "validate-threads", "spec-first", "max-work", "max-cubes", "max-index", "max-blocks"],
)
def test_input_errors_exit_4_with_their_message(tmp_path, hs_file, capsys, argv, message):
    assert main([a.format(hs=hs_file, tmp=tmp_path) for a in argv]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + message.format(tmp=tmp_path))


def test_main_calls_the_handler_in_the_module_when_it_runs(tmp_path, hs_file, monkeypatch):
    # a function swapped in the module, as the benchmark's tracer swaps it,
    # is the one `main` calls
    import sftkit.cli

    calls = []

    def swapped(args, spec, caps):
        calls.append((args.command, args.levels, caps.max_work))
        return 0

    monkeypatch.setattr(sftkit.cli, "_cmd_export", swapped)
    out = str(tmp_path / "state.json")
    assert main(["export-state", hs_file, "--levels", "1", "--out", out, "--max-work", "7"]) == 0
    assert calls == [("export-state", 1, 7)]
    assert not os.path.exists(out)


def test_dp_counts_in_every_dimension(capsys):
    # the DP serves compare's fallback and count --engine dp in d = 1 and 3
    specs = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "specs")
    diag = os.path.join(specs, "d3_diag.json")
    assert main(["compare", diag, "--shapes", "2x2x2,4x2x2,4x4x2", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "shape,engine_count,oracle_count,match",
        "2x2x2,19,19,true",
        "4x2x2,281,281,true",
        "4x4x2,39543,39543,true",
    ]
    assert main(["count", os.path.join(specs, "d1.json"), "--engine", "dp", "--shape", "40"]) == 0
    assert capsys.readouterr().out.strip() == "267914296"


# ---------------------------------------------------------------------------
# a plain argv is read from the command table, and argparse reads the rest

import contextlib  # noqa: E402
import io  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sftkit.cli import _COMMON, _parse_plain  # noqa: E402


def _argparse_vars(argv):
    """argparse's namespace for `argv` as a dict, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(argv[0] if argv else None).parse_args(argv))
        except SystemExit:
            return None


def _options(arguments):
    return [(flags[0], kwargs) for flags, kwargs in arguments + _COMMON if flags[0].startswith("-")]


def _good_value(kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if kwargs.get("type") is int:
        return st.integers(0, 10**6).map(str) | st.sampled_from((" 7", "+3", "1_000"))
    return st.sampled_from(("4x4", "a.json", "x y", "2x2,4x2"))


_BAD_VALUES = ("", "-1", "-x", "q", "1.5", "bogus", "--", "-h", "=1")


@st.composite
def _plain_argvs(draw):
    """A command, its one positional and every required flag with a value
    its type and choices take, in any order, some common flags repeated."""
    name, _, _, arguments = draw(st.sampled_from(_COMMANDS))
    options = _options(arguments)
    chosen = [o for o in options if o[1].get("required")]
    chosen += draw(st.lists(st.sampled_from(options), max_size=4))
    pieces = [[draw(st.sampled_from(("x.json", "spec", "a b", "7")))]]
    pieces += [[flag, draw(_good_value(kwargs))] for flag, kwargs in chosen]
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@st.composite
def _any_argvs(draw):
    """A plain argv with some of its pieces spoiled: abbreviated, `=`-joined,
    unknown or valueless flags, bad ints, unknown choices, a dropped
    required flag, zero or two positionals, `-h`, `--`, negative numbers
    and empty strings."""
    argv = draw(_plain_argvs())
    options = _options(next(c[3] for c in _COMMANDS if c[0] == argv[0]))
    for _ in range(draw(st.integers(1, 3))):
        flag, kwargs = draw(st.sampled_from(options))
        value = draw(_good_value(kwargs))
        spoilt = draw(
            st.one_of(
                st.integers(3, len(flag) - 1).map(lambda n: [flag[:n], value]),
                st.sampled_from(_BAD_VALUES).map(lambda bad: [flag, bad]),
                st.sampled_from(
                    ([f"{flag}={value}"], [flag], ["--bogus", value], ["-h"], ["--help"], ["--"], [""],
                     ["-3"], ["y.json"])
                ),
            )
        )
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = spoilt
    if draw(st.booleans()):
        # drop a token: a positional, a flag or a value
        del argv[draw(st.integers(1, len(argv) - 1))]
    if draw(st.booleans()):
        argv[0] = draw(st.sampled_from(("", "bogus", "-h", "analyse")))
    return argv


@given(_plain_argvs())
@settings(max_examples=300, deadline=None)
def test_the_table_reads_a_plain_argv_as_argparse_does(argv):
    plain = _parse_plain(argv)
    assert plain is not None, argv
    assert vars(plain) == _argparse_vars(argv)


@given(_any_argvs())
@settings(max_examples=500, deadline=None)
def test_the_table_declines_what_argparse_refuses(argv):
    plain = _parse_plain(argv)
    parsed = _argparse_vars(argv)
    if parsed is None:
        assert plain is None, argv
    elif plain is not None:
        assert vars(plain) == parsed


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "x", "--levels", "1", "--mode", "bogus"],
        ["analyze", "x"],
        ["count", "x", "--engine", "dp"],
        ["analyze", "x", "--lev", "1"],
        ["analyze", "x", "--levels=1"],
        ["analyze", "x", "--levels", "q"],
        ["analyze", "x", "--levels", "-1"],
        ["analyze", "x", "--levels"],
        ["analyze", "x", "y", "--levels", "1"],
        ["analyze", "--levels", "1"],
        ["analyze", "", "--levels", "1"],
        ["analyze", "x", "--levels", "1", "-h"],
        ["analyze", "--", "x", "--levels", "1"],
        ["analyse", "x", "--levels", "1"],
        [],
    ],
    ids=[
        "unknown-choice", "missing-levels", "missing-shape", "abbreviated", "joined", "bad-int",
        "negative", "no-value", "two-positionals", "no-positional", "empty", "help", "dashes",
        "unknown-command", "empty-argv",
    ],
)
def test_the_table_leaves_every_other_argv_to_argparse(argv):
    assert _parse_plain(argv) is None


def test_a_plain_argv_builds_no_argument_parser(hs_file, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main(["analyze", hs_file, "--levels", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1,squares,1234,,nonempty-to-level-1"
    with pytest.raises(AssertionError, match="an ArgumentParser was built"):
        main(["analyze", hs_file, "--levels", "1", "--mode", "bogus"])
