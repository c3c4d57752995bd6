import contextlib
import io
import itertools
import json
import os

import pytest

from sftkit import (
    ArchiveError,
    Block,
    FormatError,
    Pattern,
    SpecError,
    analyze,
    load_state,
    parse_spec,
    render_block,
    sample_patch,
    save_state,
    serialize_spec,
)

from conftest import with_target

HS_DOC = {
    "dimension": 2,
    "symbols": ["0", "1"],
    "forbidden": [[["1", "1"]], [["1"], ["1"]]],
}


def test_parse_dense_horizontal_domino():
    spec = parse_spec({"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "1"]]]})
    assert spec.forbidden == (Pattern.from_cells([((0, 0), 1), ((0, 1), 1)]),)


def test_parse_sparse_vertical_domino():
    spec = parse_spec(
        {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[[[0, 0], "1"], [[1, 0], "1"]]]}
    )
    assert spec.forbidden == (Pattern.from_cells([((0, 0), 1), ((1, 0), 1)]),)


def test_parse_sparse_anchors_translation():
    spec = parse_spec(
        {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[[[4, 7], "1"], [[5, 7], "1"]]]}
    )
    assert spec.forbidden == (Pattern.from_cells([((0, 0), 1), ((1, 0), 1)]),)


def test_parse_fill_marker():
    spec = parse_spec(
        {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "*"], ["*", "1"]]]}
    )
    assert spec.forbidden == (Pattern.from_cells([((0, 0), 1), ((1, 1), 1)]),)


def test_parse_unknown_symbol_names_pattern():
    with pytest.raises(SpecError) as exc:
        parse_spec({"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["2", "1"]]]})
    assert "forbidden[0]" in str(exc.value)
    with pytest.raises(SpecError) as exc:
        parse_spec({"dimension": 2, "symbols": ["0", "1"], "forbidden": [[[[0, 0], "2"]]]})
    assert str(exc.value) == "forbidden[0]: unknown symbol '2'"


def test_parse_rejects_unknown_fields():
    with pytest.raises(FormatError) as exc:
        parse_spec({"dimension": 2, "symbols": ["0"], "forbidden": [], "extra": 1})
    assert "extra" in str(exc.value)


def test_parse_missing_field_and_bad_json():
    with pytest.raises(FormatError):
        parse_spec({"dimension": 2, "symbols": ["0"]})
    with pytest.raises(FormatError) as exc:
        parse_spec("{ not json")
    assert "line" in str(exc.value)
    for doc, message in (
        ([], "document root must be an object"),
        ({"dimension": "2", "symbols": ["0"], "forbidden": []}, "dimension: expected an integer"),
        ({"dimension": 2, "symbols": [0, 1], "forbidden": []}, "symbols: expected a list of strings"),
        ({"dimension": 2, "symbols": ["0"], "forbidden": {}}, "forbidden: expected a list of patterns"),
        ({"dimension": 2, "symbols": ["0"], "forbidden": [[["0", 0]]]}, "forbidden[0]: expected a symbol at depth 2"),
        ({"dimension": 2, "symbols": ["0"], "forbidden": [[[]]]}, "forbidden[0]: expected a nonempty list at depth 1"),
    ):
        with pytest.raises(FormatError) as exc:
            parse_spec(doc)
        assert str(exc.value) == message


def test_parse_semantic_errors():
    with pytest.raises(SpecError):
        parse_spec({"dimension": 0, "symbols": ["0"], "forbidden": []})
    with pytest.raises(SpecError):
        parse_spec({"dimension": 2, "symbols": [], "forbidden": []})
    with pytest.raises(SpecError):
        parse_spec({"dimension": 2, "symbols": ["0", "0"], "forbidden": []})
    with pytest.raises(SpecError):
        parse_spec({"dimension": 2, "symbols": ["*"], "forbidden": []})
    with pytest.raises(SpecError) as exc:
        parse_spec({"dimension": 2, "symbols": ["0"], "forbidden": [[["*", "*"]]]})
    assert "empty support" in str(exc.value)


def test_parse_refuses_conflicting_cells_and_patterns_that_are_no_list():
    with pytest.raises(SpecError) as exc:
        parse_spec({**HS_DOC, "forbidden": [[[[0, 0], "1"], [[0, 0], "0"]]]})
    assert type(exc.value) is SpecError
    assert str(exc.value) == "forbidden[0]: conflicting symbols at cell (0, 0)"
    for pattern in ([], "1"):
        with pytest.raises(FormatError) as exc:
            parse_spec({**HS_DOC, "forbidden": [pattern]})
        assert str(exc.value) == "forbidden[0]: expected a nonempty list at depth 0"


def test_serialize_parse_fixed_point():
    spec = parse_spec(HS_DOC)
    doc = serialize_spec(spec)
    again = parse_spec(doc)
    assert again == spec
    assert serialize_spec(again) == doc


def test_render_2d():
    assert render_block(Block((2, 2), (0, 1, 1, 0)), ["0", "1"]) == "01\n10"
    assert render_block(Block((1, 1), (0,)), ["a"]) == "a"


def test_render_multichar_and_dims():
    assert render_block(Block((1, 2), (0, 1)), ["aa", "b"]) == "aa b"
    assert render_block(Block((3,), (0, 1, 0)), ["0", "1"]) == "010"
    got = render_block(Block((2, 1, 2), (0, 1, 1, 0)), ["0", "1"])
    assert got == "01\n\n10"
    # d=4: axis-0 slices are joined by three newlines, d=3 layers by two
    got = render_block(Block((2, 2, 1, 2), (0, 1, 1, 0, 1, 1, 0, 0)), ["0", "1"])
    assert got == "01\n\n10\n\n\n11\n\n00"


def test_render_checkerboard_patch(checkerboard):
    res = analyze(checkerboard, 1)
    text = render_block(sample_patch(res.levels[1], 3), checkerboard.alphabet)
    lines = text.splitlines()
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            if c + 1 < len(line):
                assert ch != line[c + 1]
            if r + 1 < len(lines):
                assert ch != lines[r + 1][c]


def test_archive_round_trip(tmp_path, hard_squares):
    res = analyze(hard_squares, 1)
    path = tmp_path / "state.json"
    save_state(res, str(path))
    loaded = load_state(str(path))
    assert loaded.report == res.report
    assert loaded.index == res.index
    assert len(loaded.levels) == len(res.levels)
    for a, b in zip(loaded.levels, res.levels):
        assert a.squares == b.squares
        assert a.vrel == b.vrel
        assert a.hrel == b.hrel
    # bit-exact: saving the loaded state reproduces the file
    path2 = tmp_path / "state2.json"
    save_state(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_archive_integrity(tmp_path, hard_squares):
    res = analyze(hard_squares, 1)
    path = tmp_path / "state.json"
    save_state(res, str(path))
    text = path.read_text()
    assert '"cube_count":9' in text
    path.write_text(text.replace('"cube_count":9', '"cube_count":8'))
    with pytest.raises(ArchiveError) as exc:
        load_state(str(path))
    assert "integrity" in str(exc.value)


def test_archive_version_gate(tmp_path, hard_squares, capsys):
    from sftkit.cli import main

    res = analyze(hard_squares, 1)
    path = tmp_path / "state.json"
    save_state(res, str(path))
    payload = json.loads(path.read_text())
    for version in (1, 99):
        payload["version"] = version
        path.write_text(json.dumps(payload))
        message = f"archive version {version} is not loadable by this build (wants 2)"
        assert _load_error(str(path)) == message
        capsys.readouterr()
        assert main(["import-state", str(path)]) == 4
        assert capsys.readouterr().err == f"archive: {message}\n"


def test_archive_empty_space_preserves_verdict(tmp_path, kill_all):
    res = analyze(kill_all, 0)
    path = tmp_path / "empty.json"
    save_state(res, str(path))
    loaded = load_state(str(path))
    assert loaded.report.verdict == "empty"
    assert loaded.report.allowed_count == 0
    assert loaded.levels[0].squares == ()


def _resigned(tmp_path, res, edit):
    """Save `res`, apply `edit` to the payload, recompute the checksum the
    way the archive format defines it, and return the file's path."""
    import hashlib

    path = tmp_path / "state.json"
    save_state(res, str(path))
    payload = json.loads(path.read_text())
    del payload["checksum"]
    edit(payload)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(payload))
    return str(path)


def _load_error(path) -> str:
    with pytest.raises(ArchiveError) as exc:
        load_state(path)
    return str(exc.value)


def test_archive_missing_or_ill_typed_fields(tmp_path, hard_squares):
    res = analyze(hard_squares, 1)
    assert "separator is missing" in _load_error(_resigned(tmp_path, res, lambda p: p.pop("separator")))
    assert "stages is missing" in _load_error(_resigned(tmp_path, res, lambda p: p.pop("stages")))
    assert "stages is not a list" in _load_error(_resigned(tmp_path, res, lambda p: p.update(stages=7)))

    def side_as_text(p):
        p["normalization"]["side"] = "2"

    assert "normalization.side is not an integer" in _load_error(_resigned(tmp_path, res, side_as_text))

    def side_off_the_spec(p):
        p["normalization"]["side"] = 3

    assert "pattern width 2" in _load_error(_resigned(tmp_path, res, side_off_the_spec))

    def stage_without_blocks(i):
        return lambda p: p["stages"][i].pop("blocks")

    def stage_renumbered(i, stage):
        return lambda p: p["stages"][i].update(stage=stage)

    # the rects, stage 1, end the archive save_state writes; stage 2, the
    # level-1 squares, ends one that holds the target, as archives did before
    old = with_target(res)
    assert "stages[1].blocks is missing" in _load_error(_resigned(tmp_path, res, stage_without_blocks(1)))
    assert "stages[2].blocks is missing" in _load_error(_resigned(tmp_path, old, stage_without_blocks(2)))
    path = _resigned(tmp_path, res, stage_renumbered(1, 2))
    assert "stages[1] is stage (1, 2), not (1, 1)" in _load_error(path)
    path = _resigned(tmp_path, old, stage_renumbered(2, 1))
    assert "stages[2] is stage (1, 1), not (1, 2)" in _load_error(path)

    def row_of_wrong_shape(p):
        p["report_rows"][0] = [0, "squares"]

    assert "report_rows[0]" in _load_error(_resigned(tmp_path, res, row_of_wrong_shape))

    def block_set(text):
        def edit(p):
            p["stages"][0]["blocks"][0] = text

        return edit

    for edit, message in (
        (lambda p: p.update(format="other"), "not a state archive"),
        (lambda p: p["stages"].__setitem__(1, 7), "archive field stages[1] is not an object"),
        (lambda p: p.update(stages=[]), "archive holds no stages"),
        (block_set(7), "archive block 7 is not a string"),
        (block_set("000"), "archive block '000': data length 3 does not match shape (2, 2)"),
    ):
        assert _load_error(_resigned(tmp_path, res, edit)) == message
    # an integer past the interpreter's digit limit fails in the JSON decoder
    past = tmp_path / "past.json"
    past.write_text('{"version": ' + "9" * 5000 + "}")
    assert _load_error(str(past)).startswith("corrupt archive: ")


def test_archive_relation_indices_are_checked(tmp_path, hard_squares):
    res = analyze(hard_squares, 1)

    def group_past_the_blocks(p):
        p["stages"][0]["relation"].append([[0], [len(p["stages"][0]["blocks"])]])

    path = _resigned(tmp_path, res, group_past_the_blocks)
    assert "indexes past the stage's 7 blocks" in _load_error(path)
    for group in ([[0], [1], [2]], [[0], 1], [[0], [True]], [[0], [None]], 0):
        path = _resigned(tmp_path, res, lambda p: p["stages"][1]["relation"].append(group))
        assert "stages[1].relation must hold [lows, highs] lists of integers" in _load_error(path)


def test_archive_cube_rebuild_is_capped_before_it_runs(tmp_path, hard_squares, monkeypatch):
    import sftkit.specio

    def wide_spec(p):
        # one more forbidden pattern 5 cells wide: 2^25 candidate 5x5 cubes
        p["spec"]["forbidden"].append([[[0, 0], "1"], [[4, 4], "1"]])
        p["normalization"]["side"] = 5

    path = _resigned(tmp_path, analyze(hard_squares, 0), wide_spec)

    def no_rebuild(*a, **k):
        raise AssertionError("iter_cubes ran")

    monkeypatch.setattr(sftkit.normalize, "iter_cubes", no_rebuild)
    assert "max_cubes" in _load_error(path)


def test_archive_loader_enumerates_the_cubes_once(tmp_path, hard_squares, monkeypatch):
    import sftkit.normalize
    import sftkit.specio

    path = tmp_path / "state.json"
    save_state(analyze(hard_squares, 1), str(path))
    calls = []
    real = sftkit.normalize.iter_cubes

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)

    for module in (sftkit.normalize, sftkit.specio):
        monkeypatch.setattr(module, "iter_cubes", counted, raising=False)
    load_state(str(path))
    assert len(calls) == 1


def test_archive_index_forgeries_keep_their_messages(tmp_path, hard_squares):
    res = analyze(hard_squares, 0)

    def swap_in_a_forbidden_cube(p):
        p["stages"][0]["blocks"][0] = "1111"

    def duplicate_a_cube(p):
        cubes = p["stages"][0]["blocks"]
        cubes[-1] = cubes[0]

    def duplicate_a_cube_and_count_its_gap(p):
        duplicate_a_cube(p)
        p["normalization"]["cube_count"] += 1

    assert "allowed cubes" in _load_error(_resigned(tmp_path, res, swap_in_a_forbidden_cube))
    assert "counts disagree" in _load_error(_resigned(tmp_path, res, duplicate_a_cube))
    assert "allowed cubes" in _load_error(_resigned(tmp_path, res, duplicate_a_cube_and_count_its_gap))


def test_archive_normalization_mode_must_be_all_extensions(tmp_path, hard_squares, capsys):
    from sftkit.cli import main

    def banana(p):
        p["normalization"]["mode"] = "banana"

    path = _resigned(tmp_path, analyze(hard_squares, 1), banana)
    assert "normalization mode 'banana'" in _load_error(path)
    capsys.readouterr()
    assert main(["import-state", path]) == 4
    assert capsys.readouterr().err.startswith("archive: ")


# ---------------------------------------------------------------------------
# forgeries that keep the archive's own counts consistent


def _drop_a_pair(p):
    # the last pair of stage 0's relation is dropped, the rest written one
    # pair a group, and the report rows are rewritten to the smaller count
    stage = p["stages"][0]
    pairs = [(i, j) for lows, highs in stage["relation"] for i in lows for j in highs]
    stage["relation"] = [[[i], [j]] for i, j in pairs[:-1]]
    p["report_rows"][0][3] -= 1
    p["report_rows"][1][2] -= 1


def test_archive_relations_are_rederived(tmp_path, hard_squares):
    res = analyze(hard_squares, 1)
    assert "are not the ones the spec gives" in _load_error(_resigned(tmp_path, res, _drop_a_pair))


def test_archive_next_level_is_rederived(tmp_path, hard_squares):
    from sftkit import assemble

    res = analyze(hard_squares, 1)
    # a level-1 square and the pair of stacks that makes it are dropped from
    # an archive that holds the target
    stacks = res.stages[1]
    first = res.stages[2].blocks[0]
    pair = next((x, y) for x, y in stacks.relation if assemble([[stacks.blocks[x], stacks.blocks[y]]]) == first)

    def drop(p):
        p["stages"][1]["relation"] = [[[x], [y]] for x, y in stacks.relation if (x, y) != pair]
        p["stages"][2]["blocks"].pop(0)
        p["report_rows"][1][3] -= 1
        p["report_rows"][2][2] -= 1

    assert "are not the ones the spec gives" in _load_error(_resigned(tmp_path, with_target(res), drop))

    # a rect and the pair of squares that makes it are dropped from the
    # archive save_state writes, and the rects' relation is renumbered
    squares = res.walk[0]
    first = res.walk[1].blocks[0]
    below = next((x, y) for x, y in squares.relation if assemble([[squares.blocks[x]], [squares.blocks[y]]]) == first)

    def drop_a_rect(p):
        p["stages"][0]["relation"] = [[[x], [y]] for x, y in squares.relation if (x, y) != below]
        p["stages"][1]["blocks"].pop(0)
        pairs = [(x, y) for lows, highs in p["stages"][1]["relation"] for x in lows for y in highs]
        kept = [[[x - 1], [y - 1]] for x, y in pairs if 0 not in (x, y)]
        p["stages"][1]["relation"] = kept
        p["report_rows"][0][3] -= 1
        p["report_rows"][1][2:] = [len(p["stages"][1]["blocks"]), len(kept)]
        p["report_rows"][2][2] = len(kept)

    assert "are not the ones the spec gives" in _load_error(_resigned(tmp_path, res, drop_a_rect))


def test_archive_verdict_is_rederived(tmp_path, hard_squares, kill_all):
    res = analyze(hard_squares, 1)
    assert "verdict" in _load_error(_resigned(tmp_path, res, lambda p: p.update(verdict="nonempty-to-level-5")))
    assert "verdict" in _load_error(_resigned(tmp_path, res, lambda p: p.update(verdict="empty")))
    empty = analyze(kill_all, 0)
    assert "verdict" in _load_error(_resigned(tmp_path, empty, lambda p: p.update(reason="budget")))
    # a stop reason makes a complete run inconclusive, which it may claim
    stopped = _resigned(tmp_path, res, lambda p: p.update(verdict="inconclusive", reason="budget"))
    assert load_state(stopped).report.verdict == "inconclusive"


def test_archive_index_must_be_the_specs_allowed_cubes(tmp_path, hard_squares):
    res = analyze(hard_squares, 0)

    def drop_a_cube(p):
        # the cube set rebuilt as the index's complement gains one cube
        p["stages"][0]["blocks"].pop()
        p["normalization"]["cube_count"] += 1
        p["normalization"]["allowed_count"] -= 1
        p["report_rows"][0][2] -= 1

    assert "allowed cubes" in _load_error(_resigned(tmp_path, res, drop_a_cube))


def test_import_state_refuses_a_forged_relation(tmp_path, hard_squares, capsys):
    from sftkit.cli import main

    path = _resigned(tmp_path, analyze(hard_squares, 1), _drop_a_pair)
    capsys.readouterr()
    assert main(["import-state", path, "--format", "csv"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "archive: integrity check failed" in captured.err


# ---------------------------------------------------------------------------
# documents too wide or nested too deeply to build


def test_dimension_past_the_widest_spec_is_refused(tmp_path, hard_squares, monkeypatch):
    import sftkit.specio
    from sftkit import MAX_DIMENSION, make_spec
    from sftkit.cli import main

    assert MAX_DIMENSION == 64
    assert make_spec(MAX_DIMENSION, ["0"], []).dimension == 64
    with pytest.raises(SpecError, match="<= 64"):
        make_spec(MAX_DIMENSION + 1, ["0"], [])
    # parse_spec refuses before any pattern is parsed
    monkeypatch.setattr(sftkit.specio, "_parse_pattern", None)
    for dimension in (65, 10**7, 10**9):
        with pytest.raises(SpecError, match="dimension: must be <= 64"):
            parse_spec({"dimension": dimension, "symbols": ["0"], "forbidden": [[["0"]]]})
    monkeypatch.undo()
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"dimension": 10**7, "symbols": ["0"], "forbidden": []}))
    for level in ("0", "1"):
        assert main(["analyze", str(wide), "--levels", level]) == 4
    # the archive loader parses its spec the same way
    path = _resigned(tmp_path, analyze(hard_squares, 0), lambda p: p["spec"].update(dimension=10**7))
    with pytest.raises(SpecError, match="dimension: must be <= 64"):
        load_state(path)


def _nested(depth: int, inner: str = "") -> str:
    return "[" * depth + inner + "]" * depth


def test_deeply_nested_spec_is_a_format_error(tmp_path, capsys):
    from sftkit.cli import main

    for depth in (1000, 100_000):
        text = '{"dimension": 2, "symbols": ["0", "1"], "forbidden": ' + _nested(depth) + "}"
        with pytest.raises(FormatError, match="nested too deeply"):
            parse_spec(text)
        path = tmp_path / "deep.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["validate", str(path)]) == 4
        assert "nested too deeply" in capsys.readouterr().err


def test_deeply_nested_archive_is_an_archive_error(tmp_path, capsys):
    from sftkit.cli import main
    from sftkit.specio import ARCHIVE_VERSION

    path = tmp_path / "deep_state.json"
    # every depth around the decoder's limit, where a document the decoder
    # still takes can fail in the checksum's encoder, and one far past it
    for depth in (*range(900, 1001), 100_000):
        path.write_text(f'{{"format": "sft-state", "version": {ARCHIVE_VERSION}, "x": ' + _nested(depth) + "}")
        with pytest.raises(ArchiveError):
            load_state(str(path))
        capsys.readouterr()
        assert main(["import-state", str(path)]) == 4
        assert capsys.readouterr().err.startswith("archive: ")


def test_archive_scans_only_squares_the_walk_did_not_make(tmp_path, hard_squares, capsys, monkeypatch):
    # the re-derivation proves its own squares allowed: a valid archive is
    # not rescanned, and a forged square is scanned only to name it
    import sftkit.specio
    from sftkit.cli import main

    scans = []
    original = sftkit.specio.allowed_data

    def counted(data, shape, cubes):
        scans.append(shape)
        return original(data, shape, cubes)

    monkeypatch.setattr(sftkit.specio, "allowed_data", counted)
    res = analyze(hard_squares, 1)
    # the last stage of the archive save_state writes is the 4x2 rects; an
    # archive that holds the target ends on the 4x4 level-1 squares
    for archived, i, forged, shape in ((res, 1, "11000000", (4, 2)), (with_target(res), 2, "1100000000000000", (4, 4))):
        valid = tmp_path / "valid.json"
        save_state(archived, str(valid))
        assert load_state(str(valid)) is not None and scans == []

        def forbidden(p):
            p["stages"][i]["blocks"][0] = forged

        capsys.readouterr()
        assert main(["import-state", str(_resigned(tmp_path, archived, forbidden))]) == 4
        assert f"archive field stages[{i}].blocks holds a forbidden block" in capsys.readouterr().err
        assert scans == [shape]

        def allowed_in_place_of_another(p):
            blocks = p["stages"][i]["blocks"]
            blocks[0] = blocks[1]

        scans.clear()
        assert main(["import-state", str(_resigned(tmp_path, archived, allowed_in_place_of_another))]) == 4
        assert "the stages are not the ones the spec gives" in capsys.readouterr().err
        assert scans == []


def test_loaded_levels_are_the_derived_ones_and_step_on_their_stacks(tmp_path, hard_squares, monkeypatch):
    # the loader hands back the levels its re-derivation walked, stacks
    # stage included, so stepping a loaded level builds only the next squares
    import sftkit.levels
    from sftkit import reduced_step

    res = analyze(hard_squares, 1)
    path = tmp_path / "hs.json"
    save_state(res, str(path))
    loaded = load_state(str(path))
    assert loaded.levels == res.levels
    assert loaded.levels[0].stacks is not None

    calls = []
    original = sftkit.levels.d_chain_step

    def counted(state, *a, **k):
        calls.append((state.level, state.stage))
        return original(state, *a, **k)

    monkeypatch.setattr(sftkit.levels, "d_chain_step", counted)
    nxt = reduced_step(loaded.levels[0])
    assert len(calls) == 1
    assert len(nxt.squares) == 1234


# ---------------------------------------------------------------------------
# an archive holds the walk analyze ran, ending on the relation that counts
# the target; archives that hold the target stage as well still load

_DATA = os.path.join(os.path.dirname(__file__), "data")
_LEGACY = os.path.join(_DATA, "legacy", "hard_squares-1-with-target.state.json")


def test_archive_that_holds_its_target_stage_still_imports(hard_squares, capsys):
    # export-state's bytes for hard squares at --levels 1 while archives
    # held the level-1 squares
    from sftkit.cli import main

    with open(_LEGACY, encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    assert [(st["level"], st["stage"], len(st["blocks"])) for st in stages] == [(0, 2, 7), (1, 1, 41), (1, 2, 1234)]
    with open(os.path.join(_DATA, "golden", "cases.json"), encoding="utf-8") as fh:
        want = json.load(fh)["export-hard_squares-1"]
    capsys.readouterr()
    assert main(["import-state", _LEGACY, "--format", "csv"]) == want["exit"]
    assert capsys.readouterr().out == want["stdout"]
    loaded, res = load_state(_LEGACY), analyze(hard_squares, 1)
    assert loaded.walk == res.stages and loaded.stages == res.stages
    assert loaded.levels == res.levels


def test_export_and_import_never_build_the_target_stage(tmp_path, monkeypatch, capsys):
    import sftkit.chain
    import sftkit.levels
    from sftkit.cli import main

    built = []
    original = sftkit.chain.d_chain_step

    def counted(*a, **k):
        out = original(*a, **k)
        built.append(out.shape)
        return out

    for module in (sftkit.chain, sftkit.levels):
        monkeypatch.setattr(module, "d_chain_step", counted)
    spec_file, archive = tmp_path / "hs.json", tmp_path / "state.json"
    spec_file.write_text(json.dumps(HS_DOC))
    assert main(["export-state", str(spec_file), "--levels", "1", "--out", str(archive)]) == 0
    assert main(["import-state", str(archive)]) == 0
    # each command builds the 4x2 rects, and neither the 4x4 squares
    assert built == [(4, 2), (4, 2)]
    assert [st["stage"] for st in json.loads(archive.read_text())["stages"]] == [2, 1]
    # the counter sees a step into the target: a library caller reads one
    assert len(load_state(str(archive)).stages) == 3 and built[2:] == [(4, 2), (4, 4)]


def test_import_runs_under_the_caps_analyze_ran_under(tmp_path, capsys):
    from sftkit.cli import main

    spec_file, archive = tmp_path / "hs.json", tmp_path / "state.json"
    spec_file.write_text(json.dumps(HS_DOC))
    capped = ["--max-blocks", "1000", "--format", "csv"]
    assert main(["analyze", str(spec_file), "--levels", "1", *capped]) == 0
    rows = capsys.readouterr().out
    assert rows.splitlines()[-1] == "1,squares,1234,,nonempty-to-level-1"
    assert main(["export-state", str(spec_file), "--levels", "1", "--out", str(archive), "--format", "csv"]) == 0
    assert capsys.readouterr().out == rows
    assert main(["import-state", str(archive), *capped]) == 0
    assert capsys.readouterr().out == rows
    # an archive that holds the 1234 squares still has them rebuilt to compare
    assert main(["import-state", _LEGACY, *capped]) == 3
    assert capsys.readouterr().err == "budget: next stage would hold 1234 blocks (cap 1000)\n"


@pytest.mark.parametrize(
    "name, levels, max_blocks",
    [
        ("d1_no_adjacent_ones", 0, None),
        ("d1_no_adjacent_ones", 3, None),
        ("d1_no_adjacent_ones", 4, None),
        ("hard_squares", 1, None),
        ("hard_squares", 1, 1000),
        ("checkerboard", 2, None),
        ("kill_all", 1, None),
        ("d3_hard_cubes", 0, None),
        ("d3_hard_cubes", 1, None),
    ],
)
def test_loaded_stages_and_levels_are_the_ones_analyze_gives(tmp_path, request, name, levels, max_blocks):
    # d=1 at level 4 and capped hard squares: the caps refuse the target;
    # d=3 at level 1: a budget stop ends the walk
    spec = request.getfixturevalue(name)
    caps = DEFAULT_CAPS if max_blocks is None else DEFAULT_CAPS.but(max_blocks=max_blocks)
    path = tmp_path / "state.json"
    save_state(analyze(spec, levels, caps=caps), str(path))
    loaded, res = load_state(str(path), caps), analyze(spec, levels, caps=caps)
    assert len(json.loads(path.read_text())["stages"]) == len(res.walk)
    assert loaded.walk == res.walk
    assert loaded.stages == res.stages
    assert loaded.levels == res.levels


# ---------------------------------------------------------------------------
# archive I/O by the stage: round trip, both checksum paths, symbol checks

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sftkit import DEFAULT_CAPS  # noqa: E402

# single-character symbols, multi-character ones, and a mix of the two
_ALPHABETS = (("0", "1", "2"), ("on", "off", "idle"), ("x", "yy", "zzz"))


@st.composite
def _archived_runs(draw):
    # patterns on the first four corners of the side-2 box: a domino in
    # d = 1, a 2x2 square in d = 2 and a 1x2x2 slab in d = 3
    d = draw(st.sampled_from((1, 2, 3)))
    k = draw(st.sampled_from((2, 3)))
    symbols = list(draw(st.sampled_from(_ALPHABETS))[:k])
    corners = list(itertools.product(range(2), repeat=d))[:4]
    cells = list(itertools.product(range(k), repeat=len(corners)))
    size = {"min_size": len(cells) // 4, "max_size": len(cells) * 3 // 4}
    forbidden = draw(st.lists(st.sampled_from(cells), unique=True, **size))
    spec = parse_spec(
        {
            "dimension": d,
            "symbols": symbols,
            "forbidden": [[[list(at), symbols[s]] for at, s in zip(corners, pat)] for pat in forbidden],
        }
    )
    return spec, draw(st.integers(0, 2))


# tighter than the default caps, so that no example builds a large stage; a
# run stopped by them is archived and round-tripped as well
_ROUND_TRIP_CAPS = DEFAULT_CAPS.but(max_blocks=2_000, max_work=10**5)
_CAP_FLAGS = ["--max-blocks", "2000", "--max-work", str(10**5)]


@settings(max_examples=60, deadline=None)
@given(run=_archived_runs(), at=st.integers(0, 10**9), by=st.sampled_from("0129xyz,[]{}:\"-"))
def test_archive_round_trip_property(tmp_path_factory, run, at, by):
    from sftkit.cli import _emit_report, main

    spec, level = run
    res = analyze(spec, level, caps=_ROUND_TRIP_CAPS)
    path = tmp_path_factory.mktemp("rt") / "state.json"
    save_state(res, str(path))
    text = path.read_text()
    loaded = load_state(str(path), _ROUND_TRIP_CAPS)
    assert loaded.report == res.report
    assert loaded.walk == res.walk and len(json.loads(text)["stages"]) == len(res.walk)
    assert loaded.stages == res.stages
    assert [(a.squares, a.vrel, a.hrel) for a in loaded.levels] == [
        (b.squares, b.vrel, b.hrel) for b in res.levels
    ]
    # import-state prints the report export-state printed, in either format
    for fmt in ("csv", "table"):
        exported, imported = io.StringIO(), io.StringIO()
        _emit_report(res.report, fmt, exported)
        with contextlib.redirect_stdout(imported):
            assert main(["import-state", str(path), "--format", fmt, *_CAP_FLAGS]) == res.report.exit_code()
        assert imported.getvalue() == exported.getvalue()
    assert f"mode: {'reduced' if spec.dimension == 2 else 'chain'}\n" in imported.getvalue()
    save_state(loaded, str(path))
    assert path.read_text() == text
    # one character changed anywhere before the closing newline
    i = at % (len(text) - 1)
    if text[i] == by:
        by = "3"
    path.write_text(text[:i] + by + text[i + 1 :])
    with pytest.raises(ArchiveError):
        load_state(str(path), _ROUND_TRIP_CAPS)


def test_unmodified_archive_is_checked_against_its_own_body(tmp_path, hard_squares, monkeypatch):
    import sftkit.specio

    res = analyze(hard_squares, 1)
    path = tmp_path / "state.json"
    save_state(res, str(path))

    def no_canonical(*a, **k):
        raise AssertionError("archive re-encoded")

    monkeypatch.setattr(sftkit.specio, "_canonical", no_canonical)
    assert load_state(str(path)).report == res.report


def test_archive_in_another_layout_is_checked_by_its_canonical_text(tmp_path, hard_squares):
    # `_resigned` writes json.dumps' layout, with spaces after separators
    res = analyze(hard_squares, 1)
    path = _resigned(tmp_path, res, lambda p: None)
    assert load_state(path).report == res.report


def test_archive_signed_over_its_own_non_canonical_body_faces_the_field_checks(tmp_path, hard_squares):
    import hashlib

    res = analyze(hard_squares, 1)
    path = tmp_path / "state.json"
    save_state(res, str(path))
    payload = json.loads(path.read_text())
    del payload["checksum"]

    def signed(body: str) -> str:
        path.write_text(f'{{"checksum":"{hashlib.sha256(body.encode()).hexdigest()}",{body[1:]}\n')
        return str(path)

    assert load_state(signed(json.dumps(payload, indent=1))).report == res.report
    payload["verdict"] = "empty"
    assert "verdict" in _load_error(signed(json.dumps(payload, indent=1)))


def _checksum_bodies(hard_squares) -> list:
    """An ASCII canonical archive body, and a non-ASCII one, with its
    symbols unescaped, as an archive signed over its own body holds it."""
    from sftkit.specio import _archive_payload, _canonical

    greek = parse_spec({"dimension": 2, "symbols": ["α", "β"], "forbidden": [[["β", "β"]], [["β"], ["β"]]]})
    raw = json.dumps(_archive_payload(analyze(greek, 1)), ensure_ascii=False)
    bodies = [_canonical(_archive_payload(analyze(hard_squares, 1))), raw]
    assert bodies[0].isascii() and not bodies[1].isascii()
    return bodies


def test_checksum_is_hashlibs_sha256(tmp_path, hard_squares):
    import hashlib

    from sftkit.specio import _checksum

    bodies = _checksum_bodies(hard_squares)
    for body in bodies:
        assert _checksum(body) == hashlib.sha256(body.encode("utf-8")).hexdigest()
    path = tmp_path / "state.json"
    path.write_text(f'{{"checksum":"{_checksum(bodies[1])}",{bodies[1][1:]}\n', encoding="utf-8")
    assert load_state(str(path)).spec.alphabet == ("α", "β")


def test_checksum_falls_back_to_hashlib(hard_squares, monkeypatch):
    import hashlib
    import sys

    from sftkit.specio import _checksum

    bodies = _checksum_bodies(hard_squares)
    expected = [hashlib.sha256(body.encode("utf-8")).hexdigest() for body in bodies]
    # None in sys.modules makes an import of that name fail
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    calls, sha256 = [], hashlib.sha256

    def spy(data):
        calls.append(len(data))
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", spy)
    assert [_checksum(body) for body in bodies] == expected
    assert len(calls) == 2


_HUNDRED = [*"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", *map(chr, range(0x100, 0x126))]


@pytest.mark.parametrize("wide", [False, True], ids=["k2", "k100"])
@pytest.mark.parametrize("char", ["\x00", "\x01", "?", "€"])
def test_archive_square_with_an_unknown_symbol_is_refused(tmp_path, hard_squares, wide, char):
    assert len(_HUNDRED) == 100
    if wide:
        res = analyze(parse_spec({"dimension": 2, "symbols": _HUNDRED, "forbidden": [[["Z"]]]}), 0)
    else:
        res = analyze(hard_squares, 0)

    def forge(p):
        square = p["stages"][0]["blocks"][0]
        p["stages"][0]["blocks"][0] = char + square[1:]

    assert _load_error(_resigned(tmp_path, res, forge)) == f"archive block uses unknown symbol {char!r}"


def test_hrel_view_keeps_the_set_contract(hard_squares, monkeypatch):
    from sftkit.levels import StackRelation

    res = analyze(hard_squares, 1)
    state = res.levels[0]
    view = state.hrel
    assert isinstance(view, StackRelation)
    tuples = frozenset(view)
    some = next(iter(tuples))
    fewer = tuples - {some}
    # len, iteration and view-to-view equality list the tuples without a set
    with monkeypatch.context() as m:
        m.setattr(StackRelation, "pairs", lambda self: pytest.fail("frozenset built"))
        assert len(view) == len(tuples) == 1234
        assert list(view) == sorted(tuples)
        assert view == analyze(hard_squares, 1).levels[0].hrel
    assert view == tuples and tuples == view
    assert not (view != tuples) and not (tuples != view)
    assert view != fewer and fewer != view
    assert hash(view) == hash(tuples)
    assert some in view and (len(state.squares), 0, 0, 0) not in view
    assert type(view & fewer) is frozenset and view & fewer == fewer
    assert type(view | fewer) is frozenset and view | fewer == tuples
