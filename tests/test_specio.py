import json

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
    with pytest.raises(SpecError):
        render_block(Block((1, 1, 1, 1), (0,)), ["0"])


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


def test_archive_version_gate(tmp_path, hard_squares):
    res = analyze(hard_squares, 1)
    path = tmp_path / "state.json"
    save_state(res, str(path))
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ArchiveError) as exc:
        load_state(str(path))
    assert "version" in str(exc.value)


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
    assert "levels is missing" in _load_error(_resigned(tmp_path, res, lambda p: p.pop("levels")))
    assert "levels is not a list" in _load_error(_resigned(tmp_path, res, lambda p: p.update(levels=7)))

    def side_as_text(p):
        p["normalization"]["side"] = "2"

    assert "normalization.side is not an integer" in _load_error(_resigned(tmp_path, res, side_as_text))

    def side_off_the_spec(p):
        p["normalization"]["side"] = 3

    assert "pattern width 2" in _load_error(_resigned(tmp_path, res, side_off_the_spec))

    def level_without_squares(p):
        del p["levels"][1]["squares"]

    assert "levels[1].squares is missing" in _load_error(_resigned(tmp_path, res, level_without_squares))

    def row_of_wrong_shape(p):
        p["report_rows"][0] = [0, "squares"]

    assert "report_rows[0]" in _load_error(_resigned(tmp_path, res, row_of_wrong_shape))


def test_archive_relation_indices_are_checked(tmp_path, hard_squares):
    res = analyze(hard_squares, 1)

    def vrel_past_the_squares(p):
        p["levels"][0]["vrel"].append([0, len(p["levels"][0]["squares"])])

    path = _resigned(tmp_path, res, vrel_past_the_squares)
    assert "indexes past the level's 7 squares" in _load_error(path)
    vrel = res.levels[0].vrel
    a, b = next((a, b) for a in range(7) for b in range(7) if (a, b) not in vrel)

    def hrel_off_vrel(p):
        p["levels"][0]["hrel"].append([a, b, a, b])

    assert "not in vrel" in _load_error(_resigned(tmp_path, res, hrel_off_vrel))


def test_archive_cube_rebuild_is_capped_before_it_runs(tmp_path, hard_squares, monkeypatch):
    import sftkit.specio

    def wide_spec(p):
        # one more forbidden pattern 5 cells wide: 2^25 candidate 5x5 cubes
        p["spec"]["forbidden"].append([[[0, 0], "1"], [[4, 4], "1"]])
        p["normalization"]["side"] = 5

    path = _resigned(tmp_path, analyze(hard_squares, 0), wide_spec)

    def no_rebuild(*a, **k):
        raise AssertionError("iter_cubes ran")

    monkeypatch.setattr(sftkit.specio, "iter_cubes", no_rebuild)
    assert "max_cubes" in _load_error(path)


# ---------------------------------------------------------------------------
# forgeries that keep the archive's own counts consistent


def _drop_a_vrel_pair(p):
    # one vertical pair and every horizontal entry that uses it are dropped,
    # and the report rows are rewritten to the smaller counts
    lv = p["levels"][0]
    pair = lv["vrel"].pop()
    lv["hrel"] = [h for h in lv["hrel"] if pair not in (h[:2], h[2:])]
    p["report_rows"][0][3] = len(lv["vrel"])
    p["report_rows"][1][2:] = [len(lv["vrel"]), len(lv["hrel"])]


def test_archive_relations_are_rederived(tmp_path, hard_squares):
    res = analyze(hard_squares, 1)
    assert "are not the ones the spec gives" in _load_error(_resigned(tmp_path, res, _drop_a_vrel_pair))


def test_archive_next_level_is_rederived(tmp_path, hard_squares):
    # a level-1 square and the horizontal entry that makes it are dropped
    from sftkit import assemble

    res = analyze(hard_squares, 1)
    sq = res.levels[0].squares
    first = res.levels[1].squares[0]
    a, b, c, d = next(
        h for h in res.levels[0].hrel if assemble([[sq[h[0]], sq[h[2]]], [sq[h[1]], sq[h[3]]]]) == first
    )

    def drop(p):
        p["levels"][0]["hrel"].remove([a, b, c, d])
        p["levels"][1]["squares"].pop(0)
        p["report_rows"][1][3] -= 1
        p["report_rows"][2][2] -= 1

    assert "are not the ones the spec gives" in _load_error(_resigned(tmp_path, res, drop))


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
        p["index"].pop()
        p["levels"][0]["squares"].pop()
        p["normalization"]["cube_count"] += 1
        p["normalization"]["allowed_count"] -= 1
        p["report_rows"][0][2] -= 1

    assert "allowed cubes" in _load_error(_resigned(tmp_path, res, drop_a_cube))


def test_import_state_refuses_a_forged_relation(tmp_path, hard_squares, capsys):
    from sftkit.cli import main

    path = _resigned(tmp_path, analyze(hard_squares, 1), _drop_a_vrel_pair)
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

    path = tmp_path / "deep_state.json"
    # every depth around the decoder's limit, where a document the decoder
    # still takes can fail in the checksum's encoder, and one far past it
    for depth in (*range(900, 1001), 100_000):
        path.write_text('{"format": "sft-state", "version": 1, "x": ' + _nested(depth) + "}")
        with pytest.raises(ArchiveError):
            load_state(str(path))
        capsys.readouterr()
        assert main(["import-state", str(path)]) == 4
        assert capsys.readouterr().err.startswith("archive: ")
