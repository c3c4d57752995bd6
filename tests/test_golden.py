"""Golden CLI outputs: CSV stdout, exit code and state-archive bytes of a
fixed command list over the fixture specs in `tests/data/golden/specs`;
each kept archive must also import back to its export's stdout and code.

A refactor that claims "same output" must pass this unchanged. To rewrite
the captures after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --write
"""
import contextlib
import io
import json
import os
import sys

import pytest

from sftkit.cli import main

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
SPECS = os.path.join(HERE, "specs")
CASES = os.path.join(HERE, "cases.json")


def _commands() -> list[tuple[str, list[str], bool]]:
    """(case name, argv, keep the archive) in capture order. argv[1] names a
    file in `specs/` and `{out}` is the archive path; archives are kept only
    for runs without a budget stop."""
    out = []

    def add(name, argv, keep=False):
        out.append((name, argv, keep))

    for spec in ("hard_squares", "checkerboard", "full_shift", "three_symbol", "d1", "d3_diag"):
        for level in (0, 1) if spec == "d3_diag" else (0, 1, 2):
            add(f"analyze-{spec}-{level}", ["analyze", spec, "--levels", str(level), "--format", "csv"])
    shapes = {
        "hard_squares": ("2x2", "4x2", "4x4", "8x4"),
        "checkerboard": ("8x8", "16x8", "16x16"),
        "full_shift": ("2x1", "4x4", "8x4"),
        "three_symbol": ("2x2", "4x2", "4x4"),
        "d1": ("2", "8", "16"),
        "d3_diag": ("2x2x2", "4x2x2", "4x4x2"),
    }
    for spec, texts in shapes.items():
        for text in texts:
            argv = ["count", spec, "--engine", "matrix", "--shape", text, "--format", "csv"]
            add(f"count-{spec}-{text}", argv)
    tops = {"hard_squares": 1, "checkerboard": 3, "full_shift": 1, "three_symbol": 0, "d1": 3, "d3_diag": 0}
    for spec, top in tops.items():
        for level in range(top + 1):
            add(f"sample-{spec}-{level}", ["sample", spec, "--level", str(level), "--seed", "7"])
    for spec, level, keep in (
        ("hard_squares", 0, True), ("hard_squares", 1, True),
        ("checkerboard", 0, True), ("checkerboard", 1, True), ("checkerboard", 2, True),
        ("full_shift", 0, True), ("full_shift", 1, True),
        ("three_symbol", 0, True), ("three_symbol", 1, False),
        ("d1", 1, True), ("d3_diag", 0, True), ("d3_diag", 1, False),
        ("wide_symbols", 0, True), ("wide_symbols", 1, True),
    ):
        add(
            f"export-{spec}-{level}",
            ["export-state", spec, "--levels", str(level), "--out", "{out}", "--format", "csv"],
            keep,
        )
    for spec in tops:
        for level in range(4):
            add(f"witness-{spec}-{level}", ["witness", spec, "--level", str(level)])
    return out


def _run(argv: list[str], out_path: str) -> tuple[int, str, bytes | None]:
    spec_path = os.path.join(SPECS, argv[1] + ".json")
    argv = [spec_path if i == 1 else a.replace("{out}", out_path) for i, a in enumerate(argv)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    archive = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            archive = fh.read()
    return code, buf.getvalue(), archive


def _load() -> dict:
    with open(CASES, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,argv,keep", _commands(), ids=[c[0] for c in _commands()])
def test_golden_output(tmp_path, name, argv, keep):
    want = _load()[name]
    assert want["argv"] == argv
    code, stdout, archive = _run(argv, str(tmp_path / "state.json"))
    assert (code, stdout) == (want["exit"], want["stdout"])
    if keep:
        with open(os.path.join(HERE, want["archive"]), "rb") as fh:
            assert archive == fh.read()


@pytest.mark.parametrize("name", [n for n, c in _load().items() if "archive" in c])
def test_kept_archive_imports_to_its_export_report(name):
    # a loader that refuses its own captures, or a format bump that leaves
    # them unwritten, fails here
    want = _load()[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["import-state", os.path.join(HERE, want["archive"]), "--format", "csv"])
    assert (code, buf.getvalue()) == (want["exit"], want["stdout"])


def _write() -> None:
    import tempfile

    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, keep in _commands():
            out_path = os.path.join(tmp, name + ".json")
            code, stdout, archive = _run(argv, out_path)
            case = {"argv": argv, "exit": code, "stdout": stdout}
            if keep:
                case["archive"] = name + ".state.json"
                with open(os.path.join(HERE, case["archive"]), "wb") as fh:
                    fh.write(archive)
            cases[name] = case
    with open(CASES, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
