"""Start-up: `import sftkit` loads no engine module, each CLI command loads
only the modules it runs, and the lazy package namespace resolves every
public name to the current object in its home module.

The import-graph tests start fresh interpreters, because this test process
has already imported every module."""
import importlib
import json
import os
import subprocess
import sys

import pytest

import sftkit

SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "specs")
HARD_SQUARES = os.path.join(SPECS, "hard_squares.json")
ENGINE = {f"sftkit.{m}" for m in ("chain", "levels", "matrices", "oracle", "relation", "normalize")}

# runs `{body}`, then prints the sftkit modules and the costly standard
# modules it loaded, as the last line of stdout
_PROBE = """\
import json, sys
{body}
costly = ("hashlib", "_hashlib", "multiprocessing", "argparse")
loaded = [m for m in sys.modules if m.startswith("sftkit") or m in costly]
print(json.dumps(sorted(loaded)))
"""


def _fresh(body: str, *argv: str) -> tuple[list[str], set[str]]:
    """stdout lines before the module list, and the module list, of a fresh
    interpreter that runs `body` with `argv` as its arguments."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return out, set(json.loads(loaded))


def _command(*argv: str, eager: bool = False) -> tuple[list[str], set[str]]:
    body = "import sftkit; sftkit.cli.main(sys.argv[1:])"
    if eager:
        body = "from sftkit import *\n" + body
    return _fresh(body, *argv)


def test_loading_a_spec_loads_no_engine():
    body = "import sftkit\nfrom sftkit import cli\nsftkit.load_spec_file(sys.argv[1])"
    _, loaded = _fresh(body, HARD_SQUARES)
    assert "sftkit.specio" in loaded
    assert not loaded & (ENGINE | {"hashlib", "multiprocessing"})


def test_only_the_archive_commands_load_the_archive_code(tmp_path):
    body = "import sftkit\nfrom sftkit import cli\nsftkit.load_spec_file(sys.argv[1])"
    _, loaded = _fresh(body, HARD_SQUARES)
    assert "sftkit.specio" in loaded and "sftkit.archive" not in loaded
    for argv in (("analyze", "--levels", "1"), ("sample", "--level", "1", "--seed", "3")):
        out, loaded = _command(argv[0], HARD_SQUARES, *argv[1:])
        assert out and "sftkit.archive" not in loaded
    state = str(tmp_path / "state.json")
    for argv in (("export-state", HARD_SQUARES, "--levels", "1", "--out", state), ("import-state", state)):
        out, loaded = _command(*argv)
        assert out[-1] == "verdict: nonempty-to-level-1" and "sftkit.archive" in loaded


def test_submodules_resolve_after_a_bare_import():
    out, loaded = _fresh("import sftkit\nprint(sftkit.relation.join.__module__, sftkit.core.__name__)")
    assert out == ["sftkit.relation sftkit.core"]
    assert "sftkit.levels" not in loaded


def test_count_dp_loads_no_walk():
    out, loaded = _command("count", HARD_SQUARES, "--engine", "dp", "--shape", "8x8")
    # independent sets of the 8x8 grid graph (OEIS A006506)
    assert out == ["660647962955"]
    assert "sftkit.oracle" in loaded
    assert not loaded & {"sftkit.levels", "sftkit.matrices", "multiprocessing"}


def test_reduced_analyze_loads_neither_the_literal_module_nor_the_oracle():
    out, loaded = _command("analyze", HARD_SQUARES, "--levels", "1", "--format", "csv")
    assert out[-1].endswith("nonempty-to-level-1")
    assert "sftkit.levels" in loaded
    assert not loaded & {"sftkit.matrices", "sftkit.oracle", "hashlib", "multiprocessing"}


def test_a_plain_argv_loads_no_argparse():
    out, loaded = _command("analyze", HARD_SQUARES, "--levels", "1")
    assert out[-1] == "verdict: nonempty-to-level-1"
    assert "argparse" not in loaded


@pytest.mark.parametrize("extra", [["-h"], ["--bogus"]], ids=["help", "unknown-flag"])
def test_help_and_unknown_flags_load_argparse(extra):
    body = "import sftkit\ntry:\n    sftkit.cli.main(sys.argv[1:])\nexcept SystemExit:\n    pass"
    out, loaded = _fresh(body, "analyze", HARD_SQUARES, "--levels", "1", *extra)
    assert "argparse" in loaded
    assert bool(out) == (extra == ["-h"])


def test_literal_analyze_loads_matrices_and_prints_the_eager_rows():
    argv = ("analyze", HARD_SQUARES, "--levels", "2", "--mode", "literal", "--format", "csv")
    out, loaded = _command(*argv)
    eager_out, eager_loaded = _command(*argv, eager=True)
    assert "sftkit.matrices" in loaded and "sftkit.oracle" not in loaded
    assert "sftkit.oracle" in eager_loaded
    assert len(out) > 2 and out == eager_out


def test_export_and_import_state_load_no_openssl(tmp_path):
    # the archive checksum comes from the interpreter's built-in SHA-256
    out_file = str(tmp_path / "state.json")
    body = (
        "import sftkit\n"
        "print(sftkit.cli.main(['export-state', sys.argv[1], '--levels', '1', '--out', sys.argv[2]]))\n"
        "print(sftkit.cli.main(['import-state', sys.argv[2]]))"
    )
    out, loaded = _fresh(body, HARD_SQUARES, out_file)
    assert out[-1] == "0" and out.count("verdict: nonempty-to-level-1") == 2
    assert "sftkit.specio" in loaded
    assert not loaded & {"hashlib", "_hashlib"}


def test_the_package_hook_imports_a_submodule():
    # in this process the import system has already set `sftkit.relation`,
    # so the hook is called by name
    assert sftkit.__getattr__("relation") is importlib.import_module("sftkit.relation")


def test_every_public_name_is_the_object_of_its_home_module():
    for name in sftkit.__all__:
        home = importlib.import_module(f"sftkit.{sftkit._HOME[name]}")
        assert getattr(sftkit, name) is vars(home)[name], name
        # a lookup is never kept in the package
        assert name not in vars(sftkit), name


def test_dir_and_star_import_cover_every_public_name():
    assert set(sftkit.__all__) <= set(dir(sftkit))
    assert {"cli", "relation", "levels"} <= set(dir(sftkit))
    names: dict = {}
    exec("from sftkit import *", names)
    assert set(sftkit.__all__) <= set(names)
    assert names["analyze"] is sftkit.levels.analyze


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sftkit.no_such_name
    assert not hasattr(sftkit, "order_key")
    with pytest.raises(ImportError):
        exec("from sftkit import no_such_name", {})


def test_a_swapped_function_is_seen_through_the_package(monkeypatch):
    original = sftkit.levels.analyze

    def swapped(*a, **k):
        return original(*a, **k)

    monkeypatch.setattr(sftkit.levels, "analyze", swapped)
    assert sftkit.analyze is swapped
    monkeypatch.undo()
    assert sftkit.analyze is original
