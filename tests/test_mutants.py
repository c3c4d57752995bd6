"""The mutation gate's list stays in step with the source: each mutant's
fragment occurs exactly once in its file, and each test it names exists.
No mutant runs here; `python tests/mutants.py` runs them."""
import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_every_fragment_occurs_once_and_every_named_test_exists():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.fragment) == 1, m.name
        assert m.replacement != m.fragment and m.tests, m.name
    # full node ids, parameters included: pytest exits 4 on an id that
    # names no test, and an id without parameters collects all of its cases
    ids = sorted({t for m in MUTANTS for t in m.tests})
    cmd = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    collected = [line for line in run.stdout.splitlines() if "::" in line]
    for test in ids:
        assert any(line == test or line.startswith(test + "[") for line in collected), test
