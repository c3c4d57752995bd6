"""The mutation gate's list stays in step with the source: each mutant's
fragment occurs exactly once in its file, and each test it names exists.
No mutant runs here; `python tests/mutants.py` runs them."""
import re

from mutants import MUTANTS, ROOT


def test_every_fragment_occurs_once_and_every_named_test_exists():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.fragment) == 1, m.name
        assert m.replacement != m.fragment and m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(name.partition('[')[0])}\(", source, re.M), test
