"""Test-run set-up shared by every test directory: the CLI subprocesses that
some tests start import sftkit from `src/`, as the test process does through
the `pythonpath` setting in pyproject.toml."""
import os

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
