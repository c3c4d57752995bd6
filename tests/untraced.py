"""Print the lines of `src/sftkit` that a test run never executes.

    python tests/untraced.py [pytest args]

Run from the repository root. A line tracer (`sys.settrace`, and
`threading.settrace` for threads started later) records every line
executed in a file under `src/sftkit`; pytest then runs in this process
with the given arguments. Afterwards each module's executable lines, read
from the line tables (`co_lines`) of its compiled code objects, are
compared with the recorded ones, and the lines that never ran are printed
file by file. The exit code is pytest's. Tracing makes the run about three
times slower.

Lines that run only in subprocesses show as unrun: the fresh interpreters
that `tests/test_lazy_imports.py` and the CLI subprocess tests start, and
the oracle's pool workers. Uses the standard library and pytest only;
pytest does not collect this file.
"""
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sftkit"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some instruction of the module maps to."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `args` under the tracer; its exit code and, per
    resolved file under `SRC`, the lines that ran."""
    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}
    home: dict[str, str | None] = {}  # co_filename -> resolved path under SRC, or None

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in home:
            path = os.path.realpath(name)
            home[name] = path if path.startswith(prefix) else None
        if home[name] is None:
            return None
        lines = ran.setdefault(home[name], set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(args: list[str]) -> int:
    code, ran = traced_run(args)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        unrun = sorted(executable_lines(path) - ran.get(str(path.resolve()), set()))
        if not unrun:
            continue
        total += len(unrun)
        source = path.read_text(encoding="utf-8").splitlines()
        print(f"\n{path.relative_to(SRC.parent.parent)}: {len(unrun)} lines never ran")
        for line in unrun:
            print(f"{line:>6}  {source[line - 1].strip()}")
    print(f"\n{total} executable lines of {SRC.name} never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
