"""The benchmark's tracer (`perfbench/tracer.py`) wraps sftkit functions by
name from outside the program, and its frontier probe installs it on every
run. A renamed or removed name would make `install()` fail, so this checks
that every name it wraps exists, is wrapped, and is restored by
`uninstall()`. Its hooks also read attributes of what the wrapped functions
return, so the counts they claim are checked against the results. It only
reads `perfbench/`.
"""
import importlib.util
import os
import sys

import sftkit

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(HERE, "perfbench", "tracer.py")
ARCHIVE = os.path.join(HERE, "tests", "data", "golden", "export-hard_squares-1.state.json")


def _sftkit_namespaces() -> dict:
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "sftkit" or name.startswith("sftkit.")
    }


def test_tracer_wraps_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    names = [(module, fname) for module, fname, _ in t._wrappers()]
    assert ("sftkit.matrices", "step_literal") in {(m.__name__, f) for m, f in names}
    originals = {(module.__name__, fname): getattr(module, fname) for module, fname in names}
    before = _sftkit_namespaces()
    t.install()
    try:
        for module, fname in names:
            wrapped = getattr(module, fname)
            assert wrapped is not originals[module.__name__, fname]
            assert wrapped.__wrapped__ is originals[module.__name__, fname]
    finally:
        t.uninstall()
    after = _sftkit_namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        changed = [attr for attr, val in attrs.items() if after[name][attr] is not val]
        assert not changed, f"{name}: {changed} not restored"


def _level_claims(st) -> list:
    # (block shape, count) of a level's squares, its vertical stacks and
    # its side-by-side squares, read off the stages it holds
    rows, cols = st.shape
    out = [((rows, cols), len(st.blocks))]
    if st.relation is not None:
        out.append(((2 * rows, cols), len(st.relation)))
    if st.stacks is not None:
        out.append(((2 * rows, 2 * cols), len(st.stacks.relation)))
    return out


def test_tracer_claims_are_the_counts_of_the_results(hard_squares):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        # called through the modules, where the wrappers are installed
        cubes = sftkit.normalize.normalize_to_cubes(hard_squares)
        index = sftkit.normalize.enumerate_allowed_cubes(hard_squares, cubes)
        lvl0 = sftkit.levels.level0_state(index, cubes)
        lvl1 = sftkit.levels.reduced_step(lvl0)
        vert = sftkit.levels.with_relations(lvl1, sftkit.DEFAULT_CAPS, False)
        loaded = sftkit.specio.load_state(ARCHIVE)
    finally:
        t.uninstall()
    claims = [(sp.name, sp.attrs.get("claims")) for sp in t.spans if sp.name.startswith(("levels.", "specio.load"))]
    assert claims == [
        ("levels.base", _level_claims(lvl0)),
        ("levels.step", _level_claims(lvl1)),
        ("levels.vrel", _level_claims(vert)[1:]),
        ("specio.load", [c for st in loaded.levels for c in _level_claims(st)]),
    ]
    assert claims[0][1] == [((2, 2), 7), ((4, 2), 41), ((4, 4), 1234)]
    assert len(claims[3][1]) == 4


def test_tracer_times_the_cli_handlers_main_calls(tmp_path):
    # `main` calls the handler the module holds when it runs, so the
    # tracer's `cli.<cmd>` wrappers record spans under `cli.main`
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hs = os.path.join(HERE, "tests", "data", "golden", "specs", "hard_squares.json")
    out = str(tmp_path / "state.json")
    t = tracer.Tracer()
    t.install()
    try:
        assert sftkit.cli.main(["export-state", hs, "--levels", "1", "--out", out]) == 0
        assert sftkit.cli.main(["import-state", out]) == 0
    finally:
        t.uninstall()
    names = [sp.name for sp in t.spans]
    handlers = [(t.spans[sp.parent].name, sp.name) for sp in t.spans if sp.name in ("cli.export", "cli.import")]
    assert names.count("cli.main") == 2
    assert handlers == [("cli.main", "cli.export"), ("cli.main", "cli.import")]
