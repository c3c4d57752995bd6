"""The benchmark's tracer (`perfbench/tracer.py`) wraps sftkit functions by
name from outside the program, and its frontier probe installs it on every
run. A renamed or removed name would make `install()` fail, so this checks
that every name it wraps exists, is wrapped, and is restored by
`uninstall()`. It only reads `perfbench/`.
"""
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


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
