"""The README's Library section lists the public API: every name it lists
resolves on `sftkit`, and the names deleted as test-only stay gone."""
import pathlib
import re

import sftkit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _listed_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library") :]
    library = library[: library.index("\n## ")]
    names = []
    for line in library.splitlines():
        if line.startswith("- `"):
            names += re.findall(r"`([\w.]+)`", line.split(": ", 1)[0])
    return names


def test_readme_public_api_names_resolve():
    names = _listed_names()
    # both lists are read: engine surfaces and reference oracles
    assert {"chain_report", "sftkit.relation.join", "assemble", "otimes"} <= set(names)
    for name in names:
        obj = sftkit
        for part in name.removeprefix("sftkit.").split("."):
            assert hasattr(obj, part), f"README lists {name}, which does not resolve on sftkit"
            obj = getattr(obj, part)


def test_test_only_names_are_gone():
    for name in ("order_key", "transpose", "permute_axes", "scan_block", "ScanResult", "occurs_in"):
        assert not hasattr(sftkit, name) and not hasattr(sftkit.core, name)
    for name in ("NormalizationReport", "build_report"):
        assert not hasattr(sftkit, name) and not hasattr(sftkit.normalize, name)
    assert not hasattr(sftkit.CompatMatrix, "reorder") and not hasattr(sftkit.Block, "cell")
