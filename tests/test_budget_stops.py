"""Every cap stop of the chain and the literal matrices, pinned: its exact
message, the count it reports as `required`, and the type of the part built
before it (`partial`). Every stop is raised by `caps`."""
import ast
import pathlib

import pytest

from sftkit import (
    DEFAULT_CAPS,
    BudgetError,
    LiteralLevel,
    chain_relation,
    chain_start,
    enumerate_allowed_cubes,
    level0_matrices,
    normalize_to_cubes,
    step_literal,
)
from sftkit.chain import check_next_stage


def _relation(index, cubes):
    # the base stage with its vertical relation: 7 cubes, 41 pairs
    return chain_relation(chain_start(index, cubes), cubes)


# hard squares: 7 allowed 2x2 cubes, 41 vertical ones at level 0
STOPS = {
    "chain relation pair checks": (
        lambda ix, cu: chain_relation(chain_start(ix, cu), cu, DEFAULT_CAPS.but(max_work=48)),
        "chain relation needs 49 pair checks (cap 48)", 49, type(None),
    ),
    "next stage blocks": (
        lambda ix, cu: check_next_stage(_relation(ix, cu), DEFAULT_CAPS.but(max_blocks=40)),
        "next stage would hold 41 blocks (cap 40)", 41, int,
    ),
    "next stage cells": (
        lambda ix, cu: check_next_stage(_relation(ix, cu), DEFAULT_CAPS.but(max_cells=327)),
        "next stage needs 328 cells (cap 327)", 328, int,
    ),
    "level-0 horizontal index": (
        lambda ix, cu: level0_matrices(ix, cu, DEFAULT_CAPS.but(max_index=48)),
        "horizontal index would have 49 entries (cap 48)", 49, type(None),
    ),
    "next vertical index": (
        lambda ix, cu: step_literal(level0_matrices(ix, cu), DEFAULT_CAPS.but(max_index=2400)),
        "next vertical index would have 2401 entries (cap 2400); use the reduced pipeline", 2401, type(None),
    ),
    "next horizontal index": (
        lambda ix, cu: step_literal(level0_matrices(ix, cu), DEFAULT_CAPS.but(max_index=2401)),
        "next horizontal index would have 5764801 entries (cap 2401); use the reduced pipeline",
        5764801, LiteralLevel,
    ),
    "horizontal stack pairs": (
        lambda ix, cu: level0_matrices(ix, cu, DEFAULT_CAPS.but(max_work=1680)),
        "horizontal step would examine 1681 stack pairs (cap 1680)", 1681, LiteralLevel,
    ),
}


@pytest.mark.parametrize("stop", list(STOPS))
def test_cap_stop_message_required_and_partial(stop, hard_squares):
    run, message, required, partial_type = STOPS[stop]
    cubes = normalize_to_cubes(hard_squares)
    with pytest.raises(BudgetError) as exc:
        run(enumerate_allowed_cubes(hard_squares, cubes), cubes)
    assert str(exc.value) == message
    assert exc.value.required == required
    assert type(exc.value.partial) is partial_type


def test_only_caps_builds_a_budget_error():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "sftkit"
    builders = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # `BudgetError(...)` or `errors.BudgetError(...)`
            name = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(name, "id", getattr(name, "attr", None)) == "BudgetError":
                builders.add(path.name)
    assert builders == {"caps.py"}
