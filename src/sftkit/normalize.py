"""Forbidden-set normalization to uniform cubes.

Any finite forbidden set is equivalent to a set of forbidden cubes whose
side is the maximum pattern width; the `CubeSet` holds only the other,
allowed, l-cubes, which a depth-first search lists. Two flavours:

* ``all-extensions``: every l-cube in which some forbidden pattern occurs;
* ``non-proper-only``: only cubes where some occurrence touches the cube
  boundary (cells with a neighbour outside the cube). Both generate the
  same shift space; the second is smaller for l >= 3.

The engine itself always scans against the all-extensions set: only that
set makes the window scanner exact on finite blocks of every size. The
non-proper set is an equivalent *generator* of the space, not a drop-in
scanning set.
"""
from __future__ import annotations

import itertools
from operator import itemgetter

from .caps import DEFAULT_CAPS, Caps, check_power
from .core import Block, Blocks, CubeSet, Pattern, SftSpec, pattern_width, strides
from .errors import SpecError

MODE_ALL = "all-extensions"
MODE_NON_PROPER = "non-proper-only"


def forbidden_side(spec: SftSpec) -> int:
    """Uniform cube side: max pattern width, or 1 for an empty forbidden set."""
    if not spec.forbidden:
        return 1
    return max(pattern_width(p) for p in spec.forbidden)


def _offsets(side: int, p: Pattern, boundary_only: bool):
    """Each offset of pattern `p` inside a side-l cube; with `boundary_only`,
    only those where some cell of `p` lies on the cube's boundary."""
    for off in itertools.product(*[range(side - e + 1) for e in p.extents]):
        if not boundary_only or any(
            o + c in (0, side - 1) for coord, _ in p.cells for o, c in zip(off, coord)
        ):
            yield off


def iter_cubes(spec: SftSpec, side: int):
    """All side-l cubes over the alphabet, in row-major dictionary order."""
    shape, symbols = (side,) * spec.dimension, range(spec.alphabet_size)
    return (Block(shape, data) for data in itertools.product(symbols, repeat=side**spec.dimension))


def _search(cells: int, alphabet_size: int, checks: list) -> tuple[tuple[int, ...], ...]:
    """The data of every cube that no placement hits, in row-major dictionary
    order: cells are placed in row-major order, depth first, and `checks[c]`
    holds the (getter, symbols it must not read) pairs of the placements
    whose last cell is c, so a hit cuts every completion of the prefix."""
    allowed, cur, symbols = [], [0] * cells, range(alphabet_size)
    todo = [iter(symbols)]  # per placed cell, the symbols still to try
    while todo:
        c = len(todo) - 1
        for cur[c] in todo[c]:
            for get, hit in checks[c]:
                if get(cur) in hit:
                    break
            else:
                if c == cells - 1:
                    allowed.append(tuple(cur))
                else:
                    todo.append(iter(symbols))
                    break
        else:
            todo.pop()
    return tuple(allowed)


def normalize_to_cubes(spec: SftSpec, mode: str = MODE_ALL, caps: Caps = DEFAULT_CAPS) -> CubeSet:
    """Replace the forbidden set by an equivalent set of side-l cubes, held
    as the cubes it allows."""
    if mode not in (MODE_ALL, MODE_NON_PROPER):
        raise SpecError(f"unknown normalization mode {mode!r}")
    side = forbidden_side(spec)
    cells = side**spec.dimension
    check_power(
        spec.alphabet_size,
        cells,
        caps.max_cubes,
        "normalization needs {count} candidate cubes; raise max_cubes to at least {count}",
    )
    st = strides((side,) * spec.dimension)
    # per group of cells a placement reads, the symbols that make a pattern occur
    placed: dict[tuple[int, ...], set] = {}
    for p in spec.forbidden:
        syms = tuple(sym for _, sym in p.cells)
        for off in _offsets(side, p, mode == MODE_NON_PROPER):
            base = sum(o * s for o, s in zip(off, st))
            at = tuple(base + sum(c * s for c, s in zip(coord, st)) for coord, _ in p.cells)
            # a one-index getter returns the symbol, not a 1-tuple
            placed.setdefault(at, set()).add(syms if len(syms) > 1 else syms[0])
    checks = [[] for _ in range(cells)]
    for at, hit in placed.items():
        checks[max(at)].append((itemgetter(*at), hit))
    return CubeSet(side, _search(cells, spec.alphabet_size, checks), spec.alphabet_size, spec.dimension, mode)


def enumerate_allowed_cubes(spec: SftSpec, cubes: CubeSet, caps: Caps = DEFAULT_CAPS) -> Blocks:
    """The canonical block index: a `Blocks` view over the allowed l-cubes in
    row-major dictionary order. May be empty (which certifies an empty shift space)."""
    return Blocks((cubes.side,) * cubes.dimension, cubes.allowed)
