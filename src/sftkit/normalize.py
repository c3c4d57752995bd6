"""Forbidden-set normalization to uniform cubes.

Any finite forbidden set is equivalent to a set of forbidden cubes whose
side is the maximum pattern width. Two flavours are produced:

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

from .caps import DEFAULT_CAPS, Caps, check_power
from .core import Block, CubeSet, Pattern, SftSpec, pattern_width, strides
from .errors import SpecError

MODE_ALL = "all-extensions"
MODE_NON_PROPER = "non-proper-only"


def forbidden_side(spec: SftSpec) -> int:
    """Uniform cube side: max pattern width, or 1 for an empty forbidden set."""
    if not spec.forbidden:
        return 1
    return max(pattern_width(p) for p in spec.forbidden)


def _occurrences_with_boundary(cube_shape, p: Pattern):
    """Yield (offset, touches_boundary) for one pattern inside one cube shape."""
    ext = p.extents
    side = cube_shape[0]
    for off in itertools.product(*[range(s - e + 1) for s, e in zip(cube_shape, ext)]):
        touches = any(
            off[i] + c[i] in (0, side - 1)
            for c, _ in p.cells
            for i in range(len(cube_shape))
        )
        yield off, touches


def iter_cubes(spec: SftSpec, side: int):
    """All side-l cubes over the alphabet, in row-major dictionary order."""
    shape = (side,) * spec.dimension
    cells = side**spec.dimension
    for data in itertools.product(range(spec.alphabet_size), repeat=cells):
        yield Block(shape, data)


def normalize_to_cubes(
    spec: SftSpec, mode: str = MODE_ALL, caps: Caps = DEFAULT_CAPS
) -> CubeSet:
    """Replace the forbidden set by an equivalent set of side-l cubes."""
    if mode not in (MODE_ALL, MODE_NON_PROPER):
        raise SpecError(f"unknown normalization mode {mode!r}")
    side = forbidden_side(spec)
    check_power(
        spec.alphabet_size,
        side**spec.dimension,
        caps.max_cubes,
        "normalization needs {count} candidate cubes; raise max_cubes to at least {count}",
    )
    shape = (side,) * spec.dimension
    st = strides(shape)
    # pre-resolve each pattern's cell offsets per placement
    placements = []
    for p in spec.forbidden:
        for off, touches in _occurrences_with_boundary(shape, p):
            if mode == MODE_NON_PROPER and not touches:
                continue
            base = sum(o * s for o, s in zip(off, st))
            placements.append(
                tuple((base + sum(c * s for c, s in zip(coord, st)), sym) for coord, sym in p.cells)
            )
    cubes = []
    for cube in iter_cubes(spec, side):
        data = cube.data
        if any(all(data[i] == sym for i, sym in pl) for pl in placements):
            cubes.append(cube)
    return CubeSet(side, frozenset(cubes), spec.alphabet_size, mode)


def enumerate_allowed_cubes(
    spec: SftSpec, cubes: CubeSet, caps: Caps = DEFAULT_CAPS
) -> tuple[Block, ...]:
    """The canonical block index: all l-cubes not in the forbidden set,
    sorted by row-major dictionary order. May be empty (which certifies an
    empty shift space)."""
    check_power(
        spec.alphabet_size,
        cubes.side**spec.dimension,
        caps.max_cubes,
        "enumeration needs {count} candidate cubes; raise max_cubes to at least {count}",
    )
    bad = cubes.data_set()
    return tuple(c for c in iter_cubes(spec, cubes.side) if c.data not in bad)
