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
from operator import itemgetter

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


def _offsets(side: int, p: Pattern, boundary_only: bool):
    """Each offset of pattern `p` inside a side-l cube; with `boundary_only`,
    only those where some cell of `p` lies on the cube's boundary."""
    for off in itertools.product(*[range(side - e + 1) for e in p.extents]):
        if not boundary_only or any(
            o + c in (0, side - 1) for coord, _ in p.cells for o, c in zip(off, coord)
        ):
            yield off


def _cube_datas(spec: SftSpec, side: int):
    """The data of every side-l cube over the alphabet, in row-major
    dictionary order: the one candidate walk of normalization."""
    return itertools.product(range(spec.alphabet_size), repeat=side**spec.dimension)


def iter_cubes(spec: SftSpec, side: int):
    """All side-l cubes over the alphabet, in row-major dictionary order."""
    shape = (side,) * spec.dimension
    for data in _cube_datas(spec, side):
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
    # one getter per pattern placement, reading the placed cells of a cube's
    # data, and the symbols it must read for the pattern to occur there
    checks = []
    for p in spec.forbidden:
        syms = tuple(sym for _, sym in p.cells)
        for off in _offsets(side, p, mode == MODE_NON_PROPER):
            base = sum(o * s for o, s in zip(off, st))
            at = [base + sum(c * s for c, s in zip(coord, st)) for coord, _ in p.cells]
            # a one-index getter returns the symbol, not a 1-tuple
            checks.append((itemgetter(*at), syms if len(syms) > 1 else syms[0]))
    # a candidate that some placement hits is forbidden, any other allowed
    bad, allowed = [], []
    for data in _cube_datas(spec, side):
        for get, want in checks:
            if get(data) == want:
                bad.append(data)
                break
        else:
            allowed.append(data)
    return CubeSet(side, frozenset(Block(shape, data) for data in bad), spec.alphabet_size, mode, tuple(allowed))


def enumerate_allowed_cubes(
    spec: SftSpec, cubes: CubeSet, caps: Caps = DEFAULT_CAPS
) -> tuple[Block, ...]:
    """The canonical block index: all l-cubes not in the forbidden set,
    sorted by row-major dictionary order, as `normalize_to_cubes` listed
    them. May be empty (which certifies an empty shift space)."""
    if cubes.allowed is None:
        raise SpecError("a cube set built by hand lists no allowed cubes; take one from normalize_to_cubes")
    shape = (cubes.side,) * spec.dimension
    return tuple(Block(shape, data) for data in cubes.allowed)
