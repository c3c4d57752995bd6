"""Blocks, patterns, problem definitions, and the forbidden-cube scanner.

Conventions used everywhere:

* symbols are interned as integers 0..k_A-1 in declared alphabet order;
* block data is a flat row-major tuple (axis 0 varies slowest, the last
  axis fastest); for d=2 axis 0 is the row (top to bottom) and axis 1 the
  column (left to right);
* patterns are translation-anchored: the minimum coordinate in every axis
  is zero, which makes equality and hashing canonical.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import ShapeError, SpecError, WindowRangeError

Coord = tuple[int, ...]


def prod(xs: Iterable[int]) -> int:
    return reduce(lambda a, b: a * b, xs, 1)


@lru_cache(maxsize=None)
def strides(shape: Coord) -> Coord:
    """Row-major strides for `shape`."""
    out = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        out[i] = out[i + 1] * shape[i + 1]
    return tuple(out)


@lru_cache(maxsize=None)
def _cell_count(shape: Coord) -> int:
    if any(s < 1 for s in shape):
        raise ShapeError(f"block extents must be positive, got {shape}")
    return prod(shape)


def flat_index(coord: Coord, shape: Coord) -> int:
    st = strides(shape)
    return sum(c * s for c, s in zip(coord, st))


# ---------------------------------------------------------------------------
# patterns


@dataclass(frozen=True)
class Pattern:
    """A finite partial assignment, anchored so every axis starts at 0.

    `cells` is sorted by coordinate, which makes two equal patterns
    structurally identical.
    """

    cells: tuple[tuple[Coord, int], ...]

    @staticmethod
    def from_cells(cells: Iterable[tuple[Coord, int]]) -> "Pattern":
        items = list(cells)
        if not items:
            raise SpecError("pattern support must be nonempty")
        dim = len(items[0][0])
        seen: dict[Coord, int] = {}
        for coord, sym in items:
            coord = tuple(int(c) for c in coord)
            if len(coord) != dim:
                raise SpecError("pattern cells must share one dimension")
            if coord in seen and seen[coord] != sym:
                raise SpecError(f"conflicting symbols at cell {coord}")
            seen[coord] = int(sym)
        mins = tuple(min(c[i] for c in seen) for i in range(dim))
        anchored = tuple(
            sorted((tuple(c[i] - mins[i] for i in range(dim)), s) for c, s in seen.items())
        )
        return Pattern(anchored)

    @property
    def dimension(self) -> int:
        return len(self.cells[0][0])

    @property
    def extents(self) -> Coord:
        """Per-axis extent of the bounding box (anchored at 0)."""
        d = self.dimension
        return tuple(max(c[i] for c, _ in self.cells) + 1 for i in range(d))


def pattern_width(p: Pattern) -> int:
    """Largest axis extent of the pattern's bounding box."""
    return max(p.extents)


# ---------------------------------------------------------------------------
# blocks


@dataclass(frozen=True)
class Block:
    """A dense d-dimensional array of interned symbols, row-major."""

    shape: Coord
    data: tuple[int, ...]

    def __post_init__(self):
        if len(self.data) != _cell_count(self.shape):
            raise ShapeError(
                f"data length {len(self.data)} does not match shape {self.shape}"
            )

    @staticmethod
    def from_nested(nested) -> "Block":
        """Build a block from nested sequences (depth = dimension)."""
        shape = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            shape.append(len(probe))
            probe = probe[0]
        flat: list[int] = []

        def walk(node, depth):
            if depth == len(shape):
                flat.append(int(node))
                return
            if len(node) != shape[depth]:
                raise ShapeError("ragged nested data")
            for child in node:
                walk(child, depth + 1)

        walk(nested, 0)
        return Block(tuple(shape), tuple(flat))

    @property
    def dimension(self) -> int:
        return len(self.shape)

    def cell(self, coord: Coord) -> int:
        return self.data[flat_index(coord, self.shape)]


@lru_cache(maxsize=None)
def _gather_table(src_shape: Coord, win_shape: Coord) -> tuple[int, ...]:
    """Flat source offsets of a `win_shape` window anchored at the origin."""
    st = strides(src_shape)
    return tuple(
        sum(c * s for c, s in zip(coord, st))
        for coord in itertools.product(*[range(e) for e in win_shape])
    )


def window_data(
    data: Sequence[int], src_shape: Coord, offset: Coord, win_shape: Coord
) -> tuple[int, ...]:
    base = flat_index(offset, src_shape)
    return tuple(data[base + o] for o in _gather_table(src_shape, win_shape))


def window(b: Block, offset: Coord, shape: Coord) -> Block:
    """Pure sub-block extraction; fails if the window leaves the source."""
    if len(offset) != b.dimension or len(shape) != b.dimension:
        raise WindowRangeError("offset/shape dimension mismatch")
    for o, w, s in zip(offset, shape, b.shape):
        if o < 0 or w < 1 or o + w > s:
            raise WindowRangeError(
                f"window offset={offset} shape={shape} does not fit in {b.shape}"
            )
    return Block(tuple(shape), window_data(b.data, b.shape, tuple(offset), tuple(shape)))


def _grid_shape(grid) -> Coord:
    shape = []
    probe = grid
    while not isinstance(probe, Block):
        shape.append(len(probe))
        probe = probe[0]
    return tuple(shape)


def assemble(grid) -> Block:
    """Concatenate a rectangular grid of equal-shape blocks into one block.

    `grid` is nested sequences of depth d holding Blocks; windowing the
    result at aligned offsets recovers each constituent.
    """
    gshape = _grid_shape(grid)
    cells: list[tuple[Coord, Block]] = []

    def walk(node, coord):
        if isinstance(node, Block):
            cells.append((tuple(coord), node))
            return
        if len(node) != gshape[len(coord)]:
            raise ShapeError("assembly grid is not rectangular")
        for i, child in enumerate(node):
            walk(child, coord + [i])

    walk(grid, [])
    first = cells[0][1]
    bshape = first.shape
    if len(bshape) != len(gshape):
        raise ShapeError("grid depth must equal block dimension")
    for _, blk in cells:
        if blk.shape != bshape:
            raise ShapeError(f"mixed block shapes {blk.shape} vs {bshape}")
    out_shape = tuple(g * s for g, s in zip(gshape, bshape))
    out = [0] * prod(out_shape)
    table = _gather_table(out_shape, bshape)
    for gcoord, blk in cells:
        base = flat_index(tuple(g * s for g, s in zip(gcoord, bshape)), out_shape)
        for dst, val in zip(table, blk.data):
            out[base + dst] = val
    return Block(out_shape, tuple(out))


def concat(a: Block, b: Block, axis: int) -> Block:
    """Join two equal-shape blocks along one axis, `a` on the low side."""
    from .relation import join  # the kernel module imports this one

    if a.shape != b.shape:
        raise ShapeError(f"mixed block shapes {a.shape} vs {b.shape}")
    shape = a.shape[:axis] + (2 * a.shape[axis],) + a.shape[axis + 1 :]
    return Block(shape, join(a.data, b.data, a.shape, axis))


def permute_axes(b: Block, perm: Sequence[int]) -> Block:
    """Reorder axes; `perm[i]` names the source axis placed at position i."""
    new_shape = tuple(b.shape[p] for p in perm)
    data = tuple(
        b.data[flat_index(tuple(coord[perm.index(ax)] for ax in range(b.dimension)), b.shape)]
        for coord in itertools.product(*[range(e) for e in new_shape])
    )
    return Block(new_shape, data)


def transpose(b: Block) -> Block:
    if b.dimension != 2:
        raise ShapeError("transpose is defined for 2-dimensional blocks")
    return permute_axes(b, (1, 0))


# ---------------------------------------------------------------------------
# problem definitions


@dataclass(frozen=True)
class SftSpec:
    """A shift-of-finite-type problem: dimension, alphabet, forbidden patterns."""

    dimension: int
    alphabet: tuple[str, ...]
    forbidden: tuple[Pattern, ...]

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise SpecError(f"unknown symbol {symbol!r}") from None


# the widest spec accepted, so no shape of more axes is ever built
MAX_DIMENSION = 64


def make_spec(
    dimension: int, alphabet: Sequence[str], forbidden: Iterable[Pattern]
) -> SftSpec:
    if dimension < 1:
        raise SpecError(f"dimension must be >= 1, got {dimension}")
    if dimension > MAX_DIMENSION:
        raise SpecError(f"dimension must be <= {MAX_DIMENSION}, got {dimension}")
    symbols = tuple(str(s) for s in alphabet)
    if not symbols:
        raise SpecError("alphabet must be nonempty")
    if len(set(symbols)) != len(symbols):
        raise SpecError("alphabet contains duplicate symbols")
    pats = []
    seen = set()
    for i, p in enumerate(forbidden):
        if p.dimension != dimension:
            raise SpecError(f"forbidden[{i}] has dimension {p.dimension}, expected {dimension}")
        for coord, sym in p.cells:
            if not 0 <= sym < len(symbols):
                raise SpecError(f"forbidden[{i}] uses a symbol outside the alphabet")
        if p not in seen:
            seen.add(p)
            pats.append(p)
    pats.sort(key=lambda p: p.cells)
    return SftSpec(dimension, symbols, tuple(pats))


# ---------------------------------------------------------------------------
# forbidden cubes and scanning


@dataclass(frozen=True)
class CubeSet:
    """The normalized forbidden set: every member is an l-cube."""

    side: int
    cubes: frozenset[Block]
    alphabet_size: int
    mode: str = "all-extensions"

    def __post_init__(self):
        for c in self.cubes:
            if c.shape != (self.side,) * c.dimension:
                raise SpecError(f"cube of shape {c.shape} in a side-{self.side} set")
        # the scanner's lookup set, built once per instance
        object.__setattr__(self, "_data_set", frozenset(c.data for c in self.cubes))

    @property
    def dimension(self) -> int:
        for c in self.cubes:
            return c.dimension
        return 0  # empty set carries no dimension of its own

    def data_set(self) -> frozenset[tuple[int, ...]]:
        return self._data_set


def occurrence_offsets(b: Block, p: Pattern) -> Iterator[Coord]:
    """All offsets at which the pattern occurs inside the block."""
    ext = p.extents
    if any(e > s for e, s in zip(ext, b.shape)):
        return
    st = strides(b.shape)
    cell_offsets = tuple(
        (sum(c * s for c, s in zip(coord, st)), sym) for coord, sym in p.cells
    )
    data = b.data
    for off in itertools.product(*[range(s - e + 1) for s, e in zip(b.shape, ext)]):
        base = sum(o * s for o, s in zip(off, st))
        if all(data[base + rel] == sym for rel, sym in cell_offsets):
            yield off


def occurs_in(b: Block, p: Pattern) -> bool:
    for _ in occurrence_offsets(b, p):
        return True
    return False


@dataclass(frozen=True)
class ScanResult:
    allowed: bool
    undersized: bool


@lru_cache(maxsize=None)
def _window_getters(src_shape: Coord, side: int) -> tuple[itemgetter, ...]:
    """One getter per l-window of `src_shape` (side >= 2), reading the
    window's cells as a row-major tuple."""
    st = strides(src_shape)
    table = _gather_table(src_shape, (side,) * len(src_shape))
    ranges = [range(s - side + 1) for s in src_shape]
    return tuple(
        itemgetter(*(sum(o * s for o, s in zip(off, st)) + t for t in table))
        for off in itertools.product(*ranges)
    )


def allowed_data(data: Sequence[int], shape: Coord, cubes: CubeSet) -> bool:
    """Scan every l-window of a raw data tuple against the forbidden cubes.

    Fast path shared by the engine and the oracle; assumes all axes >= l.
    """
    bad = cubes.data_set()
    if not bad:
        return True
    if cubes.side == 1:
        return not any((v,) in bad for v in data)
    for window_of in _window_getters(shape, cubes.side):
        if window_of(data) in bad:
            return False
    return True


def scan_block(b: Block, cubes: CubeSet) -> ScanResult:
    """block_allowed plus an undersized diagnostic.

    Blocks with some axis shorter than the cube side contain no cube at all
    and are reported allowed with `undersized` set.
    """
    if any(sym >= cubes.alphabet_size for sym in b.data):
        raise SpecError("block uses symbols outside the cube set's alphabet")
    if cubes.dimension and b.dimension != cubes.dimension:
        raise SpecError(
            f"block dimension {b.dimension} does not match cube dimension {cubes.dimension}"
        )
    if any(s < cubes.side for s in b.shape):
        return ScanResult(allowed=True, undersized=True)
    return ScanResult(allowed_data(b.data, b.shape, cubes), undersized=False)


def block_allowed(b: Block, cubes: CubeSet) -> bool:
    """True iff no l-window of the block equals a forbidden cube."""
    return scan_block(b, cubes).allowed
