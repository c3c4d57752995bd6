"""The pair-relation kernel behind every engine.

Each level of the doubling construction is built from the one below by one
operation: join two blocks of a complete allowed set along one axis, and
keep the pair if the joined block is allowed. `join` glues two flat
row-major data tuples; `pair_relation` decides which pairs to keep.

When the pairing extent is at least 2l, a forbidden cube spans at most half
of it, so every cube window of a joined block lies inside the low block,
the high block, or the middle block made of the low block's high part and
the high block's low part. The pair is then allowed iff that middle block is
a member of the set, and the relation is a hash join on the halves.

Below that extent (the first doubling cycle) the middle block need not be a
member of any known set, but the same three-way split still holds with a
thinner middle: a cube window that crosses the seam sees only the low
block's top l-1 slabs and the high block's bottom l-1 slabs. So each block
is window-scanned once, the allowed ones are grouped by those two seam
slabs, and each distinct slab pair is scanned once as a seam block of
extent 2(l-1); a passing slab pair admits every block pair that carries it.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Sequence

from .core import Coord, CubeSet, allowed_data, prod

Data = tuple[int, ...]


def join(p: Data, q: Data, shape: Coord, axis: int) -> Data:
    """Join two equal-shape flat row-major data tuples along `axis`, `p` on
    the low side."""
    if axis == 0:
        return p + q
    chunk = prod(shape[axis:])
    return tuple(
        itertools.chain.from_iterable(
            p[i : i + chunk] + q[i : i + chunk] for i in range(0, len(p), chunk)
        )
    )


def _split(data: Data, shape: Coord, axis: int, cut: int) -> tuple[Data, Data]:
    # the cells below and at-or-above `cut` along `axis`
    chunk = prod(shape[axis:])
    at = cut * chunk // shape[axis]
    lo, hi = [], []
    for i in range(0, len(data), chunk):
        lo.extend(data[i : i + at])
        hi.extend(data[i + at : i + chunk])
    return tuple(lo), tuple(hi)


def _seam_relation(
    datas: Sequence[Data], shape: Coord, axis: int, cubes: CubeSet
) -> frozenset[tuple[int, int]]:
    # the seam block is the low block's top t = l-1 slabs joined to the
    # high block's bottom t slabs; for l = 1 no window crosses the seam
    t = cubes.side - 1
    extent = shape[axis]
    by_hi: dict[Data, list[int]] = defaultdict(list)
    by_lo: dict[Data, list[int]] = defaultdict(list)
    for i, data in enumerate(datas):
        if allowed_data(data, shape, cubes):
            by_lo[_split(data, shape, axis, t)[0]].append(i)
            by_hi[_split(data, shape, axis, extent - t)[1]].append(i)
    slab = shape[:axis] + (t,) + shape[axis + 1 :]
    seam = shape[:axis] + (2 * t,) + shape[axis + 1 :]
    return frozenset(
        (i, j)
        for hi, lows in by_hi.items()
        for lo, highs in by_lo.items()
        if t == 0 or allowed_data(join(hi, lo, slab, axis), seam, cubes)
        for i in lows
        for j in highs
    )


def pair_relation(
    datas: Sequence[Data], shape: Coord, axis: int, cubes: CubeSet
) -> frozenset[tuple[int, int]]:
    """Index pairs (i, j) such that `datas[i]` joined to `datas[j]` along
    `axis`, `datas[i]` on the low side, is an allowed block.

    Every datum is a block of `shape` whose axes are all at least the cube
    side. For a pairing extent of at least twice the cube side, `datas` must
    be the complete set of allowed blocks of `shape`; below it, `datas` may
    be any blocks (a forbidden one pairs with nothing), and the work is one
    scan per block plus one per distinct seam slab pair.
    """
    extent = shape[axis]
    if extent < 2 * cubes.side:
        return _seam_relation(datas, shape, axis, cubes)
    # the middle block starts `cut` cells into the low block: its low part
    # is a high part of length extent - cut, its high part a low part of
    # length cut; cut = extent // 2 keeps every cube window inside one of
    # the three blocks
    cut = extent // 2
    by_hi: dict[Data, list[int]] = defaultdict(list)
    by_lo: dict[Data, list[int]] = defaultdict(list)
    for i, data in enumerate(datas):
        lo, hi = _split(data, shape, axis, cut)
        by_lo[lo].append(i)
        by_hi[hi].append(i)
    middles = (_split(m, shape, axis, extent - cut) for m in datas)
    return frozenset(
        (i, j)
        for lo, hi in middles
        for i in by_hi.get(lo, ())
        for j in by_lo.get(hi, ())
    )
