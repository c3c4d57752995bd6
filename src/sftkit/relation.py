"""The pair-relation kernel behind every engine.

Each level of the doubling construction is built from the one below by one
operation: join two blocks of a complete allowed set along one axis, and
keep the pair if the joined block is allowed. `join` glues two flat
row-major data tuples; `pair_relation` decides which pairs to keep.

When the pairing extent is at least 2l, a forbidden cube spans at most half
of it, so every cube window of a joined block lies inside the low block,
the high block, or the middle block made of the low block's high part and
the high block's low part. The pair is then allowed iff that middle block is
a member of the set: `middle_join`, a hash join on the halves. It needs no
cube set, so the literal step of `matrices.py` runs it over letter positions.

Below that extent (the first doubling cycle) the middle block need not be a
member of any known set, but the same three-way split still holds with a
thinner middle: a cube window that crosses the seam sees only the low
block's top l-1 slabs and the high block's bottom l-1 slabs. So each block
is window-scanned once, the allowed ones are grouped by those two seam
slabs, and each distinct slab pair is scanned once as a seam block of
extent 2(l-1); a passing slab pair admits every block pair that carries it.

Either way every kept pair is a product: for one matched key (a middle
block, or a passing seam slab pair), a list of low-side indices times a list
of high-side indices. `pair_relation` returns those key groups as a
`Relation` and never lists the pairs itself. Each pair has exactly one key,
so the relation's size, which is the next stage's block count, is the sum of
the group sizes.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Iterable, Iterator, Set
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .core import Coord, CubeSet, allowed_data, prod

Data = tuple[int, ...]


class Relation(Set):
    """The index pairs a pair relation keeps, held as key groups.

    Each group is a (lows, highs) pair of index lists sharing one key; it
    admits every (i, j) with i in lows and j in highs. The groups are
    disjoint, so `len` is the sum of |lows|*|highs| and lists no pair.
    Iteration yields the pairs; membership, equality and hashing compare a
    frozenset of them, built on first use.
    """

    __slots__ = ("groups", "_len", "_pairs")

    def __init__(self, groups: Iterable[tuple[Sequence[int], Sequence[int]]] = ()):
        self.groups = tuple(groups)
        self._len = sum(len(lows) * len(highs) for lows, highs in self.groups)
        self._pairs: frozenset[tuple[int, int]] | None = None

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for lows, highs in self.groups:
            for i in lows:
                for j in highs:
                    yield i, j

    def pairs(self) -> frozenset[tuple[int, int]]:
        if self._pairs is None:
            self._pairs = frozenset(self)
        return self._pairs

    def __contains__(self, pair) -> bool:
        return pair in self.pairs()

    def __eq__(self, other) -> bool:
        if isinstance(other, Relation):
            other = other.pairs()
        if not isinstance(other, Set):
            return NotImplemented
        return self._len == len(other) and self.pairs() == other

    def __hash__(self) -> int:
        return hash(self.pairs())

    def __repr__(self) -> str:
        return f"Relation({self._len} pairs in {len(self.groups)} groups)"

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        # set operators (&, |, -, ^) give plain frozensets
        return frozenset(it)


# blocks of up to this many cells are joined by one cached gather; its index
# holds two ints a cell, so wider blocks are joined chunk by chunk instead
_GATHER_CELLS = 1 << 12


@lru_cache(maxsize=None)
def _gather(shape: Coord, axis: int) -> itemgetter:
    # positions in p + q of the joined block's cells, in row-major order
    n, chunk = prod(shape), prod(shape[axis:])
    return itemgetter(
        *(
            k
            for i in range(0, n, chunk)
            for k in itertools.chain(range(i, i + chunk), range(n + i, n + i + chunk))
        )
    )


def join(p: Data, q: Data, shape: Coord, axis: int) -> Data:
    """Join two equal-shape flat row-major data tuples along `axis`, `p` on
    the low side: `p + q` for axis 0, else a gather over `p + q` cached per
    (shape, axis), or for wide blocks one slice pair per chunk."""
    if axis == 0:
        return p + q
    if len(p) <= _GATHER_CELLS:
        return _gather(shape, axis)(p + q)
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
) -> Relation:
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
    return Relation(
        (lows, highs)
        for hi, lows in by_hi.items()
        for lo, highs in by_lo.items()
        if t == 0 or allowed_data(join(hi, lo, slab, axis), seam, cubes)
    )


def pair_relation(
    datas: Sequence[Data], shape: Coord, axis: int, cubes: CubeSet
) -> Relation:
    """Index pairs (i, j) such that `datas[i]` joined to `datas[j]` along
    `axis`, `datas[i]` on the low side, is an allowed block.

    Every datum is a block of `shape` whose axes are all at least the cube
    side. For a pairing extent of at least twice the cube side, `datas` must
    be the complete set of allowed blocks of `shape`; below it, `datas` may
    be any blocks (a forbidden one pairs with nothing), and the work is one
    scan per block plus one per distinct seam slab pair.
    """
    if shape[axis] < 2 * cubes.side:
        return _seam_relation(datas, shape, axis, cubes)
    return middle_join(datas, shape, axis)


def middle_join(datas: Sequence[Data], shape: Coord, axis: int) -> Relation:
    """Index pairs (i, j) such that the middle block of `datas[i]` joined to
    `datas[j]` along `axis`, the block of `shape` that starts extent // 2
    cells into `datas[i]`, is one of `datas`: a hash join on the halves."""
    extent = shape[axis]
    cut = extent // 2
    by_hi: dict[Data, list[int]] = defaultdict(list)
    by_lo: dict[Data, list[int]] = defaultdict(list)
    for i, data in enumerate(datas):
        lo, hi = _split(data, shape, axis, cut)
        by_lo[lo].append(i)
        by_hi[hi].append(i)
    middles = (_split(m, shape, axis, extent - cut) for m in datas)
    return Relation((by_hi[lo], by_lo[hi]) for lo, hi in middles if lo in by_hi and hi in by_lo)
