"""The pair-relation kernel behind every engine.

Each level of the doubling construction is built from the one below by one
operation: join two blocks of a complete allowed set along one axis, and
keep the pair if the joined block is allowed. `join` glues two flat
row-major data, `bytes` or tuples, into data of the same type (`join_pairs`
glues every pair a relation keeps, and `nth_join` only the one of rank k in
sorted order); `pair_relation` decides which pairs to keep.

With cubes of side l and t = l-1, a cube window that crosses the seam of
two blocks joined along an axis of extent e reaches at most t cells into
either block. So every window of the joined block lies inside the low
block, the high block, or the middle block made of the low block's high
part and the high block's low part (cut at e // 2) iff e // 2 >= t. For a
complete allowed set, from a pairing extent of 2t on, a pair is then
allowed iff that middle block is a member of the set: `middle_join`, a
hash join on the halves. It needs no cube set, so the literal step of
`matrices.py` runs it over letter positions. For l = 1 no window crosses
the seam, and every pair of allowed blocks is kept. `pair_relation` picks
among these rules for a complete allowed set, and so for every chain stage.

Below 2t (only the first doubling cycle, for l >= 3), or over blocks that
are not a complete allowed set (the level-0 literal matrices), the middle
block need not be a member of any known set, but the same three-way split
still holds with a thinner middle: a cube window that crosses the seam
sees only the low block's top t slabs and the high block's bottom t slabs.
So `seam_relation` window-scans each block once, groups the allowed ones
by those two seam slabs, and scans each distinct slab pair once as a seam
block of extent 2t; a passing slab pair admits every block pair that
carries it.

In every case each kept pair is a product: for one matched key (a middle
block, a passing seam slab pair, or for l = 1 the one key), a list of
low-side indices times a list of high-side indices. The kernel returns
those key groups as a `Relation` and never lists the pairs itself. Each
pair has exactly one key, so the relation's size, which is the next
stage's block count, is the sum of the group sizes.

A stage that a relation would build need not be built to know the size of
its own relation (`joined_pair_count`). Along the next axis b, a block
X = p + q of that stage, joined along axis a != b, has the halves
p_lo + q_lo and p_hi + q_hi; with the halves of the stage below interned as
small ints, X's halves are two id pairs, and the middle join's size is a
sum over the pairs (p, q) of N_hi[(lo p, lo q)] * N_lo[(hi p, hi q)], N_lo
and N_hi counting the pairs by their low and high id pair. For d = 1
(b = a) X's halves are p and q, and each key group (lows, highs) keeps
(sum of in-degrees over lows) times (sum of out-degrees over highs)
pairs; for l = 1 the size is |R|^2. The count covers every stage the
middle join or the every-pair rule pairs; in the seam regime (the first
cycle for l >= 3) the stage is built.

Where every axis before the pairing one has length 1, halves are row-major
slices: `_split_keys` computes the cut once and slices each block (the
literal step's 2x2 letter squares, and every axis-0 join). Otherwise halves,
slabs and joined blocks are cut across the row-major order. For tuples that
is a cached `itemgetter` gather of single cells. `bytes` are read once as
big-endian ints instead: a half or slab is keyed by the block masked to its
cells (the upper one shifted down to coordinate 0, so it equals the lower
key of the same cells), one block per distinct slab is split for the seam
scan, and `join_pairs` spreads each block once into a joined block's low
cells, shifts that spread down one chunk for the high cells, and glues a
pair with one OR.
"""
from __future__ import annotations

import itertools
import operator
from collections import Counter, defaultdict
from collections.abc import Callable, Hashable, Iterable, Iterator, Set
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .core import Coord, CubeSet, allowed_data, prod

# flat row-major block data: `bytes` in a walk (see `core.data_type`),
# tuples past 256 symbols and for the literal step's letter positions
Data = Sequence[int]


class Relation(Set):
    """The index pairs a pair relation keeps, held as key groups.

    Each group is a (lows, highs) pair of index lists sharing one key; it
    admits every (i, j) with i in lows and j in highs. The groups are
    disjoint, so `len` is the sum of |lows|*|highs| and lists no pair.
    Iteration yields the pairs; membership, equality and hashing compare a
    frozenset of them, built on first use, except that two relations with
    equal groups are equal at once. Equality also compares the sizes, so a
    relation whose groups repeat a pair equals no relation of distinct
    groups. A relation made by `counted` knows its size and makes its
    groups on first read.
    """

    __slots__ = ("_groups", "_make", "_len", "_pairs")

    def __init__(self, groups: Iterable[tuple[Sequence[int], Sequence[int]]] = ()):
        self._groups = tuple(groups)
        self._len = sum(len(lows) * len(highs) for lows, highs in self._groups)
        self._pairs: frozenset[tuple[int, int]] | None = None

    @classmethod
    def counted(cls, size: int, make: Callable[[], Iterable[tuple[Sequence[int], Sequence[int]]]]) -> Relation:
        """A relation of `size` pairs whose key groups `make()` gives when
        first read; they must hold `size` distinct pairs."""
        rel = cls.__new__(cls)
        rel._groups, rel._make, rel._len, rel._pairs = None, make, size, None
        return rel

    @property
    def groups(self) -> tuple[tuple[Sequence[int], Sequence[int]], ...]:
        if self._groups is None:
            self._groups = tuple(self._make())
            self._make = None
        return self._groups

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
            # the sizes differ when either side's groups repeat a pair
            return self.groups == other.groups or (
                self._len == other._len and self.pairs() == other.pairs()
            )
        if not isinstance(other, Set):
            return NotImplemented
        return self._len == len(other) and self.pairs() == other

    def __hash__(self) -> int:
        return hash(self.pairs())

    def __repr__(self) -> str:
        if self._groups is None:
            return f"Relation({self._len} pairs, groups not built)"
        return f"Relation({self._len} pairs in {len(self._groups)} groups)"

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        # set operators (&, |, -, ^) give plain frozensets
        return frozenset(it)


# blocks of up to this many cells are joined and split by cached gathers;
# their indices hold an int a cell, so wider blocks go chunk by chunk instead
_GATHER_CELLS = 1 << 12


@lru_cache(maxsize=None)
def _glue(shape: Coord, axis: int, kind: type) -> Callable[[Data, Data], Data]:
    # the join of two data of type `kind` and shape `shape` along `axis`
    if axis == 0:
        return operator.add
    n, chunk = prod(shape), prod(shape[axis:])
    if n > _GATHER_CELLS:
        starts = range(0, n, chunk)
        return lambda p, q: kind(
            itertools.chain.from_iterable(p[i : i + chunk] + q[i : i + chunk] for i in starts)
        )
    # positions in p + q of the joined block's cells, in row-major order
    gather = itemgetter(
        *(
            k
            for i in range(0, n, chunk)
            for k in itertools.chain(range(i, i + chunk), range(n + i, n + i + chunk))
        )
    )
    return lambda p, q: kind(gather(p + q))


def join(p: Data, q: Data, shape: Coord, axis: int) -> Data:
    """Join two equal-shape flat row-major data (`bytes` or tuples) along
    `axis`, `p` on the low side, into data of the same type: `p + q` for
    axis 0, else a gather over `p + q` cached per (shape, axis), or for
    wide blocks one slice pair per chunk."""
    return _glue(shape, axis, type(p))(p, q)


def _int_coded(datas: Sequence[Data], shape: Coord, axis: int) -> bool:
    # `bytes` cut across the row-major order: some axis before `axis` is
    # longer than 1, so halves and joins are not slices and concatenations
    return bool(datas) and type(datas[0]) is bytes and prod(shape[axis:]) < len(datas[0])


def join_pairs(
    datas: Sequence[Data], pairs: Iterable[tuple[int, int]], shape: Coord, axis: int
) -> list[Data]:
    """`join` of `datas[i]` and `datas[j]` for every pair (i, j), walking a
    `Relation` group by group. For `bytes` with an axis before `axis`
    longer than 1, each block is spread once into the low cells of a joined
    block, read as a big-endian int; shifted down one chunk, the spread
    fills the high cells, so each pair is one OR."""
    if not datas:
        return []
    glue = _glue(shape, axis, type(datas[0]))
    groups = pairs.groups if isinstance(pairs, Relation) else [((i,), (j,)) for i, j in pairs]
    out: list[Data] = []
    if _int_coded(datas, shape, axis):
        zeros = bytes(len(datas[0]))
        spread = [int.from_bytes(glue(p, zeros), "big") for p in datas]
        size, shift = 2 * len(zeros), 8 * prod(shape[axis:])
        for lows, highs in groups:
            his = [spread[j] >> shift for j in highs]
            for i in lows:
                a = spread[i]
                out += [(a | b).to_bytes(size, "big") for b in his]
        return out
    for lows, highs in groups:
        his = [datas[j] for j in highs]
        for i in lows:
            p = datas[i]
            out += [glue(p, q) for q in his]
    return out


def nth_join(datas: Sequence[Data], rel: Relation, shape: Coord, axis: int, k: int) -> Data:
    """`sorted(join_pairs(datas, rel, shape, axis))[k]` for sorted, distinct
    `datas`, without listing a pair.

    With chunks of prod(shape[axis:]) cells, a joined datum is p's chunk 0,
    q's chunk 0, p's chunk 1, q's chunk 1, and so on; the chunks all have
    one length, so the joined data sort as those chunk sequences do. Each
    step fixes one chunk: it splits every group's lows (a p chunk) or
    highs (a q chunk) by the chunk's value, counts the pairs each value
    keeps, and walks the values in order to the one whose pairs hold rank
    k. An index list shared by several groups is split once a step. The
    steps end when one pair is left, and that pair is joined."""
    if not 0 <= k < len(rel):
        raise IndexError(f"join rank {k} out of range for {len(rel)} pairs")
    chunk = prod(shape[axis:])
    groups = [g for g in rel.groups if g[0] and g[1]]
    left = len(rel)
    for step in range(2 * prod(shape[:axis])):
        if left == 1:
            break
        side = step % 2
        at = step // 2 * chunk
        # each distinct list on the split side, and the pairs a member of it makes
        lists: dict[int, Sequence[int]] = {}
        weight: dict[int, int] = defaultdict(int)
        for g in groups:
            lists[id(g[side])] = g[side]
            weight[id(g[side])] += len(g[1 - side])
        parts: dict[int, dict[Data, list[int]]] = {}
        counts: dict[Data, int] = defaultdict(int)
        for key, ids in lists.items():
            part = parts[key] = defaultdict(list)
            for i in ids:
                part[datas[i][at : at + chunk]].append(i)
            w = weight[key]
            for value, sub in part.items():
                counts[value] += len(sub) * w
        for value in sorted(counts):
            left = counts[value]
            if k < left:
                break
            k -= left
        groups = [
            (sub, g[1]) if side == 0 else (g[0], sub)
            for g in groups
            if (sub := parts[id(g[side])].get(value))
        ]
    (i,), (j,) = groups[0]
    return join(datas[i], datas[j], shape, axis)


@lru_cache(maxsize=None)
def _halves(shape: Coord, axis: int, cut: int) -> tuple[itemgetter, itemgetter]:
    # the cells below and at-or-above `cut` along `axis`, for 0 < cut < extent
    # and some axis before `axis` longer than 1, so each getter reads two or
    # more cells and returns a tuple
    n, chunk = prod(shape), prod(shape[axis:])
    at = cut * chunk // shape[axis]
    starts = range(0, n, chunk)
    return (
        itemgetter(*(k for i in starts for k in range(i, i + at))),
        itemgetter(*(k for i in starts for k in range(i + at, i + chunk))),
    )


def _split(data: Data, shape: Coord, axis: int, cut: int) -> tuple[Data, Data]:
    # the cells below and at-or-above `cut` along `axis`, as data of the same
    # type: two slices when every axis before `axis` has length 1
    chunk = prod(shape[axis:])
    at = cut * chunk // shape[axis]
    if chunk == len(data):
        return data[:at], data[at:]
    if len(data) <= _GATHER_CELLS:
        lo, hi = _halves(shape, axis, cut)
        return type(data)(lo(data)), type(data)(hi(data))
    starts = range(0, len(data), chunk)
    return (
        type(data)(itertools.chain.from_iterable(data[i : i + at] for i in starts)),
        type(data)(itertools.chain.from_iterable(data[i + at : i + chunk] for i in starts)),
    )


@lru_cache(maxsize=None)
def _masks(shape: Coord, axis: int, cut: int) -> tuple[int, int, int]:
    # over a block's bytes read as a big-endian int: the mask of the cells
    # below `cut` along `axis`, the mask of the rest, and the shift that
    # moves the rest down to coordinate 0
    n, chunk = prod(shape), prod(shape[axis:])
    at = cut * chunk // shape[axis]
    lo = int.from_bytes((b"\xff" * at + bytes(chunk - at)) * (n // chunk), "big")
    return lo, lo ^ ((1 << 8 * n) - 1), 8 * at


def _split_keys(datas: Sequence[Data], shape: Coord, axis: int, cut: int) -> Iterator[tuple]:
    # each datum's cells below and at-or-above `cut` along `axis` as two
    # keys that are equal iff the cells are: the halves themselves, or for
    # int-coded data two masked ints, the upper one moved down to
    # coordinate 0 so that it equals the lower key of a split at
    # extent - cut of the same cells
    if prod(shape[:axis]) == 1:
        # every axis before `axis` has length 1: one cut, two slices a datum
        at = cut * prod(shape[axis + 1 :])
        return ((data[:at], data[at:]) for data in datas)
    if not _int_coded(datas, shape, axis):
        return (_split(data, shape, axis, cut) for data in datas)
    lo, hi, shift = _masks(shape, axis, cut)
    from_bytes = int.from_bytes
    return (((v := from_bytes(data, "big")) & lo, (v & hi) << shift) for data in datas)


def seam_relation(
    datas: Sequence[Data], shape: Coord, axis: int, cubes: CubeSet
) -> Relation:
    """Index pairs (i, j) such that `datas[i]` joined to `datas[j]` along
    `axis`, `datas[i]` on the low side, is an allowed block, for any blocks
    of `shape` whose axes are all at least the cube side l (a forbidden one
    pairs with nothing).

    Each block is window-scanned once, and each distinct seam block (the low
    block's top t = l-1 slabs joined to the high block's bottom t slabs)
    once: n + H*G scans for H distinct top and G distinct bottom slabs.
    """
    t = cubes.side - 1
    allowed = [i for i, data in enumerate(datas) if allowed_data(data, shape, cubes)]
    if t == 0:
        # for l = 1 no window crosses the seam
        return Relation([(allowed, allowed)] if allowed else ())
    extent = shape[axis]
    by_hi: dict[Hashable, list[int]] = defaultdict(list)
    by_lo: dict[Hashable, list[int]] = defaultdict(list)
    blocks = [datas[i] for i in allowed]
    lo_keys = _split_keys(blocks, shape, axis, t)
    hi_keys = _split_keys(blocks, shape, axis, extent - t)
    for i, (lo, _), (_, hi) in zip(allowed, lo_keys, hi_keys):
        by_lo[lo].append(i)
        by_hi[hi].append(i)
    his, los = list(by_hi), list(by_lo)
    if _int_coded(blocks, shape, axis):
        # int keys are not slabs: split one block per key for the seam scan
        his = [_split(datas[ids[0]], shape, axis, extent - t)[1] for ids in by_hi.values()]
        los = [_split(datas[ids[0]], shape, axis, t)[0] for ids in by_lo.values()]
    slab = shape[:axis] + (t,) + shape[axis + 1 :]
    seam = shape[:axis] + (2 * t,) + shape[axis + 1 :]
    return Relation(
        (lows, highs)
        for hi, lows in zip(his, by_hi.values())
        for lo, highs in zip(los, by_lo.values())
        if allowed_data(join(hi, lo, slab, axis), seam, cubes)
    )


def pair_relation(
    datas: Sequence[Data], shape: Coord, axis: int, cubes: CubeSet
) -> Relation:
    """Index pairs (i, j) such that `datas[i]` joined to `datas[j]` along
    `axis`, `datas[i]` on the low side, is an allowed block.

    `datas` must be the complete set of allowed blocks of `shape`, whose
    axes are all at least the cube side l, as every chain stage is. With
    t = l-1, the cheapest exact rule is taken: for l = 1 every pair is
    kept; from a pairing extent of 2t on, `middle_join`; below it (only the
    first cycle, for l >= 3), `seam_relation`.
    """
    t = cubes.side - 1
    if t == 0:
        # every cube is one cell, so two allowed blocks join to an allowed one
        every = list(range(len(datas)))
        return Relation([(every, every)] if every else ())
    if shape[axis] >= 2 * t:
        return middle_join(datas, shape, axis)
    return seam_relation(datas, shape, axis, cubes)


def middle_join(datas: Sequence[Data], shape: Coord, axis: int) -> Relation:
    """Index pairs (i, j) such that the middle block of `datas[i]` joined to
    `datas[j]` along `axis`, the block of `shape` that starts extent // 2
    cells into `datas[i]`, is one of `datas`: a hash join on the halves."""
    extent = shape[axis]
    cut = extent // 2
    by_hi: dict[Hashable, list[int]] = defaultdict(list)
    by_lo: dict[Hashable, list[int]] = defaultdict(list)
    keys = list(_split_keys(datas, shape, axis, cut))
    for i, (lo, hi) in enumerate(keys):
        by_lo[lo].append(i)
        by_hi[hi].append(i)
    middles = keys if 2 * cut == extent else _split_keys(datas, shape, axis, extent - cut)
    return Relation((by_hi[lo], by_lo[hi]) for lo, hi in middles if lo in by_hi and hi in by_lo)


def joined_pair_count(
    datas: Sequence[Data], rel: Relation, shape: Coord, axis: int, next_axis: int, side: int
) -> int | None:
    """`len(pair_relation(J, ...))` along `next_axis` for the stage J that
    `join_pairs(datas, rel, shape, axis)` makes, where `datas` is a
    complete allowed set of blocks of cubes of side `side`, counted without
    joining a pair; None where `pair_relation` would seam-scan J.

    A block X = p + q of J (joined along `axis`) has, along `next_axis` b,
    the halves X_lo = p_lo + q_lo and X_hi = p_hi + q_hi when b != axis, so
    with the halves of `datas` interned as small ints the halves of X are
    the id pairs (lo(p), lo(q)) and (hi(p), hi(q)). `middle_join` keeps
    N_hi[lo(M)] * N_lo[hi(M)] pairs per middle block M of J, where N_lo and
    N_hi count the blocks of J by their low and high half. For b = axis
    (d = 1) the halves of X are p and q themselves, so a key group
    (lows, highs) of `rel` keeps (sum of in-degrees over lows) times (sum
    of out-degrees over highs). For l = 1 every pair of J is kept."""
    t, n = side - 1, len(rel)
    if t == 0:
        return n * n
    extent = 2 * shape[axis] if next_axis == axis else shape[next_axis]
    if extent < 2 * t or extent % 2:
        return None
    if not n:
        return 0
    groups = rel.groups
    if next_axis == axis:
        indeg, outdeg = [0] * len(datas), [0] * len(datas)
        for lows, highs in groups:
            for j in highs:
                indeg[j] += len(lows)
            for i in lows:
                outdeg[i] += len(highs)
        return sum(
            sum(map(indeg.__getitem__, lows)) * sum(map(outdeg.__getitem__, highs))
            for lows, highs in groups
        )
    ids: dict[Hashable, int] = {}
    lo_id, hi_id = [], []
    for lo, hi in _split_keys(datas, shape, next_axis, extent // 2):
        lo_id.append(ids.setdefault(lo, len(ids)))
        hi_id.append(ids.setdefault(hi, len(ids)))
    m = len(ids)
    # the pairs as flat lists of their low and high indices, and each pair's
    # halves as one int key a side
    chain, repeat = itertools.chain.from_iterable, itertools.repeat
    counts = chain(repeat(len(highs), len(lows)) for lows, highs in groups)
    ps = list(chain(map(repeat, chain(lows for lows, _ in groups), counts)))
    qs = list(chain(highs * len(lows) for lows, highs in groups))
    lo_m, hi_m = [x * m for x in lo_id], [x * m for x in hi_id]
    los = list(map(operator.add, map(lo_m.__getitem__, ps), map(lo_id.__getitem__, qs)))
    his = list(map(operator.add, map(hi_m.__getitem__, ps), map(hi_id.__getitem__, qs)))
    n_lo, n_hi = Counter(los), Counter(his)
    return sum(map(operator.mul, map(n_hi.get, los, repeat(0)), map(n_lo.get, his, repeat(0))))
