"""Literal compatibility-matrix pipeline.

Level n works over an ordered list of "letters": the side 2^n*l squares, kept
in arrangement order (see below). Two sparse boolean matrices are carried:

* the vertical matrix pairs squares; a 1 at (A, B) means the 2:1 stack with
  A on top of B is an allowed block;
* the horizontal matrix pairs tall stacks; a 1 at (P, Q) means the square
  with P as its left half and Q as its right half is allowed.

Index orders. Level-0 letters are the canonical cubes in row-major
dictionary order. A level-(n+1) square is a 2x2 arrangement of level-n
letters (i j / r s): its row-wise reading is (i,j,r,s) and its column-wise
reading (i,r,j,s); tuples compare lexicographically over letter positions.
The vertical matrix is computed with row-wise index order and re-sorted
column-wise afterwards; the horizontal matrix is computed column-wise and
re-sorted row-wise. The final row-wise order of the horizontal matrix is
exactly the pair order (top letter, bottom letter), which is what makes the
block arithmetic of the next step a pure index calculation.

Entries are exact: the level-0 matrices are `relation.pair_relation` window
scans, and a doubled block is allowed iff its two halves and the
half-overlapping middle block are, because a forbidden cube spans at most
half of a doubled side.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .caps import DEFAULT_CAPS, Caps
from .core import Block, CubeSet, permute_axes
from .errors import BudgetError, ShapeError
from .relation import join, pair_relation


@dataclass(frozen=True)
class OrderTag:
    """Which axis varies fastest when a block is read out as a tuple.

    For d=2, `rowwise` (axis 1 fastest: left-right then top-bottom) and
    `colwise` (axis 0 fastest: top-bottom then left-right) are the two
    dictionary orders used by the pipeline.
    """

    fast_axis: int

    @staticmethod
    def rowwise(dimension: int = 2) -> "OrderTag":
        return OrderTag(dimension - 1)

    @staticmethod
    def colwise() -> "OrderTag":
        return OrderTag(0)


def order_key(b: Block, tag: OrderTag) -> tuple[int, ...]:
    """Read the block's symbols with `tag.fast_axis` varying fastest.

    Sorting blocks by these keys realizes the row-wise / column-wise
    dictionary orders on equal-shape blocks.
    """
    d = b.dimension
    if not 0 <= tag.fast_axis < d:
        raise ShapeError(f"order axis {tag.fast_axis} out of range for dimension {d}")
    if tag.fast_axis == d - 1:
        return b.data
    perm = tuple(a for a in range(d) if a != tag.fast_axis) + (tag.fast_axis,)
    return permute_axes(b, perm).data


def otimes(p: Sequence[Sequence[int]], m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Row constructor: a KxK block against a K^2xK^2 matrix gives a K^4 row.

    With 1-based indices, entry r (r = a*K^3 + b*K^2 + g*K + d - (K^3+K^2+K))
    equals p[a][b] * m_block(a,b)[g][d], where m_block(a,b) is the KxK
    sub-matrix of m at block row a, block column b. Equivalently the n-th
    group of K^2 entries is p's n-th entry (read row-wise) broadcast over
    the matching block of m.
    """
    k = len(p)
    if any(len(row) != k for row in p):
        raise ShapeError("first operand must be square")
    if len(m) != k * k or any(len(row) != k * k for row in m):
        raise ShapeError(
            f"second operand must be {k * k}x{k * k} for a {k}x{k} first operand"
        )
    out = []
    for a in range(k):
        for b in range(k):
            scale = p[a][b]
            for g in range(k):
                row = m[a * k + g]
                base = b * k
                if scale:
                    out.extend(row[base : base + k])
                else:
                    out.extend([0] * k)
    return tuple(out)


@dataclass(frozen=True)
class CompatMatrix:
    """Sparse boolean matrix over ordered block indices."""

    row_blocks: tuple[Block, ...]
    col_blocks: tuple[Block, ...]
    row_order: OrderTag
    col_order: OrderTag
    ones: frozenset[tuple[int, int]]

    def __post_init__(self):
        nr, nc = len(self.row_blocks), len(self.col_blocks)
        if len(set(self.row_blocks)) != nr or len(set(self.col_blocks)) != nc:
            raise ShapeError("matrix index contains duplicate blocks")
        for r, c in self.ones:
            if not (0 <= r < nr and 0 <= c < nc):
                raise ShapeError(f"entry ({r},{c}) outside {nr}x{nc}")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_blocks), len(self.col_blocks))

    def is_zero(self) -> bool:
        return not self.ones

    def ones_count(self) -> int:
        return len(self.ones)

    def reorder(self, row_order: OrderTag, col_order: OrderTag) -> "CompatMatrix":
        """Re-sort both indices by the symbol-level reading orders.

        Positions move, payloads do not; reordering there and back is the
        identity on (index, ones).
        """
        rperm = sorted(range(len(self.row_blocks)), key=lambda i: order_key(self.row_blocks[i], row_order))
        cperm = sorted(range(len(self.col_blocks)), key=lambda i: order_key(self.col_blocks[i], col_order))
        rinv = {old: new for new, old in enumerate(rperm)}
        cinv = {old: new for new, old in enumerate(cperm)}
        return CompatMatrix(
            tuple(self.row_blocks[i] for i in rperm),
            tuple(self.col_blocks[i] for i in cperm),
            row_order,
            col_order,
            frozenset((rinv[r], cinv[c]) for r, c in self.ones),
        )


@dataclass(frozen=True)
class LiteralLevel:
    """One literal level: letters plus the vertical/horizontal matrices.

    `letters` are the level squares in arrangement-row-wise order; `pair_ones`
    mirrors the horizontal matrix as ((a,b),(c,d)) letter-position pairs,
    which is the form the next step consumes.
    """

    level: int
    side: int
    letters: tuple[Block, ...]
    vert: CompatMatrix
    horiz: CompatMatrix | None
    pair_ones: frozenset[tuple[tuple[int, int], tuple[int, int]]]

    def zero(self) -> bool:
        return self.vert.is_zero() or (self.horiz is not None and self.horiz.is_zero())


def _stacks(letters: Sequence[Block], side: int) -> tuple[Block, ...]:
    # every letter over every letter, in (top, bottom) order
    shape = (2 * side, side)
    return tuple(Block(shape, a.data + b.data) for a, b in itertools.product(letters, repeat=2))


def level0_matrices(
    index_blocks: Sequence[Block], cubes: CubeSet, caps: Caps = DEFAULT_CAPS
) -> LiteralLevel:
    """Exhaustive-scan base matrices over the given cube index.

    The index may include forbidden cubes (their rows come out zero) or be
    restricted to allowed cubes; either way each entry is decided by a full
    window scan of the assembled block, so a 1 always means "allowed".
    """
    letters = tuple(index_blocks)
    k = len(letters)
    if k * k > caps.max_index:
        raise BudgetError(
            f"horizontal index would have {k * k} entries (cap {caps.max_index})",
            required=k * k,
        )
    side = cubes.side
    square = (side, side)
    datas = [b.data for b in letters]
    vones = pair_relation(datas, square, 0, cubes)
    tag = OrderTag.rowwise(2)
    vert = CompatMatrix(letters, letters, tag, tag, vones)

    # horizontal entries need both column stacks allowed, so only scan those
    pairs = sorted(vones)
    stacks = [join(datas[i], datas[j], square, 0) for i, j in pairs]
    hpairs = pair_relation(stacks, (2 * side, side), 1, cubes)
    pair_ones = frozenset((pairs[x], pairs[y]) for x, y in hpairs)
    hones = frozenset((a * k + b, c * k + d) for (a, b), (c, d) in pair_ones)
    rects = _stacks(letters, side)
    horiz = CompatMatrix(rects, rects, tag, tag, hones)
    return LiteralLevel(0, side, letters, vert, horiz, pair_ones)


def _rowwise_pos(k: int, q: tuple[int, int, int, int]) -> int:
    i, j, r, s = q
    return ((i * k + j) * k + r) * k + s


def _colwise_pos(k: int, q: tuple[int, int, int, int]) -> int:
    i, j, r, s = q
    return ((i * k + r) * k + j) * k + s


def _merge_cols(q: tuple[int, int, int, int], p: tuple[int, int, int, int]):
    # seam square: right column of q glued to left column of p
    return (q[1], p[0], q[3], p[2])


def step_literal(
    lvl: LiteralLevel, caps: Caps = DEFAULT_CAPS, compute_h: bool = True
) -> LiteralLevel:
    """One doubling step of the literal pipeline.

    The next vertical matrix is indexed by all 2x2 arrangements of the
    current letters; rows of forbidden arrangements are zero, rows of
    allowed ones are the designated block of the horizontal matrix expanded
    against the whole matrix (the sparse equivalent of the `otimes` row).
    With `compute_h` the next horizontal matrix is also materialized, which
    squares the index length again; pass False to stop at the vertical
    matrix when only it is needed.
    """
    if lvl.horiz is None:
        raise BudgetError("horizontal matrix missing; recompute the level with compute_h")
    letters = lvl.letters
    k = len(letters)
    vcount = k**4
    if vcount > caps.max_index:
        raise BudgetError(
            f"next vertical index would have {vcount} entries "
            f"(cap {caps.max_index}); use the reduced pipeline",
            required=vcount,
        )

    # square (i j / r s) is allowed iff the horizontal matrix certified the
    # pairing of its two column stacks: one at ((i,r),(j,s))
    top2bot: dict[tuple[int, int], list[tuple[int, int]]] = {}
    allowed: set[tuple[int, int, int, int]] = set()
    for (a, b), (c, d) in lvl.pair_ones:
        q = (a, c, b, d)
        allowed.add(q)
        top2bot.setdefault((a, c), []).append((b, d))
    for v in top2bot.values():
        v.sort()

    # stream the ones: (q, p) pairs never repeat because p determines its
    # own top half, so no dedup set is needed
    vones_pos = set()
    vones_tuples = set() if compute_h else None
    for q in allowed:
        qpos = _colwise_pos(k, q)
        for uv in top2bot.get((q[2], q[3]), ()):
            for wz in top2bot.get(uv, ()):
                p = (uv[0], uv[1], wz[0], wz[1])
                vones_pos.add((qpos, _colwise_pos(k, p)))
                if vones_tuples is not None:
                    vones_tuples.add((q, p))

    new_side = 2 * lvl.side
    # letters of the next level keep arrangement-row-wise order: square
    # (i j / r s) is row pair (i, j) stacked on row pair (r, s); the
    # column-wise view of the vertical index reuses the same blocks
    square = (lvl.side, lvl.side)
    rows = [join(a.data, b.data, square, 1) for a, b in itertools.product(letters, repeat=2)]
    shape = (new_side, new_side)
    next_letters = tuple(Block(shape, top + bottom) for top, bottom in itertools.product(rows, repeat=2))
    order = sorted(itertools.product(range(k), repeat=4), key=lambda q: (q[0], q[2], q[1], q[3]))
    new_letters_colwise = tuple(next_letters[_rowwise_pos(k, q)] for q in order)
    ctag = OrderTag.colwise()
    vert = CompatMatrix(new_letters_colwise, new_letters_colwise, ctag, ctag, frozenset(vones_pos))

    horiz = None
    next_pair_ones: frozenset = frozenset()
    if compute_h:
        hcount = vcount * vcount
        if hcount > caps.max_index:
            raise BudgetError(
                f"next horizontal index would have {hcount} entries "
                f"(cap {caps.max_index}); use the reduced pipeline",
                required=hcount,
            )
        if len(vones_tuples) ** 2 > caps.max_work:
            raise BudgetError(
                f"horizontal step would examine {len(vones_tuples) ** 2} stack pairs "
                f"(cap {caps.max_work})",
                required=len(vones_tuples) ** 2,
            )
        vset = vones_tuples
        pair_ones = set()
        for (q, qb) in vset:
            for (p, pb) in vset:
                if (_merge_cols(q, p), _merge_cols(qb, pb)) in vset:
                    pair_ones.add(
                        ((_rowwise_pos(k, q), _rowwise_pos(k, qb)), (_rowwise_pos(k, p), _rowwise_pos(k, pb)))
                    )
        rects = _stacks(next_letters, new_side)
        hones = frozenset((a * vcount + b, c * vcount + d) for (a, b), (c, d) in pair_ones)
        rtag = OrderTag.rowwise(2)
        horiz = CompatMatrix(rects, rects, rtag, rtag, hones)
        next_pair_ones = frozenset(pair_ones)

    return LiteralLevel(lvl.level + 1, new_side, next_letters, vert, horiz, next_pair_ones)


def literal_vert_pairs(lvl: LiteralLevel) -> set[tuple[Block, Block]]:
    """Vertical-matrix ones as (upper block, lower block) pairs."""
    rb, cb = lvl.vert.row_blocks, lvl.vert.col_blocks
    return {(rb[r], cb[c]) for r, c in lvl.vert.ones}


def literal_horiz_pairs(lvl: LiteralLevel) -> set[tuple[Block, Block]]:
    """Horizontal-matrix ones as (left stack, right stack) pairs."""
    if lvl.horiz is None:
        raise BudgetError("horizontal matrix missing")
    rb, cb = lvl.horiz.row_blocks, lvl.horiz.col_blocks
    return {(rb[r], cb[c]) for r, c in lvl.horiz.ones}
