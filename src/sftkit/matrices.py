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
reading (i,r,j,s); tuples compare lexicographically over letter positions,
so a position is the reading's base-k number. The vertical matrix is
indexed column-wise, the horizontal matrix row-wise by stacks, whose order
is exactly the pair order (top letter, bottom letter). A horizontal one
(i*k + r, j*k + s) is the allowed square at column-wise position
(i*k + r)*k^2 + j*k + s, and index blocks are only built when they are
read (`Pairs`).

Entries are exact: the level-0 matrices are `relation.pair_relation`
seam-slab joins (each block and each distinct seam slab pair window-scanned
once), and a doubled block is allowed iff its two halves and the
half-overlapping middle block are, because a forbidden cube spans at most
half of a doubled side. So each later step is two `relation.middle_join`
calls, the chain's own join, over letter positions (see `step_literal`).

Budgets: `level0_matrices` checks its horizontal index (k^2) and
`step_literal` its vertical index (k^4) before any work. Every horizontal
pass stops after its vertical matrix, on its index past `max_index` or
|vertical ones|^2 past `max_work`, with that level as `partial`.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .caps import DEFAULT_CAPS, Caps
from .core import Block, CubeSet, permute_axes
from .errors import BudgetError, ShapeError
from .relation import join, middle_join, pair_relation


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


class Pairs(Sequence[Block]):
    """Every part stacked on every part, each block built on access.

    Position a*n + b holds parts[a] on top of parts[b], so the index is free
    of duplicates whenever the parts are. The literal pipeline's indices all
    have this form: a level's stacks pair its letters, and the next level's
    squares pair its row pairs (i j) of letters, at position i*k + j. Those
    squares (i j / r s) count row-wise, ((i*k + j)*k + r)*k + s, or with
    `colwise` column-wise, ((i*k + r)*k + j)*k + s.
    """

    __slots__ = ("parts", "colwise")

    def __init__(self, parts: Sequence[Block], colwise: bool = False):
        self.parts = parts
        self.colwise = colwise

    def __len__(self) -> int:
        return len(self.parts) ** 2

    def __getitem__(self, x):
        if isinstance(x, slice):
            return tuple(self[i] for i in range(*x.indices(len(self))))
        n = len(self.parts)
        if x < 0:
            x += n * n
        if not 0 <= x < n * n:
            raise IndexError(f"position {x} outside an index of {n * n}")
        a, b = divmod(x, n)
        if self.colwise:
            # a = i*k + r and b = j*k + s name the top pair i*k + j and the
            # bottom pair r*k + s
            k = math.isqrt(n)
            a, b = a // k * k + b // k, a % k * k + b % k
        s = self.parts[0].shape
        return Block((2 * s[0],) + s[1:], self.parts[a].data + self.parts[b].data)

    def __iter__(self):
        if not self.parts:
            return
        datas = [p.data for p in self.parts]
        s = self.parts[0].shape
        shape = (2 * s[0],) + s[1:]
        if not self.colwise:
            for top in datas:
                for bottom in datas:
                    yield Block(shape, top + bottom)
            return
        k = math.isqrt(len(datas))
        for i in range(0, k * k, k):
            for r in range(0, k * k, k):
                # squares (i j / r s) for every j, s: column-wise order
                for top in datas[i : i + k]:
                    for bottom in datas[r : r + k]:
                        yield Block(shape, top + bottom)

    def __eq__(self, other):
        if isinstance(other, Pairs) and self.colwise == other.colwise and self.parts == other.parts:
            return True
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class CompatMatrix:
    """Sparse boolean matrix over ordered block indices.

    The constructor checks that each index holds distinct blocks and that
    every one lies inside the shape. It skips those O(n) scans when both
    indices are `Pairs`, which are duplicate-free by construction and hold
    the pipeline's own matrices.
    """

    row_blocks: Sequence[Block]
    col_blocks: Sequence[Block]
    row_order: OrderTag
    col_order: OrderTag
    ones: frozenset[tuple[int, int]]

    def __post_init__(self):
        if isinstance(self.row_blocks, Pairs) and isinstance(self.col_blocks, Pairs):
            return
        nr, nc = len(self.row_blocks), len(self.col_blocks)
        indices = [self.row_blocks]
        if self.col_blocks is not self.row_blocks:
            indices.append(self.col_blocks)
        if any(len(set(ix)) != len(ix) for ix in indices):
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
    mirrors the horizontal matrix as ((a,b),(c,d)) letter-position pairs.
    `horiz` is None (and `pair_ones` empty) when the step stopped at the
    vertical matrix.
    """

    level: int
    side: int
    letters: Sequence[Block]
    vert: CompatMatrix
    horiz: CompatMatrix | None
    pair_ones: frozenset[tuple[tuple[int, int], tuple[int, int]]]

    def zero(self) -> bool:
        return self.vert.is_zero() or (self.horiz is not None and self.horiz.is_zero())


def level0_matrices(
    index_blocks: Sequence[Block], cubes: CubeSet, caps: Caps = DEFAULT_CAPS
) -> LiteralLevel:
    """Base matrices over the given cube index, by seam-slab joins.

    The index may include forbidden cubes (their rows come out zero) or be
    restricted to allowed cubes; either way every window of the assembled
    block is scanned, once per block and once per distinct seam slab pair,
    so a 1 always means "allowed".
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
    pairs = list(pair_relation(datas, square, 0, cubes))
    tag = OrderTag.rowwise(2)
    vert = CompatMatrix(letters, letters, tag, tag, frozenset(pairs))
    part = LiteralLevel(0, side, letters, vert, None, frozenset())
    _check_horizontal(part, caps)

    # horizontal entries need both column stacks allowed, so only scan those
    stacks = [join(datas[i], datas[j], square, 0) for i, j in pairs]
    return _with_horizontal(part, pairs, pair_relation(stacks, (2 * side, side), 1, cubes))


def _rowwise_pos(k: int, q: tuple[int, int, int, int]) -> int:
    i, j, r, s = q
    return ((i * k + j) * k + r) * k + s


def _colwise_pos(k: int, q: tuple[int, int, int, int]) -> int:
    i, j, r, s = q
    return ((i * k + r) * k + j) * k + s


def check_index(what: str, count: int, caps: Caps, partial=None) -> None:
    """Refuse a next-level index longer than `caps.max_index`."""
    if count > caps.max_index:
        raise BudgetError(
            f"next {what} index would have {count} entries "
            f"(cap {caps.max_index}); use the reduced pipeline",
            required=count,
            partial=partial,
        )


def _check_horizontal(part: LiteralLevel, caps: Caps) -> None:
    """Refuse the horizontal pass over `part`, a level built up to its
    vertical matrix, by its index length or its stack pairs."""
    check_index("horizontal", len(part.letters) ** 2, caps, part)
    work = part.vert.ones_count() ** 2
    if work > caps.max_work:
        raise BudgetError(
            f"horizontal step would examine {work} stack pairs (cap {caps.max_work})",
            required=work,
            partial=part,
        )


def _with_horizontal(part: LiteralLevel, stacks: Sequence[tuple[int, int]], hpairs) -> LiteralLevel:
    # stacks[x] is stack x's (top, bottom) letters; hpairs its (left, right) pairs
    n = len(part.letters)
    pair_ones = frozenset((stacks[x], stacks[y]) for x, y in hpairs)
    hones = frozenset((a * n + b, c * n + d) for (a, b), (c, d) in pair_ones)
    rects = Pairs(part.letters)
    tag = OrderTag.rowwise(2)
    horiz = CompatMatrix(rects, rects, tag, tag, hones)
    return replace(part, horiz=horiz, pair_ones=pair_ones)


def _letter_squares(lvl: LiteralLevel):
    # the next level's squares (i j / r s) from the horizontal ones
    # ((i, r), (j, s)), and the next vertical ones among them
    squares = [(i, j, r, s) for (i, r), (j, s) in lvl.pair_ones]
    return squares, middle_join(squares, (2, 2), 0)


def step_literal(
    lvl: LiteralLevel, caps: Caps = DEFAULT_CAPS, compute_h: bool = True
) -> LiteralLevel:
    """One doubling step of the literal pipeline, over letter positions.

    The next level's allowed squares are the current horizontal ones. As
    2x2 letter blocks (i, j, r, s), their pairs whose middle square is
    allowed are the next vertical ones (the sparse `otimes` rows). The
    vertical index is checked before any work. With `compute_h` the step
    goes on with `step_horizontal`.
    """
    if lvl.horiz is None:
        raise BudgetError("horizontal matrix missing; recompute the level with compute_h")
    k = len(lvl.letters)
    check_index("vertical", k**4, caps)
    squares, vrel = _letter_squares(lvl)
    colwise = [_colwise_pos(k, q) for q in squares]
    vones = frozenset(
        itertools.chain.from_iterable(
            itertools.product(map(colwise.__getitem__, lows), map(colwise.__getitem__, highs))
            for lows, highs in vrel.groups
        )
    )

    # the next letters are the row pairs stacked, in arrangement-row-wise
    # order; the vertical index reads the same squares column-wise
    side = lvl.side
    rows = tuple(
        Block((side, 2 * side), join(a.data, b.data, (side, side), 1))
        for a, b in itertools.product(lvl.letters, repeat=2)
    )
    index, ctag = Pairs(rows, colwise=True), OrderTag.colwise()
    vert = CompatMatrix(index, index, ctag, ctag, vones)
    part = LiteralLevel(lvl.level + 1, 2 * side, Pairs(rows), vert, None, frozenset())
    return step_horizontal(lvl, part, caps) if compute_h else part


def step_horizontal(lvl: LiteralLevel, part: LiteralLevel, caps: Caps = DEFAULT_CAPS) -> LiteralLevel:
    """`part`, the vertical-only step of `lvl`, with its horizontal matrix.
    Stacks, upper square over lower square, are 4x2 letter blocks; L and R
    sit side by side iff their middle stack (L's right column, R's left
    column) is a vertical one. The stops come first and carry `part`."""
    _check_horizontal(part, caps)
    k = len(lvl.letters)
    squares, vrel = _letter_squares(lvl)
    pairs = list(vrel)
    rowwise = [_rowwise_pos(k, q) for q in squares]
    hrel = middle_join([squares[a] + squares[b] for a, b in pairs], (4, 2), 1)
    return _with_horizontal(part, [(rowwise[a], rowwise[b]) for a, b in pairs], hrel)


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
