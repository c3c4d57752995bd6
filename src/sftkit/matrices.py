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
(i*k + r)*k^2 + j*k + s. Every index is a `Pairs`, whose blocks are only
built when read: the stacks pair letters along axis 0, the next letters
pair row pairs along axis 0 (`Pairs(Pairs(letters, 1), 0)`, row-wise),
and the vertical index pairs stacks along axis 1
(`Pairs(Pairs(letters, 0), 1)`, column-wise).

Entries are exact: the level-0 matrices are `relation.seam_relation`
seam-slab joins (each block and each distinct seam slab pair window-scanned
once), which hold for an index with forbidden cubes or a subset of the
allowed ones, and a doubled block is allowed iff its two halves and the
half-overlapping middle block are, because a forbidden cube spans at most
half of a doubled side. So each later step is two `relation.middle_join`
calls, the chain's own join, over letter positions (see `step_literal`).
Every matrix keeps its ones as the join's key groups (`relation.Relation`):
the groups share one index list per half key, and each distinct list is
mapped onto matrix positions once.

Budgets: `level0_matrices` checks its horizontal index (k^2) and
`step_literal` its vertical index (k^4) before any work, so those stops
keep nothing; the k^2 check is also the only cap on the level-0 vertical
pass, which is why it comes first. Every horizontal pass stops after its
vertical matrix on |vertical ones|^2 past `max_work`, and from level 1 on
also on its index past `max_index`, with that level as `partial`.
"""
from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence, Set
from dataclasses import dataclass, field, replace

from .caps import DEFAULT_CAPS, Caps, refuse
from .core import Block, CubeSet, concat
from .errors import ShapeError
from .relation import Relation, join, middle_join, seam_relation


def otimes(p: Sequence[Sequence[int]], m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Row constructor: a KxK block against a K^2xK^2 matrix gives a K^4 row.

    With 1-based indices, entry r (r = a*K^3 + b*K^2 + g*K + d - (K^3+K^2+K))
    equals p[a][b] * m_block(a,b)[g][d], where m_block(a,b) is the KxK
    sub-matrix of m at block row a, block column b. Equivalently the n-th
    group of K^2 entries is p's n-th entry (read row-wise) broadcast over
    the matching block of m. A reference oracle for `step_literal`'s rows,
    kept apart from `relation.join`/`middle_join` on purpose.
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
    """Every part joined to every part along `axis`, each block built on
    access.

    Position a*n + b holds parts[a] joined to parts[b], parts[a] on the low
    side, so the index is free of duplicates whenever the parts are. The
    literal pipeline's indices all have this form: a level's stacks are
    `Pairs(letters, 0)`; the next level's squares (i j / r s) are row pairs
    stacked, `Pairs(Pairs(letters, 1), 0)`, at row-wise position
    ((i*k + j)*k + r)*k + s, or stacks side by side,
    `Pairs(Pairs(letters, 0), 1)`, at column-wise position
    ((i*k + r)*k + j)*k + s.
    """

    __slots__ = ("parts", "axis")

    def __init__(self, parts: Sequence[Block], axis: int = 0):
        self.parts = parts
        self.axis = axis

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
        return concat(self.parts[a], self.parts[b], self.axis)

    def __iter__(self):
        parts = list(self.parts)
        for low in parts:
            for high in parts:
                yield concat(low, high, self.axis)

    def __eq__(self, other):
        if isinstance(other, Pairs) and self.axis == other.axis and self.parts == other.parts:
            return True
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class CompatMatrix:
    """Sparse boolean matrix over ordered block indices.

    `ones` is the set of (row, col) positions holding a 1. The pipeline's
    matrices hold a `relation.Relation`, one (rows, cols) key group per join
    key, so `ones_count` lists no pair; it iterates, compares and combines
    as a set.

    The constructor checks that each index holds distinct blocks and that
    every one lies inside the shape. It skips those O(n) scans when both
    indices are `Pairs`, which are duplicate-free by construction and hold
    the pipeline's own matrices.
    """

    row_blocks: Sequence[Block]
    col_blocks: Sequence[Block]
    ones: Set[tuple[int, int]]

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


@dataclass(frozen=True)
class LiteralLevel:
    """One literal level: letters plus the vertical/horizontal matrices.

    `letters` are the level squares in arrangement-row-wise order. `horiz`
    is None when the step stopped at the vertical matrix; such a level made
    by `step_literal` keeps in `vjoin` its squares as 2x2 blocks of the
    previous level's letters and their vertical key groups, which
    `step_horizontal` goes on from.
    """

    level: int
    side: int
    letters: Sequence[Block]
    vert: CompatMatrix
    horiz: CompatMatrix | None
    vjoin: tuple[list, Relation] | None = field(default=None, compare=False, repr=False)

    @property
    def pair_ones(self) -> Relation:
        """The horizontal ones as ((a, b), (c, d)) letter-position pairs,
        stack a-over-b beside stack c-over-d, in the horizontal matrix's
        key groups; empty when `horiz` is None."""
        n = len(self.letters)
        return Relation() if self.horiz is None else _mapped(self.horiz.ones, lambda x: divmod(x, n))

    def zero(self) -> bool:
        return self.vert.is_zero() or (self.horiz is not None and self.horiz.is_zero())


def level0_matrices(
    index_blocks: Sequence[Block], cubes: CubeSet, caps: Caps = DEFAULT_CAPS
) -> LiteralLevel:
    """Base matrices over the given cube index, by seam-slab joins.

    The index may include forbidden cubes (their rows come out zero) or be
    restricted to allowed cubes; either way every window of the assembled
    block is scanned, once per block and once per distinct seam slab pair,
    so a 1 always means "allowed". The horizontal index (k^2) is refused
    past `max_index` before any work: no other cap bounds the vertical
    pass, so the refusal comes first and keeps nothing.
    """
    letters = tuple(index_blocks)
    k = len(letters)
    refuse(k * k, caps.max_index, "horizontal index would have {count} entries (cap {cap})")
    side = cubes.side
    square = (side, side)
    datas = [b.data for b in letters]
    vert = CompatMatrix(letters, letters, seam_relation(datas, square, 0, cubes))
    part = LiteralLevel(0, side, letters, vert, None)
    _check_stack_pairs(part, caps)

    # horizontal entries need both column stacks allowed, so only scan those
    pairs = list(vert.ones)
    stacks = [join(datas[i], datas[j], square, 0) for i, j in pairs]
    return _with_horizontal(part, pairs, seam_relation(stacks, (2 * side, side), 1, cubes))


def _rowwise_pos(k: int, q: tuple[int, int, int, int]) -> int:
    i, j, r, s = q
    return ((i * k + j) * k + r) * k + s


def _colwise_pos(k: int, q: tuple[int, int, int, int]) -> int:
    i, j, r, s = q
    return ((i * k + r) * k + j) * k + s


def check_index(what: str, count: int, caps: Caps, partial=None) -> None:
    """Refuse a next-level index longer than `caps.max_index`."""
    message = f"next {what} index would have {{count}} entries (cap {{cap}}); use the reduced pipeline"
    refuse(count, caps.max_index, message, partial)


def _check_stack_pairs(part: LiteralLevel, caps: Caps) -> None:
    """Refuse the horizontal pass over `part`, a level built up to its
    vertical matrix, by its stack pairs."""
    message = "horizontal step would examine {count} stack pairs (cap {cap})"
    refuse(part.vert.ones_count() ** 2, caps.max_work, message, part)


def _mapped(rel: Relation, at: Callable[[int], Hashable]) -> Relation:
    # `rel` with each index x read as at(x). at is one-to-one, so the groups
    # stay disjoint and the ones are counted without being listed; the
    # groups share one list per half key, each mapped once, by identity
    # (rel keeps the lists alive, so no two share an id)
    shared = {id(ids): ids for group in rel.groups for ids in group}
    mapped = {key: [*map(at, ids)] for key, ids in shared.items()}
    return Relation((mapped[id(lows)], mapped[id(highs)]) for lows, highs in rel.groups)


def _with_horizontal(part: LiteralLevel, stacks: Sequence[tuple[int, int]], hrel: Relation) -> LiteralLevel:
    # stacks[x] is stack x's (top, bottom) letters, at position top*n + bottom
    # of the stack index; hrel pairs the stacks (left, right)
    n = len(part.letters)
    rects = Pairs(part.letters)
    hones = _mapped(hrel, [a * n + b for a, b in stacks].__getitem__)
    return replace(part, horiz=CompatMatrix(rects, rects, hones), vjoin=None)


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
    allowed are the next vertical ones (the sparse `otimes` rows), kept as
    the join's key groups over column-wise positions. The
    vertical index is checked before any work. With `compute_h` the step
    goes on with `step_horizontal`.
    """
    if lvl.horiz is None:
        raise ShapeError("horizontal matrix missing; recompute the level with compute_h")
    k = len(lvl.letters)
    check_index("vertical", k**4, caps)
    squares, vrel = _letter_squares(lvl)
    vones = _mapped(vrel, [_colwise_pos(k, q) for q in squares].__getitem__)

    # the next letters are the row pairs stacked, in arrangement-row-wise
    # order; the vertical index reads the same squares column-wise
    letters = Pairs(Pairs(lvl.letters, 1), 0)
    index = Pairs(Pairs(lvl.letters, 0), 1)
    vert = CompatMatrix(index, index, vones)
    part = LiteralLevel(lvl.level + 1, 2 * lvl.side, letters, vert, None, (squares, vrel))
    return step_horizontal(lvl, part, caps) if compute_h else part


def step_horizontal(lvl: LiteralLevel, part: LiteralLevel, caps: Caps = DEFAULT_CAPS) -> LiteralLevel:
    """`part`, the vertical-only step of `lvl`, with its horizontal matrix.
    Stacks, upper square over lower square, are 4x2 letter blocks; L and R
    sit side by side iff their middle stack (L's right column, R's left
    column) is a vertical one. The stops come first and carry `part`."""
    check_index("horizontal", len(part.letters) ** 2, caps, part)
    _check_stack_pairs(part, caps)
    k = len(lvl.letters)
    squares, vrel = part.vjoin or _letter_squares(lvl)
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
        raise ShapeError("horizontal matrix missing")
    rb, cb = lvl.horiz.row_blocks, lvl.horiz.col_blocks
    return {(rb[r], cb[c]) for r, c in lvl.horiz.ones}
