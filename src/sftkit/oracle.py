"""Ground-truth counters the engine is validated against.

`brute_force_allowed` enumerates the symbol assignments of a shape one cell
at a time, in row-major order, and tests each l-window when its last cell
is placed: a forbidden window cuts every completion of its prefix, and each
allowed block is reached as its own leaf. It merges no states and calls no
engine code, so it stays independent of the DP and of the relation kernel.
`profile_count` is a cell-by-cell broken-profile DP over a box of any
dimension that scales to shapes the brute force cannot reach: its state is
one int of the last cells placed, and each cell checks the window ending
there, cut off at the box's low faces. It too calls no engine code. They
cross-check each other wherever both run. Each normalizes the spec it is
given and returns a count only: no allowed block is kept.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from operator import itemgetter

from .caps import DEFAULT_CAPS, PRINTED_MAX, Caps, check_power, refuse
from .core import CubeSet, SftSpec, _gather_table, prod, strides
from .errors import SpecError
from .normalize import MODE_ALL, normalize_to_cubes


@dataclass(frozen=True)
class OracleResult:
    shape: tuple[int, ...]
    count: int


def _last_cell_getters(shape: tuple[int, ...], side: int) -> list:
    """Per cell in row-major order, a getter reading the l-window whose
    last cell it is, or None where no window ends: a window ends at a cell
    whose every coordinate is >= l-1. A one-cell window reads its symbol."""
    table = _gather_table(shape, (side,) * len(shape))
    back = table[-1]  # from a window's first cell to its last
    return [
        itemgetter(*(cell - back + t for t in table)) if min(coord) >= side - 1 else None
        for cell, coord in enumerate(itertools.product(*map(range, shape)))
    ]


def _completions(cur: list, start: int, ka: int, getters: list, ok) -> int:
    """How many ways the cells from `start` on complete the prefix held in
    `cur`, depth first; the windows ending before `start` are not tested."""
    last = len(cur) - 1
    count = 0
    symbols = range(ka)
    todo = [None] * len(cur)  # per cell, the symbols still to try
    c = start
    todo[c] = iter(symbols)
    while c >= start:
        get = getters[c]
        for a in todo[c]:
            cur[c] = a
            if get is not None and get(cur) not in ok:
                continue  # every completion holds this window
            if c == last:
                count += 1
            else:
                c += 1
                todo[c] = iter(symbols)
                break
        else:
            c -= 1
    return count


def _count_range(args) -> int:
    """How many allowed blocks start with one of the prefixes lo..hi-1 of
    the first m cells, read as base-ka numbers, row-major: whole subtrees,
    so the counts of disjoint ranges add up."""
    shape, ka, m, lo, hi, cubes = args
    n = prod(shape)
    if not cubes.forbidden_count or any(s < cubes.side for s in shape):
        return (hi - lo) * ka ** (n - m)  # nothing can be forbidden, so every candidate is allowed
    ok = cubes.allowed_set
    if cubes.side == 1:
        ok = {a for (a,) in ok}
    getters = _last_cell_getters(shape, cubes.side)
    cur = [0] * n
    count = 0
    for prefix in range(lo, hi):
        for c in range(m - 1, -1, -1):
            prefix, cur[c] = divmod(prefix, ka)
        if not any(get is not None and get(cur) not in ok for get in getters[:m]):
            count += _completions(cur, m, ka, getters, ok)
    return count


def brute_force_allowed(
    spec: SftSpec,
    shape: tuple[int, ...],
    caps: Caps = DEFAULT_CAPS,
) -> OracleResult:
    """Exact allowed-block count by exhaustive enumeration; only the count
    is kept.

    Symbols are placed cell by cell in row-major order against the spec's
    normalized cube set. Each l-window is tested once, when its last cell
    is placed, and a forbidden one cuts every completion of the prefix;
    each allowed block is still reached as its own leaf, and fewer than
    k/(k-1) * k^n prefixes are visited. `caps.oracle_candidates` bounds
    k^n. With `caps.threads` > 1 the prefixes of the first few cells are
    split into ranges counted by worker processes, and the result is the
    sum of their counts.
    """
    _check_shape(spec, shape)
    check_power(
        spec.alphabet_size,
        prod(shape),
        caps.oracle_candidates,
        "brute force would enumerate {count} candidates (cap {cap})",
    )
    ka = spec.alphabet_size
    total = ka ** prod(shape)
    cubes = normalize_to_cubes(spec, MODE_ALL, caps)

    def job(m: int, lo: int, hi: int) -> tuple:
        return shape, ka, m, lo, hi, cubes

    # more workers than cores only add processes
    workers = max(1, min(caps.threads, os.cpu_count() or 1))
    if workers == 1 or total < 4096:
        return OracleResult(shape, _count_range(job(0, 0, 1)))
    # the fewest leading cells whose prefixes give every worker one
    m = 1
    while ka**m < workers:
        m += 1
    bounds = [ka**m * i // workers for i in range(workers + 1)]
    import multiprocessing  # only a pool needs it, and it costs milliseconds to load

    try:
        with multiprocessing.Pool(workers) as pool:
            count = sum(pool.map(_count_range, [job(m, lo, hi) for lo, hi in zip(bounds, bounds[1:])]))
    except (OSError, AssertionError):
        count = _count_range(job(0, 0, 1))
    return OracleResult(shape, count)


def _check_shape(spec: SftSpec, shape: tuple[int, ...]) -> None:
    """The shape rule both oracles share with the CLI: one extent per
    axis of the spec, each at least 1."""
    if len(shape) != spec.dimension:
        raise SpecError(f"shape {tuple(shape)} does not match dimension {spec.dimension}")
    if any(s < 1 for s in shape):
        raise SpecError(f"shape {tuple(shape)} has an extent below 1")


def _cut_windows(spec: SftSpec, cubes: CubeSet, b: int) -> dict:
    """Per extent vector e in [1..l]^d, the low-corner e-sub-blocks of the allowed
    l-cubes, each packed b bits a cell in row-major order (its last cell in
    the low bits) and grouped as {code of all cells but the last: the
    symbols that last cell may take}."""
    side, d = cubes.side, spec.dimension
    low = (1 << b) - 1
    kinds = [(e, _gather_table((side,) * d, e), {}) for e in itertools.product(range(1, side + 1), repeat=d)]
    for data in cubes.allowed:
        for _, offsets, groups in kinds:
            code = 0
            for o in offsets:
                code = (code << b) | data[o]
            groups.setdefault(code >> b, set()).add(code & low)
    return {e: {rest: tuple(sorted(a)) for rest, a in groups.items()} for e, _, groups in kinds}


def _runs(e: tuple[int, ...], st: tuple[int, ...], b: int) -> list[tuple[int, int, int]]:
    """How to read, from a state whose newest cell is in its low bits, the
    code of every cell but the last of the e-window ending at the next
    cell: per run of e[-1] cells along the last axis, a (shift, mask,
    position) triple, the run read as (state >> shift) & mask and placed at
    `position`. The last run ends at the next cell, so the state holds one
    cell fewer of it."""
    m = e[-1]
    heads = list(itertools.product(*(range(x) for x in e[:-1])))
    out = []
    for r, head in enumerate(heads):
        # how far back the run's last cell lies from the next cell
        back = sum((x - 1 - t) * s for x, t, s in zip(e, head, st))
        pos = m * b * (len(heads) - 1 - r) - b
        if back:
            out.append(((back - 1) * b, (1 << m * b) - 1, pos))
        elif m > 1:
            out.append((0, (1 << (m - 1) * b) - 1, 0))
    return out


def profile_count(
    spec: SftSpec,
    shape: tuple[int, ...],
    caps: Caps = DEFAULT_CAPS,
) -> int:
    """Broken-profile DP count of the allowed blocks of a d-box.

    The transfer-matrix method of Calkin and Wilf, one cell at a time in
    row-major order, in any dimension. The state is the last (l-1)*sum of
    the box's strides cells, held as one int of b = max(1, bits of k_A-1)
    bits a cell, the newest cell in the low bits; placing symbol a steps
    it to ((state << b) & mask) | a. Each cell checks the window ending
    there, cut off at the box's low faces to extent min(coord+1, l) per
    axis, against the low-corner sub-blocks of that extent of the allowed
    cubes. When every extent of the box is >= l, a cut window is the low
    corner of a full window of the box, so it prunes soundly, and the full
    windows are checked as they complete; the successors of a state are
    memoised per extent vector. `caps.profile_states` bounds
    k_A^((l-1)*(sum of strides - 1)), so at most k_A^(l-1) times the cap
    states are live in any d; in 2-d (r x s) that is k_A^(s(l-1)). Must
    agree with brute force wherever both run. A box thinner than l on some
    axis holds no cube and counts k_A^n.
    """
    _check_shape(spec, shape)
    cubes = normalize_to_cubes(spec, MODE_ALL, caps)
    side = cubes.side
    ka = spec.alphabet_size
    n = prod(shape)
    if any(s < side for s in shape):
        check_power(ka, n, PRINTED_MAX, "profile DP count {count} is too long to print")
        return ka**n
    st = strides(shape)
    check_power(ka, (side - 1) * (sum(st) - 1), caps.profile_states, "profile DP needs {count} states (cap {cap})")
    b = max(1, (ka - 1).bit_length())
    mask = (1 << (side - 1) * sum(st) * b) - 1
    # per extent vector: its table, its run reads and its successor memo
    kinds = {e: (table, _runs(e, st, b), {}) for e, table in _cut_windows(spec, cubes, b).items()}
    counts: dict[int, int] = {0: 1}
    # per cell in row-major order, the extent of the window ending there,
    # cut at the low faces
    for e in itertools.product(*([min(c + 1, side) for c in range(s)] for s in shape)):
        table, reads, memo = kinds[e]
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, cnt in counts.items():
            succ = memo.get(state)
            if succ is None:
                rest = 0
                for shift, m, pos in reads:
                    rest |= ((state >> shift) & m) << pos
                head = (state << b) & mask
                succ = memo[state] = tuple(head | a for a in table.get(rest, ()))
            for t in succ:
                nxt[t] = get(t, 0) + cnt
        counts = nxt
    count = sum(counts.values())
    # as in a thin box: past it, printing may pass the digit limit
    refuse(count, PRINTED_MAX, f"profile DP count of {count.bit_length()} bits is too long to print")
    return count
