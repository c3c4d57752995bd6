"""Ground-truth counters the engine is validated against.

`brute_force_allowed` enumerates the symbol assignments of a shape one cell
at a time, in row-major order, and tests each l-window when its last cell
is placed: a forbidden window cuts every completion of its prefix, and each
allowed block is reached as its own leaf. It merges no states and calls no
engine code, so it stays independent of the DP and of the relation kernel.
`profile_count` is a cell-by-cell broken-profile DP that scales to shapes
the brute force cannot reach. They cross-check each other wherever both
run. Each normalizes the spec it is given and returns a count only: no
allowed block is kept.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
from dataclasses import dataclass
from operator import itemgetter

from .caps import DEFAULT_CAPS, PRINTED_MAX, Caps, check_power
from .core import Block, SftSpec, _gather_table, occurs_in, prod
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


def _completions(cur: list, start: int, ka: int, getters: list, bad) -> int:
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
            if get is not None and get(cur) in bad:
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
    shape, ka, m, lo, hi, cubes, raw_patterns = args
    n = prod(shape)
    rest = ka ** (n - m)
    if raw_patterns is not None:
        # the normalizer's check: every candidate rescanned against the raw patterns
        candidates = itertools.islice(itertools.product(range(ka), repeat=n), lo * rest, hi * rest)
        return sum(not any(occurs_in(Block(shape, d), p) for p in raw_patterns) for d in candidates)
    bad = cubes.data_set()
    if not bad or any(s < cubes.side for s in shape):
        return (hi - lo) * rest  # nothing can be forbidden, so every candidate is allowed
    if cubes.side == 1:
        bad = {a for (a,) in bad}
    getters = _last_cell_getters(shape, cubes.side)
    cur = [0] * n
    count = 0
    for prefix in range(lo, hi):
        for c in range(m - 1, -1, -1):
            prefix, cur[c] = divmod(prefix, ka)
        if not any(get is not None and get(cur) in bad for get in getters[:m]):
            count += _completions(cur, m, ka, getters, bad)
    return count


def brute_force_allowed(
    spec: SftSpec,
    shape: tuple[int, ...],
    mode: str = "cubes",
    caps: Caps = DEFAULT_CAPS,
) -> OracleResult:
    """Exact allowed-block count by exhaustive enumeration; only the count
    is kept.

    `mode="cubes"` places symbols cell by cell in row-major order against
    the spec's normalized cube set. Each l-window is tested once, when its
    last cell is placed, and a forbidden one cuts every completion of the
    prefix; each allowed block is still reached as its own leaf, and fewer
    than k/(k-1) * k^n prefixes are visited. `mode="patterns"` rescans every
    candidate against the raw forbidden patterns, bypassing normalization
    entirely (a check on the normalizer itself). `caps.oracle_candidates`
    bounds k^n in both modes. With `caps.threads` > 1 the prefixes of the
    first few cells are split into ranges counted by worker processes, and
    the result is the sum of their counts.
    """
    if mode not in ("cubes", "patterns"):
        raise SpecError(f"unknown oracle mode {mode!r}")
    if len(shape) != spec.dimension:
        raise SpecError(f"shape {shape} does not match dimension {spec.dimension}")
    check_power(
        spec.alphabet_size,
        prod(shape),
        caps.oracle_candidates,
        "brute force would enumerate {count} candidates (cap {cap}); try profile_count",
    )
    ka = spec.alphabet_size
    total = ka ** prod(shape)
    raw = spec.forbidden if mode == "patterns" else None
    cubes = normalize_to_cubes(spec, MODE_ALL, caps) if raw is None else None

    def job(m: int, lo: int, hi: int) -> tuple:
        return shape, ka, m, lo, hi, cubes, raw

    # more workers than cores only add processes
    workers = max(1, min(caps.threads, os.cpu_count() or 1))
    if workers == 1 or total < 4096:
        return OracleResult(shape, _count_range(job(0, 0, 1)))
    # the fewest leading cells whose prefixes give every worker one
    m = 1
    while ka**m < workers:
        m += 1
    bounds = [ka**m * i // workers for i in range(workers + 1)]
    try:
        with multiprocessing.Pool(workers) as pool:
            count = sum(pool.map(_count_range, [job(m, lo, hi) for lo, hi in zip(bounds, bounds[1:])]))
    except (OSError, AssertionError):
        count = _count_range(job(0, 0, 1))
    return OracleResult(shape, count)


def profile_count(
    spec: SftSpec,
    shape: tuple[int, int],
    caps: Caps = DEFAULT_CAPS,
) -> int:
    """Broken-profile DP count of allowed r x s arrays (2-d only).

    The transfer-matrix method of Calkin and Wilf, one cell at a time: the
    state is the last (l-1)(s+1) cells in row-major order, and each of the
    k_A symbols for the next cell is checked against the one l x l window
    that cell completes. `caps.profile_states` bounds k_A^(s(l-1)), the
    row profiles the states refine. Must agree with brute force wherever
    both run. Undersized shapes hold no cube and count k_A^(r*s).
    """
    if spec.dimension != 2:
        raise SpecError("profile counting is 2-dimensional only")
    cubes = normalize_to_cubes(spec, MODE_ALL, caps)
    r, s = shape
    side = cubes.side
    ka = spec.alphabet_size
    if r < side or s < side:
        check_power(ka, r * s, PRINTED_MAX, "profile DP count {count} is too long to print")
        return ka ** (r * s)
    check_power(ka, s * (side - 1), caps.profile_states, "profile DP needs {count} states (cap {cap})")
    bad = cubes.data_set()
    keep = (side - 1) * (s + 1)
    # the l x l window ending at the newest of keep + 1 cells, read
    # row-major; one cell is taken as a slice, a 1-tuple like its cube
    if side == 1:
        window = itemgetter(slice(0, 1))
    else:
        window = itemgetter(*(i * s + j for i in range(side) for j in range(side)))
    symbols = [(a,) for a in range(ka)]
    counts: dict[tuple, int] = {(): 1}
    for cell in range(r * s):
        i, j = divmod(cell, s)
        check = i >= side - 1 and j >= side - 1
        # once the state holds `keep` cells, the oldest one leaves it
        drop = 1 if cell >= keep else 0
        nxt: dict[tuple, int] = {}
        get = nxt.get
        for state, cnt in counts.items():
            for a in symbols:
                cells = state + a
                if check and window(cells) in bad:
                    continue
                key = cells[drop:]
                nxt[key] = get(key, 0) + cnt
        counts = nxt
    return sum(counts.values())
