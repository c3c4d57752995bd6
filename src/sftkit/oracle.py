"""Ground-truth counters the engine is validated against.

`brute_force_allowed` enumerates every symbol assignment of a shape and
filters; `profile_count` is a cell-by-cell broken-profile DP that scales to
shapes the brute force cannot reach. They cross-check each other wherever
both run. Each normalizes the spec it is given and returns a count only:
no allowed block is kept.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
from dataclasses import dataclass
from operator import itemgetter

from .caps import DEFAULT_CAPS, PRINTED_MAX, Caps, check_power
from .core import Block, SftSpec, allowed_data, occurs_in, prod
from .errors import SpecError
from .normalize import MODE_ALL, normalize_to_cubes


@dataclass(frozen=True)
class OracleResult:
    shape: tuple[int, ...]
    count: int


def _scan_range(args) -> int:
    """How many of the candidates lo..hi-1 are allowed, in enumeration
    order: base-ka digits, row-major."""
    shape, ka, lo, hi, cubes, raw_patterns = args
    if raw_patterns is None and any(s < cubes.side for s in shape):
        return hi - lo  # no cube fits, so every candidate is allowed
    candidates = itertools.islice(itertools.product(range(ka), repeat=prod(shape)), lo, hi)
    if raw_patterns is not None:
        return sum(not any(occurs_in(Block(shape, d), p) for p in raw_patterns) for d in candidates)
    return sum(map(allowed_data, candidates, itertools.repeat(shape), itertools.repeat(cubes)))


def brute_force_allowed(
    spec: SftSpec,
    shape: tuple[int, ...],
    mode: str = "cubes",
    caps: Caps = DEFAULT_CAPS,
) -> OracleResult:
    """Exact allowed-block count by exhaustive enumeration; only the count
    is kept.

    `mode="cubes"` filters with the window scanner against the spec's
    normalized cube set; `mode="patterns"` rescans against the raw forbidden
    patterns, bypassing normalization entirely (a check on the normalizer
    itself). With `caps.threads` > 1 the candidates are split into ranges
    counted by worker processes, and the result is the sum of their counts.
    """
    if len(shape) != spec.dimension:
        raise SpecError(f"shape {shape} does not match dimension {spec.dimension}")
    check_power(
        spec.alphabet_size,
        prod(shape),
        caps.oracle_candidates,
        "brute force would enumerate {count} candidates (cap {cap}); try profile_count",
    )
    total = spec.alphabet_size ** prod(shape)
    if mode not in ("cubes", "patterns"):
        raise SpecError(f"unknown oracle mode {mode!r}")
    raw = spec.forbidden if mode == "patterns" else None
    cubes = normalize_to_cubes(spec, MODE_ALL, caps) if raw is None else None

    def job(lo: int, hi: int) -> tuple:
        return shape, spec.alphabet_size, lo, hi, cubes, raw

    # more workers than cores only add processes
    workers = max(1, min(caps.threads, os.cpu_count() or 1))
    if workers == 1 or total < 4096:
        return OracleResult(shape, _scan_range(job(0, total)))
    bounds = [total * i // workers for i in range(workers + 1)]
    try:
        with multiprocessing.Pool(workers) as pool:
            count = sum(pool.map(_scan_range, [job(lo, hi) for lo, hi in zip(bounds, bounds[1:])]))
    except (OSError, AssertionError):
        count = _scan_range(job(0, total))
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
