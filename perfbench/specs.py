"""Problem specs for the benchmark, and the counts they are checked against.

Fixed specs carry an embedded expected-count table (`TABLE`) whose values
were produced by the library's oracles at the commit that introduced the
benchmark; `perfbench/selftest.py` re-derives them. Generated specs are
binary d=2 specs made of full-support 2x2 forbidden patterns, so their
forbidden cube set is the pattern set itself; they are checked against
`Counts`, a row-transfer counter that shares no code with sftkit.

Everything here is a pure function of the benchmark seed.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict

# The library's default budget caps (sftkit.caps.Caps). Used to decide
# whether the answer a task asks for is within reach; kept as literals so
# that a later change to the program's defaults shows up as a behaviour
# change, not as a silently moved benchmark target.
MAX_WORK = 10**7
MAX_BLOCKS = 10**7
MAX_INDEX = 10**4
ORACLE_CANDIDATES = 2**24
PROFILE_STATES = 2**20


def _p(*cells):
    """Sparse pattern of 1s at the given coordinates."""
    return [[list(c), "1"] for c in cells]


HARD_CUBE_PATTERNS = [_p((0, 0, 0), (0, 0, 1)), _p((0, 0, 0), (0, 1, 0)), _p((0, 0, 0), (1, 0, 0))]

FIXED = {
    # README example: no two orthogonally adjacent 1s
    "hard_squares": {"dimension": 2, "symbols": ["0", "1"], "forbidden": [[["1", "1"]], [["1"], ["1"]]]},
    "checkerboard": {
        "dimension": 2,
        "symbols": ["0", "1"],
        "forbidden": [[["0", "0"]], [["1", "1"]], [["0"], ["0"]], [["1"], ["1"]]],
    },
    "full_shift": {"dimension": 2, "symbols": ["0", "1"], "forbidden": []},
    # one forbidden 2x2 over three symbols: 80 allowed cubes
    "three_symbol": {"dimension": 2, "symbols": ["0", "1", "2"], "forbidden": [[["0", "1"], ["2", "0"]]]},
    "d1_no_adjacent_ones": {"dimension": 1, "symbols": ["0", "1"], "forbidden": [["1", "1"]]},
    "d3_hard_cubes": {"dimension": 3, "symbols": ["0", "1"], "forbidden": HARD_CUBE_PATTERNS},
    # hard cubes without 1s on the face diagonals of the axis-1/axis-2
    # faces nor on one axis-0/axis-1 diagonal: 19 cubes, 281 first-stage
    # blocks, so the first chain cycle costs seconds instead of half a
    # minute, and its third stage still stops on the work cap
    "d3_hard_cubes_diag": {
        "dimension": 3,
        "symbols": ["0", "1"],
        "forbidden": HARD_CUBE_PATTERNS
        + [_p((0, 0, 0), (0, 1, 1)), _p((0, 0, 1), (0, 1, 0)), _p((0, 0, 0), (1, 1, 0))],
    },
}

# normalized cube side of each fixed spec (the maximum pattern width)
FIXED_SIDE = {name: (1 if not doc["forbidden"] else 2) for name, doc in FIXED.items()}

# Expected allowed-block counts of the fixed specs, by block shape.
# Provenance: B = brute_force_allowed, D = profile_count, both at the
# commit that introduced the benchmark; full_shift and checkerboard follow
# closed forms (2^(r*s) and 2) and are not tabled.
TABLE = {
    "hard_squares": {
        (2, 2): 7,  # B
        (4, 2): 41,  # B
        (4, 4): 1234,  # B
        (8, 4): 1_095_851,  # D
        (8, 8): 660_647_962_955,  # D
        (16, 8): 239_454_372_000_785_949_580_817,  # D
    },
    "three_symbol": {
        (2, 2): 80,  # B
        (4, 2): 6319,  # B
        (4, 4): 38_445_598,  # D
    },
    "d1_no_adjacent_ones": {(2,): 3, (4,): 8, (8,): 55, (16,): 2584},  # B
    "d3_hard_cubes": {(2, 2, 2): 35, (4, 2, 2): 933},  # B
    "d3_hard_cubes_diag": {(2, 2, 2): 19, (4, 2, 2): 281},  # B
}


def closed_form(name: str, shape) -> int | None:
    if name == "full_shift":
        return 2 ** math.prod(shape)
    if name == "checkerboard":
        return 2
    return None


# ---------------------------------------------------------------------------
# independent counter for generated specs


def _transfer(k: int, bad: frozenset, width: int, limit: int):
    """Row-to-row transfer of the allowed 2-row strips of one width:
    top row -> list of bottom rows; None when there are more than
    `limit` strips."""
    cols = [(a, c) for a in range(k) for c in range(k)]
    # a 2x2 window with left column p and right column q reads p0 q0 / p1 q1
    nxt = {p: [q for q in cols if (p[0], q[0], p[1], q[1]) not in bad] for p in cols}
    cur = [(p,) for p in cols]
    for _ in range(width - 1):
        cur = [st + (q,) for st in cur for q in nxt[st[-1]]]
        if len(cur) > limit:
            return None
    succ = defaultdict(list)
    for st in cur:
        succ[tuple(p[0] for p in st)].append(tuple(p[1] for p in st))
    return succ


def _walk(succ, rows: int) -> int:
    ways = defaultdict(int)
    for bots in succ.values():
        for b in bots:
            ways[b] += 1
    for _ in range(rows - 2):
        nxt = defaultdict(int)
        for top, w in ways.items():
            for b in succ.get(top, ()):
                nxt[b] += w
        ways = nxt
    return sum(ways.values())


class Counts:
    """Allowed r x s arrays over k symbols whose 2x2 windows all lie
    outside `bad`, counted by a row-to-row transfer over allowed 2-row
    strips. A count whose strip set exceeds `limit` is out of reach and
    reads None. Results are memoized by shape."""

    def __init__(self, bad: frozenset, k: int = 2, limit: int = 100_000):
        self.bad, self.k, self.limit = bad, k, limit
        self.memo: dict = {}
        self._succ: dict = {}

    def __call__(self, shape):
        shape = tuple(shape)
        if shape not in self.memo:
            r, s = shape
            if r < 2 or s < 2:
                self.memo[shape] = self.k ** (r * s)
            else:
                if s not in self._succ:
                    self._succ[s] = _transfer(self.k, self.bad, s, self.limit)
                succ = self._succ[s]
                self.memo[shape] = None if succ is None else _walk(succ, r)
        return self.memo[shape]


# ---------------------------------------------------------------------------
# generated specs


def _square_doc(pats) -> dict:
    return {
        "dimension": 2,
        "symbols": ["0", "1"],
        "forbidden": [[[str(a), str(b)], [str(c), str(d)]] for a, b, c, d in sorted(pats)],
    }


def _random_square(rng: random.Random, lo: int, hi: int) -> frozenset:
    n = rng.randint(lo, hi)
    pats = set()
    while len(pats) < n:
        pats.add(tuple(rng.randrange(2) for _ in range(4)))
    return frozenset(pats)


def ladder_plan(count, side: int, levels: int):
    """Reach and cost of the reduced pipeline to `levels` under the
    default caps, from block counts alone.

    Returns (within, checks, cells). `within` says whether the
    level-`levels` squares are reachable when each level's relations are
    built only to step up, using the code's own budget formulas (n^2
    vertical and |vrel|^2 horizontal pair checks per level, at most
    max_blocks squares per level); None when a count is out of the
    counter's reach. `checks` is the pair checks spent on the way and
    `cells` the cells of the squares assembled."""
    checks = cells = 0
    for n in range(levels):
        s = side << n
        sq, vr = count((s, s)), count((2 * s, s))
        if sq is None or vr is None:
            return None, checks, cells
        if sq == 0:
            return True, checks, cells
        if sq * sq > MAX_WORK:
            return False, checks, cells
        checks += sq * sq
        if vr * vr > MAX_WORK:
            return False, checks, cells
        checks += vr * vr
        nxt = count((2 * s, 2 * s))
        if nxt is None:
            return None, checks, cells
        if nxt > MAX_BLOCKS:
            return False, checks, cells
        cells += nxt * 4 * s * s
    return True, checks, cells


def _mask(bad) -> int:
    return sum(1 << (a * 8 + b * 4 + c * 2 + d) for a, b, c, d in bad)


def _unmask(mask: int) -> frozenset:
    return frozenset(
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(2), repeat=4)
        if mask >> (a * 8 + b * 4 + c * 2 + d) & 1
    )


def _variant(bad: frozenset, v: int) -> frozenset:
    """One of the 8 images of a 2x2 pattern set under the symmetries that
    keep both axes (left-right flip, top-bottom flip, symbol swap). Every
    block count of every shape is the same for all 8 images."""
    out = set()
    for a, b, c, d in bad:
        if v & 1:
            a, b, c, d = b, a, d, c
        if v & 2:
            a, b, c, d = c, d, a, b
        if v & 4:
            a, b, c, d = 1 - a, 1 - b, 1 - c, 1 - d
        out.add((a, b, c, d))
    return frozenset(out)


def sparse_cost(c) -> tuple[bool, int, float]:
    """(usable, cost, yield) of `analyze --levels 3` on a sparse spec, from
    block counts alone: cost is pair checks plus a fifth of the cells
    assembled; yield is relation pairs kept per pair checked."""
    within, checks, cells = ladder_plan(c, 2, 3)
    if within is None or cells > 5_000_000:
        return False, 0, 1.0
    kept = 0
    for n in range(3):
        s = 2 << n
        sq, vr, nxt = c((s, s)), c((2 * s, s)), c((2 * s, 2 * s))
        if not sq or sq * sq > MAX_WORK:
            break
        kept += vr
        if vr * vr > MAX_WORK:
            break
        kept += nxt
    return True, checks + cells // 5, kept / checks if checks else 1.0


def _sparse_keep(usable: bool, cost: int, kept_share: float) -> bool:
    return usable and 400_000 <= cost <= 1_000_000 and kept_share <= 0.02


# How each pool was drawn: a random_square_spec-style stream seeded by the
# pool name, keeping a spec when a block count computed by `Counts` falls
# in a band. `selftest.py` re-draws the pools and compares.
POOL_RULES = {
    # few forbidden patterns: ~10^4 level-1 squares, relations keep most
    # checked pairs
    "dense": (1, 4, 2, lambda c: 6_000 <= c((4, 4)) <= 12_000),
    # many forbidden patterns: relations keep under 2% of the pairs they
    # check, about half a second of analyze --levels 3 each, at most ~20k
    # level-3 squares so no single spec sets the peak
    "sparse": (8, 12, 8, lambda c: _sparse_keep(*sparse_cost(c))),
    # literal pipeline: at most 10 allowed cubes keeps k^4 <= max_index
    "lit": (6, 9, 2, lambda c: c((4, 4)) > 0),
    # criterion-4 library path, whose cost grows with the level-1
    # vertical relation
    "equiv": (6, 11, 1, lambda c: 2_000 <= c((8, 4)) <= 20_000),
}


def draw_pool(name: str) -> list[int]:
    lo, hi, want, keep = POOL_RULES[name]
    rng = random.Random(f"pool:{name}")
    masks = []
    while len(masks) < want:
        bad = _random_square(rng, lo, hi)
        if keep(Counts(bad)):
            masks.append(_mask(bad))
    return masks


POOLS = {
    "dense": [32900, 2068],
    "sparse": [48315, 35698, 7566, 65240, 24280, 62893, 53077, 50574],
    "lit": [42712, 42398],
    "equiv": [9758],
}

WORKLOAD_POOLS = {
    "ladder_dense": ("dense",),
    "ladder_sparse": ("sparse",),
    "crosscheck": ("lit", "equiv"),
}


def generate(workload: str, seed: int) -> list[tuple[str, dict, frozenset]]:
    """Generated specs of one workload: (name, document, forbidden cubes).

    Each pool spec appears as one of its 8 axis-preserving images, chosen
    by the seed: different seeds give different spec files with the same
    block counts, so a run's work does not drift with the seed."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for pool in WORKLOAD_POOLS[workload]:
        for i, mask in enumerate(POOLS[pool]):
            bad = _variant(_unmask(mask), rng.randrange(8))
            out.append((f"{pool}{i}", _square_doc(bad), bad))
    return out
