import dataclasses
import itertools
import random

import pytest

from sftkit import Block, Pattern, SftSpec, make_spec


# ---------------------------------------------------------------------------
# independent naive oracle: explicit double loops, no shared scanning code


def naive_cell(block: Block, coord) -> int:
    idx = 0
    mult = 1
    for c, s in zip(reversed(coord), reversed(block.shape)):
        idx += c * mult
        mult *= s
    return block.data[idx]


def naive_occurs(block: Block, cells) -> bool:
    """Does a pattern (list of (coord, symbol)) occur anywhere in the block?"""
    d = len(block.shape)
    ext = [max(c[i] for c, _ in cells) + 1 for i in range(d)]
    if any(e > s for e, s in zip(ext, block.shape)):
        return False
    for off in itertools.product(*[range(s - e + 1) for s, e in zip(block.shape, ext)]):
        hit = True
        for coord, sym in cells:
            shifted = tuple(coord[i] + off[i] for i in range(d))
            if naive_cell(block, shifted) != sym:
                hit = False
                break
        if hit:
            return True
    return False


def naive_allowed(block: Block, patterns) -> bool:
    return not any(naive_occurs(block, list(p.cells)) for p in patterns)


def naive_count(spec: SftSpec, shape) -> int:
    """Exhaustive allowed-block count straight from the raw patterns."""
    cells = 1
    for s in shape:
        cells *= s
    count = 0
    for data in itertools.product(range(spec.alphabet_size), repeat=cells):
        if naive_allowed(Block(tuple(shape), data), spec.forbidden):
            count += 1
    return count


def naive_allowed_set(spec: SftSpec, shape) -> set:
    cells = 1
    for s in shape:
        cells *= s
    return {
        data
        for data in itertools.product(range(spec.alphabet_size), repeat=cells)
        if naive_allowed(Block(tuple(shape), data), spec.forbidden)
    }


def hrel_quads(level) -> set:
    """A d=2 level's `hrel` read as (a, b, c, d): stack a-over-b beside
    stack c-over-d, each stack decoded from its block data through the
    level's squares."""
    sq = level.squares.datas
    upper_lower = {sq[a] + sq[b]: (a, b) for a, b in level.vrel}
    stacks = [upper_lower[data] for data in level.stacks.blocks.datas]
    return {stacks[x] + stacks[y] for x, y in level.hrel}


def with_target(result):
    """`result` with its walk stepped into the target, so that `save_state`
    writes the target stage too, as archives were written before they
    ended on the relation that counts it."""
    return dataclasses.replace(result, walk=result.stages)


# ---------------------------------------------------------------------------
# shared problem definitions


def dense_pattern(rows) -> Pattern:
    cells = []
    for r, row in enumerate(rows):
        for c, sym in enumerate(row):
            cells.append(((r, c), sym))
    return Pattern.from_cells(cells)


@pytest.fixture(scope="session")
def hard_squares() -> SftSpec:
    return make_spec(
        2, ["0", "1"], [dense_pattern([[1, 1]]), dense_pattern([[1], [1]])]
    )


@pytest.fixture(scope="session")
def checkerboard() -> SftSpec:
    return make_spec(
        2,
        ["0", "1"],
        [
            dense_pattern([[0, 0]]),
            dense_pattern([[1, 1]]),
            dense_pattern([[0], [0]]),
            dense_pattern([[1], [1]]),
        ],
    )


@pytest.fixture(scope="session")
def full_shift() -> SftSpec:
    return make_spec(2, ["0", "1"], [])


@pytest.fixture(scope="session")
def kill_all() -> SftSpec:
    return make_spec(2, ["0", "1"], [dense_pattern([[0]]), dense_pattern([[1]])])


@pytest.fixture(scope="session")
def d1_no_adjacent_ones() -> SftSpec:
    return make_spec(1, ["0", "1"], [Pattern.from_cells([((0,), 1), ((1,), 1)])])


@pytest.fixture(scope="session")
def d3_hard_cubes() -> SftSpec:
    return make_spec(
        3,
        ["0", "1"],
        [
            Pattern.from_cells([((0, 0, 0), 1), ((0, 0, 1), 1)]),
            Pattern.from_cells([((0, 0, 0), 1), ((0, 1, 0), 1)]),
            Pattern.from_cells([((0, 0, 0), 1), ((1, 0, 0), 1)]),
        ],
    )


def random_square_spec(rng: random.Random, min_patterns=4, max_patterns=10) -> SftSpec:
    """Random d=2 binary spec made of full-support 2x2 patterns (so l = 2)."""
    n = rng.randint(min_patterns, max_patterns)
    pats = set()
    while len(pats) < n:
        pats.add(tuple(rng.randrange(2) for _ in range(4)))
    patterns = [
        Pattern.from_cells([((0, 0), a), ((0, 1), b), ((1, 0), c), ((1, 1), d)])
        for a, b, c, d in sorted(pats)
    ]
    return make_spec(2, ["0", "1"], patterns)
