"""Enumeration budgets.

Block counts in the doubling construction grow doubly exponentially with the
level, so every enumerating operation takes a `Caps` and refuses loudly
rather than grinding. All values are counts of candidates or cells, not
bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import BudgetError


@dataclass(frozen=True)
class Caps:
    # candidate cubes the normalizer may enumerate (k_A ** (l**d))
    max_cubes: int = 10**6
    # longest matrix index the literal pipeline will materialize
    max_index: int = 10**4
    # most blocks a built chain stage may hold (`chain.check_next_stage`)
    max_blocks: int = 10**7
    # most cells (blocks times cells per block) a built chain stage may hold
    max_cells: int = 10**8
    # largest candidate-pair loop a relation builder may run
    max_work: int = 10**7
    # candidate assignments the brute-force oracle may enumerate, k_A^n for
    # an n-cell shape; its pruned enumeration visits fewer than
    # k_A/(k_A-1) * k_A^n prefixes, so the cap bounds its work too
    oracle_candidates: int = 2**24
    # k_A^((l-1)*(sum of the box's strides - 1)), k_A^(s(l-1)) for r x s:
    # the cell-by-cell profile DP's states, over k_A^(l-1)
    profile_states: int = 2**20
    # scanned joins the witness search may make before giving up
    witness_nodes: int = 200_000
    # worker processes for the oracle's enumeration; 1 = in-process
    threads: int = 1

    def but(self, **kwargs) -> "Caps":
        return replace(self, **kwargs)


DEFAULT_CAPS = Caps()


# a count of more bits than this is shown as "k^n", not built and printed:
# its decimal form nears the interpreter's 4300-digit limit on int printing
_SHOWN_BITS = 14_000
# the largest count printed in full: a cap that refuses only what would be
# shown as "k^n"
PRINTED_MAX = 1 << _SHOWN_BITS


def refuse(count: int, cap: int, message: str, partial=None) -> None:
    """The one budget gate: stop when `count` exceeds `cap`, with `message`
    formatted with `count` and `cap` as the BudgetError's text, `count` as
    its `required` and `partial` as the part built before the stop."""
    if count > cap:
        raise BudgetError(message.format(count=count, cap=cap), required=count, partial=partial)


def check_power(k: int, n: int, cap: int, message: str) -> None:
    """Refuse the k**n candidates of an enumeration when they exceed `cap`,
    deciding by bit length before a power larger than the cap is built.
    The BudgetError's text is `message` formatted with `count` and `cap`;
    a count of more than `_SHOWN_BITS` bits is shown as "k^n" and has no
    `required`."""
    limit = max(cap.bit_length(), _SHOWN_BITS) + 1
    if k < 2 or n <= limit / math.log2(k):
        count = k**n
        if count <= cap or count.bit_length() <= _SHOWN_BITS:
            return refuse(count, cap, message)
    # past `limit` bits, so past the cap
    shown = n if n.bit_length() <= _SHOWN_BITS else f"(a {n.bit_length()}-bit number)"
    raise BudgetError(message.format(count=f"{k}^{shown}", cap=cap))
