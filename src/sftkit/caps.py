"""Enumeration budgets.

Block counts in the doubling construction grow doubly exponentially with the
level, so every enumerating operation takes a `Caps` and refuses loudly
rather than grinding. All values are counts of candidates or cells, not
bytes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    # candidate cubes the normalizer may enumerate (k_A ** (l**d))
    max_cubes: int = 10**6
    # longest matrix index the literal pipeline will materialize
    max_index: int = 10**4
    # largest allowed-square set a reduced step may emit
    max_blocks: int = 10**7
    # most cells (blocks times cells per block) a built chain stage may hold
    max_cells: int = 10**8
    # largest candidate-pair loop a relation builder may run
    max_work: int = 10**7
    # candidate assignments the brute-force oracle may enumerate
    oracle_candidates: int = 2**24
    # profile states the row-sweep DP may hold
    profile_states: int = 2**20
    # assemblies the witness search may try before giving up
    witness_nodes: int = 200_000
    # worker processes for the oracle's enumeration; 1 = in-process
    threads: int = 1

    def but(self, **kwargs) -> "Caps":
        return replace(self, **kwargs)


DEFAULT_CAPS = Caps()
