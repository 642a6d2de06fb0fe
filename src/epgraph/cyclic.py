"""Cyclic-subgroup structure: one power walk per distinct cyclic subgroup.

``FiniteGroup`` walks its powers here once, when it is built, and keeps
what the walk gives as its one cyclic structure: the walks themselves
(each distinct <x> in generation order) and the element orders. The
generators of a walk's subgroup are its members whose order is the walk's
length. The enhanced power graph (``epgraph.epg``) is the union of the
walks' cliques, and the theorem checks read the orders and walks
directly; nothing re-sorts or re-walks them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CayleyValidationError


@lru_cache(maxsize=None)
def _generator_positions(k: int) -> tuple[int, ...]:
    """The indices j - 1 of a length-k walk's generators x^j, gcd(j, k) = 1."""
    return tuple(j - 1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def _walk_cyclic_subgroups(table: np.ndarray):
    """Element orders plus one power walk per distinct cyclic subgroup.

    Walking x gives x^1, ..., x^k = identity; each x^j with gcd(j, k) = 1
    generates the same subgroup, so it takes order k and is never walked
    itself. The cost is the sum of |<x>| over distinct cyclic subgroups,
    one memoryview read of the table per step (cheaper than
    ``ndarray.item``).
    """
    n = table.shape[0]
    cell = memoryview(table)
    orders = [0] * n
    walks: list[tuple[int, ...]] = []
    for x in range(n):
        if orders[x]:
            continue
        walk = [x]
        y = x
        for _ in range(n):
            if not y:
                break
            y = cell[y, x]
            walk.append(y)
        else:
            raise CayleyValidationError(
                "order", f"powers of element {x} never reach the identity"
            )
        k = len(walk)
        for j in _generator_positions(k):
            orders[walk[j]] = k
        walks.append(tuple(walk))
    return tuple(orders), tuple(walks)

