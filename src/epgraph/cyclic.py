"""Cyclic-subgroup structure: one power walk per distinct cyclic subgroup.

``FiniteGroup`` walks its powers here once, when it is built, and keeps
what the walk gives as its one cyclic structure: the walks themselves
(each distinct <x> in generation order) and the element orders. The
involutions are read off the table's diagonal in one numpy pass, each
with the walk (x, identity), so only the identity and the elements of
order 3 or more are walked a power at a time. The generators of a walk's
subgroup sit at ``_generator_positions`` of its length, which the walk
and T2.1 both use. The enhanced power graph (``epgraph.epg``) is the
union of the walks' cliques, and the theorem checks read the orders and
walks directly; nothing re-sorts or re-walks them.
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

    An element x other than the identity with x*x = identity has order 2
    and the walk (x, identity); all of them are read off the table's
    diagonal in one numpy pass. The loop walks only the identity and the
    elements of order 3 or more: walking x gives x^1, ..., x^k = identity;
    each x^j with gcd(j, k) = 1 generates the same subgroup, so it takes
    order k and is never walked itself. The cost is the sum of |<x>| over
    distinct cyclic subgroups of order 1 or at least 3, one memoryview read
    of the table per step (cheaper than ``ndarray.item``).
    """
    n = table.shape[0]
    # x*x == 0 on the diagonal; element 0, the identity, is no involution
    involutions = np.flatnonzero(table.diagonal() == 0).tolist()[1:]
    orders = [0] * n
    for x in involutions:
        orders[x] = 2
    walks: list[tuple[int, ...]] = [(x, 0) for x in involutions]
    cell = memoryview(table)
    for x in range(n):
        if orders[x]:  # a generator of a walk already taken, or an involution
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
