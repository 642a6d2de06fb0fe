"""Cyclic-subgroup structure: one power walk per chain of cyclic subgroups.

``FiniteGroup`` walks its powers here once, when it is built, and keeps
what the walk gives as its one cyclic structure: the walks, one per
distinct cyclic subgroup <x> in generation order, and the element orders.
The generators of a walk's subgroup sit at ``_generator_positions`` of its
length, which the walk and T2.1 both use. The enhanced power graph
(``epgraph.epg``) is the union of the walks' cliques, and the theorem
checks read the orders and walks directly; nothing re-sorts or re-walks
them.
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


@lru_cache(maxsize=None)
def _divisors(k: int) -> tuple[int, ...]:
    """Every s with s | k and s < k, 1 first: the steps of a length-k walk's
    non-trivial subgroups <x^s>."""
    return tuple(s for s in range(1, k) if k % s == 0)


def _walk_cyclic_subgroups(table: np.ndarray):
    """Element orders and one walk per distinct cyclic subgroup.

    The identity's walk is (identity,). An element x other than the
    identity with x*x = identity has order 2 and the walk (x, identity);
    all of them are read off the table's diagonal in one numpy pass. The
    loop walks each other element that no walk so far holds: walking x
    along row x gives x^1, ..., x^k = identity, since x*x^j = x^(j+1), one
    memoryview read of a contiguous row per step. Each subgroup <x^s>,
    s | k, is the slice ``walk[s-1::s]`` (s = 1 gives <x> itself),
    recorded unless its generator x^s already has an order; then every
    element of the slice has one, and none of them is walked. A recorded
    slice of length m gives its generators, at ``_generator_positions(m)``,
    order m. The walks come in this order: the identity's, then each
    walked <x> followed by the subgroups it hands down, then the
    involutions' walks. Each walk's first element generates it.
    """
    n = table.shape[0]
    # x*x == 0 on the diagonal; element 0, the identity, is no involution
    involutions = np.flatnonzero(table.diagonal() == 0).tolist()[1:]
    orders = [0] * n
    orders[0] = 1
    for x in involutions:
        orders[x] = 2
    walks: list[tuple[int, ...]] = [(0,)]
    flat = memoryview(table.reshape(-1))
    for x in range(1, n):
        if orders[x]:  # in a walk already recorded, or an involution
            continue
        row = flat[x * n:x * n + n]
        walk = [x]
        y = x
        for _ in range(n):
            y = row[y]
            walk.append(y)
            if not y:
                break
        else:
            raise CayleyValidationError(
                "order", f"powers of element {x} never reach the identity"
            )
        k = len(walk)
        walk = tuple(walk)
        for s in _divisors(k):
            if not orders[walk[s - 1]]:
                sub, m = walk[s - 1::s], k // s
                for j in _generator_positions(m):
                    orders[sub[j]] = m
                walks.append(sub)
    walks += [(x, 0) for x in involutions]
    return tuple(orders), tuple(walks)
