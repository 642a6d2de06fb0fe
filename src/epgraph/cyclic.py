"""Cyclic-subgroup structure: one power walk per chain of cyclic subgroups.

``FiniteGroup`` walks its powers here once, when it is built, and keeps
what the walk gives as its one cyclic structure: the walks (each distinct
<x> in generation order), the walks taken, of which every other walk is
a slice, and the element orders. The generators of a walk's subgroup sit
at ``_generator_positions`` of its length, which the walk and T2.1 both
use. The enhanced power graph (``epgraph.epg``) is the union of the taken
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


@lru_cache(maxsize=None)
def _proper_divisors(k: int) -> tuple[int, ...]:
    """Every s with s | k and 1 < s < k: the steps of a length-k walk's
    proper non-trivial subgroups <x^s>."""
    return tuple(s for s in range(2, k) if k % s == 0)


def _walk_cyclic_subgroups(table: np.ndarray):
    """Element orders, one walk per distinct cyclic subgroup, and the walks taken.

    The identity's walk is (identity,). An element x other than the
    identity with x*x = identity has order 2 and the walk (x, identity);
    all of them are read off the table's diagonal in one numpy pass. The
    loop walks each other element that no walk taken so far holds: walking
    x along row x gives x^1, ..., x^k = identity, since x*x^j = x^(j+1),
    one memoryview read of a contiguous row per step. Each x^j with
    gcd(j, k) = 1 generates the same subgroup, so it takes order k. Each
    subgroup <x^s>, s | k, is the slice ``walk[s-1::s]``, recorded unless
    its generator x^s already has an order; then every element of the
    walk has one, and none of them is walked. An involution walk is taken
    only when no taken walk holds its involution.
    """
    n = table.shape[0]
    # x*x == 0 on the diagonal; element 0, the identity, is no involution
    involutions = np.flatnonzero(table.diagonal() == 0).tolist()[1:]
    orders = [0] * n
    orders[0] = 1
    for x in involutions:
        orders[x] = 2
    walks: list[tuple[int, ...]] = [(0,)] + [(x, 0) for x in involutions]
    taken = [(0,)]
    held = set()  # the involutions of the even-length taken walks
    flat = memoryview(table.reshape(-1))
    for x in range(1, n):
        if orders[x]:  # held by a walk already taken, or an involution
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
        for j in _generator_positions(k):
            orders[walk[j]] = k
        walk = tuple(walk)
        walks.append(walk)
        taken.append(walk)
        for s in _proper_divisors(k):
            if not orders[walk[s - 1]]:
                sub, m = walk[s - 1::s], k // s
                for j in _generator_positions(m):
                    orders[sub[j]] = m
                walks.append(sub)
        if not k % 2:
            held.add(walk[k // 2 - 1])
    taken += [(x, 0) for x in involutions if x not in held]
    return tuple(orders), tuple(walks), tuple(taken)
