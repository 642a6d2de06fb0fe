"""Cyclic-subgroup structure: one power walk per distinct cyclic subgroup.

``FiniteGroup`` walks its powers here once, when it is built, and keeps
what the walk gives as its one cyclic structure: the walks themselves
(each distinct <x> in generation order), ``walk_of`` (which walk each
element generates, so the elements with one ``walk_of`` value are a
generator class), the element orders, and which walks are maximal. The
enhanced power graph (``epgraph.epg``) is the union of cliques over the
maximal walks, and the theorem checks read the orders and generator
classes straight off the walks; nothing re-sorts or re-walks them.
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
    generates the same subgroup, so it takes order k and the walk's index
    and is never walked itself. The cost is the sum of |<x>| over distinct
    cyclic subgroups, one memoryview read of the table per step (cheaper
    than ``ndarray.item``).
    """
    n = table.shape[0]
    cell = memoryview(table)
    orders = [0] * n
    walk_of = [0] * n
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
        k, c = len(walk), len(walks)
        for j in _generator_positions(k):
            orders[walk[j]] = k
            walk_of[walk[j]] = c
        walks.append(tuple(walk))
    return tuple(orders), tuple(walks), tuple(walk_of)


def _maximal_walks(walks, walk_of) -> tuple[bool, ...]:
    """Which walked cyclic subgroups lie in no other cyclic subgroup.

    C is properly contained in a cyclic subgroup D exactly when D holds a
    generator of C, so one pass over the members of every D clears the
    flag of each walk met that is not D itself.
    """
    flags = [True] * len(walks)
    for d, walk in enumerate(walks):
        for y in walk:
            if walk_of[y] != d:
                flags[walk_of[y]] = False
    return tuple(flags)
