"""Finite groups as explicit multiplication tables over element indices 0..n-1.

The identity element is always index 0; the table builders guarantee it and
the Cayley-file reader renumbers to it. Every table is int16, so a group has
at most ``MAX_TABLE_ORDER`` = 32,768 elements whatever order cap a caller
passes; ``table_cap`` is the cap in force, checked before any table is
allocated. A group is built only through ``GroupSpec.realize``
(``epgraph.specs``), which checks the parameters and the order cap and
wraps one builder's table as it is. Each builder writes its table once,
with no temporary near its size: the closed form of every integer family
adds shifts to strided windows of a short run (no modular arithmetic per
entry), gathering their columns unless b acts as a -> a^(+-1), a product
folds its factors' tables right, adding one factor in front of the product
of those after it, and the permutation closure gathers each row from an
earlier one through a left multiplication. At order 4,096, ``realize``
peaks at 1.01-1.03x the table for windows and closures, 1.25x for a
gathered semidihedral block or a product holding a 2,048-element table,
and 1.31x for Z_2 x Z_2 x Z_1024, whose last step holds Z_2 x Z_1024 and
Z_1024 beside the output. Every
table here is trusted: the one kind of untrusted table, a Cayley file's,
has its group laws checked by its reader (``epgraph.cayley_io``) before it
gets here. Building a group walks its powers once (``epgraph.cyclic``);
the walks and the element orders are the group's cyclic structure:
``epgraph.epg`` builds the enhanced power graph from the walks, and
``prime_subgroup_counts`` reads the prime-order subgroup counts off the
orders: the group sides of T3.2, T3.3 and T5.1 test that count, and
``is_simple`` reads it before any normal closure.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .cyclic import _walk_cyclic_subgroups
from .errors import GroupParameterError, GroupSizeError

DEFAULT_MAX_ORDER = 512
MAX_TABLE_ORDER = 1 << 15  # the most elements an int16 table can index


def table_cap(max_order: int) -> int:
    """The order cap in force: ``max_order``, but never above ``MAX_TABLE_ORDER``."""
    return min(max_order, MAX_TABLE_ORDER)


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise GroupParameterError(f"cannot factor {n}; need a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FiniteGroup:
    """An immutable finite group on element indices 0..order-1.

    ``table[i, j]`` is the index of the product i*j and element 0 is the
    identity. The constructor walks the powers of one generator of each
    distinct cyclic subgroup once: ``walks[c]`` is that subgroup in
    generation order g, g^2, ..., identity, and ``orders[x]`` is the order
    of x, so the generators of walk c are its members of order
    ``len(walks[c])``. The walks come identity first, then each walked <x>
    followed by the subgroups it hands down, then the involutions' walks.
    The constructor trusts ``table`` to be a group; only the Cayley-file
    reader checks one.
    """

    __slots__ = ("order", "table", "orders", "walks", "spec", "_center")

    def __init__(self, table: np.ndarray, spec=None):
        self.order = int(table.shape[0])
        table.setflags(write=False)
        self.table = table
        self.orders, self.walks = _walk_cyclic_subgroups(table)
        self.spec = spec
        self._center: Optional[tuple[int, ...]] = None

    # -- basic accessors ---------------------------------------------------

    def __repr__(self) -> str:
        name = self.spec.display() if self.spec is not None else "FiniteGroup"
        return f"<{name} of order {self.order}>"

    def _check_index(self, x: int) -> None:
        if not 0 <= x < self.order:
            raise IndexError(f"element index {x} out of range [0, {self.order})")

    # -- structure predicates ----------------------------------------------

    def is_abelian(self) -> bool:
        return len(self.center()) == self.order

    def center(self) -> tuple[int, ...]:
        """All z commuting with every element (row z equals column z), cached."""
        if self._center is None:
            sym = (self.table == self.table.T).all(axis=1)
            self._center = tuple(np.flatnonzero(sym).tolist())
        return self._center


# -- table builders ----------------------------------------------------------
# ``GroupSpec.realize`` is their one caller: it checks the parameter laws and
# the order cap, so the closed form checks nothing and only the closure, whose
# order is found while building, takes the cap. Every builder writes its int16
# table once, straight into the array it returns.

_CHUNK = 1 << 16  # entries of a product's repeated rows per add, a cache-sized block


def _residues(n: int, copies: int = 2) -> np.ndarray:
    """0..n-1 written ``copies`` times in int16 (``arange(2 * n)`` would wrap
    at n = 2**15)."""
    a = np.arange(n, dtype=np.int16)
    return np.concatenate((a,) * copies)


def _window(run: np.ndarray, n: int, start: int, step: int) -> np.ndarray:
    """The (n, n) view ``w[i, j] = run[start + i + step * j]``, step 1 or -1.

    Its rows overlap in ``run``, so it is not C-contiguous and must be copied
    into a table, never wrapped as one; numpy checks that every entry lies
    inside ``run``. Over ``_residues(n)``, start 0 and step 1 give Z_n's table
    (i + j) mod n, and start n with step -1 gives (i - j) mod n.
    """
    return np.ndarray((n, n), np.int16, run, 2 * start, (2, 2 * step))


def _scaled(table: np.ndarray, k: int) -> np.ndarray:
    """``table * k`` in int16 for k * order <= MAX_TABLE_ORDER, as a gather:
    k itself need not fit int16 (2**15 times Z_1's table). ``table`` may be
    a block of a table's rows: the order is its row length."""
    return (k * np.arange(table.shape[1])).astype(np.int16)[table]


def product_table(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Componentwise product; pair (a, b) gets index a*|H| + b, folded right.

    The layout is associative, so t1 x (t2 x (... x tk)) is the table of the
    left fold, byte for byte; each step adds one factor in front of the
    product of the factors after it, so its inner rows are that product's
    long rows. ``realize`` peaks at order 4,096 at 1.02x the table for
    Z_64 x Z_64, 1.25-1.26x for Z_2 x Z_2048, Z_2048 x Z_2 and Z_2^12, and
    1.31x for Z_2 x Z_2 x Z_1024: each holds a 2,048-element table (a
    factor, or the fold it extends) beside the output.
    """
    table = tables[-1]
    for t in reversed(tables[:-1]):
        table = _product2(t, table)
    return table


def _product2(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """t1 x t2 by the path faster on its shapes: short rows when t1 is the
    larger (D_1024 x Z_2: 37 ms against 113 ms by broadcast), else a
    broadcast (Z_2 x D_1024: 14 against 18 ms). Short rows alone slowed
    roster 512's product folds from 31 to 38 ms, and Z_2 x Z_2048's realize
    peak from 1.25x to 1.75x the table (2 cores)."""
    n1, n2 = t1.shape[0], t2.shape[0]
    n = n1 * n2
    out = np.empty((n1, n2, n1, n2), dtype=np.int16)  # [a, b, c, d]
    if n2 >= n1:  # inner rows of n2 entries are long enough for one broadcast add
        np.add(_scaled(t1, n2)[:, None, :, None], t2[None, :, None, :], out=out)
        return out.reshape(n, n)
    # short inner rows: add whole rows [a, (c, d)] + [b, (c, d)], a block of a at a time
    tiled, rows = np.tile(t2, n1), out.reshape(n1, n2, n)
    step = max(1, _CHUNK // n)
    for a in range(0, n1, step):
        np.add(np.repeat(_scaled(t1[a:a + step], n2), n2, axis=1)[:, None, :], tiled[None],
               out=rows[a:a + step])
    return out.reshape(n, n)


def metacyclic_table(m: int, n: int, k: int, t: int) -> np.ndarray:
    """<a, b | a^m = 1, b^n = a^t, bab^-1 = a^k> on pairs a^i b^j at j*m + i.

    Requires gcd(k, m) = 1, k^n = 1 and t(k - 1) = 0 (mod m), 0 <= t < m.
    (i1, j1)(i2, j2) = (i1 + k^j1*i2 + t*[j1 + j2 >= n], (j1 + j2) mod n),
    i mod m. n = 1 is Z_m, one window copied. Otherwise row block j1 is
    ``_block`` for c = k^j1 mod m plus m*((j1 + j2) mod n), in one broadcast
    add, or two when t != 0, split where j1 + j2 reaches n and the block
    starts at t: O(n) numpy calls. ``realize`` peaks at order 4,096 at 1.02x
    the table for cyclic, dihedral and dicyclic groups, 1.25x for the
    semidihedral SD4096 (n = 2), whose gathered block is 1/n^2 of the
    table, and 1.02-1.06x for n = 4 and 8.
    """
    order = m * n
    if n == 1:  # no shift to add: a copy, at a third of a broadcast add's fixed cost
        return _window(_residues(m), m, 0, 1).copy()
    shift = np.arange(0, order, m, dtype=np.int16)  # m*j, j < n; n >= 2, so the step m fits int16
    run, shift = _residues(m, 3), np.concatenate((shift, shift))  # m*((j1 + j2) mod n)
    out = np.empty((n, m, n, m), dtype=np.int16)  # [j1, i1, j2, i2]
    for j1 in range(n):
        c, cut = pow(k, j1, m), n - j1 if t else n
        np.add(_block(run, m, c, 0)[:, None, :], shift[j1:j1 + cut, None], out=out[j1, :, :cut])
        if cut < n:
            np.add(_block(run, m, c, t)[:, None, :], shift[:j1, None], out=out[j1, :, cut:])
    return out.reshape(order, order)


def _block(run: np.ndarray, m: int, c: int, start: int) -> np.ndarray:
    """(i1 + c*i2 + start) mod m over ``run`` = ``_residues(m, 3)``, 0 <= c, start < m:
    a window for c = 1 or -1 (mod m), else the rising one, columns gathered."""
    if c == 1 % m:
        return _window(run, m, start, 1)
    if c == m - 1:
        return _window(run, m, start + m, -1)
    return _window(run, m, start, 1)[:, c * np.arange(m) % m]


def closure_table(degree: int, generators: Iterable[Sequence[int]],
                  max_order: int) -> np.ndarray:
    """Breadth-first closure of permutations of {0..degree-1} under composition.

    Permutations are one-line images; composition is (p*q)(x) = p[q[x]].
    Elements are indexed by discovery order with the identity first. Each
    element after the identity was found as elems[q] = elems[p] * g, so its
    row is row p gathered through left multiplication by g; the table is
    written row by row, once. ``realize`` peaks at 1.03x the table for S7
    (order 5,040) and 1.06x for A7 (2,520), the elements' tuples included.
    """
    cap = table_cap(max_order)
    gens = [tuple(g) for g in generators]
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    parent = [(0, 0)]  # elems[q] == elems[p] * gens[k] for (p, k) = parent[q]
    right: list[list[int]] = [[] for _ in gens]  # right[k][i]: index of elems[i] * gens[k]
    for i, p in enumerate(elems):  # elems grows while it is read: breadth-first
        for k, g in enumerate(gens):
            q = tuple(p[v] for v in g)
            if q not in index:
                if len(elems) >= cap:
                    raise GroupSizeError(f"closure exceeds the cap of {cap} elements")
                index[q] = len(elems)
                elems.append(q)
                parent.append((i, k))
            right[k].append(index[q])
    # left[k][x]: index of gens[k] * elems[x], down the breadth-first tree:
    # gens[k] is elems[right[k][0]], and g * (elems[p] * h) = (g * elems[p]) * h
    left = []
    for r in right:
        row = [r[0]]
        for p, h in parent[1:]:
            row.append(right[h][row[p]])
        left.append(np.array(row, dtype=np.intp))
    table = np.empty((len(elems), len(elems)), dtype=np.int16)  # table[q, x]: elems[q] * elems[x]
    table[0] = np.arange(len(elems))
    for q, (p, k) in enumerate(parent[1:], start=1):
        np.take(table[p], left[k], out=table[q])  # (p * g) * x = p * (g * x)
    return table


# -- derived structure ------------------------------------------------------


def normal_closure(group: FiniteGroup, x: int) -> frozenset[int]:
    """The smallest normal subgroup containing x.

    It is the subgroup generated by the conjugacy class of x, found as the
    closure of the identity under right multiplication by the conjugates;
    in a finite group that closure is a subgroup. Costs O(|N| * |class|).
    """
    group._check_index(x)
    table = group.table
    cols = [table[:, c].tolist() for c in np.unique(_conjugates(group, x)).tolist()]
    members = {0}
    work = [0]
    while work:
        a = work.pop()
        for col in cols:
            b = col[a]
            if b not in members:
                members.add(b)
                work.append(b)
    return frozenset(members)


def _conjugates(group: FiniteGroup, x: int) -> np.ndarray:
    """g*x*g^-1 for every g, repeats included: the conjugacy class of x."""
    table = group.table
    return table[table[:, x], np.nonzero(table == 0)[1]]


def is_simple(group: FiniteGroup) -> bool:
    """True iff every non-identity element normally generates the whole group.

    A group of composite order with a unique subgroup of some prime order
    p is not simple: that subgroup is characteristic, so normal, and
    proper. This reads the prime-order counts off the element orders and
    rejects most groups with a trivial center before any closure.
    Otherwise conjugate elements have the same normal closure, so one
    closure per conjugacy class decides it: each class is marked seen when
    its first member is closed over.
    """
    if group.order < 2:
        raise GroupParameterError("simplicity is undefined for the trivial group")
    counts = prime_subgroup_counts(group)
    if group.order not in counts and 1 in counts.values():
        return False
    seen = np.zeros(group.order, dtype=bool)
    for x in range(1, group.order):
        if seen[x]:
            continue
        seen[_conjugates(group, x)] = True
        if len(normal_closure(group, x)) != group.order:
            return False
    return True


def prime_subgroup_counts(group: FiniteGroup) -> dict[int, int]:
    """The number of subgroups of order p for each prime p dividing |G| (by
    Cauchy, at least one): each holds p - 1 elements of order p, and two of
    them meet only in the identity, so it is the order-p count over p - 1."""
    return {p: group.orders.count(p) // (p - 1) for p in prime_factors(group.order)}

