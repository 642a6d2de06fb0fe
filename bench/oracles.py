"""Independent checks for the benchmark's correctness gates.

Nothing here imports epgraph: element orders, group laws and the
property predictions are recomputed from raw multiplication tables with
plain numpy, so a bug in the code under test cannot hide in its oracle.
"""

from __future__ import annotations

import numpy as np

# The order in which an ingest validator meets the laws: an entry out of
# range makes every later law meaningless, a missing identity is visible
# before row and column scans, and associativity presupposes the rest.
LAWS = ("closure", "identity", "latin-square", "associativity")


def identity_of(table: np.ndarray) -> int | None:
    """The two-sided identity of a square table, or None."""
    n = table.shape[0]
    ar = np.arange(n)
    for e in np.nonzero((table == ar).all(axis=1))[0]:
        if np.array_equal(table[:, e], ar):
            return int(e)
    return None


def element_orders(table: np.ndarray) -> list[int]:
    """Order of every element by walking all powers in lockstep."""
    n = table.shape[0]
    e = identity_of(table)
    if e is None:
        raise ValueError("table has no identity")
    xs = np.arange(n)
    cur = xs.copy()
    orders = np.zeros(n, dtype=np.int64)
    for k in range(1, n + 1):
        orders[(cur == e) & (orders == 0)] = k
        if orders.all():
            return orders.tolist()
        cur = table[cur, xs]
    raise ValueError("some element's powers never reach the identity")


def violated_law(table: np.ndarray) -> str | None:
    """The first law in LAWS that the table breaks, by brute force; None for a group."""
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        return "closure"
    if identity_of(table) is None:
        return "identity"
    ar = np.arange(n)
    if not (np.sort(table, axis=1) == ar).all() or not (np.sort(table, axis=0).T == ar).all():
        return "latin-square"
    for a in range(n):
        # (a*b)*c against a*(b*c) for every b, c at once
        if not np.array_equal(table[table[a]], table[a][table]):
            return "associativity"
    return None


def group_table(family: str, params: tuple) -> np.ndarray:
    """Multiplication table of a roster spec, identity at index 0.

    Built from the textbook presentations rather than by epgraph, so the
    ingest workload's expected invariants do not come from the code it
    measures. Product factors are (family, params) pairs or objects with
    those two attributes.
    """
    if family == "cyclic":
        a = np.arange(params[0])
        return (a[:, None] + a[None, :]) % params[0]
    if family == "product":
        out = np.zeros((1, 1), dtype=np.int64)
        for child in params:
            t = group_table(child.family, child.params)
            m = t.shape[0]
            out = (out[:, None, :, None] * m + t[None, :, None, :]).reshape(
                out.shape[0] * m, out.shape[0] * m)
        return out
    if family == "dihedral":
        return group_table("metacyclic", (params[0], 2, params[0] - 1))
    if family == "metacyclic":
        # (i, j) at index j*m + i; (i1, j1)(i2, j2) = (i1 + k^j1 i2, j1 + j2)
        m, n, k = params
        i, j = np.arange(m * n) % m, np.arange(m * n) // m
        kpow = np.array([pow(k, e, m) for e in range(n)])
        res_i = (i[:, None] + kpow[j][:, None] * i[None, :]) % m
        return ((j[:, None] + j[None, :]) % n) * m + res_i
    if family == "dicyclic":
        # <a, x | a^2m = 1, x^2 = a^m, x a x^-1 = a^-1>, a^i x^j at index j*2m + i
        m = params[0]
        i, j = np.arange(4 * m) % (2 * m), np.arange(4 * m) // (2 * m)
        sign = np.where(j == 1, -1, 1)[:, None]
        res_i = (i[:, None] + sign * i[None, :] + m * (j[:, None] & j[None, :])) % (2 * m)
        return ((j[:, None] + j[None, :]) % 2) * 2 * m + res_i
    if family == "perm":
        degree, gens = params
        ident = tuple(range(degree))
        elems, index = [ident], {ident: 0}
        for p in elems:  # grows while iterating: breadth-first closure
            for g in gens:
                q = tuple(p[v] for v in g)
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
        return np.array([[index[tuple(p[v] for v in q)] for q in elems] for p in elems])
    raise ValueError(f"no table for family {family!r}")


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The same table with element x renamed perm[x]; entries >= n stay out of range."""
    n = table.shape[0]
    rename = np.arange(2 * n)
    rename[:n] = perm
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = rename[table]
    return out


def corrupt(table: np.ndarray, law: str, rng) -> np.ndarray:
    """A copy of a group table (identity at 0) that breaks ``law`` first.

    ``rng`` is a ``random.Random``. The caller confirms the result with
    ``violated_law``; the identity row and column are left alone except
    where the law is the identity itself.
    """
    n = table.shape[0]
    out = table.copy()
    if law == "closure":
        out[rng.randrange(n), rng.randrange(n)] = n + rng.randrange(n)
    elif law == "identity":
        a, b = rng.sample(range(n), 2)
        out[:, [a, b]] = out[:, [b, a]]
    elif law == "latin-square":
        i = rng.randrange(1, n)
        j, k = rng.sample(range(1, n), 2)
        out[i, j] = out[i, k]
    elif law == "associativity":
        # Rows x and x*d and columns y and d*y of an involution d form an
        # intercalate; swapping it keeps a Latin square with identity 0.
        d = rng.choice([z for z in range(1, n) if table[z, z] == 0])
        x = rng.choice([z for z in range(1, n) if z != d])
        y = rng.choice([z for z in range(1, n) if z != d])
        xd, dy = table[x, d], table[d, y]
        out[x, y], out[x, dy] = table[x, dy], table[x, y]
        out[xd, y], out[xd, dy] = table[xd, dy], table[xd, y]
    else:
        raise ValueError(f"unknown law {law!r}")
    return out


def render_cayley(table: np.ndarray, comment: str) -> str:
    """Cayley-file text: a comment, the order, then one row per line.

    Entries are right-aligned in equal-width columns, which the format
    allows (any whitespace separates), so the text is built with array
    arithmetic instead of one string conversion per entry.
    """
    n = table.shape[0]
    width = len(str(int(table.max()))) + 1
    chars = np.full(table.shape + (width,), ord(" "), dtype=np.uint8)
    value = table.astype(np.int64)
    for pos in range(width - 1, 0, -1):
        shown = (value > 0) | (pos == width - 1)
        chars[..., pos] = np.where(shown, ord("0") + value % 10, ord(" "))
        value = value // 10
    body = np.concatenate([chars.reshape(n, n * width),
                           np.full((n, 1), ord("\n"), dtype=np.uint8)], axis=1)
    return f"# {comment}\n{n}\n" + body.tobytes().decode("ascii")


def predicted_fields(orders: list[int]) -> dict:
    """Full-graph report fields that the paper's theorems fix from element orders."""
    n, top = len(orders), max(orders)
    return {
        "complete": n in orders,     # T2.4: complete iff cyclic
        "eulerian": n % 2 == 1,      # T4.2
        "planar": top <= 4,          # T4.1
        "cycle": top >= 3,           # T2.2
    }


def predicted_deleted_fields(orders: list[int]) -> dict:
    """Deleted-graph report fields fixed by T5.4."""
    return {"forest": max(orders) < 4}
