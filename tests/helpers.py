"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes results straight from multiplication tables or
edge sets, deliberately avoiding the package's cached/derived structures.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque

import numpy as np

from epgraph import (
    CayleyParseError,
    GroupSizeError,
    SimpleGraph,
    build_bundle,
    planarity_verdict,
)
from epgraph.analysis import _join_tree_paths
from epgraph.simplegraph import bits
from epgraph.theorems import (
    CHECKS,
    CHECKS_BY_ID,
    Counterexample,
    TheoremReport,
    roster_generate,
)


def table_of(group) -> list[list[int]]:
    return [list(row) for row in group.table.tolist()]


def order_by_table_scan(table: list[list[int]], x: int) -> int:
    """Order of x by repeated multiplication, independent of any cache."""
    k, y = 1, x
    while y != 0:
        y = table[y][x]
        k += 1
    return k


def table_orders(group) -> list[int]:
    """Every element's order by ``order_by_table_scan``, not read off the power walks."""
    table = table_of(group)
    return [order_by_table_scan(table, x) for x in range(len(table))]


def orders_multiset(group) -> list[int]:
    return sorted(table_orders(group))


def brute_cyclic_subgroups(group) -> set[frozenset[int]]:
    """All distinct <x> as element sets, from the table alone."""
    table = table_of(group)
    subs = set()
    for x in range(len(table)):
        members = {x}
        y = x
        while y != 0:
            y = table[y][x]
            members.add(y)
        subs.add(frozenset(members))
    return subs


def brute_lattice(group) -> dict:
    """The cyclic subgroups and their generator classes by walking every
    element's powers, from the table alone.

    Subgroups are sorted element tuples ranked by (size, elements);
    ``class_of[x]`` ranks <x>, ``generator_sets[c]`` is every x with
    <x> = subgroup c, and a subgroup is maximal when no other one strictly
    contains it, tested over all pairs. Orders come from
    ``order_by_table_scan``.
    """
    table = table_of(group)
    n = len(table)
    keys = []
    for x in range(n):
        members = {x}
        y = x
        while y != 0:
            y = table[y][x]
            members.add(y)
        keys.append(tuple(sorted(members)))
    subgroups = tuple(sorted(set(keys), key=lambda s: (len(s), s)))
    index = {s: i for i, s in enumerate(subgroups)}
    class_of = tuple(index[k] for k in keys)
    generator_sets = tuple(
        tuple(x for x in range(n) if class_of[x] == c) for c in range(len(subgroups))
    )
    sets = [frozenset(s) for s in subgroups]
    maximal_flags = tuple(not any(a < b for b in sets) for a in sets)
    return {
        "subgroups": subgroups,
        "generator_sets": generator_sets,
        "class_of": class_of,
        "maximal_flags": maximal_flags,
        "orders": tuple(order_by_table_scan(table, x) for x in range(n)),
    }


def lattice_epg_rows(group) -> list[int]:
    """The enhanced power graph's rows by the lattice construction: a clique
    over each maximal subgroup that ``brute_lattice`` finds."""
    lattice = brute_lattice(group)
    maximal = [m for m, f in zip(lattice["subgroups"], lattice["maximal_flags"]) if f]
    return graph_from_edges(group.order, clique_edges(*maximal)).rows


def power_masks(group) -> list[int]:
    """Bit y of entry x is set iff y is a power of x, by repeated
    multiplication over the table, not read off the power walks."""
    table = table_of(group)
    masks = []
    for x in range(len(table)):
        mask, y = 1 << x, x
        while y:
            y = table[y][x]
            mask |= 1 << y
        masks.append(mask)
    return masks


def power_graph_rows(powers: list[int]) -> list[int]:
    """The power graph's rows from ``power_masks``: x ~ y iff one of them is
    a power of the other."""
    rows = list(powers)
    for x, mask in enumerate(powers):
        for y in bits(mask):
            rows[y] |= 1 << x
    return [row & ~(1 << x) for x, row in enumerate(rows)]


def commuting_graph_rows(group) -> list[int]:
    """The commuting graph's rows: x ~ y iff xy = yx, from ``t == t.T``."""
    table = np.asarray(group.table)
    packed = np.packbits(table == table.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") & ~(1 << x) for x, row in enumerate(packed)]


def has_noncyclic_commuting_pair(powers: list[int], commuting: list[int]) -> bool:
    """Some two commuting elements of one prime order p generate different
    subgroups, that is, G holds a Z_p x Z_p; from ``power_masks`` and
    ``commuting_graph_rows``."""
    orders = [bin(mask).count("1") for mask in powers]
    for p in {o for o in orders if is_prime(o)}:
        of_order_p = sum(1 << x for x, o in enumerate(orders) if o == p)
        if any(commuting[x] & of_order_p & ~powers[x] for x in bits(of_order_p)):
            return True
    return False


def assert_frozen_int16(table: np.ndarray, where: str) -> None:
    """A group's table as every constructor leaves it: int16, C-contiguous, read-only."""
    assert table.dtype == np.int16 and table.flags.c_contiguous, where
    assert not table.flags.writeable, where


def brute_normal_closure(group, x: int) -> frozenset[int]:
    """Normal closure of x: the conjugates of x closed under all pairwise products."""
    table = table_of(group)
    n = len(table)
    invs = [table[g].index(0) for g in range(n)]
    members = {table[table[g][x]][invs[g]] for g in range(n)}
    work = list(members)
    while work and len(members) < n:  # once every element is in, none can be added
        a = work.pop()
        for b in tuple(members):
            for c in (table[a][b], table[b][a]):
                if c not in members:
                    members.add(c)
                    work.append(c)
    return frozenset(members)


def reference_table(family: str, params: tuple) -> np.ndarray:
    """The constructors' tables from their defining formulas, entry by entry.

    Closed forms are evaluated with modular arithmetic over the whole n x n
    index grid, products by gathering both factors' tables, permutation
    closures by composing every pair of elements and looking the result up.
    Indices follow the constructors: pair (a, b) of a product is a*|H| + b,
    metacyclic (i, j) is j*m + i and dicyclic (i, j) is j*2m + i.
    """
    if family == "cyclic":
        (n,) = params
        idx = np.arange(n)
        return (idx[:, None] + idx[None, :]) % n
    if family == "product":
        table = reference_table(params[0].family, params[0].params)
        for child in params[1:]:
            t2 = reference_table(child.family, child.params)
            n1, n2 = table.shape[0], t2.shape[0]
            a = np.repeat(np.arange(n1), n2)
            b = np.tile(np.arange(n2), n1)
            table = table[np.ix_(a, a)] * n2 + t2[np.ix_(b, b)]
        return table
    if family == "dihedral":
        (m,) = params
        return reference_table("metacyclic", (m, 2, m - 1))
    if family == "dicyclic":
        (m,) = params
        two_m = 2 * m
        idx = np.arange(4 * m)
        i1, j1 = (idx % two_m)[:, None], (idx // two_m)[:, None]
        i2, j2 = (idx % two_m)[None, :], (idx // two_m)[None, :]
        plain = (i1 + i2) % two_m
        flip = (i1 - i2 + m * j2) % two_m
        res_i = np.where(j1 == 0, plain, flip)
        res_j = (j1 + j2) % 2
        return res_j * two_m + res_i
    if family == "metacyclic":
        m, n, k = params
        kpow = np.array([pow(k, j, m) for j in range(n)])
        idx = np.arange(m * n)
        i1, j1 = (idx % m)[:, None], (idx // m)[:, None]
        i2, j2 = (idx % m)[None, :], (idx // m)[None, :]
        res_i = (i1 + kpow[j1] * i2) % m
        res_j = (j1 + j2) % n
        return res_j * m + res_i
    if family == "perm":
        degree, gens = params
        ident = tuple(range(degree))
        elems = [ident]
        index = {ident: 0}
        queue = deque([ident])
        while queue:
            p = queue.popleft()
            for g in gens:
                q = tuple(p[v] for v in g)
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    queue.append(q)
        n = len(elems)
        table = np.empty((n, n), dtype=np.int64)
        for i, p in enumerate(elems):
            for j, q in enumerate(elems):
                table[i, j] = index[tuple(p[v] for v in q)]
        return table
    raise ValueError(f"no reference table for family {family!r}")


def brute_center(group) -> set[int]:
    table = table_of(group)
    n = len(table)
    return {z for z in range(n) if all(table[z][g] == table[g][z] for g in range(n))}


def table_cone_vertices(group) -> tuple[list[int], bool]:
    """The cone vertices, and whether the corollary says some exist, from the table alone.

    x != 1 is a cone vertex iff x is central and, for every prime p | o(x),
    each p-element h has h in <x_p> or x_p in <h>, x_p the p-part of x: a
    cone vertex commutes with every g; for central x, <x, g> is abelian, so
    cyclic iff each Sylow subgroup <x_p, g_p> is, and two cyclic p-groups
    generate a cyclic group iff one holds the other. Corollary: a cone
    vertex exists iff, for some prime p, G has exactly one subgroup of
    order p, and it is central. The center is the rows equal to their
    columns, and each power walk x, x^2, ... stops at the identity.
    """
    t = group.table
    rows = t.tolist()
    n = len(rows)
    assert rows[0] == list(range(n))  # the identity is element 0
    central = (t == t.T).all(axis=1).tolist()
    powers = []  # powers[x] = [x, x^2, ..., x^o(x)], ending at the identity
    for x in range(n):
        walk, y = [x], x
        while y != 0:
            y = rows[y][x]
            walk.append(y)
        powers.append(walk)
    subgroup = [frozenset(walk) for walk in powers]
    primes = {k: [p for p in range(2, k + 1) if k % p == 0 and is_prime(p)]
              for k in {len(walk) for walk in powers}}
    p_elements: dict[int, list[int]] = {}
    for h, walk in enumerate(powers):
        if len(primes[len(walk)]) == 1:
            p_elements.setdefault(primes[len(walk)][0], []).append(h)
    nested: dict[int, bool] = {}  # p-element y -> every p-element's subgroup nests with <y>

    def nests(y: int, p: int) -> bool:
        if y not in nested:
            nested[y] = all(h in subgroup[y] or y in subgroup[h] for h in p_elements[p])
        return nested[y]

    cones = []
    for x in range(1, n):
        order = len(powers[x])
        if central[x] and all(nests(powers[x][order // _p_part(order, p) - 1], p)
                              for p in primes[order]):
            cones.append(x)
    exists = False
    for p, hs in p_elements.items():
        of_order_p = [h for h in hs if len(powers[h]) == p]
        exists |= len(of_order_p) == p - 1 and all(central[h] for h in of_order_p)
    return cones, exists


def prime_subgroup_graph_components(group) -> int:
    """The components of Γ, from the table alone.

    Γ's vertices are the subgroups of prime order, with <a> joined to <b>
    when |a| != |b| and ab = ba. For |G| >= 2 the deleted graph has as many
    components: each x != 1 is adjacent or equal to every element of prime
    order in <x>; x ~ y makes <x, y> cyclic, so its prime-order subgroups
    have distinct orders and commute; and a Γ edge gives ab, of order
    |a||b|, adjacent to both a and b. The powers x, x^2, ... come from
    repeated multiplication, so x != 1 has prime order p | |G| when x^p = 1;
    each subgroup is named by its least member other than the identity,
    commutation is t[a, b] == t[b, a], and union-find counts the components.
    """
    t = group.table
    n = len(t)
    assert (t[0] == np.arange(n)).all()  # the identity is element 0
    primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
    powers = [np.arange(n)]  # powers[k - 1][x] = x^k
    for _ in range(2, max(primes, default=2)):
        powers.append(t[powers[-1], np.arange(n)])
    names: dict[int, int] = {}  # subgroup name -> its order
    for p in primes:
        of_order_p = np.nonzero(t[powers[p - 2], np.arange(n)] == 0)[0][1:]
        for name in np.stack(powers[:p - 1])[:, of_order_p].min(axis=0).tolist():
            names[name] = p
    reps = list(names)
    orders = np.array([names[r] for r in reps])
    among = t[np.ix_(reps, reps)]
    joined = np.triu((among == among.T) & (orders[:, None] != orders[None, :]))
    parent = list(range(len(reps)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    components = len(reps)
    for i, j in np.argwhere(joined).tolist():
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            components -= 1
    return components


def _p_part(k: int, p: int) -> int:
    """The largest power of p dividing k."""
    part = 1
    while k % (part * p) == 0:
        part *= p
    return part


def totient(n: int) -> int:
    """Euler's totient by the product formula over the prime divisors of n."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def brute_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def fixed_point_closure(degree: int, generators) -> set[tuple[int, ...]]:
    """Permutation closure by repeated all-pairs composition (not BFS)."""
    current = {tuple(range(degree))} | {tuple(g) for g in generators}
    while True:
        grown = set(current)
        for p in current:
            for q in current:
                grown.add(tuple(p[v] for v in q))
        if grown == current:
            return current
        current = grown


def brute_prime_order_subgroups(group, max_sets: int = 2_000_000) -> set[frozenset[int]]:
    """All prime-order subgroups by testing every candidate subset.

    Exhaustively enumerates identity-containing subsets of size p for each
    prime p dividing the order and keeps the ones closed under the table.
    """
    table = table_of(group)
    n = len(table)
    primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
    found = set()
    for p in primes:
        if math.comb(n - 1, p - 1) > max_sets:
            raise ValueError(f"subset enumeration too large for p={p}, n={n}")
        for rest in itertools.combinations(range(1, n), p - 1):
            members = frozenset((0,) + rest)
            if all(table[a][b] in members for a in members for b in members):
                found.add(members)
    return found


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def graph_from_edges(n: int, edges) -> SimpleGraph:
    """The graph on n vertices with these edges (repeats allowed), its rows
    assigned once, as the package's builders do."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u} not allowed in a simple graph")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = SimpleGraph(n)
    g.rows = rows
    return g


def clique_edges(*cliques) -> list[tuple[int, int]]:
    """Every pair inside each of ``cliques``, for ``graph_from_edges``."""
    return [e for members in cliques for e in itertools.combinations(members, 2)]


def complete_graph(n: int) -> SimpleGraph:
    return graph_from_edges(n, clique_edges(range(n)))


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return graph_from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


# -- tiny-graph planarity oracle ----------------------------------------------
# On at most 6 vertices the only Kuratowski subdivisions that fit are K5,
# K33, and K5 with a single subdivided edge; subgraph containment of those
# three patterns therefore decides planarity exactly.


def _has_k5(rows, verts) -> bool:
    for sub in itertools.combinations(verts, 5):
        if all(rows[a] >> b & 1 for a, b in itertools.combinations(sub, 2)):
            return True
    return False


def _has_k33(rows, verts) -> bool:
    for left in itertools.combinations(verts, 3):
        rest = [v for v in verts if v not in left]
        for right in itertools.combinations(rest, 3):
            if all(rows[a] >> b & 1 for a in left for b in right):
                return True
    return False


def _has_k5_one_subdivision(rows, verts) -> bool:
    for sub in itertools.combinations(verts, 6):
        for s in sub:
            branch = [v for v in sub if v != s]
            for a, b in itertools.combinations(branch, 2):
                others = [
                    (x, y)
                    for x, y in itertools.combinations(branch, 2)
                    if (x, y) != (a, b)
                ]
                if (
                    all(rows[x] >> y & 1 for x, y in others)
                    and rows[s] >> a & 1
                    and rows[s] >> b & 1
                ):
                    return True
    return False


def tiny_planarity_oracle(graph: SimpleGraph) -> bool:
    if graph.n > 6:
        raise ValueError("oracle only valid up to 6 vertices")
    verts = range(graph.n)
    rows = graph.rows
    return not (
        _has_k5(rows, verts)
        or _has_k33(rows, verts)
        or _has_k5_one_subdivision(rows, verts)
    )


def verdict_or_none(graph: SimpleGraph):
    """``planarity_verdict``, or (None, None) on a graph that no planarity
    certificate settles: one that is no enhanced power graph."""
    try:
        return planarity_verdict(graph)
    except ValueError:
        return None, None


def networkx_planar(graph: SimpleGraph) -> bool:
    """Planarity by ``networkx.check_planarity``, which shares no code with
    the package; networkx is imported on the first call."""
    import networkx as nx

    reference = nx.Graph()
    reference.add_nodes_from(range(graph.n))
    reference.add_edges_from(graph.edges())
    return nx.check_planarity(reference)[0]


def networkx_component_reps(graph: SimpleGraph, alive=None) -> list[int]:
    """Each component's smallest vertex, ascending, by
    ``networkx.connected_components`` over the subgraph that the vertices of
    ``alive`` (by default all) induce; networkx is imported on the first call."""
    import networkx as nx

    reference = nx.Graph()
    reference.add_nodes_from(range(graph.n))
    reference.add_edges_from(graph.edges())
    if alive is not None:
        reference = reference.subgraph(v for v in range(graph.n) if alive >> v & 1)
    return sorted(min(c) for c in nx.connected_components(reference))


def networkx_clique_and_independence_numbers(graph: SimpleGraph) -> tuple[int, int]:
    """The largest clique and the largest independent set of ``graph``, by
    ``networkx.max_weight_clique`` on it and on its complement; networkx is
    imported on the first call."""
    import networkx as nx

    reference = nx.Graph()
    reference.add_nodes_from(range(graph.n))
    reference.add_edges_from(graph.edges())
    return (nx.max_weight_clique(reference, weight=None)[1],
            nx.max_weight_clique(nx.complement(reference), weight=None)[1])


# -- associativity oracle and non-associative loop search ------------------------


def associative(table: list[list[int]]) -> bool:
    """(i*j)*k == i*(j*k) for every triple i, j, k: the O(n^3) definition."""
    return all(
        table[table[i][j]] == [row_i[x] for x in table[j]]
        for i, row_i in enumerate(table)
        for j in range(len(table))
    )


def two_sided_identity(table: list[list[int]]) -> int | None:
    """The first e with e*x == x == x*e for every x, by a scan of every row."""
    n = len(table)
    return next(
        (e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))),
        None,
    )


def first_broken_law(table: list[list[int]]) -> str | None:
    """The first group law a table of Python ints breaks, checked straight
    from the definitions in the order closure, identity, latin-square,
    associativity; None for a group table."""
    n = len(table)
    if any(not 0 <= v < n for row in table for v in row):
        return "closure"
    if two_sided_identity(table) is None:
        return "identity"
    columns = [[row[j] for row in table] for j in range(n)]
    if any(len(set(line)) < n for line in table + columns):
        return "latin-square"
    return None if associative(table) else "associativity"


def witness_breaks_law(table: list[list[int]], law: str, message: str) -> bool:
    """The entry, line or triple a CayleyValidationError message names
    breaks ``law`` in ``table``, read in the file's own labels."""
    n = len(table)
    if law == "closure":
        x, y = map(int, re.fullmatch(r"entry at \((\d+), (\d+)\) .*", message).groups())
        return not 0 <= table[x][y] < n
    if law == "identity":
        return two_sided_identity(table) is None
    if law == "latin-square":
        axis, i = re.fullmatch(r"(row|column) (\d+) repeats an entry", message).groups()
        line = table[int(i)] if axis == "row" else [row[int(i)] for row in table]
        return len(set(line)) < n
    x, s, y = map(int, re.fullmatch(r"\((\d+)\*(\d+)\)\*(\d+) != .*", message).groups())
    return table[table[x][s]][y] != table[x][table[s][y]]


def swap_intercalate(table: list[list[int]], r: int, c: int, t: int) -> list[list[int]]:
    """Swap the two symbols of a 2x2 Latin subsquare of a group table.

    With t an involution, rows r and r*t meet columns c and t*c in the
    entries a, b / b, a; exchanging a and b keeps every row and column a
    permutation. Pick r and c outside {0, t} to leave the identity intact.
    """
    r2, c2 = table[r][t], table[t][c]
    out = [row[:] for row in table]
    for i, j in ((r, c), (r, c2), (r2, c), (r2, c2)):
        out[i][j] = table[r][c2] if out[i][j] == table[r][c] else table[r][c]
    return out


def find_nonassociative_loop(order: int = 5) -> list[list[int]]:
    """Smallest (lexicographically) Latin square with two-sided identity 0
    that violates associativity, found by backtracking row search."""
    n = order
    rows: list[list[int]] = [list(range(n))]

    def columns_ok(candidate: list[int]) -> bool:
        i = len(rows)
        return all(candidate[j] != rows[r][j] for r in range(i) for j in range(n))

    def search() -> list[list[int]] | None:
        if len(rows) == n:
            table = [row[:] for row in rows]
            return None if associative(table) else table
        i = len(rows)
        for perm in itertools.permutations(range(n)):
            if perm[0] != i:
                continue
            candidate = list(perm)
            if columns_ok(candidate):
                rows.append(candidate)
                result = search()
                if result is not None:
                    return result
                rows.pop()
        return None

    result = search()
    if result is None:
        raise ValueError(f"no non-associative loop of order {order} found")
    return result


def cayley_file_text(table: list[list[int]], comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(str(len(table)))
    lines.extend(" ".join(str(v) for v in row) for row in table)
    return "\n".join(lines) + "\n"


def parse_cayley_reference(text: str, max_order: int = 512) -> list[list[int]]:
    """A reference Cayley-file reader: Python ``int()`` on every
    whitespace-split token, with the package reader's errors. It accepts any
    digits and whitespace that ``int()`` and ``str.split`` accept, non-ASCII
    ones and ``1_0`` included."""
    rows: list[list[int]] = []
    n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise CayleyParseError(f"line {lineno}: non-integer token ({exc})") from None
        if n is None:
            if len(values) != 1:
                raise CayleyParseError(f"line {lineno}: expected a single order, got {values}")
            n = values[0]
            if n < 1:
                raise CayleyParseError(f"line {lineno}: order must be >= 1, got {n}")
            if n > max_order:
                raise GroupSizeError(f"group order {n} exceeds the cap of {max_order}")
            continue
        if len(values) != n:
            raise CayleyParseError(f"line {lineno}: expected {n} entries, got {len(values)}")
        rows.append(values)
        if len(rows) > n:
            raise CayleyParseError(f"line {lineno}: more than {n} table rows")
    if n is None:
        raise CayleyParseError("empty file: no order line found")
    if len(rows) != n:
        raise CayleyParseError(f"expected {n} table rows, found {len(rows)}")
    return rows


# -- reference formulations of the theorem predicates -----------------------------
# Pairwise loops, union-find partitions, traversals that test one neighbor at a
# time, and per-element scans: none of the bitmask or histogram shortcuts the
# package's deciders take, so their values must agree with the package's.


def pairwise_no_cross_edges(bundle) -> bool:
    """T2.1 by every pair of equal-size classes and every pair of their generators."""
    lattice, epg = brute_lattice(bundle.group), bundle.epg
    by_size: dict[int, list[int]] = {}
    for c, members in enumerate(lattice["subgroups"]):
        by_size.setdefault(len(members), []).append(c)
    for classes in by_size.values():
        for i, c1 in enumerate(classes):
            for c2 in classes[i + 1:]:
                for x in lattice["generator_sets"][c1]:
                    for y in lattice["generator_sets"][c2]:
                        if epg.has_edge(x, y):
                            return False
    return True


def brute_components(graph: SimpleGraph) -> list[list[int]]:
    """Components by union-find over the edge list, ordered by smallest member."""
    root = list(range(graph.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in graph.edges():
        root[find(u)] = find(v)
    parts: dict[int, list[int]] = {}
    for v in range(graph.n):
        parts.setdefault(find(v), []).append(v)
    return sorted(parts.values())


def brute_connected(graph: SimpleGraph) -> bool:
    return len(brute_components(graph)) <= 1


def loop_find_cycle(graph: SimpleGraph):
    """DFS that tests one neighbor at a time; the cycle ``find_cycle`` must return."""
    visited = [False] * graph.n
    parent = [-1] * graph.n
    depth = [0] * graph.n
    for s in range(graph.n):
        if visited[s]:
            continue
        visited[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in bits(graph.rows[u]):
                if not visited[w]:
                    visited[w] = True
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    stack.append(w)
                elif w != parent[u]:
                    return _join_tree_paths(u, w, parent, depth)
    return None


def loop_bipartite_coloring(graph: SimpleGraph):
    """BFS 2-coloring one neighbor at a time; what ``bipartite_coloring`` must return."""
    color = [-1] * graph.n
    parent = [-1] * graph.n
    depth = [0] * graph.n
    for s in range(graph.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in bits(graph.rows[u]):
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, _join_tree_paths(u, w, parent, depth)
    return True, None


def abelian_shape_reference(group) -> tuple[int, ...]:
    """Primary factors by counting, per prime power p^j, the elements whose order divides it."""
    n = group.order
    orders = table_orders(group)
    factors: list[int] = []
    for p in sorted({q for q in range(2, n + 1) if n % q == 0 and is_prime(q)}):
        e = 0
        while n % p ** (e + 1) == 0:
            e += 1
        exps = [0]
        for j in range(1, e + 1):
            count = sum(1 for o in orders if p**j % o == 0)
            exps.append(round(math.log(count, p)))
        d = [exps[j] - exps[j - 1] for j in range(1, e + 1)] + [0]
        for j in range(1, e + 1):
            factors.extend([p**j] * (d[j - 1] - d[j]))
    return tuple(sorted(factors))


def cyclic_sylow_reference(factors: tuple[int, ...]) -> bool:
    """Some prime owns exactly one primary factor, so its Sylow subgroup is cyclic."""
    primes = [min(_prime_set(q)) for q in factors]
    return any(primes.count(p) == 1 for p in primes)


def brute_is_simple(group) -> bool:
    """Every non-identity element's normal closure, by all products, is the group."""
    n = group.order
    return all(len(brute_normal_closure(group, x)) == n for x in range(1, n))


def _symmetric(group) -> bool:
    return bool(np.array_equal(group.table, group.table.T))


def _prime_set(n: int) -> set[int]:
    return {p for p in range(2, n + 1) if n % p == 0 and is_prime(p)}


def _has_cone(epg) -> bool:
    universe = (1 << epg.n) - 1
    return any(epg.rows[v] == universe ^ (1 << v) for v in range(1, epg.n))


def _reference_tree(graph) -> bool:
    return graph.n >= 1 and loop_find_cycle(graph) is None and brute_connected(graph)


def _t53_group_side(bundle) -> bool:
    group, epg = bundle.group, bundle.epg
    central = brute_center(group)
    orders = table_orders(group)
    (p,) = _prime_set(len(central))
    for x in range(1, group.order):
        if orders[x] != p or x in central:
            continue
        if not any(g != 0 and _prime_set(orders[g]) != {p} for g in bits(epg.rows[x])):
            return False
    return True


def _t53_applies(bundle) -> bool:
    z = len(brute_center(bundle.group))
    return len(_prime_set(bundle.group.order)) >= 2 and z > 1 and len(_prime_set(z)) == 1


def _t31_central(bundle) -> list[int]:
    """Every central z != 1 whose order n shares no prime with |G| / n, from
    the brute-force center and the orders found by table scans."""
    group = bundle.group
    orders = table_orders(group)
    return [
        z for z in sorted(brute_center(group))
        if z != 0 and not _prime_set(orders[z]) & _prime_set(group.order // orders[z])
    ]


def _t31_graph_side(bundle) -> bool:
    full = (1 << bundle.epg.n) - 1
    return all(bundle.epg.rows[z] == full ^ (1 << z) for z in _t31_central(bundle))


def _even_degrees(graph) -> bool:
    return all(d % 2 == 0 for d in graph.degrees())


def _always(_bundle) -> bool:
    return True


# check id -> (applies, graph side, group side), each taking an EpgBundle
REFERENCE_SIDES = {
    "T2.1": (_always, pairwise_no_cross_edges, _always),
    "T2.2": (
        _always,
        lambda b: loop_find_cycle(b.epg) is not None,
        lambda b: any(o >= 3 for o in table_orders(b.group)),
    ),
    "C2.3": (
        _always,
        lambda b: [
            loop_bipartite_coloring(b.epg)[0],
            _reference_tree(b.epg),
            _reference_tree(b.epg) and any(d == b.epg.n - 1 for d in b.epg.degrees()),
        ],
        lambda b: [all(o <= 2 for o in table_orders(b.group))] * 3,
    ),
    "T2.4": (
        _always,
        lambda b: all(
            b.epg.has_edge(u, v) for u, v in itertools.combinations(range(b.epg.n), 2)
        ),
        lambda b: frozenset(range(b.group.order)) in brute_cyclic_subgroups(b.group),
    ),
    "T3.1": (
        lambda b: bool(_t31_central(b)),
        _t31_graph_side,
        _always,
    ),
    "T3.2": (
        lambda b: b.group.order >= 2 and _symmetric(b.group),
        lambda b: _has_cone(b.epg),
        lambda b: cyclic_sylow_reference(abelian_shape_reference(b.group)),
    ),
    "T3.3": (
        lambda b: not _symmetric(b.group) and len(_prime_set(b.group.order)) == 1,
        lambda b: _has_cone(b.epg),
        lambda b: _prime_set(b.group.order) == {2} and table_orders(b.group).count(2) == 1,
    ),
    "T3.4": (
        lambda b: b.group.order >= 2 and not _symmetric(b.group) and brute_is_simple(b.group),
        lambda b: not _has_cone(b.epg),
        _always,
    ),
    "T4.1": (
        _always,
        lambda b: networkx_planar(b.epg),
        lambda b: set(orders_multiset(b.group)) <= {1, 2, 3, 4},
    ),
    "T4.2": (
        _always,
        lambda b: brute_connected(b.epg) and _even_degrees(b.epg),
        lambda b: b.group.order % 2 == 1,
    ),
    "T5.1": (
        lambda b: len(_prime_set(b.group.order)) == 1,
        lambda b: brute_connected(b.deleted),
        lambda b: sum(
            table_orders(b.group).count(p) // (p - 1) for p in _prime_set(b.group.order)
        ) == 1,
    ),
    "T5.2": (
        lambda b: len(_prime_set(len(brute_center(b.group)))) >= 2,
        lambda b: brute_connected(b.deleted),
        _always,
    ),
    "T5.3": (_t53_applies, lambda b: brute_connected(b.deleted), _t53_group_side),
    "T5.4": (
        _always,
        lambda b: loop_find_cycle(b.deleted) is None,
        lambda b: all(o < 4 for o in table_orders(b.group)),
    ),
}


# -- the column-major verify loop ---------------------------------------------------


def column_major_run_all(max_order: int, check_ids=None) -> list[dict]:
    """``run_all`` as one pass per check over the one roster, every bundle kept.

    The roster is the standard roster followed by every registered check's
    own groups, each spec once. Bundles are memoized by spec for the whole
    run, so a group is built once, as the old cache did. Returns each
    report's ``to_dict()`` with ``ms`` left at 0.
    """
    memo = {}

    def bundle_of(spec):
        key = spec.serialize()
        if key not in memo:
            memo[key] = build_bundle(spec.realize(max_order=max_order))
        return memo[key]

    checks = CHECKS if check_ids is None else [CHECKS_BY_ID[i] for i in check_ids]
    roster = roster_generate(max_order)
    for check in CHECKS:
        roster += check.roster(max_order) if check.roster is not None else []
    roster = list(dict.fromkeys(roster))
    out = []
    for check in checks:
        tested = passed = 0
        counterexamples = []
        for spec in roster:
            bundle = bundle_of(spec)
            if check.applies(bundle):
                tested += 1
                graph_value, group_value = check.graph_side(bundle), check.group_side(bundle)
                if graph_value == group_value:
                    passed += 1
                else:
                    counterexamples.append(
                        Counterexample(spec.serialize(), graph_value, group_value)
                    )
        report = TheoremReport(check.check_id, tested, passed, tested == 0, counterexamples)
        out.append(report.to_dict())
    return out
