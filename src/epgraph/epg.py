"""Enhanced power graph construction plus a brute-force adjacency oracle.

Vertices are element indices; two distinct elements are adjacent iff some
cyclic subgroup contains both, so the graph is the union of cliques over
the cyclic subgroups, which are exactly the group's power walks. A walk
whose generator already lies in an earlier walk lies in that walk whole,
so its clique is already there and it is skipped. Both
graphs share the group's ``orders`` tuple, from which only the exports
derive vertex labels (``epgraph.simplegraph``). A bundle builds its
identity-deleted graph and the property report on each graph on first
read; all readers share the two reports, so a decider runs at most once
per graph, and the deleted graph's report reads its cone vertices off the
other. A report holds its graph, and the deleted one the other report,
but never the bundle, so a dropped bundle is freed at once. The pairwise
oracle re-derives adjacency straight from the definition (some z has both
x and y among its powers) and exists purely to cross-check the
clique-union construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .analysis import PropertyReport
from .groups import FiniteGroup
from .simplegraph import SimpleGraph


@dataclass(frozen=True)
class EpgBundle:
    """A group with its enhanced power graph, its deleted graph and their reports.

    ``deleted`` is the enhanced power graph with the identity vertex
    removed (deleted vertex i is element i + 1). ``report`` and
    ``deleted_report`` are the lazy ``PropertyReport`` on each graph. All
    three are built on first read.
    """

    group: FiniteGroup
    epg: SimpleGraph

    @cached_property
    def deleted(self) -> SimpleGraph:
        return build_deleted(self.epg)

    @cached_property
    def report(self) -> PropertyReport:
        return PropertyReport(self.epg)

    @cached_property
    def deleted_report(self) -> PropertyReport:
        return PropertyReport(self.deleted, self.report)


def build_epg(group: FiniteGroup) -> SimpleGraph:
    """Union of cliques over the cyclic subgroups, read off the walks.

    Each walk's member mask is ORed into its members' rows, unless its
    first element, which generates it, already has a nonzero row: then an
    earlier walk ORed holds that generator, so it holds the whole subgroup
    and its clique. The skip is exact in any walk order. Every element
    lies in a walk, so this sets every diagonal bit, and one XOR per row
    clears the diagonal at the end.
    """
    name = group.spec.display() if group.spec is not None else f"order-{group.order}"
    graph = SimpleGraph(group.order, orders=group.orders, name=name)
    rows = graph.rows
    for walk in group.walks:
        if rows[walk[0]]:
            continue
        mask = 0
        for v in walk:
            mask |= 1 << v
        for v in walk:
            rows[v] |= mask
    graph.rows = [m ^ (1 << v) for v, m in enumerate(rows)]
    return graph


def build_deleted(epg: SimpleGraph) -> SimpleGraph:
    """The graph with the identity vertex (vertex 0) removed: each row drops
    bit 0. It shares the group's orders, so vertex i is labeled element i + 1."""
    out = SimpleGraph(epg.n - 1, orders=epg.orders, name=f"{epg.name}*" if epg.name else "*")
    out.rows = [m >> 1 for m in epg.rows[1:]]
    return out


def build_bundle(group: FiniteGroup) -> EpgBundle:
    return EpgBundle(group, build_epg(group))


def adjacent_oracle(group: FiniteGroup, x: int, y: int) -> bool:
    """Brute force: is there a z whose powers include both x and y?

    Deliberately ignores the group's walks so it can serve as an
    independent cross-check of the clique-union construction.
    """
    group._check_index(x)
    group._check_index(y)
    if x == y:
        raise ValueError(f"adjacency is defined for distinct elements, got {x} twice")
    item = group.table.item
    for z in range(group.order):
        found_x = found_y = False
        t = z
        while True:
            if t == x:
                found_x = True
            if t == y:
                found_y = True
            if found_x and found_y:
                return True
            if t == 0:
                break
            t = item(t, z)
    return False
