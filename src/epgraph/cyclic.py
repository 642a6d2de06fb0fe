"""Cyclic-subgroup structure: distinct cyclic subgroups, generator classes,
the element-order spectrum, and its divisibility-maximal members.

Everything here is derived from the power walks that ``FiniteGroup``
makes once per distinct cyclic subgroup, and from the maximal flags it
sets on them; no powers are walked again. The enhanced power graph needs
none of it (``epgraph.epg`` builds the graph from the maximal walks), so a
lattice is built only when a theorem check reads one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup


@dataclass(frozen=True)
class CyclicLattice:
    """Every <x> of a group, deduplicated, plus the generator partition.

    ``subgroups`` are sorted element tuples ordered by (size, elements);
    ``class_of[x]`` names the subgroup <x>; ``generator_sets[c]`` is the
    set of generators of subgroup c, so the generator sets partition the
    group. ``pi_e`` is the set of element orders, ``mu`` its maximal
    members under divisibility.
    """

    subgroups: tuple[tuple[int, ...], ...]
    generator_sets: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    maximal_flags: tuple[bool, ...]
    pi_e: frozenset[int]
    mu: frozenset[int]

    def gen_class(self, x: int) -> tuple[int, ...]:
        """All y with <y> = <x>."""
        return self.generator_sets[self.class_of[x]]

    def subgroup_of(self, x: int) -> tuple[int, ...]:
        return self.subgroups[self.class_of[x]]

    @property
    def maximal_subgroups(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            s for s, flag in zip(self.subgroups, self.maximal_flags) if flag
        )


def build_lattice(group: FiniteGroup) -> CyclicLattice:
    """Sort and rank the group's walked cyclic subgroups and derive the class data.

    The maximal flags are the group's own (``FiniteGroup.maximal``), put in
    rank order.
    """
    n = group.order
    subs = [tuple(sorted(walk)) for walk in group.walks]
    rank = sorted(range(len(subs)), key=lambda i: (len(subs[i]), subs[i]))
    remap = {old: new for new, old in enumerate(rank)}
    subgroups = tuple(subs[old] for old in rank)
    class_of = tuple(remap[c] for c in group.walk_of)

    gen_sets: list[list[int]] = [[] for _ in subgroups]
    for x in range(n):
        gen_sets[class_of[x]].append(x)
    generator_sets = tuple(tuple(g) for g in gen_sets)
    maximal_flags = tuple(group.maximal[old] for old in rank)

    pi_e = frozenset(group.orders)
    mu = frozenset(o for o in pi_e if not any(o != m and m % o == 0 for m in pi_e))
    return CyclicLattice(subgroups, generator_sets, class_of, maximal_flags, pi_e, mu)
