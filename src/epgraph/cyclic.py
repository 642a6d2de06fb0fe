"""Cyclic-subgroup structure: distinct cyclic subgroups, generator classes,
the element-order spectrum, and its divisibility-maximal members.

Everything here is derived from the power walks that ``FiniteGroup``
makes once per distinct cyclic subgroup; no powers are walked again.
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

    A subgroup C is properly contained in a cyclic subgroup D exactly when
    D holds a generator of C, so one pass over the members of every D
    clears the maximal flag of each class met that is not D itself.
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

    flags = [True] * len(subgroups)
    for d, members in enumerate(subgroups):
        for y in members:
            if class_of[y] != d:
                flags[class_of[y]] = False
    maximal_flags = tuple(flags)

    pi_e = frozenset(group.orders)
    mu = frozenset(o for o in pi_e if not any(o != m and m % o == 0 for m in pi_e))
    return CyclicLattice(subgroups, generator_sets, class_of, maximal_flags, pi_e, mu)
