"""Cyclic-subgroup structure: the power walks against brute-force references."""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from epgraph import GroupSpec, ingest_cayley, prime_subgroup_counts, roster_generate

from helpers import (
    brute_cyclic_subgroups,
    brute_lattice,
    cayley_file_text,
    is_prime,
    table_of,
    totient,
)


def gen_class(group, x):
    """Every y with <y> = <x>: the elements sharing x's walk index."""
    return {y for y, c in enumerate(group.walk_of) if c == group.walk_of[x]}


def assert_lattice_matches_brute_force(group):
    """The walks, walk_of, orders, maximal flags and prime-order subgroup
    counts against ``brute_lattice``."""
    want = brute_lattice(group)
    table = table_of(group)
    # each walk is its first element's powers x, x^2, ..., identity
    for walk in group.walks:
        x, y = walk[0], walk[0]
        for z in walk[1:]:
            y = table[y][x]
            assert z == y
        assert walk[-1] == 0 and 0 not in walk[:-1]
    # one walk per distinct cyclic subgroup, each once
    rank = {s: i for i, s in enumerate(want["subgroups"])}
    ranked = [rank[tuple(sorted(walk))] for walk in group.walks]
    assert sorted(ranked) == list(range(len(want["subgroups"])))
    assert tuple(ranked[c] for c in group.walk_of) == want["class_of"]
    assert tuple(want["maximal_flags"][r] for r in ranked) == group.maximal
    assert group.orders == want["orders"]
    # a subgroup of prime order is cyclic, so the brute-force scan finds them all
    sizes = Counter(len(s) for s in want["subgroups"])
    assert prime_subgroup_counts(group) == {q: k for q, k in sizes.items() if is_prime(q)}


def test_z6_subgroups():
    g = GroupSpec.cyclic(6).realize()
    assert sorted(len(w) for w in g.walks) == [1, 2, 3, 6]
    assert {frozenset(w) for w in g.walks} == brute_cyclic_subgroups(g)


def test_q8_subgroups():
    q8 = GroupSpec.dicyclic(2).realize()
    assert sorted(len(w) for w in q8.walks) == [1, 2, 4, 4, 4]
    assert {frozenset(w) for w in q8.walks} == brute_cyclic_subgroups(q8)


def test_trivial_group_lattice():
    g = GroupSpec.cyclic(1).realize()
    assert g.walks == ((0,),)
    assert g.walk_of == (0,)
    assert g.orders == (1,)
    assert g.maximal == (True,)


def test_gen_class_examples():
    z12 = GroupSpec.cyclic(12).realize()
    assert gen_class(z12, 2) == {2, 10}
    assert gen_class(z12, 0) == {0}
    z5 = GroupSpec.cyclic(5).realize()
    assert gen_class(z5, 3) == {1, 2, 3, 4}


def test_order_spectrum_examples():
    # T2.4 asks whether |G| is an element order, T4.1 for the largest one
    s3 = GroupSpec.metacyclic(3, 2, 2).realize()
    assert set(s3.orders) == {1, 2, 3}
    z12 = GroupSpec.cyclic(12).realize()
    assert set(z12.orders) == {1, 2, 3, 4, 6, 12}
    assert 12 in z12.orders
    q8 = GroupSpec.dicyclic(2).realize()
    assert set(q8.orders) == {1, 2, 4}
    assert max(q8.orders) == 4 and 8 not in q8.orders


def test_partition_identity_over_roster(roster_groups_48):
    # the generator classes partition the group: sum of phi(|C|) = |G|
    for group in roster_groups_48:
        assert sum(totient(len(w)) for w in group.walks) == group.order
        sizes = [0] * len(group.walks)
        for c in group.walk_of:
            sizes[c] += 1
        assert sizes == [totient(len(w)) for w in group.walks]


def test_class_subgroup_size_is_element_order(roster_groups_48):
    for group in roster_groups_48:
        for x in range(group.order):
            assert len(group.walks[group.walk_of[x]]) == group.orders[x]


def test_maximality_flags(roster_groups_48):
    for group in roster_groups_48:
        sets = [frozenset(w) for w in group.walks]
        maximal = [s for s, flag in zip(sets, group.maximal) if flag]
        # every element lies in at least one maximal cyclic subgroup
        for x in range(group.order):
            assert any(x in s for s in maximal)
        # no maximal subgroup is contained in a different cyclic subgroup
        for s in maximal:
            assert not any(s < t for t in sets)


def test_equal_order_subgroups_intersect_properly(roster_groups_48):
    # two cyclic subgroups of equal order are equal or meet in a proper subgroup
    for group in roster_groups_48:
        by_size: dict[int, list[frozenset]] = {}
        for w in group.walks:
            by_size.setdefault(len(w), []).append(frozenset(w))
        for size, group_list in by_size.items():
            for i, a in enumerate(group_list):
                for b in group_list[i + 1:]:
                    meet = a & b
                    assert len(meet) < size


def test_lattice_matches_brute_force_over_roster(roster_groups_64):
    for group in roster_groups_64:
        assert_lattice_matches_brute_force(group)


def test_group_maximal_flags_in_rank_order_are_the_lattice_flags(roster_groups_64):
    for group in roster_groups_64:
        want = brute_lattice(group)
        ranked = [None] * len(want["subgroups"])
        for walk, flag in zip(group.walks, group.maximal):
            ranked[want["subgroups"].index(tuple(sorted(walk)))] = flag
        assert tuple(ranked) == want["maximal_flags"], group


_ROSTER_64 = roster_generate(64)


# the hypothesis default in tier-1; the ci profile (conftest.py) draws 1000
@given(st.data())
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
def test_lattice_matches_brute_force_on_relabelled_tables(data):
    # a relabelling fixing the identity makes index order differ from
    # construction order, so walks start from other generators
    table = data.draw(st.sampled_from(_ROSTER_64)).realize().table
    n = table.shape[0]
    perm = np.array([0] + data.draw(st.permutations(range(1, n))), dtype=np.int64)
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    assert_lattice_matches_brute_force(ingest_cayley(cayley_file_text(relabelled.tolist())))
