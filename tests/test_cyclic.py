"""Cyclic-subgroup lattice structure."""

import numpy as np
from hypothesis import given, settings, strategies as st

from epgraph import (
    FiniteGroup,
    GroupSpec,
    build_lattice,
    roster_generate,
    totient,
)

from helpers import brute_cyclic_subgroups, brute_lattice, order_by_table_scan, table_of

LATTICE_FIELDS = ("subgroups", "generator_sets", "class_of", "maximal_flags", "pi_e", "mu")


def assert_lattice_matches_brute_force(group):
    lattice = build_lattice(group)
    want = brute_lattice(group)
    for name in LATTICE_FIELDS:
        assert getattr(lattice, name) == want[name], name
    table = table_of(group)
    assert group.orders == tuple(order_by_table_scan(table, x) for x in range(group.order))


def test_z6_subgroups():
    g = GroupSpec.cyclic(6).realize()
    lattice = build_lattice(g)
    assert sorted(len(s) for s in lattice.subgroups) == [1, 2, 3, 6]
    assert {frozenset(s) for s in lattice.subgroups} == brute_cyclic_subgroups(g)


def test_q8_subgroups():
    q8 = GroupSpec.dicyclic(2).realize()
    lattice = build_lattice(q8)
    assert sorted(len(s) for s in lattice.subgroups) == [1, 2, 4, 4, 4]
    assert {frozenset(s) for s in lattice.subgroups} == brute_cyclic_subgroups(q8)


def test_trivial_group_lattice():
    lattice = build_lattice(GroupSpec.cyclic(1).realize())
    assert lattice.subgroups == ((0,),)
    assert lattice.pi_e == {1}
    assert lattice.mu == {1}


def test_gen_class_examples():
    z12 = build_lattice(GroupSpec.cyclic(12).realize())
    assert set(z12.gen_class(2)) == {2, 10}
    assert z12.gen_class(0) == (0,)
    z5 = build_lattice(GroupSpec.cyclic(5).realize())
    assert set(z5.gen_class(3)) == {1, 2, 3, 4}


def test_pi_e_and_mu():
    s3 = build_lattice(GroupSpec.metacyclic(3, 2, 2).realize())
    assert s3.pi_e == {1, 2, 3}
    assert s3.mu == {2, 3}
    z12 = build_lattice(GroupSpec.cyclic(12).realize())
    assert z12.pi_e == {1, 2, 3, 4, 6, 12}
    assert z12.mu == {12}
    q8 = build_lattice(GroupSpec.dicyclic(2).realize())
    assert q8.pi_e == {1, 2, 4}
    assert q8.mu == {4}


def test_partition_identity_over_roster(roster_bundles_48):
    # the generator sets partition the group: sum of phi(|C|) = |G|
    for bundle in roster_bundles_48:
        lattice, group = bundle.lattice, bundle.group
        assert sum(totient(len(s)) for s in lattice.subgroups) == group.order
        seen = sorted(x for gen in lattice.generator_sets for x in gen)
        assert seen == list(range(group.order))
        for subgroup, gens in zip(lattice.subgroups, lattice.generator_sets):
            assert len(gens) == totient(len(subgroup))


def test_class_subgroup_size_is_element_order(roster_bundles_48):
    for bundle in roster_bundles_48:
        lattice, group = bundle.lattice, bundle.group
        for x in range(group.order):
            assert len(lattice.subgroup_of(x)) == group.orders[x]


def test_maximality_flags(roster_bundles_48):
    for bundle in roster_bundles_48:
        lattice = bundle.lattice
        sets = [frozenset(s) for s in lattice.subgroups]
        maximal = [s for s, flag in zip(sets, lattice.maximal_flags) if flag]
        # every element lies in at least one maximal cyclic subgroup
        for x in range(bundle.group.order):
            assert any(x in s for s in maximal)
        # no maximal subgroup is contained in a different cyclic subgroup
        for s in maximal:
            assert not any(s < t for t in sets)


def test_equal_order_subgroups_intersect_properly(roster_bundles_48):
    # two cyclic subgroups of equal order are equal or meet in a proper subgroup
    for bundle in roster_bundles_48:
        subs = [frozenset(s) for s in bundle.lattice.subgroups]
        by_size: dict[int, list[frozenset]] = {}
        for s in subs:
            by_size.setdefault(len(s), []).append(s)
        for size, group_list in by_size.items():
            for i, a in enumerate(group_list):
                for b in group_list[i + 1:]:
                    meet = a & b
                    assert len(meet) < size


def test_lattice_matches_brute_force_over_roster(roster_bundles_64):
    for bundle in roster_bundles_64:
        assert_lattice_matches_brute_force(bundle.group)


def test_group_maximal_flags_in_rank_order_are_the_lattice_flags(roster_bundles_64):
    for bundle in roster_bundles_64:
        group, lattice = bundle.group, bundle.lattice
        ranked = [None] * len(lattice.subgroups)
        for walk, flag in zip(group.walks, group.maximal):
            ranked[lattice.subgroups.index(tuple(sorted(walk)))] = flag
        assert tuple(ranked) == lattice.maximal_flags, group


_ROSTER_64 = roster_generate(64)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lattice_matches_brute_force_on_relabelled_tables(data):
    # a relabelling fixing the identity makes index order differ from
    # construction order, so walks start from other generators
    table = data.draw(st.sampled_from(_ROSTER_64)).realize().table
    n = table.shape[0]
    perm = np.array([0] + data.draw(st.permutations(range(1, n))), dtype=np.int64)
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    assert_lattice_matches_brute_force(FiniteGroup.from_table(relabelled))
