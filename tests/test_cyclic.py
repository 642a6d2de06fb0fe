"""Cyclic-subgroup structure: the power walks against brute-force references."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epgraph import (
    CHECKS_BY_ID,
    GroupSpec,
    build_bundle,
    ingest_cayley,
    parse_spec,
    prime_subgroup_counts,
    roster_generate,
)

from helpers import (
    brute_cyclic_subgroups,
    brute_lattice,
    cayley_file_text,
    is_prime,
    lattice_epg_rows,
    table_of,
    totient,
)


def generators(group, walk):
    """The generators of the walk's subgroup: its members of the walk's order."""
    return {y for y in walk if group.orders[y] == len(walk)}


def gen_class(group, x):
    """Every y with <y> = <x>: the generators of the one walk of x's order
    holding x."""
    (walk,) = [w for w in group.walks if len(w) == group.orders[x] and x in w]
    return generators(group, walk)


def assert_lattice_matches_brute_force(group):
    """The walks, their generator classes, the orders and the prime-order
    subgroup counts against ``brute_lattice``."""
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
    assert group.orders == want["orders"]
    # each element generates exactly one walk, the brute-force class of <x>
    class_of = [None] * group.order
    for r, walk in zip(ranked, group.walks):
        for y in generators(group, walk):
            assert class_of[y] is None
            class_of[y] = r
    assert tuple(class_of) == want["class_of"]
    # a subgroup of prime order is cyclic, so the brute-force scan finds them all
    sizes = Counter(len(s) for s in want["subgroups"])
    assert prime_subgroup_counts(group) == {q: k for q, k in sizes.items() if is_prime(q)}


def ored_walks(group):
    """The walks whose first element lies in no earlier walk: the ones
    ``build_epg`` ORs."""
    seen: set[int] = set()
    out = []
    for walk in group.walks:
        if walk[0] not in seen:
            out.append(walk)
        seen.update(walk)
    return out


def assert_skipped_walks_lie_in_earlier_walks(group):
    """A walk whose first element lies in an earlier walk is a subset of
    that walk, and the graph ``build_epg`` makes by skipping such walks is
    the brute-force enhanced power graph."""
    for i, walk in enumerate(group.walks):
        for earlier in group.walks[:i]:
            if walk[0] in earlier:
                assert set(walk) <= set(earlier)
    assert build_bundle(group).epg.rows == lattice_epg_rows(group)


def test_cyclic_group_ors_the_identity_and_one_generator():
    # the generator's walk hands every other subgroup down by slicing, the
    # involution's (256, 0) among them
    group = GroupSpec.cyclic(512).realize()
    ored = ored_walks(group)
    assert len(ored) == 2 and ored[0] == (0,)
    assert len(ored[1]) == 512 and group.orders[ored[1][0]] == 512
    assert len(group.walks) == 10  # one per divisor of 512
    assert (256, 0) in group.walks


def test_skipped_walks_lie_in_earlier_walks_over_roster(roster_groups_48):
    for group in roster_groups_48:
        assert_skipped_walks_lie_in_earlier_walks(group)


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
    assert g.orders == (1,)


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
        classes = [generators(group, w) for w in group.walks]
        assert [len(c) for c in classes] == [totient(len(w)) for w in group.walks]
        assert set().union(*classes) == set(range(group.order))


def test_class_subgroup_size_is_element_order(roster_groups_48):
    # x generates exactly one walk, and that walk's length is the order of x
    for group in roster_groups_48:
        for x in range(group.order):
            assert [len(w) for w in group.walks if x in generators(group, w)] == [group.orders[x]]


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


# the walks build_epg ORs, of all the walks: dihedral:10 skips (r^5, e) and
# the 5-walk, both inside the 10-walk of rotations
_ORED_OF_WALKS = {
    "product:" + ",".join(["cyclic:2"] * 6): (64, 64),
    "dihedral:9": (11, 12),
    "dihedral:10": (12, 14),
    "dicyclic:4": (6, 8),
    "metacyclic:7:3:2": (9, 9),
}


@pytest.mark.parametrize("text, involutions", [
    ("product:" + ",".join(["cyclic:2"] * 6), 63),  # every non-identity element
    ("dihedral:9", 9),  # the reflections only
    ("dihedral:10", 11),  # and r^5, inside the rotations' longer walks
    ("dicyclic:4", 1),  # Q16: one involution, inside every longer walk
    ("metacyclic:7:3:2", 0),  # odd order: no involution
])
def test_involution_walks_match_brute_force(text, involutions):
    # involutions are read off the table's diagonal, each as the walk
    # (x, identity), and their walks come last; the rest are walked one
    # power at a time or sliced from a walk
    group = parse_spec(text).realize()
    assert_lattice_matches_brute_force(group)
    assert group.orders.count(2) == involutions
    assert group.walks[len(group.walks) - involutions:] == tuple(
        (x, 0) for x, o in enumerate(group.orders) if o == 2)
    # build_epg skips exactly the involutions' walks that a longer walk holds
    longer = {y for w in group.walks if len(w) > 2 for y in w}
    ored = ored_walks(group)
    assert sorted(w for w in set(group.walks).difference(ored) if len(w) == 2) == [
        (x, 0) for x, o in enumerate(group.orders) if o == 2 and x in longer]
    assert (len(ored), len(group.walks)) == _ORED_OF_WALKS[text]


def test_lattice_matches_brute_force_over_roster(roster_groups_64):
    for group in roster_groups_64:
        assert_lattice_matches_brute_force(group)


_ROSTER_64 = roster_generate(64)


def relabelled_roster_group(data):
    """A roster group of order <= 64 read back from its table with the
    non-identity elements drawn into a new order."""
    table = data.draw(st.sampled_from(_ROSTER_64)).realize().table
    n = table.shape[0]
    perm = np.array([0] + data.draw(st.permutations(range(1, n))), dtype=np.int64)
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    return ingest_cayley(cayley_file_text(relabelled.tolist()))


# the hypothesis default in tier-1; the ci profile (conftest.py) draws 1000
@given(st.data())
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
def test_lattice_matches_brute_force_on_relabelled_tables(data):
    # a relabelling fixing the identity makes index order differ from
    # construction order, so walks start from other generators and other
    # walks are skipped; a skipped walk must still lie in an earlier one,
    # and the graph built from the walks the union of the brute-force
    # maximal cliques
    group = relabelled_roster_group(data)
    assert_lattice_matches_brute_force(group)
    assert_skipped_walks_lie_in_earlier_walks(group)
    assert CHECKS_BY_ID["T2.1"].graph_side(build_bundle(group))


@given(st.data())
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
def test_epg_skip_is_exact_in_any_walk_order_on_relabelled_tables(data):
    # build_epg skips a walk whose first element, its generator, already
    # has a row; in any order of the walks, that generator lies in a walk
    # ORed before, which holds the whole subgroup
    group = relabelled_roster_group(data)
    group.walks = tuple(data.draw(st.permutations(group.walks)))
    assert build_bundle(group).epg.rows == lattice_epg_rows(group)
