"""Groups built from specs: tables, predicates, and validation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epgraph.groups as groups_module
from epgraph import (
    CayleyValidationError,
    FiniteGroup,
    GroupParameterError,
    GroupSizeError,
    GroupSpec,
    adjacent_oracle,
    build_bundle,
    ingest_cayley,
    is_simple,
    normal_closure,
    parse_spec,
    prime_subgroup_counts,
    roster_generate,
)
from epgraph.cayley_io import cayley_table
from epgraph.groups import prime_factors
from epgraph.specs import _INT_FAMILIES
from epgraph.theorems import CHECKS_BY_ID
from helpers import (
    abelian_shape_reference,
    assert_frozen_int16,
    associative,
    brute_center,
    brute_is_simple,
    brute_normal_closure,
    brute_prime_order_subgroups,
    brute_totient,
    cayley_file_text,
    cyclic_sylow_reference,
    find_nonassociative_loop,
    fixed_point_closure,
    orders_multiset,
    reference_table,
    swap_intercalate,
    table_of,
    totient,
    witness_breaks_law,
)


# -- cyclic groups -------------------------------------------------------------


def test_cyclic_trivial():
    g = GroupSpec.cyclic(1).realize()
    assert g.order == 1
    assert g.orders == (1,)


def test_cyclic_orders_follow_gcd():
    g = GroupSpec.cyclic(6).realize()
    assert g.orders[1] == 6
    assert g.orders[3] == 2
    g12 = GroupSpec.cyclic(12).realize()
    assert g12.orders[8] == 3
    for i in range(1, 12):
        assert g12.orders[i] == 12 // math.gcd(12, i)


def test_cyclic_bounds():
    with pytest.raises(GroupParameterError):
        GroupSpec.cyclic(0)
    with pytest.raises(GroupSizeError):
        GroupSpec.cyclic(513).realize()
    assert GroupSpec.cyclic(513).realize(max_order=1024).order == 513


# -- direct products -------------------------------------------------------------


def test_klein_four_orders():
    g = parse_spec("product:cyclic:2,cyclic:2").realize()
    assert g.order == 4
    assert sorted(g.orders) == [1, 2, 2, 2]


def test_product_order_is_lcm():
    g = parse_spec("product:cyclic:2,cyclic:3").realize()
    assert 6 in g.orders
    for a in range(2):
        for b in range(3):
            idx = a * 3 + b
            assert g.orders[idx] == math.lcm(
                2 // math.gcd(2, a) if a else 1, 3 // math.gcd(3, b) if b else 1
            )


def test_product_with_trivial_is_same_table():
    g = GroupSpec.cyclic(5).realize()
    prod = GroupSpec.product([GroupSpec.cyclic(1), g.spec]).realize()
    assert np.array_equal(prod.table, g.table)


def test_product_overflow():
    with pytest.raises(GroupSizeError):
        parse_spec("product:cyclic:32,cyclic:32").realize()


def test_int16_limit_overrides_a_larger_cap():
    # int16 tables index at most 2**15 elements; each check raises before a
    # table is allocated, so none of these builds one
    assert groups_module.table_cap(10**6) == groups_module.MAX_TABLE_ORDER == 2**15
    parse_spec("product:cyclic:128,cyclic:256")._check_cap(10**6)
    with pytest.raises(GroupSizeError, match="product order 65536 exceeds the cap of 32768"):
        parse_spec("product:cyclic:256,cyclic:256")._check_cap(10**6)
    with pytest.raises(GroupSizeError, match="group order 40000 exceeds the cap of 32768"):
        parse_spec("cyclic:40000")._check_cap(10**6)
    # S8 has 40320 elements: the closure stops at the 32769th
    with pytest.raises(GroupSizeError, match="closure exceeds the cap of 32768"):
        groups_module.closure_table(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)],
                                    max_order=10**6)


def test_scaling_by_two_to_the_fifteen_stays_int16():
    # Z_1 x Z_32768 scales Z_1's table by 2**15, which int16 cannot hold as a scalar
    scaled = groups_module._scaled(groups_module.metacyclic_table(1, 1, 1, 0), 2**15)
    assert scaled.dtype == np.int16 and scaled.tolist() == [[0]]
    scaled = groups_module._scaled(groups_module.metacyclic_table(4, 1, 1, 0), 8)
    assert scaled.dtype == np.int16
    assert scaled.tolist() == (8 * reference_table("cyclic", (4,))).tolist()


def test_windows_at_the_int16_cap_do_not_wrap():
    # Z_32768's table would take 2 GiB: check the runs and their windows, which
    # are views, row and column at a time
    n = groups_module.MAX_TABLE_ORDER
    run = groups_module._residues(n)
    assert run.dtype == np.int16 and run.tolist() == list(range(n)) * 2
    idx = np.arange(n)
    forward = groups_module._window(run, n, 0, 1)  # (i + j) mod n, Z_n's table
    reverse = groups_module._window(run, n, n, -1)  # (i - j) mod n
    for window in (forward, reverse):  # overlapping rows: never C-contiguous, so
        with pytest.raises(AssertionError):  # a group wrapping one fails the helper
            assert_frozen_int16(window, "window")
    for i in (0, 1, n // 2, n - 1):
        assert np.array_equal(forward[i], (i + idx) % n)
        assert np.array_equal(forward[:, i], (idx + i) % n)
        assert np.array_equal(reverse[i], (i - idx) % n)
        assert np.array_equal(reverse[:, i], (idx - i) % n)
    # dicyclic's largest run: Z_16384 three times, read back from 3m = 24576
    m = n // 4
    run3 = groups_module._residues(2 * m, 3)
    assert run3.tolist() == list(range(2 * m)) * 3
    shifted = groups_module._window(run3, 2 * m, 3 * m, -1)  # (i - j + m) mod 2m
    for i in (0, 1, m, 2 * m - 1):
        assert np.array_equal(shifted[i], (i - idx[:2 * m] + m) % (2 * m))
        assert np.array_equal(shifted[:, i], (idx[:2 * m] - i + m) % (2 * m))


@pytest.mark.parametrize("text", ["dihedral:16384", "dicyclic:8192"])
def test_blocks_at_the_int16_cap_do_not_wrap(text):
    # the blocks metacyclic_table adds its shifts to, for the presentations
    # with n >= 2 at the int16 cap (n = 1, Z_32768, is the window above):
    # dicyclic:8192 reads its falling window from m + t = 24576, row and
    # column at a time
    spec = parse_spec(text)
    m, n, k, t = _INT_FAMILIES[spec.family].presentation(*spec.params)
    assert m * n == groups_module.MAX_TABLE_ORDER
    run = groups_module._residues(m, 3)
    assert run.tolist() == list(range(m)) * 3
    idx = np.arange(m)
    for j1 in sorted({0, 1, n - 1}):
        c = pow(k, j1, m)
        for start in sorted({0, t}):
            block = groups_module._block(run, m, c, start)
            for i in (0, 1, m // 2, m - 1):
                assert np.array_equal(block[i], (i + c * idx + start) % m)
                assert np.array_equal(block[:, i], (idx + c * i + start) % m)


@pytest.mark.parametrize("text", ["cyclic:1", "cyclic:2", "cyclic:9", "metacyclic:1:1:1",
                                  "metacyclic:7:1:1", "metacyclic:8:2:3", "metacyclic:9:3:4",
                                  "dihedral:2", "dihedral:5", "dicyclic:2", "dicyclic:3",
                                  "product:cyclic:1,cyclic:4", "product:cyclic:4,cyclic:1",
                                  "product:cyclic:3,cyclic:5", "product:cyclic:5,cyclic:3",
                                  "perm:3:(0 1),(0 1 2)"])
def test_edge_tables_are_frozen_and_match_reference(text):
    # one-element blocks, trivial factors and both product forms; a window is
    # not C-contiguous, so a builder that let one through fails the frozen check
    _assert_reference_table(parse_spec(text))


@pytest.mark.parametrize("text, bound", [
    ("cyclic:4096", 1.05),
    ("dihedral:1024", 1.3),
    ("dicyclic:1024", 1.3),
    ("metacyclic:2048:2:1023", 1.3),  # SD4096: a gathered block per j1
    ("metacyclic:512:8:449", 1.3),
    ("product:" + ",".join(["cyclic:2"] * 12), 1.5),
    ("product:cyclic:2048,cyclic:2", 1.5),
    ("product:cyclic:2,cyclic:2048", 1.5),
    ("product:cyclic:64,cyclic:64", 1.5),
    ("perm:7:(0 1 2 3 4 5 6),(0 1)", 1.3),  # S7, 5040 elements
])
def test_realize_peak_stays_near_the_table(text, bound):
    # each builder writes its table once; what else realize holds at its peak
    # (factor tables, a gathered block, the closure's elements, the walks)
    # stays a fraction of it
    spec = parse_spec(text)
    tracemalloc.start()
    try:
        group = spec.realize(max_order=8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order in range(2048, 5041)
    assert peak <= bound * group.table.nbytes, (text, peak / group.table.nbytes)


# -- dicyclic groups -------------------------------------------------------------


def test_q8_has_unique_involution():
    q8 = GroupSpec.dicyclic(2).realize()
    assert q8.order == 8
    assert orders_multiset(q8).count(2) == 1


def test_dicyclic_defining_relation():
    # b^2 = a^m: with pairs (i, j) at index j*2m + i, b = (0, 1)
    for m in (2, 3, 4):
        g = GroupSpec.dicyclic(m).realize()
        b = 2 * m
        assert g.table[b, b] == m


def test_q16_nonabelian():
    q16 = GroupSpec.dicyclic(4).realize()
    assert q16.order == 16
    table = table_of(q16)
    assert any(
        table[a][b] != table[b][a] for a in range(16) for b in range(16)
    )


def test_dicyclic_bounds():
    with pytest.raises(GroupParameterError):
        GroupSpec.dicyclic(1)


# -- metacyclic groups ------------------------------------------------------------


def test_metacyclic_s3():
    g = GroupSpec.metacyclic(3, 2, 2).realize()
    assert not g.is_abelian()
    assert orders_multiset(g) == [1, 2, 2, 2, 3, 3]


def test_metacyclic_semidihedral_16():
    g = GroupSpec.metacyclic(8, 2, 3).realize()
    assert g.order == 16
    assert not g.is_abelian()
    assert orders_multiset(g).count(8) == 4
    assert orders_multiset(g).count(2) > 1


def test_metacyclic_degenerate_is_cyclic():
    g = GroupSpec.metacyclic(5, 1, 1).realize()
    assert np.array_equal(g.table, GroupSpec.cyclic(5).realize().table)


def test_metacyclic_rejects_bad_parameters():
    with pytest.raises(GroupParameterError):
        GroupSpec.metacyclic(5, 2, 2)  # 2^2 = 4 != 1 mod 5
    with pytest.raises(GroupParameterError):
        GroupSpec.metacyclic(6, 2, 3)  # gcd(3, 6) != 1


def test_dihedral_is_metacyclic_special_case():
    d4 = GroupSpec.dihedral(4).realize()
    assert np.array_equal(d4.table, GroupSpec.metacyclic(4, 2, 3).realize().table)
    assert orders_multiset(d4) == [1, 2, 2, 2, 2, 2, 4, 4]


# -- permutation closures ----------------------------------------------------------


def test_closure_s3():
    g = GroupSpec.perm(3, [(1, 0, 2), (1, 2, 0)]).realize()
    assert g.order == 6


def test_closure_single_four_cycle():
    g = GroupSpec.perm(4, [(1, 2, 3, 0)]).realize()
    assert g.order == 4


def test_closure_a5_matches_fixed_point_oracle():
    gens = [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]
    assert len(fixed_point_closure(5, gens)) == 60
    g = GroupSpec.perm(5, gens).realize()
    assert g.order == 60


def test_closure_identity_first():
    g = GroupSpec.perm(3, [(1, 2, 0)]).realize()
    assert g.orders[0] == 1


def test_closure_rejects_non_permutation():
    with pytest.raises(GroupParameterError):
        GroupSpec.perm(3, [(0, 0, 1)])


def test_closure_size_cap():
    with pytest.raises(GroupSizeError):
        GroupSpec.perm(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]).realize(max_order=30)


# -- built tables against the entry-by-entry reference ------------------------------


def _assert_reference_table(spec):
    table = spec.realize().table
    assert_frozen_int16(table, spec.serialize())
    assert np.array_equal(table, reference_table(spec.family, spec.params)), spec.serialize()


def test_roster_tables_match_reference():
    for spec in roster_generate(512) + CHECKS_BY_ID["T3.1"].roster(512):
        _assert_reference_table(spec)


# 80 drawn specs per test in tier-1; the ci profile (conftest.py) draws more
REFERENCE_TABLES = settings(max_examples=max(80, settings.default.max_examples), deadline=None)


@st.composite
def _metacyclic_params(draw, max_order=512):
    m = draw(st.integers(1, min(64, max_order)))
    n = draw(st.integers(1, max(1, min(16, max_order // m))))
    valid = [k for k in range(1, 2 * m + 1) if math.gcd(k, m) == 1 and pow(k, n, m) == 1 % m]
    return m, n, draw(st.sampled_from(valid))  # k = 1 is always valid


@REFERENCE_TABLES
@given(_metacyclic_params())
def test_metacyclic_tables_match_reference(params):
    _assert_reference_table(GroupSpec.metacyclic(*params))


@st.composite
def _presentations(draw):
    """(m, n, k, t) with gcd(k, m) = 1, k^n = 1 and t(k - 1) = 0 (mod m),
    0 <= t < m: ``metacyclic_table``'s whole precondition, with the t != 0
    that among the specs only the dicyclic family reaches."""
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, max(1, min(8, 96 // m))))
    k = draw(st.sampled_from([k for k in range(1, m + 1)
                              if math.gcd(k, m) == 1 and pow(k, n, m) == 1 % m]))
    t = draw(st.sampled_from([t for t in range(m) if t * (k - 1) % m == 0]))
    return m, n, k, t


def _presentation_formula(m, n, k, t):
    """(i1, j1)(i2, j2) = (i1 + k^j1 i2 + t [j1 + j2 >= n], (j1 + j2) mod n),
    i mod m, on pairs at j*m + i, entry by entry."""
    idx = np.arange(m * n)
    i, j = idx % m, idx // m
    kpow = np.array([pow(k, e, m) for e in range(n)])
    wrap = j[:, None] + j[None, :]
    return wrap % n * m + (i[:, None] + kpow[j][:, None] * i[None, :] + t * (wrap >= n)) % m


@REFERENCE_TABLES
@given(_presentations())
def test_drawn_presentation_tables_match_their_formula(params):
    table = groups_module.metacyclic_table(*params)
    assert table.dtype == np.int16 and table.flags.c_contiguous
    assert np.array_equal(table, _presentation_formula(*params)), params
    # a group with identity 0: associative, and 0 is a two-sided identity
    idx = np.arange(table.shape[0])
    assert np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx), params
    assert np.array_equal(table[table], table[:, table]), params


@pytest.mark.parametrize("params", [(1, 512, 1, 0), (2, 256, 1, 0), (3, 170, 2, 0),
                                    (5, 100, 2, 0), (4, 64, 1, 2), (2, 2, 1, 1)])
def test_long_presentations_build_a_block_or_two_per_row_block(params, monkeypatch):
    # O(n) numpy calls per table, not one per (j1, j2) block: metacyclic:1:512:1
    # would take 262,144 of those; t != 0 splits a row block in two from j1 = 1 on
    block, calls = groups_module._block, []
    monkeypatch.setattr(groups_module, "_block", lambda *a: calls.append(a) or block(*a))
    table = groups_module.metacyclic_table(*params)
    assert np.array_equal(table, _presentation_formula(*params)), params
    _, n, _, t = params
    assert len(calls) == (2 * n - 1 if t else n)


def _factor_specs(cap: int):
    """Specs from every family whose order is at most cap."""
    options = [st.integers(1, min(cap, 16)).map(GroupSpec.cyclic)]
    if cap >= 4:
        options.append(st.integers(2, min(cap // 2, 8)).map(GroupSpec.dihedral))
    if cap >= 8:
        options.append(st.integers(2, min(cap // 4, 6)).map(GroupSpec.dicyclic))
    options.append(_metacyclic_params(max_order=min(cap, 40)).map(
        lambda p: GroupSpec.metacyclic(*p)))
    degrees = [d for d in range(1, 6) if math.factorial(d) <= cap]
    options.append(st.sampled_from(degrees).flatmap(lambda d: st.lists(
        st.permutations(range(d)), min_size=1, max_size=3,
    ).map(lambda gens: GroupSpec.perm(d, gens))))
    return st.one_of(options)


@REFERENCE_TABLES
@given(st.data())
def test_product_tables_match_reference(data):
    factors, order = [], 1
    for _ in range(data.draw(st.integers(1, 4))):
        factor = data.draw(_factor_specs(512 // order))
        factors.append(factor)
        order *= factor.realize().order
    _assert_reference_table(GroupSpec.product(factors))


# -- element orders and totient ------------------------------------------------------


def test_element_order_identity():
    for g in (GroupSpec.cyclic(7).realize(), GroupSpec.dicyclic(3).realize()):
        assert g.orders[0] == 1


def test_element_order_examples():
    assert GroupSpec.cyclic(12).realize().orders[8] == 3
    assert GroupSpec.dicyclic(2).realize().orders[1] == 4  # a = (1, 0)


def test_element_order_range_error():
    # caller-supplied indices are checked: numpy would wrap a negative one
    g = GroupSpec.cyclic(4).realize()
    for bad in (4, -1):
        with pytest.raises(IndexError):
            normal_closure(g, bad)
        with pytest.raises(IndexError):
            adjacent_oracle(g, 0, bad)


# the totient the partition-identity tests use, against its definition


def test_totient_examples():
    assert totient(1) == 1
    assert totient(6) == brute_totient(6) == 2
    assert totient(9) == brute_totient(9) == 6


@given(st.integers(min_value=1, max_value=2000))
def test_totient_matches_brute_force(n):
    assert totient(n) == brute_totient(n)


# -- center, normal closure, simplicity ------------------------------------------------


def test_center_abelian_is_whole_group():
    g = GroupSpec.cyclic(9).realize()
    assert g.center() == tuple(range(9))


def test_center_s3_trivial():
    s3 = GroupSpec.metacyclic(3, 2, 2).realize()
    assert set(s3.center()) == brute_center(s3) == {0}


def test_center_q8():
    q8 = GroupSpec.dicyclic(2).realize()
    assert set(q8.center()) == brute_center(q8)
    assert len(q8.center()) == 2


def test_normal_closure_identity():
    g = GroupSpec.dihedral(5).realize()
    assert normal_closure(g, 0) == frozenset({0})


def test_normal_closure_s4_double_transposition():
    s4 = GroupSpec.perm(4, [(1, 0, 2, 3), (1, 2, 3, 0)]).realize()
    # double transpositions are exactly the squares of 4-cycles
    four_cycle = next(x for x in range(24) if s4.orders[x] == 4)
    double = int(s4.table[four_cycle, four_cycle])
    assert s4.orders[double] == 2
    assert len(normal_closure(s4, double)) == 4


def test_normal_closure_a5_exhausts():
    a5 = GroupSpec.perm(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]).realize()
    for x in (1, 7, 30):
        assert len(normal_closure(a5, x)) == 60


def test_normal_closure_matches_all_pairs_oracle(roster_groups_48):
    for group in roster_groups_48:
        for x in range(group.order):
            assert normal_closure(group, x) == brute_normal_closure(group, x)


def test_is_simple_examples():
    assert is_simple(GroupSpec.cyclic(5).realize()) is True
    s4 = GroupSpec.perm(4, [(1, 0, 2, 3), (1, 2, 3, 0)]).realize()
    assert is_simple(s4) is False
    a5 = GroupSpec.perm(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]).realize()
    assert is_simple(a5) is True


A6 = GroupSpec.perm(6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)])  # (0 1 2), (1 2 3 4 5)


def test_is_simple_matches_all_elements_oracle(roster_groups_64):
    groups = [g for g in roster_groups_64 if not g.is_abelian()]
    groups.append(A6.realize())  # A5 is in the roster
    simple = []
    for g in groups:
        assert is_simple(g) == brute_is_simple(g), g.spec.serialize()
        if is_simple(g):
            simple.append(g.order)
    assert simple == [60, 360]


@pytest.mark.parametrize("text", [
    "dihedral:3", "dihedral:5", "dihedral:9", "dihedral:15", "dihedral:21",
    "metacyclic:7:3:2",
])
def test_is_simple_rejects_a_unique_prime_order_subgroup_before_any_closure(text, monkeypatch):
    # a unique subgroup of prime order p < |G| is characteristic, so normal
    # and proper: D_m for odd m has one of each order p | m, Z_7 x| Z_3 one of
    # order 7
    def no_closure(group, x):
        raise AssertionError("normal_closure called")

    group = parse_spec(text).realize()
    monkeypatch.setattr(groups_module, "normal_closure", no_closure)
    assert 1 in prime_subgroup_counts(group).values()
    assert is_simple(group) is False


@pytest.mark.parametrize("spec, simple", [
    (GroupSpec.perm(4, [(1, 2, 0, 3), (0, 2, 3, 1)]), False),  # A4
    (GroupSpec.perm(4, [(1, 0, 2, 3), (1, 2, 3, 0)]), False),  # S4
    (GroupSpec.perm(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]), True),  # A5
    (parse_spec("product:cyclic:2,cyclic:2"), False),
    (GroupSpec.cyclic(5), True),  # prime order: its one subgroup of order 5 is G
])
def test_is_simple_without_a_proper_unique_prime_order_subgroup_takes_closures(
        spec, simple, monkeypatch):
    closed = []
    closure = groups_module.normal_closure
    monkeypatch.setattr(groups_module, "normal_closure",
                        lambda group, x: closed.append(x) or closure(group, x))
    group = spec.realize()
    assert is_simple(group) is simple
    assert simple == brute_is_simple(group)
    assert closed


def test_is_simple_trivial_group_errors():
    with pytest.raises(GroupParameterError):
        is_simple(GroupSpec.cyclic(1).realize())


# -- prime-order subgroups ----------------------------------------------------------


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(2) == {2: 1}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(2 ** 15) == {2: 15}
    assert prime_factors(97 * 101) == {97: 1, 101: 1}
    for n in (0, -4):
        with pytest.raises(GroupParameterError, match=f"cannot factor {n}"):
            prime_factors(n)


def test_prime_order_subgroup_counts():
    assert prime_subgroup_counts(GroupSpec.dicyclic(2).realize()) == {2: 1}
    assert prime_subgroup_counts(GroupSpec.dihedral(4).realize()) == {2: 5}
    assert prime_subgroup_counts(GroupSpec.cyclic(9).realize()) == {3: 1}
    assert prime_subgroup_counts(GroupSpec.dihedral(3).realize()) == {2: 3, 3: 1}
    assert prime_subgroup_counts(GroupSpec.cyclic(1).realize()) == {}


def test_unique_minimal_subgroup():
    # T5.1 applies to the p-groups, and its group side is a unique subgroup of prime order
    t51 = CHECKS_BY_ID["T5.1"]
    q16 = build_bundle(GroupSpec.dicyclic(4).realize())
    assert t51.applies(q16) and t51.group_side(q16) is True
    d16 = build_bundle(GroupSpec.dihedral(8).realize())
    assert t51.applies(d16) and t51.group_side(d16) is False
    trivial = build_bundle(GroupSpec.cyclic(1).realize())
    assert not t51.applies(trivial) and t51.group_side(trivial) is False


def test_prime_order_subgroups_match_subset_enumeration(roster_groups_48):
    # every p-group roster member: brute-force every candidate subset of size p
    t51 = CHECKS_BY_ID["T5.1"]
    checked = 0
    for g in roster_groups_48:
        if len(prime_factors(g.order)) == 1:
            expected = brute_prime_order_subgroups(g)
            assert sum(prime_subgroup_counts(g).values()) == len(expected), g.spec.serialize()
            bundle = build_bundle(g)
            assert t51.applies(bundle)
            assert t51.group_side(bundle) == (len(expected) == 1), g.spec.serialize()
            checked += 1
    assert checked >= 20


# -- abelian shapes -----------------------------------------------------------------


def counts_of_shape(factors: tuple[int, ...]) -> dict[int, int]:
    """Subgroups of order p in the abelian group with these primary factors:
    r factors that are powers of p give (p^r - 1) / (p - 1)."""
    ranks: dict[int, int] = {}
    for q in factors:
        p = next(d for d in range(2, q + 1) if q % d == 0)
        ranks[p] = ranks.get(p, 0) + 1
    return {p: (p**r - 1) // (p - 1) for p, r in sorted(ranks.items())}


def test_abelian_shape_examples():
    # some Sylow subgroup is cyclic iff some prime owns one primary factor
    group_side = CHECKS_BY_ID["T3.2"].group_side
    for text, factors, cyclic_sylow in (
        ("product:cyclic:2,cyclic:2,cyclic:3", (2, 2, 3), True),
        ("product:cyclic:2,cyclic:2,cyclic:3,cyclic:3", (2, 2, 3, 3), False),
        ("cyclic:30", (2, 3, 5), True),
    ):
        g = parse_spec(text).realize()
        assert abelian_shape_reference(g) == factors, text
        assert prime_subgroup_counts(g) == counts_of_shape(factors), text
        assert group_side(build_bundle(g)) is cyclic_sylow, text


def test_abelian_shape_mixed_powers():
    g = parse_spec("product:cyclic:4,cyclic:2,cyclic:9").realize()
    assert abelian_shape_reference(g) == (2, 4, 9)
    assert prime_subgroup_counts(g) == {2: 3, 3: 1}
    assert CHECKS_BY_ID["T3.2"].group_side(build_bundle(g)) is True


def test_abelian_shape_matches_reference(roster_groups_64):
    group_side = CHECKS_BY_ID["T3.2"].group_side
    groups = [g for g in roster_groups_64 if g.is_abelian() and g.order >= 2]
    groups += [GroupSpec.product([GroupSpec.cyclic(q) for q in shape]).realize()
               for shape in ((2,) * 9, (2, 4, 8, 8), (3, 9, 9), (4, 2, 3, 3, 5))]
    for g in groups:
        factors = abelian_shape_reference(g)
        assert prime_subgroup_counts(g) == counts_of_shape(factors), g
        assert group_side(build_bundle(g)) is cyclic_sylow_reference(factors), g


def test_abelian_shape_rejects_nonabelian():
    # S3 has one subgroup of order 3, yet its cone is not T3.2's to read:
    # the Sylow reading of the counts is stated for abelian groups only
    s3 = GroupSpec.dihedral(3).realize()
    assert prime_subgroup_counts(s3) == {2: 3, 3: 1}
    assert not CHECKS_BY_ID["T3.2"].applies(build_bundle(s3))


def test_abelian_shape_of_ingested_table_matches_spec_free_computation():
    # the counts must come from the table itself, not the construction recipe
    z12 = ingest_cayley(cayley_file_text(table_of(GroupSpec.cyclic(12).realize())))
    assert z12.spec is None
    assert prime_subgroup_counts(z12) == counts_of_shape((3, 4)) == {2: 1, 3: 1}
    assert CHECKS_BY_ID["T3.2"].group_side(build_bundle(z12)) is True


# -- predicates ---------------------------------------------------------------------


def test_is_abelian_and_p_group():
    # "a p-group" is an order with one prime factor
    z6 = GroupSpec.cyclic(6).realize()
    assert z6.is_abelian() and len(prime_factors(z6.order)) == 2
    q8 = GroupSpec.dicyclic(2).realize()
    assert not q8.is_abelian() and prime_factors(q8.order) == {2: 3}
    triv = GroupSpec.cyclic(1).realize()
    assert triv.is_abelian() and prime_factors(triv.order) == {}


def test_is_abelian_and_center_match_brute_center(roster_groups_64):
    for g in roster_groups_64:
        center = brute_center(g)
        assert g.center() == tuple(sorted(center)), g.spec.serialize()
        assert all(type(z) is int for z in g.center())
        assert g.is_abelian() == (len(center) == g.order), g.spec.serialize()


def t33_quaternion(group) -> bool:
    """T3.3's filter and group side together: a non-abelian p-group with one
    subgroup of order 2."""
    bundle, check = build_bundle(group), CHECKS_BY_ID["T3.3"]
    return check.applies(bundle) and check.group_side(bundle)


def test_generalized_quaternion_detection():
    assert t33_quaternion(GroupSpec.dicyclic(4).realize()) is True
    assert t33_quaternion(GroupSpec.dihedral(8).realize()) is False
    assert t33_quaternion(GroupSpec.cyclic(8).realize()) is False


@pytest.mark.parametrize("text, quaternion", [
    ("dicyclic:2", True), ("dicyclic:4", True), ("dicyclic:8", True),
    # Z4 and Z8 have one involution each: only their being abelian rules them out
    ("cyclic:4", False), ("cyclic:8", False),
    ("dicyclic:3", False), ("dihedral:4", False), ("metacyclic:8:2:3", False),
])
def test_is_generalized_quaternion(text, quaternion):
    group = parse_spec(text).realize()
    assert t33_quaternion(group) is quaternion
    if text.startswith("cyclic"):
        # the group side alone holds: T3.3's filter drops them as abelian
        assert CHECKS_BY_ID["T3.3"].group_side(build_bundle(group)) is True


def test_generalized_quaternion_across_families(roster_groups_48):
    for k in range(3, 7):
        assert t33_quaternion(GroupSpec.dicyclic(2 ** (k - 2)).realize()) is True
    for g in (
        GroupSpec.metacyclic(16, 2, 7).realize(),     # semidihedral 32
        parse_spec("product:cyclic:2,cyclic:8").realize(),
    ):
        assert t33_quaternion(g) is False
    # false on every dihedral, semidihedral, abelian, and odd-order roster member
    for g in roster_groups_48:
        family = g.spec.family
        if (
            family == "dihedral"
            or g.is_abelian()
            or g.order % 2 == 1
            or (family == "metacyclic" and g.spec.params[1] == 2)
        ):
            assert t33_quaternion(g) is False, g.spec.serialize()
    # among the non-abelian 2-groups, the group side holds exactly on the dicyclic ones
    group_side = CHECKS_BY_ID["T3.3"].group_side
    two_groups = [g for g in roster_groups_48
                  if set(prime_factors(g.order)) == {2} and not g.is_abelian()]
    assert {g.spec.family for g in two_groups} == {"dihedral", "dicyclic", "metacyclic"}
    for g in two_groups:
        assert group_side(build_bundle(g)) is (g.spec.family == "dicyclic"), g.spec.serialize()


# -- validation ---------------------------------------------------------------------


def validate(table) -> np.ndarray:
    """``table`` through the one validation path: as Cayley text, read by ``cayley_table``."""
    return cayley_table(cayley_file_text(table))


def test_constructed_roster_groups_validate(roster_groups_48):
    # constructors are trusted; validate their tables as untrusted input and check Lagrange
    for group in roster_groups_48:
        assert np.array_equal(validate(table_of(group)), group.table), group
        assert all(group.order % o == 0 for o in group.orders)


def test_ingested_table_is_frozen_int16():
    # read straight into int16, the identity renumbered in place
    for table in ([[0, 1], [1, 0]], [[0]], table_of(GroupSpec.dicyclic(3).realize())):
        group = ingest_cayley(cayley_file_text(table))
        assert_frozen_int16(group.table, repr(group))
        assert group.table.tolist() == table


def test_validation_catches_broken_tables():
    with pytest.raises(CayleyValidationError) as exc:
        validate([[0, 1], [1, 1]])
    assert exc.value.law == "latin-square"
    # x*y = x - y mod 3: Latin, but 0 is only a right identity
    with pytest.raises(CayleyValidationError) as exc:
        validate([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    assert exc.value.law == "identity"
    with pytest.raises(CayleyValidationError) as exc:
        validate([[0, 1], [1, 2]])
    assert exc.value.law == "closure"


def test_walk_rejects_powers_that_never_reach_the_identity():
    # the constructor trusts its table; element 1 is walked along row 1,
    # which sends 1 -> 2 -> 1, never to 0
    with pytest.raises(CayleyValidationError) as exc:
        FiniteGroup(np.array([[0, 1, 2], [1, 2, 1], [2, 0, 0]], dtype=np.int64))
    assert exc.value.law == "order"
    assert "element 1 " in str(exc.value)


def test_latin_square_names_first_offending_line():
    # 0 is the identity and every row is a permutation, but columns 1 and 2
    # repeat: name column 1
    with pytest.raises(CayleyValidationError) as exc:
        validate([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert exc.value.law == "latin-square"
    assert "column 1 " in str(exc.value)
    # row 1 and column 1 both repeat: rows are checked first
    with pytest.raises(CayleyValidationError) as exc:
        validate([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    assert exc.value.law == "latin-square"
    assert "row 1 " in str(exc.value)
    # Z3 with its identity at 2 and file row 0 repeating 1: the line is named
    # as the file numbers it, not as renumbering the identity to 0 would
    with pytest.raises(CayleyValidationError) as exc:
        validate([[1, 1, 0], [2, 0, 1], [0, 1, 2]])
    assert exc.value.law == "latin-square"
    assert str(exc.value) == "row 0 repeats an entry"


def test_swapped_intercalate_rejected_exactly():
    table = table_of(GroupSpec.cyclic(300).realize())
    assert len(validate(table)) == 300
    bad = swap_intercalate(table, 1, 2, 150)  # still a Latin square with identity 0
    with pytest.raises(CayleyValidationError) as exc:
        validate(bad)
    assert exc.value.law == "associativity"
    assert witness_breaks_law(bad, "associativity", str(exc.value))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_generator_is_checked(k):
    # loop x Z_k with the Z_k coordinate varying fastest: the first generator,
    # index 1 = (e, 1), lies in the associative part Z_k, so only a later
    # generator from the non-associative loop can expose the table
    loop = find_nonassociative_loop(5)
    n = 5 * k
    table = [
        [loop[i // k][j // k] * k + (i + j) % k for j in range(n)] for i in range(n)
    ]
    with pytest.raises(CayleyValidationError) as exc:
        validate(table)
    assert exc.value.law == "associativity"
    assert witness_breaks_law(table, "associativity", str(exc.value))


@pytest.mark.parametrize("e", [1, 2])
def test_associativity_witness_holds_in_the_files_labels(e):
    # the non-associative loop with its identity moved from 0 to e
    loop = find_nonassociative_loop(5)
    swap = {0: e, e: 0}
    label = [swap.get(x, x) for x in range(5)]
    table = [[0] * 5 for _ in range(5)]
    for x in range(5):
        for y in range(5):
            table[label[x]][label[y]] = label[loop[x][y]]
    with pytest.raises(CayleyValidationError) as exc:
        validate(table)
    assert exc.value.law == "associativity"
    assert witness_breaks_law(table, "associativity", str(exc.value))


_ROSTER_64 = roster_generate(64)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_validation_matches_associativity_oracle(data):
    table = table_of(data.draw(st.sampled_from(_ROSTER_64)).realize())
    n = len(table)
    involutions = [t for t in range(1, n) if table[t][t] == 0]
    if n > 2 and involutions and data.draw(st.booleans()):
        t = data.draw(st.sampled_from(involutions))
        away = st.sampled_from([x for x in range(1, n) if x != t])
        table = swap_intercalate(table, data.draw(away), data.draw(away), t)
    try:
        validate(table)
    except CayleyValidationError as exc:
        assert exc.law == "associativity"
        assert not associative(table)
        assert witness_breaks_law(table, "associativity", str(exc))
    else:
        assert associative(table)


def test_metacyclic_matches_permutation_dihedral():
    # same abstract group built two ways: equal order multisets
    for m in (3, 4, 5, 6):
        meta = GroupSpec.dihedral(m).realize()
        rot = tuple((i + 1) % m for i in range(m))
        ref = tuple((m - i) % m for i in range(m))
        perm = GroupSpec.perm(m, [rot, ref]).realize()
        assert orders_multiset(meta) == orders_multiset(perm)


def test_one_walk_per_cyclic_subgroup():
    z512 = GroupSpec.cyclic(512).realize()
    assert len(z512.walks) == 10  # one cyclic subgroup per divisor of 512
    z2_9 = GroupSpec.product([GroupSpec.cyclic(2)] * 9).realize()
    assert len(z2_9.walks) == 512  # the identity plus 511 subgroups of order 2
    for g in (z512, z2_9, GroupSpec.dihedral(12).realize()):
        generated = []
        for walk in g.walks:
            powers = [walk[0]]
            while powers[-1] != 0:
                powers.append(int(g.table[powers[-1], walk[0]]))
            assert walk == tuple(powers)
            generated += [x for x in walk if g.orders[x] == len(walk)]
        # each element generates exactly one walk, of its own order
        assert sorted(generated) == list(range(g.order))


@pytest.mark.parametrize("text", [
    "product:cyclic:2,cyclic:2,cyclic:128",
    "product:dihedral:4,cyclic:3",
    "product:perm:3:(0 1),(0 1 2),cyclic:5",
    "product:file:tests/data/z6_identity_at_3.cayley,cyclic:2",
])
def test_product_walks_once(monkeypatch, text):
    # factors contribute tables only: the product is the one group walked
    calls = []
    walk = groups_module._walk_cyclic_subgroups
    monkeypatch.setattr(groups_module, "_walk_cyclic_subgroups",
                        lambda table: calls.append(len(table)) or walk(table))
    group = parse_spec(text).realize()
    assert calls == [group.order]


def test_roster_invariants_additional(roster_groups_48):
    for group in roster_groups_48:
        assert group.orders[0] == 1
        assert (set(group.center()) == set(range(group.order))) == group.is_abelian()
