"""Group spec grammar: parsing, serialization round-trips, realization."""

import math

import pytest
from hypothesis import given, strategies as st

from epgraph import GroupParameterError, GroupSpec, SpecSyntaxError, parse_spec
from epgraph.specs import cycle_notation, parse_generator
from epgraph.theorems import CHECKS_BY_ID, roster_generate


ROUND_TRIP_CASES = [
    "cyclic:6",
    "cyclic:1",
    "product:cyclic:2,cyclic:2",
    "product:cyclic:2,cyclic:4,cyclic:9",
    "dihedral:4",
    "dicyclic:2",
    "metacyclic:8:2:3",
    "perm:3:(0 1),(0 1 2)",
    "perm:4:(0 1)(2 3)",
    "perm:5:(0 1 2),(0 1 2 3 4)",
    "file:tests/data/z6_identity_at_3.cayley",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_serialize_round_trip(text):
    spec = parse_spec(text)
    assert spec.serialize() == text
    assert parse_spec(spec.serialize()) == spec


def test_roster_round_trips():
    # every integer family's serialize and parse run through one generic
    # branch each, so the whole roster guards them, not only the cases above
    specs = list(dict.fromkeys(roster_generate(256) + CHECKS_BY_ID["T3.1"].roster(256)))
    assert len(specs) == 782
    for spec in specs:
        again = parse_spec(spec.serialize())
        assert again == spec and hash(again) == hash(spec), spec.serialize()
        if spec.known_order() is not None:
            assert spec.known_order() == spec.realize().order, spec.serialize()


def test_nested_products_flatten():
    spec = parse_spec("product:cyclic:2,product:cyclic:3,cyclic:5")
    assert spec.serialize() == "product:cyclic:2,cyclic:3,cyclic:5"
    assert len(spec.params) == 3
    # the prefixes drop in one linear match, not one call frame each
    deep = parse_spec("product:" * 100_000 + "cyclic:2")
    assert deep == GroupSpec.product([GroupSpec.cyclic(2)])


@st.composite
def _metacyclic_specs(draw):
    m, n = draw(st.integers(1, 64)), draw(st.integers(1, 16))
    valid = [k for k in range(1, 2 * m + 1) if math.gcd(k, m) == 1 and pow(k, n, m) == 1 % m]
    return GroupSpec.metacyclic(m, n, draw(st.sampled_from(valid)))  # k = 1 is always valid


def _file_spec(path: str):
    """GroupSpec.file(path), or None when it refuses the path, naming it. It
    refuses exactly the paths that the spec text ``file:PATH`` does not
    parse back to: the grammar ends a path at a comma and strips the
    whitespace that ends it."""
    try:
        named = parse_spec("file:" + path).params == (path,)
    except SpecSyntaxError:
        named = False
    try:
        spec = GroupSpec.file(path)
    except GroupParameterError as exc:
        assert not named and repr(path) in str(exc), (path, str(exc))
        return None
    assert named, path
    return spec


_FACTOR_SPECS = st.one_of(
    st.integers(1, 10**6).map(GroupSpec.cyclic),
    st.integers(2, 10**6).map(GroupSpec.dihedral),
    st.integers(2, 10**6).map(GroupSpec.dicyclic),
    _metacyclic_specs(),
    st.integers(1, 6).flatmap(lambda d: st.lists(
        st.permutations(range(d)), min_size=1, max_size=3,
    ).map(lambda gens: GroupSpec.perm(d, gens))),
    # any text, drawing commas and whitespace often
    st.text(st.characters() | st.sampled_from(", \t\r\n\x85\u3000"))
    .map(_file_spec).filter(lambda spec: spec is not None),
)


@given(st.one_of(_FACTOR_SPECS, st.lists(_FACTOR_SPECS, min_size=1, max_size=4).map(
    GroupSpec.product)))
def test_drawn_specs_round_trip(spec):
    assert parse_spec(spec.serialize()) == spec


def test_known_orders():
    assert parse_spec("cyclic:9").known_order() == 9
    assert parse_spec("product:cyclic:2,cyclic:6").known_order() == 12
    assert parse_spec("dihedral:7").known_order() == 14
    assert parse_spec("dicyclic:3").known_order() == 12
    assert parse_spec("metacyclic:8:2:3").known_order() == 16
    assert parse_spec("perm:3:(0 1)").known_order() is None


def test_display_names():
    assert parse_spec("cyclic:6").display() == "Z6"
    assert parse_spec("product:cyclic:2,cyclic:2,cyclic:3").display() == "Z2xZ2xZ3"
    assert parse_spec("dihedral:4").display() == "D4"
    assert parse_spec("dicyclic:2").display() == "Q8"
    assert parse_spec("dicyclic:3").display() == "Dic3"
    assert parse_spec("metacyclic:8:2:3").display() == "SD16"
    assert parse_spec("metacyclic:7:3:2").display() == "Meta(7,3,2)"


def test_realize_each_family():
    assert parse_spec("cyclic:6").realize().order == 6
    assert parse_spec("product:cyclic:2,cyclic:3").realize().order == 6
    assert parse_spec("dihedral:4").realize().order == 8
    assert parse_spec("dicyclic:2").realize().order == 8
    assert parse_spec("metacyclic:8:2:3").realize().order == 16
    assert parse_spec("perm:3:(0 1),(0 1 2)").realize().order == 6
    file_spec = parse_spec("file:tests/data/z6_identity_at_3.cayley")
    assert file_spec.realize().order == 6


def test_realize_attaches_spec():
    spec = parse_spec("cyclic:5")
    assert spec.realize().spec is spec


def test_parse_rejects_malformed():
    for bad in (
        "",
        "cyclic",
        "cyclic:x",
        "cyclic:0",
        "unknown:3",
        "metacyclic:8:2",
        "metacyclic:5:2:2",       # congruence fails
        "perm:3:",
        "perm:0:()",              # degree below 1
        "perm:3:(0 1",            # unbalanced
        "perm:3:(0 3)",           # out of range
        "perm:3:(0 1)(1 2)",      # repeated point
        "product:",
        "dihedral:1",
        "cyclic:2,cyclic:3",      # trailing content without product
        "cyclic:3,(0 1)",         # a generator after a non-perm factor
        # integers are ASCII decimals, not whatever int() or \d reads
        "cyclic:1_0",             # digit-grouping underscore
        "cyclic:\u0663",          # Arabic-Indic digit three
        "cyclic: +4",             # space and plus sign
        "cyclic:+4",
        "metacyclic:5:4:\uff12",  # fullwidth digit two
        "perm:4:(0 \u0663)",
        "perm:\u0664:(0 1)",
        "perm:4:(0\u00a01)",      # no-break space
    ):
        with pytest.raises(SpecSyntaxError):
            parse_spec(bad)


@pytest.mark.parametrize("value, kind", [(None, "NoneType"), (5, "int"), (b"cyclic:3", "bytes")])
def test_parse_names_a_non_str_spec_type(value, kind):
    with pytest.raises(SpecSyntaxError, match=f"group spec must be a str, got {kind}$"):
        parse_spec(value)


def test_negative_integer_keeps_its_law_message():
    with pytest.raises(SpecSyntaxError, match="cyclic order must be >= 1, got -3"):
        parse_spec("cyclic:-3")


def test_generator_parsing():
    assert parse_generator("(0 1 2)", 3) == (1, 2, 0)
    assert parse_generator("(0 1)(2 3)", 4) == (1, 0, 3, 2)
    assert parse_generator("()", 3) == (0, 1, 2)


def test_cycle_notation_canonical():
    assert cycle_notation((1, 2, 0)) == "(0 1 2)"
    assert cycle_notation((1, 0, 3, 2)) == "(0 1)(2 3)"
    assert cycle_notation((0, 1, 2)) == "()"


def test_spec_constructors_validate():
    with pytest.raises(GroupParameterError):
        GroupSpec.cyclic(0)
    with pytest.raises(GroupParameterError):
        GroupSpec.metacyclic(5, 2, 2)
    with pytest.raises(GroupParameterError):
        GroupSpec.perm(3, [(0, 0, 1)])
    with pytest.raises(GroupParameterError):
        GroupSpec.product([])


@pytest.mark.parametrize("family, params", [
    ("cyclic", (0,)),
    ("dihedral", (1,)),
    ("dicyclic", (1,)),
    ("metacyclic", (4, 2, 2)),
    ("metacyclic", (0, 2, 1)),
    ("perm", (3, ((0, 0, 1),))),
    ("product", ()),
    ("file", ("",)),
    # an integer family takes exactly its grammar's count of ints
    ("cyclic", (6, 7)),
    ("metacyclic", (4, 2)),
    ("dihedral", ()),
    ("cyclic", ("6",)),
    # so do perm, an int degree and a tuple of int tuples, and file, one str
    ("perm", ()),
    ("perm", (3,)),
    ("perm", (3, ((1, 0, 2),), 4)),
    ("perm", (3.0, ((1, 0, 2),))),
    ("perm", (3, [(1, 0, 2)])),
    ("perm", (3, ((1.0, 0, 2),))),
    ("file", ()),
    ("file", (5,)),
    ("file", ("a", "b")),
    # a product's factors are flat: GroupSpec.product flattens, and a raw
    # product factor would serialize to text that parses to another spec
    ("product", (GroupSpec.product([GroupSpec.cyclic(2), GroupSpec.cyclic(3)]),
                 GroupSpec.cyclic(5))),
    # a path that no spec text names: the grammar ends a path at a comma and
    # strips the whitespace that ends it
    ("file", ("a ",)),
    ("file", ("\r",)),
    ("file", ("a,b",)),
    # an unknown family, and a perm with no generators
    ("foo", ()),
    ("perm", (3, ())),
])
def test_raw_spec_checks_laws_when_made(family, params):
    # the laws and the parameter count live in GroupSpec itself, so a spec
    # made without the family-named classmethods is refused before realize
    # is reached
    with pytest.raises(GroupParameterError):
        GroupSpec(family, params)


def test_specs_hashable_and_equal():
    a = parse_spec("product:cyclic:2,cyclic:3")
    b = GroupSpec.product([GroupSpec.cyclic(2), GroupSpec.cyclic(3)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
