"""Cayley file parsing, identity renumbering, and law validation."""

from pathlib import Path

import pytest

from epgraph import (
    CayleyParseError,
    CayleyValidationError,
    GroupSizeError,
    ingest_cayley,
    make_cyclic,
    parse_cayley_text,
)

from helpers import cayley_file_text, find_nonassociative_loop

DATA = Path(__file__).parent / "data"


def test_ingest_z2():
    g = ingest_cayley("2\n0 1\n1 0\n")
    assert g.order == 2
    assert g.orders == (1, 2)


def test_comments_and_blank_lines():
    text = "# tiny group\n\n2\n0 1  # row for identity\n1 0\n"
    assert ingest_cayley(text).order == 2


def test_latin_violation_rejected():
    text = "3\n0 1 2\n1 1 0\n2 0 1\n"
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley(text)
    assert exc.value.law == "latin-square"


def test_identity_renumbered():
    text = (DATA / "z6_identity_at_3.cayley").read_text()
    g = ingest_cayley(text)
    assert g.orders[0] == 1
    assert sorted(g.orders) == sorted(make_cyclic(6).orders)


def test_no_identity_rejected():
    # x*y = x - y mod 3: Latin but only a right identity
    text = "3\n0 2 1\n1 0 2\n2 1 0\n"
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley(text)
    assert exc.value.law == "identity"


def test_nonassociative_loop_rejected():
    table = find_nonassociative_loop(5)
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley(cayley_file_text(table, comment="non-associative loop"))
    assert exc.value.law == "associativity"


def test_parse_errors():
    with pytest.raises(CayleyParseError):
        parse_cayley_text("")
    with pytest.raises(CayleyParseError):
        parse_cayley_text("2\n0 1\n")  # missing a row
    with pytest.raises(CayleyParseError):
        parse_cayley_text("2\n0 x\n1 0\n")  # non-integer
    with pytest.raises(CayleyParseError):
        parse_cayley_text("2\n0 1 0\n1 0\n")  # wrong row length
    with pytest.raises(CayleyParseError):
        parse_cayley_text("2\n0 1\n1 0\n0 1\n")  # extra row


def test_oversize_order_rejected_at_order_line():
    # no table rows follow: the cap is applied before any row is read
    with pytest.raises(GroupSizeError, match="exceeds the cap of 512"):
        ingest_cayley("100000\n")
    with pytest.raises(GroupSizeError, match="cap of 2"):
        parse_cayley_text("3\n0 1 2\n", max_order=2)


def test_out_of_range_entry():
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley("2\n0 1\n1 2\n")
    assert exc.value.law == "closure"


def test_round_trip_random_roster_member():
    g = make_cyclic(12)
    text = cayley_file_text([list(r) for r in g.table.tolist()])
    h = ingest_cayley(text)
    assert h.orders == g.orders
