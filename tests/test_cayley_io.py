"""Cayley file parsing, identity renumbering, and law validation."""

import json
import random
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epgraph import (
    CayleyParseError,
    CayleyValidationError,
    GroupSizeError,
    GroupSpec,
    analyze,
    build_bundle,
    ingest_cayley,
    parse_cayley_text,
    roster_generate,
)
from epgraph import cayley_io
from epgraph.analysis import REPORT_FIELDS
from epgraph.cayley_io import _read_table, cayley_table

from helpers import (
    assert_frozen_int16,
    associative,
    cayley_file_text,
    find_nonassociative_loop,
    first_broken_law,
    parse_cayley_reference,
    swap_intercalate,
    table_of,
    two_sided_identity,
    witness_breaks_law,
)

DATA = Path(__file__).parent / "data"

# the reader's default block, and a block of a few bytes: most lines then
# span blocks and are read in slices, so line numbers, row counts and
# errors are pinned across block boundaries
_BLOCKS = (cayley_io.BLOCK, 16)


def _block(size: int):
    """Context: the reader reads in blocks of ``size`` characters."""
    return mock.patch.object(cayley_io, "BLOCK", size)


def test_ingest_z2():
    g = ingest_cayley("2\n0 1\n1 0\n")
    assert g.order == 2
    assert g.orders == (1, 2)


def test_comments_and_blank_lines():
    # a line of spaces and tabs is blank
    text = "# tiny group\n\n2\n0 1  # row for identity\n \t \n1 0\n"
    assert ingest_cayley(text).order == 2
    assert parse_cayley_text(text) == parse_cayley_reference(text) == [[0, 1], [1, 0]]


def test_latin_violation_rejected():
    text = "3\n0 1 2\n1 1 0\n2 0 1\n"
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley(text)
    assert exc.value.law == "latin-square"


def test_identity_renumbered():
    text = (DATA / "z6_identity_at_3.cayley").read_text()
    g = ingest_cayley(text)
    assert g.orders[0] == 1
    assert sorted(g.orders) == sorted(GroupSpec.cyclic(6).realize().orders)


def test_no_identity_rejected():
    # x*y = x - y mod 3: Latin but only a right identity
    text = "3\n0 2 1\n1 0 2\n2 1 0\n"
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley(text)
    assert exc.value.law == "identity"


def test_nonassociative_loop_rejected():
    # a Latin square with an identity: every row holds it, and Light's test names the triple
    table = find_nonassociative_loop(5)
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley(cayley_file_text(table, comment="non-associative loop"))
    assert exc.value.law == "associativity"
    assert witness_breaks_law(table, exc.value.law, str(exc.value))


def _first_repeat(table: list[list[int]]) -> str:
    """The latin-square message for ``table``: its first row, else its
    first column, that repeats an entry."""
    n = len(table)
    for axis, lines in (("row", table), ("column", [list(c) for c in zip(*table)])):
        for i, line in enumerate(lines):
            if len(set(line)) < n:
                return f"{axis} {i} repeats an entry"
    raise AssertionError("a Latin square")


def _relabelled(table, perm: np.ndarray) -> np.ndarray:
    """``table`` with element x renamed perm[x]."""
    out = np.empty((len(perm), len(perm)), dtype=perm.dtype)
    out[np.ix_(perm, perm)] = perm[np.asarray(table)]
    return out


@pytest.mark.parametrize("n", [4, 6, 9])
def test_multiplicative_monoid_names_a_repeated_row(n):
    # x*y = xy mod n: associative with identity 1, but no row of a zero
    # divisor holds the identity, so the table is no group and no Latin square
    table = [[x * y % n for y in range(n)] for x in range(n)]
    assert two_sided_identity(table) == 1 and associative(table)
    with pytest.raises(CayleyValidationError) as exc:
        cayley_table(cayley_file_text(table))
    assert exc.value.law == "latin-square"
    assert str(exc.value) == _first_repeat(table)
    assert witness_breaks_law(table, exc.value.law, str(exc.value))


@pytest.mark.parametrize("e", [0, 2, 6])
def test_rows_holding_the_identity_name_a_repeat_before_a_triple(e):
    # Z_7 with row 3's entries rotated outside the identity column and the
    # identity itself: every row still holds the identity and is a
    # permutation, but columns repeat and associativity fails, so Light's
    # test fails first and the repeated column must still win
    n = 7
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    cols = [y for y in range(1, n) if table[3][y] != 0]
    vals = [table[3][y] for y in cols]
    for y, v in zip(cols, vals[1:] + vals[:1]):
        table[3][y] = v
    table = _relabelled(table, (3 * np.arange(n) + e) % n).tolist()  # the identity becomes e
    assert two_sided_identity(table) == e and all(e in row for row in table)
    assert not associative(table)
    with pytest.raises(CayleyValidationError) as exc:
        cayley_table(cayley_file_text(table))
    assert exc.value.law == "latin-square"
    assert str(exc.value) == _first_repeat(table)
    assert str(exc.value).startswith("column")
    assert witness_breaks_law(table, exc.value.law, str(exc.value))


def test_parse_errors():
    cases = {
        "": "empty file: no order line found",
        "# only a comment\n\n": "empty file: no order line found",
        "2\n0 1\n": "expected 2 table rows, found 1",  # missing a row
        "2\n0 1\n1 x\n": "line 3: non-integer token",
        "3x\n": "line 1: non-integer token",  # the order line keeps the grammar too
        "2\n0 1 0\n1 0\n": "line 2: expected 2 entries, got 3",  # wrong row length
        "2\n0 1\n1 0\n0 1\n": "line 4: more than 2 table rows",
        "2 3\n": "line 1: expected a single order, got [2, 3]",
        "0\n": "line 1: order must be >= 1, got 0",
        "\n# c\n\n2\n\n0 1\n# c\n1 0 0\n": "line 8: expected 2 entries, got 3",
        "2\n0 1\n\n\n1 0\n\n 0 1 # c\n": "line 7: more than 2 table rows",
        "2\n0 1\n1 0 0 0 0 0 0 x\n": "line 3: non-integer token",  # tokens, then the count
        "2\n0 1 0 0 0 0 0\n1 x\n": "line 2: expected 2 entries, got 7",  # an earlier line first
        "2\n0 1\n1 0 0 x 0\r0 0\n": "line 3: a separator other than space or tab",
    }
    for block in _BLOCKS:
        with _block(block):
            for text, message in cases.items():
                with pytest.raises(CayleyParseError, match=re.escape(message)):
                    parse_cayley_text(text)


def test_oversize_order_rejected_at_order_line():
    # no table rows follow: the cap is applied before any row is read
    with pytest.raises(GroupSizeError, match="exceeds the cap of 512"):
        ingest_cayley("100000\n")
    with pytest.raises(GroupSizeError, match="cap of 2"):
        parse_cayley_text("3\n0 1 2\n", max_order=2)
    # int16 tables index at most 2**15 elements, whatever the caller's cap
    with pytest.raises(GroupSizeError, match="exceeds the cap of 32768"):
        cayley_table("40000\n", max_order=10**6)


def test_out_of_range_entry():
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley("2\n0 1\n1 2\n")
    assert exc.value.law == "closure"


def test_round_trip_random_roster_member():
    g = GroupSpec.cyclic(12).realize()
    text = cayley_file_text([list(r) for r in g.table.tolist()])
    h = ingest_cayley(text)
    assert h.orders == g.orders
    assert_frozen_int16(h.table, "identity at 0")


def test_renumbered_table_stays_int16():
    text = (DATA / "z6_identity_at_3.cayley").read_text()
    assert cayley_table(text).dtype == np.int16
    assert_frozen_int16(ingest_cayley(text).table, "identity at 3")


def test_parse_returns_python_int_lists():
    rows = parse_cayley_text("2\n0 1\n1 0\n")
    assert type(rows) is list
    assert all(type(row) is list for row in rows)
    assert all(type(v) is int for row in rows for v in row)
    assert rows == [[0, 1], [1, 0]]


_INT32_MAX = 2**31 - 1


@pytest.mark.parametrize(
    "token",
    ["99999999999999999999", "-99999999999999999999",
     "18446744073709551616", "18446744073709551617"],  # 2**64 and 2**64 + 1
)
def test_huge_entry_breaks_closure(token):
    # a token with a digit other than 0 before its last nine places
    # saturates to 2**31 - 1 with its own sign, instead of wrapping (2**64
    # would wrap to 0); the closure check relies on it
    _, bad, values = cayley_io._scan(f"0 {token}")
    assert bad is None and values()[1] == (-_INT32_MAX if token[0] == "-" else _INT32_MAX)
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley(f"2\n0 {token}\n1 0\n")
    assert exc.value.law == "closure"
    assert "entry at (0, 1)" in str(exc.value)


@pytest.mark.parametrize("token, value", [
    ("999999999", 999999999),  # nine digits: exact
    ("-999999999", -999999999),
    ("1000000000", _INT32_MAX),  # ten: saturates, its sign kept
    ("-1000000000", -_INT32_MAX),
    ("0" * 30 + "7", 7),  # leading zeros past nine digits
    ("-" + "0" * 21 + "123456789", -123456789),
    ("+" + "0" * 20 + "1000000000", _INT32_MAX),
    # tokens of 19 and 20 digits, past int64 or not, saturate alike
    ("9223372036854775807", _INT32_MAX),
    ("-9223372036854775808", -_INT32_MAX),
    ("9223372036854775808", _INT32_MAX),
    ("-9223372036854775809", -_INT32_MAX),
    ("9999999999999999999", _INT32_MAX),
    ("0" * 20 + "10000000000000000000", _INT32_MAX),
])
def test_tokens_of_nine_digits_and_more(token, value):
    # a block's values, in int32 before any entry is checked against the order
    counts, bad, values = cayley_io._scan(f"0 {token}\n{token}")
    assert bad is None and counts.tolist() == [2, 1]
    got = values()
    assert got.dtype == np.int32 and got.tolist() == [0, value, value]


@pytest.mark.parametrize("order, error, message", [
    ("999999999", GroupSizeError, "group order 999999999 exceeds the cap of 512"),
    ("1000000000", GroupSizeError, "group order 2147483647 exceeds the cap of 512"),
    ("-1000000000", CayleyParseError, "line 1: order must be >= 1, got -2147483647"),
    ("-" + "9" * 25, CayleyParseError, "line 1: order must be >= 1, got -2147483647"),
], ids=["9 digits", "10 digits", "10 digits, negative", "25 digits, negative"])
def test_order_line_reads_nine_digits(order, error, message):
    # the order line's value is built like an entry's: a token past nine
    # significant digits prints as 2**31 - 1 with its own sign
    with pytest.raises(error) as exc:
        ingest_cayley(f"{order}\n")
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("zero, one", [
    ("-" + "0" * 25, "0" * 30 + "1"),  # leading zeros past nine digits, signed zeros
    ("+" + "0" * 40, "+" + "0" * 20 + "1"),
])
def test_long_in_range_tokens_read_back(zero, one):
    text = f"2\n{zero} {one}\n{one} {zero}\n"
    for block in _BLOCKS:
        with _block(block):
            assert parse_cayley_text(text) == [[0, 1], [1, 0]]
            assert ingest_cayley(text).order == 2


def test_order_512_table_reads_back():
    # entries up to 511 need more than 8 bits: numpy < 2 keeps a uint8 digit
    # times a uint64 scalar in uint8, and this would overflow there; at a
    # block of 1000 characters each row is read in slices
    table = table_of(GroupSpec.dihedral(256).realize())
    for block in (cayley_io.BLOCK, 1000):
        with _block(block):
            assert parse_cayley_text(cayley_file_text(table)) == table


_ROW_TOKENS = 5_000_000  # one line of 10 MB of "0 "


def _rejection_peak(text: str) -> tuple[int, Exception]:
    """The tracemalloc peak of rejecting ``text`` at the default cap, and the error."""
    tracemalloc.start()
    try:
        with pytest.raises((CayleyParseError, GroupSizeError)) as exc:
            parse_cayley_text(text)
        return tracemalloc.get_traced_memory()[1], exc.value
    finally:
        tracemalloc.stop()


def test_oversize_order_is_rejected_before_a_row_is_scanned():
    row = "0 " * _ROW_TOKENS
    peak, exc = _rejection_peak("100000\n" + row + "\n")
    assert isinstance(exc, GroupSizeError)
    assert peak < len(row) / 100, peak


def test_single_row_peak_stays_near_the_text():
    # a line longer than a block is counted in slices, and no value is built
    # past its n-th token
    text = "2\n" + "0 " * _ROW_TOKENS + "\n"
    peak, exc = _rejection_peak(text)
    assert str(exc) == f"line 2: expected 2 entries, got {_ROW_TOKENS}"
    assert peak <= 5 * len(text), peak / len(text)


@pytest.mark.parametrize("lead, law", [("", None), ("1", "closure")], ids=["zeros", "closure"])
def test_long_token_peak_stays_near_the_text(lead, law):
    # a token of a million digits builds nine digit places at most, in int32
    text = "2\n0 1\n1 " + lead + "0" * 1_000_000 + "\n"
    tracemalloc.start()
    try:
        if law is None:
            cayley_table(text)
        else:
            with pytest.raises(CayleyValidationError) as exc:
                cayley_table(text)
            assert exc.value.law == law
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * len(text), peak / len(text)


def _relabelled_text(group) -> str:
    """Cayley text of ``group`` relabelled by a fixed permutation, written a
    row at a time: a list of 4M ints would dwarf the tables measured."""
    relabelled = _relabelled(group.table, np.random.default_rng(1).permutation(group.order))
    return f"{group.order}\n" + "".join(" ".join(map(str, row.tolist())) + "\n"
                                       for row in relabelled)


def test_accepting_a_table_peaks_at_the_reader():
    # the identity is renumbered in place, Light's test compares blocks of
    # rows, and an accepted table is never scanned for the Latin square, so
    # checking the laws allocates no more than reading the text did
    group = GroupSpec.dihedral(1024).realize(max_order=2048)
    text = _relabelled_text(group)
    peaks = []
    for read in (_read_table, cayley_table):
        tracemalloc.start()
        try:
            read(text, 2048)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks[1] / peaks[0]


def test_reading_a_table_peaks_at_one_int16_table_and_its_blocks():
    # the values go straight into the int16 table, a block at a time, and no
    # law check makes an n x n temporary: at order 2048 the table is 8 MB
    # and a block of text 1 MB
    group = GroupSpec.dihedral(1024).realize(max_order=2048)
    text = _relabelled_text(group)
    tracemalloc.start()
    try:
        cayley_table(text, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= group.table.nbytes + 20 * cayley_io.BLOCK, peak / 2**20


def test_closure_violation_named_in_file_coordinates():
    table = parse_cayley_reference((DATA / "z6_identity_at_3.cayley").read_text())
    table[4][1] = 6
    table[5][0] = -1
    with pytest.raises(CayleyValidationError) as exc:
        ingest_cayley(cayley_file_text(table))
    assert exc.value.law == "closure"
    assert "entry at (4, 1) is outside [0, 6)" in str(exc.value)


# -- roster tables read back as text ------------------------------------------

_ROSTER_256 = roster_generate(256)
_VERDICTS = [f for f in REPORT_FIELDS if f != "cone_vertices"] + ["planar_reject"]


def _reports(group) -> tuple[dict, dict]:
    bundle = build_bundle(group)
    return analyze(bundle).to_dict(), analyze(bundle, deleted=True).to_dict()


# the hypothesis default in tier-1; the ci profile (conftest.py) draws 1000
@given(st.data())
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
def test_roster_text_reports_match_the_spec(data):
    spec = data.draw(st.sampled_from(_ROSTER_256))
    group = spec.realize()
    table = table_of(group)
    want = _reports(group)
    # identity at 0: the reader keeps every label, so the reports are the spec's, byte for byte
    got = _reports(ingest_cayley(cayley_file_text(table, comment=spec.serialize())))
    assert [json.dumps(r) for r in got] == [json.dumps(r) for r in want], spec
    # relabelled, the identity anywhere: the label-free facts must survive
    # a drawn seed, not a drawn permutation, so that a failure shrinks quickly
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32))).permutation(group.order)
    h = ingest_cayley(cayley_file_text(_relabelled(group.table, perm).tolist()))
    assert sorted(h.orders) == sorted(group.orders), spec
    for g_report, h_report in zip(want, _reports(h)):
        # a witness is present exactly when its verdict is negative
        assert h_report.keys() == g_report.keys(), spec
        assert {f: h_report.get(f) for f in _VERDICTS} == {f: g_report.get(f) for f in _VERDICTS}
        assert len(h_report["cone_vertices"]) == len(g_report["cone_vertices"]), spec


# -- the validator against the plain-loop law oracle ----------------------------

_ROSTER_64 = roster_generate(64)
_BREAKS = ["none", "out of range", "no identity", "row repeat", "column repeat",
           "intercalate", "row shuffle", "row copy"]


def _break(table: list[list[int]], how: str, data) -> list[list[int]]:
    """``table`` with one law broken as ``how`` says; the oracle decides which
    law a break reaches first."""
    n, e = len(table), two_sided_identity(table)
    index = st.integers(0, n - 1)
    r, c, other = data.draw(index), data.draw(index), data.draw(index)
    table = [row[:] for row in table]
    if how == "out of range":
        # both edges of [0, n), beyond int64 either way, or anything outside
        table[r][c] = data.draw(st.one_of(
            st.sampled_from([-1, n, 2**63, 2**64, -(2**63) - 1, -(10**30)]),
            st.integers(max_value=-1), st.integers(min_value=n)))
    elif how == "no identity":  # two columns swapped: still Latin
        for row in table:
            row[c], row[other] = row[other], row[c]
    elif how == "row repeat":  # two entries of a column swapped: columns stay Latin
        table[r][c], table[other][c] = table[other][c], table[r][c]
    elif how == "column repeat":  # two entries of a row swapped: rows stay Latin
        table[r][c], table[r][other] = table[r][other], table[r][c]
    elif how in ("row shuffle", "row copy") and n > 2:
        # every row keeps the identity, so Light's test runs on a table
        # whose columns, or the copied row, repeat an entry
        away = st.sampled_from([x for x in range(n) if x != e])
        r, other = data.draw(away), data.draw(away)
        cols = [x for x in range(n) if x != e]
        if how == "row shuffle":  # the row's entries outside the identity column permuted
            values = data.draw(st.permutations([table[r][x] for x in cols]))
        else:  # row other's entries outside the identity column written over row r's
            values = [table[other][x] for x in cols]
        for x, v in zip(cols, values):
            table[r][x] = v
    elif how == "intercalate":
        involutions = [t for t in range(n) if t != e and table[t][t] == e]
        if involutions and n > 2:
            t = data.draw(st.sampled_from(involutions))
            away = st.sampled_from([x for x in range(n) if x not in (e, t)])
            table = swap_intercalate(table, data.draw(away), data.draw(away), t)
    return table


# the hypothesis default in tier-1; the ci profile (conftest.py) draws 1000
@given(st.data())
@settings(deadline=None)
def test_validator_matches_plain_loop_oracle(data):
    group = data.draw(st.sampled_from(_ROSTER_64)).realize()
    n = group.order
    # relabelled by a drawn seed, so the identity sits anywhere
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32))).permutation(n)
    table = _break(_relabelled(group.table, perm).tolist(), data.draw(st.sampled_from(_BREAKS)),
                   data)
    law = first_broken_law(table)
    try:
        got = cayley_table(cayley_file_text(table))
    except CayleyValidationError as exc:
        assert exc.law == law, str(exc)
        assert witness_breaks_law(table, exc.law, str(exc)), str(exc)
    else:
        assert law is None
        e = two_sided_identity(table)
        sigma = np.arange(n, dtype=np.int16)
        sigma[[0, e]] = e, 0
        t = np.array(table, dtype=np.int16)
        assert got.tobytes() == sigma[t[np.ix_(sigma, sigma)]].tobytes()


def test_every_row_an_identity_candidate_is_rejected():
    # x*y = y: column 0 is all zeros and every row is the identity row, but
    # no column is the identity column
    n = 2048
    row = " ".join(map(str, range(n)))
    with pytest.raises(CayleyValidationError) as exc:
        cayley_table(f"{n}\n" + f"{row}\n" * n, max_order=n)
    assert exc.value.law == "identity"


# -- the reader against the int()-per-token reference ---------------------------

_ROSTER_48 = roster_generate(48)


def _render(table: list[list[int]], rng: random.Random) -> str:
    """A Cayley file for ``table`` in every form the grammar allows: runs of
    spaces and tabs, leading zeros, signs on zeros and positives, comments,
    blank and whitespace-only lines, and LF or CRLF line ends."""
    def gap(least: int) -> str:
        return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))

    def entry(v: int) -> str:
        sign = rng.choice(["", "", "+", "-"] if v == 0 else ["", "", "+"])
        return sign + "0" * rng.choice([0, 0, 1, 3]) + str(v)

    def decorate(line: str) -> str:
        if rng.random() < 0.3:
            line += gap(0) + "# " + rng.choice(["", "row", "x -1 + 2.5", "０ -"])
        return gap(0) + line

    lines = []
    for body in [str(len(table))] + [
        gap(1).join(entry(v) for v in row) for row in table
    ]:
        while rng.random() < 0.15:
            lines.append(rng.choice(["", gap(1), "# comment", gap(0) + "#"]))
        lines.append(decorate(body))
    return rng.choice(["\n", "\r\n"]).join(lines) + "\n"


# 60 examples in tier-1; the ci profile (conftest.py) draws 1000
@given(st.sampled_from(_ROSTER_48), st.integers(0, 2**32))
@settings(max_examples=max(60, settings.default.max_examples), deadline=None)
def test_reader_matches_reference_on_valid_texts(spec, seed):
    table = table_of(spec.realize())
    text = _render(table, random.Random(seed))
    assert parse_cayley_reference(text) == table
    for block in _BLOCKS:
        with _block(block):
            assert parse_cayley_text(text) == table, block


_BAD_TOKENS = ["1.5", "0x1", "1_0", "5-3"]


def _mutate(text: str, rng: random.Random, mutation: str) -> str:
    lines = text.split("\n")
    row = rng.randrange(2, len(lines) - 1)  # a table row; lines[-1] is empty
    tokens = lines[row].split(" ")
    if mutation == "extra token":
        tokens.insert(rng.randint(0, len(tokens)), "0")
    elif mutation == "missing token":
        del tokens[rng.randrange(len(tokens))]
    elif mutation == "extra row":
        lines.insert(row, lines[rng.randrange(2, len(lines) - 1)])
    elif mutation == "missing row":
        del lines[row]
    else:
        tokens[rng.randrange(len(tokens))] = mutation
    if mutation not in ("extra row", "missing row"):
        lines[row] = " ".join(tokens)
    return "\n".join(lines)


# 80 examples in tier-1; the ci profile (conftest.py) draws 1000
@given(
    st.sampled_from(_ROSTER_48),
    st.sampled_from(["extra token", "missing token", "extra row", "missing row"]
                    + _BAD_TOKENS),
    st.integers(0, 2**32),
)
@settings(max_examples=max(80, settings.default.max_examples), deadline=None)
def test_reader_rejects_mutated_texts(spec, mutation, seed):
    table = table_of(spec.realize())
    text = _mutate(cayley_file_text(table, comment="roster"), random.Random(seed), mutation)
    messages = []
    for block in _BLOCKS:
        with _block(block), pytest.raises(CayleyParseError) as exc:
            parse_cayley_text(text)
        messages.append(str(exc.value))
    # the same line and error, whatever the block boundaries
    assert messages == messages[:1] * len(_BLOCKS), messages
    if mutation == "1_0":
        # int() reads digit-grouping underscores, so the reference takes it
        # as 10; the grammar allows decimal digits only
        return
    with pytest.raises(CayleyParseError):
        parse_cayley_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "1\n-\n",  # a sign opens a token, so a digit must follow it
        "2\n- 1 0\n1 0\n",
        "2\n0 + 1\n1 0\n",
        "2\n0 1\n1 0 -\n",
        "2\n0 1\n1 +0 +\n",
    ],
)
def test_lone_signs_rejected(text):
    with pytest.raises(CayleyParseError, match="non-integer token"):
        parse_cayley_text(text)
    with pytest.raises(CayleyParseError):
        parse_cayley_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "2\n0 1\n1 \uff10\n",  # fullwidth digit zero
        "2\n0\u00a01\n1 0\n",  # no-break space
        "2\n0 1\n\u00a0\n1 0\n",  # a line of one no-break space is not blank
    ],
)
def test_non_ascii_digits_and_spaces_rejected(text):
    # the int()-per-token reader accepted these; the grammar is ASCII only
    assert parse_cayley_reference(text) == [[0, 1], [1, 0]]
    with pytest.raises(CayleyParseError, match="line"):
        parse_cayley_text(text)


@pytest.mark.parametrize(
    "brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_line_feed_ends_a_line(brk):
    # str.splitlines ends a line at each of these, which read the row as two
    with pytest.raises(CayleyParseError, match=r"\bline 2: "):
        parse_cayley_text(f"2\n0 1{brk}1 0\n")


def test_error_line_numbers_count_line_feeds_only():
    for block in _BLOCKS:
        with _block(block):
            for text in ("# one\u2028comment line\n2\n0 1\n1 x\n",
                         "# one\r\n2\r\n0 1\r\n1 x\r\n"):
                with pytest.raises(CayleyParseError, match=r"\bline 4: non-integer token"):
                    parse_cayley_text(text)


@pytest.mark.parametrize("text", [
    "2\n0\x0b1\n1 0\n",
    "2\n0\x0c1\n1 0\n",
    "2\n0\r1\n1 0\n",
    "2\n\x0b\n0 1\n1 0\n",  # a line of it is not blank
    "1\n\r\r\n0\n",  # only one carriage return ends a line
])
def test_only_spaces_and_tabs_separate(text):
    for block in _BLOCKS:
        with _block(block), pytest.raises(
                CayleyParseError, match=r"\bline 2: a separator other than space or tab"):
            parse_cayley_text(text)


# -- lines longer than a block ----------------------------------------------------

_KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
_STRAYS = ["\r", "\r\n", "\n", "\x0b", "\x0c", "\u00a0", "#", " ", "\t", "x", "-", "0" * 25]


@pytest.mark.parametrize("text, want", [
    # a stray carriage return before a space, in a line cut after that space
    ("4\n0 1 2 3\n1 0 3 2\n2 3\r 0 1\n3 2 1 0\n", "line 4: a separator other than space or tab"),
    ("4\n0 1 2 3\n1 0 3 2\n2 3 0 1\r\r\n3 2 1 0\n", "line 4: a separator other than space or tab"),
    # a comment that opens inside a long line: skipped, stray bytes and all
    ("4\n0 1 2 3  # the identity's row\n1 0 3 2\n2 3 0 1#\x0b\r\r\n3 2 1 0 #", _KLEIN),
    ("2\n0 1\n1 0 # a comment longer than a block, and no line feed", [[0, 1], [1, 0]]),
    ("4\n0 1 2 3 0  # a token too many\n1 0 3 2\n", "line 2: expected 4 entries, got 5"),
    ("4\n0 1 2 3 x # a bad token\n1 0 3 2\n", "line 2: non-integer token"),
    ("4\n0 1 x 3 0 1 2\x0b# a separator before the comment\n", "line 2: a separator other than"),
    # a token longer than a block right before a CRLF line end
    ("2\r\n0 " + "0" * 30 + "1\r\n+" + "0" * 30 + "1 -" + "0" * 20 + "\r\n", [[0, 1], [1, 0]]),
    ("2\r\n0 " + "0" * 30 + "1\r\r\n1 0\r\n", "line 2: a separator other than space or tab"),
])
def test_long_lines_read_alike_at_small_blocks(text, want):
    for block in (cayley_io.BLOCK, *range(3, 9), 16):
        with _block(block):
            if isinstance(want, list):
                assert parse_cayley_text(text) == want, block
            else:
                with pytest.raises(CayleyParseError, match=re.escape(want)):
                    parse_cayley_text(text)


def _outcome(text: str) -> tuple:
    """``cayley_table``'s table and dtype, or its error's class, law and message."""
    try:
        table = cayley_table(text)
    except (CayleyParseError, CayleyValidationError, GroupSizeError) as exc:
        return type(exc), getattr(exc, "law", None), str(exc)
    return table.dtype, table.tobytes()


# the hypothesis default in tier-1; the ci profile (conftest.py) draws 1000
@given(st.sampled_from(_ROSTER_48), st.integers(0, 2**32), st.integers(3, 40))
@settings(deadline=None)
def test_long_lines_read_alike_at_any_block(spec, seed, block):
    # a relabelled table in every form the grammar allows, with up to two
    # stray pieces put anywhere: the outcome at a block of 3-40 characters,
    # cut within lines, is the default block's, table or error
    rng = random.Random(seed)
    group = spec.realize()
    table = _relabelled(group.table, np.random.default_rng(seed).permutation(group.order))
    text = _render(table.tolist(), rng)
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_STRAYS) + text[at:]
    assume(max(map(len, text.split("\n"))) > block)
    want = _outcome(text)
    with _block(block):
        assert _outcome(text) == want
