"""Reading Cayley-table files: the one way an untrusted table gets in.

Format: the first data line holds the order n, the next n lines hold n
entries each: ASCII decimal integers with an optional sign, separated by
spaces and tabs. Only a line feed ends a line, and one carriage return
before it is dropped, so CRLF files read the same. ``#`` starts a comment
that runs to the end of the line and blank lines are skipped; any other
text, other ASCII whitespace and non-ASCII digits or spaces included, is a
parse error. A file that cannot be read or is not UTF-8 raises GroupError.

The order line is read on its own, so an order above the cap is rejected
before any row is scanned. The rows are then read in blocks of whole
lines, ``BLOCK`` characters at most, each in a few numpy passes: comments
and the carriage return before a line feed go first; a byte outside the
grammar names its line; the tokens of each line are counted before any
token's value is built, so a line of the wrong length is refused without
its values, and the first broken line wins as in a line-by-line reading.
A line longer than a block is read in slices cut at a space or tab, and
its values are kept only while it holds at most n tokens. A value is
built from its digit places, one pass over the block per place, up to 19
places in uint64; a token beyond int64, of either sign, saturates to the
int64 maximum.

A file's table is untrusted, and this module alone checks group laws. Each
law is checked exactly before the table is used, the first broken one
named, in the order closure, identity, latin-square, associativity, and
every witness is named in the file's own labels. An entry outside [0, n),
negative or of any size, breaks closure: the table is read in int64, and
that copy lives only through the identity check. The identity may sit at
any index; the cast to int16 renumbers it to index 0, and the int64 copy
is dropped. Associativity is Light's test, one flat numpy pass per generator,
O(n^2 log n). An accepted table is not scanned for the Latin square: every
row holding the identity gives every element a right inverse, and with
associativity that makes a group. Only a table that fails is scanned, so
that a repeated entry is named before a failing triple.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .errors import CayleyParseError, CayleyValidationError, GroupError, GroupSizeError
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, table_cap

BLOCK = 1 << 20  # characters of text read as one block of whole lines

# the blank and comment lines before the order line, and any spaces or
# tabs that open it: runs of them take one step, not one per line
_BLANK_LINES = re.compile(r"(?:[ \t\n]+|#[^\n]*\n|\r\n)*")
_COMMENT = re.compile(rb"#[^\n]*")
_PAD = 19  # spaces put before scanned bytes: 19 digit places stay in range
_INT64_MAX = np.iinfo(np.int64).max
_SEPARATOR = "a separator other than space or tab"
_TOKEN = "non-integer token"

# a scan's token count per line, its first line that breaks the grammar as
# (index, message) or None, and the function that builds its values
_Scan = tuple[np.ndarray, "tuple[int, str] | None", Callable[[], np.ndarray]]


def _clean(lines: str) -> bytes:
    """Whole lines of text as ASCII bytes, each comment and the carriage
    return before each line feed (or at the end) dropped; a non-ASCII
    character becomes ``?``, which no token holds."""
    raw = lines.encode("ascii", "replace")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").removesuffix(b"\r")
    if b"#" in raw:
        raw = _COMMENT.sub(b"", raw)
    return raw


def _scan(raw: bytes) -> _Scan:
    """Scan the lines of ``raw + b"\\n"``; the values are the tokens' int64
    values. A token is a run of digits; the grammar holds a sign only right
    before one."""
    buf = np.frombuffer(b" " * _PAD + raw + b"\n", dtype=np.uint8)
    chars = buf[_PAD:]
    digit = buf >= 48
    line_ends = np.flatnonzero(chars == 10)
    bad, signed = None, False
    # without a sign, the grammar holds iff each byte is a digit, space, tab or line feed
    spaces = np.count_nonzero(chars == 32) + np.count_nonzero(chars == 9)
    if chars.max() > 57 or np.count_nonzero(digit) + spaces + len(line_ends) != len(chars):
        bad, signed = _first_bad(chars, line_ends), True
    run = digit[_PAD:]
    last = np.flatnonzero(run[:-1] > run[1:])  # each token's last digit
    counts = np.diff(np.searchsorted(last, line_ends), prepend=0)
    return counts, bad, lambda: _values(buf, digit, last, signed)


def _first_bad(chars: np.ndarray, line_ends: np.ndarray) -> tuple[int, str] | None:
    """(index, message) for the first line of ``chars`` holding a byte
    outside the grammar, or None."""
    digit = (chars - 48) < 10
    space = (chars == 32) | (chars == 9) | (chars == 10)
    ok = digit | space
    # a sign opens a token: a space or the line's start before it, a digit after it
    ok[:-1] |= (((chars[:-1] == 43) | (chars[:-1] == 45))
                & np.append(True, space[:-2]) & digit[1:])
    if ok.all():
        return None
    k = int(np.searchsorted(line_ends, np.argmin(ok)))
    line = chars[line_ends[k - 1] + 1 if k else 0:line_ends[k]]
    sep = ((line == 13) | (line == 11) | (line == 12)).any()
    return k, _SEPARATOR if sep else _TOKEN


def _values(buf: np.ndarray, digit: np.ndarray, last: np.ndarray,
            signed: bool) -> np.ndarray:
    """The int64 values of the tokens whose last digits sit at ``last``,
    past the ``_PAD`` spaces of ``buf``. Place k of every token is added
    in one pass over the bytes, up to 19 places; a token beyond int64
    saturates to the int64 maximum, whatever its sign."""
    size = len(buf) - _PAD
    # digit values, read only where run is set, in the accumulator's dtype:
    # numpy < 2 would keep a uint8 digit times 10**k in uint8
    places = (buf - 48).astype(np.uint16)
    run = digit[_PAD:]  # run[i]: bytes i - k .. i are all digits
    value = places[_PAD:].copy()
    for k in range(1, 19):
        run = run & digit[_PAD - k:_PAD - k + size]
        if not run.any():
            break
        if k in (4, 9):
            dtype = np.uint32 if k == 4 else np.uint64
            places, value = places.astype(dtype), value.astype(dtype)
        place = places[_PAD - k:_PAD - k + size] * run
        place *= place.dtype.type(10**k)
        value += place
    wide = run.any()  # a token of 19 digits or more
    if not (signed or wide):
        return value.take(last).astype(np.int64)
    m = value.take(last).astype(np.uint64)
    first = np.flatnonzero(digit[_PAD:] > digit[_PAD - 1:-1])  # each token's first digit
    neg = buf.take(first + _PAD - 1) == 45
    over = m > np.where(neg, np.uint64(2**63), np.uint64(_INT64_MAX))
    long = np.flatnonzero(last - first >= 19)
    if len(long):  # a digit other than 0 before the last 19 places
        nonzero = np.concatenate(([0], np.cumsum(buf[_PAD:] > 48)))
        over[long] |= nonzero[last[long] - 18] > nonzero[first[long]]
    value = m.view(np.int64)  # m < 10**19, so -m fits in uint64
    np.negative(value, out=value, where=neg)
    value[over] = _INT64_MAX
    return value


def _scan_long(text: str, pos: int, stop: int, n: int) -> _Scan:
    """``_scan`` of the one line ``text[pos:stop]``, longer than a block:
    read in slices cut at a space or tab, its values kept only while it
    holds at most n tokens."""
    end = stop - (text[stop - 1] == "\n")
    comment = text.find("#", pos, end)
    if comment >= 0:
        end = comment
    elif text[end - 1] == "\r":
        end -= 1
    count, parts = 0, []
    p = pos
    while p < end:
        q = min(p + BLOCK, end)
        if q < end:
            q = max(text.rfind(" ", p + 1, q), text.rfind("\t", p + 1, q))
            if q < 0:  # a token longer than a block runs to the next space or tab
                q = min(i for i in (text.find(" ", p + 1, end), text.find("\t", p + 1, end),
                                    end) if i >= 0)
        counts, bad, values = _scan(text[p:q].encode("ascii", "replace"))
        if bad:
            sep = any(text.find(c, pos, end) >= 0 for c in "\r\x0b\x0c")
            return counts, (0, _SEPARATOR if sep else _TOKEN), None
        count += int(counts[0])
        if count <= n:
            parts.append(values())
        p = q
    return np.array([count, 0]), None, lambda: np.concatenate(parts)


def _count_rows(counts: np.ndarray, bad: tuple[int, str] | None, n: int, filled: int,
                lineno: int) -> int:
    """The number of table rows among lines whose token counts are
    ``counts``, the first at line ``lineno``, with ``filled`` rows read
    before them; raises the parse error of the first line that breaks the
    grammar, as a line-by-line reader would."""
    rows = np.flatnonzero(counts[:len(counts) if bad is None else bad[0]])
    wrong = np.flatnonzero(counts[rows] != n)
    if len(wrong) and wrong[0] <= n - filled:
        i = rows[wrong[0]]
        raise CayleyParseError(f"line {lineno + i}: expected {n} entries, got {counts[i]}")
    if len(rows) > n - filled:
        raise CayleyParseError(f"line {lineno + rows[n - filled]}: more than {n} table rows")
    if bad:
        raise CayleyParseError(f"line {lineno + bad[0]}: {bad[1]}")
    return len(rows)


def _read_table(text: str, max_order: int) -> np.ndarray:
    """The raw n x n int64 table (see ``parse_cayley_text``)."""
    pos = text.rfind("\n", 0, _BLANK_LINES.match(text).end()) + 1
    lineno = text.count("\n", 0, pos) + 1
    stop = text.find("\n", pos) + 1 or len(text)
    counts, bad, values = _scan(_clean(text[pos:stop]))
    if bad:
        raise CayleyParseError(f"line {lineno}: {bad[1]}")
    if not counts.any():  # a blank last line
        raise CayleyParseError("empty file: no order line found")
    order = values()
    if len(order) != 1:
        raise CayleyParseError(f"line {lineno}: expected a single order, got {order.tolist()}")
    n = int(order[0])
    if n < 1:
        raise CayleyParseError(f"line {lineno}: order must be >= 1, got {n}")
    cap = table_cap(max_order)
    if n > cap:
        raise GroupSizeError(f"group order {n} exceeds the cap of {cap}")
    table = np.empty((n, n), dtype=np.int64)
    filled = 0
    pos, lineno = stop, lineno + 1
    while pos < len(text):
        stop = len(text) if len(text) - pos <= BLOCK else text.rfind("\n", pos, pos + BLOCK) + 1
        if stop:
            counts, bad, values = _scan(_clean(text[pos:stop]))
        else:  # a line longer than a block
            stop = text.find("\n", pos) + 1 or len(text)
            counts, bad, values = _scan_long(text, pos, stop, n)
        rows = _count_rows(counts, bad, n, filled, lineno)
        if rows:
            table[filled:filled + rows] = values().reshape(rows, n)
        filled += rows
        lineno += len(counts) - 1
        pos = stop
    if filled != n:
        raise CayleyParseError(f"expected {n} table rows, found {filled}")
    return table


def read_cayley_file(path: str) -> str:
    """A Cayley file's text; raises GroupError when it cannot be read as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupError(f"cannot read {path}: {exc}") from None


def parse_cayley_text(text: str, max_order: int = DEFAULT_MAX_ORDER) -> list[list[int]]:
    """Parse the raw file into an n x n list of ints (no group laws checked).

    Raises GroupSizeError at the order line when n exceeds
    ``table_cap(max_order)``, before any table row is scanned.
    """
    return _read_table(text, max_order).tolist()


def cayley_table(text: str, max_order: int = DEFAULT_MAX_ORDER) -> np.ndarray:
    """Parse; check closure and locate the identity e on the file's table;
    renumber e to 0 in the cast to int16 and check the Latin-square property
    and associativity: the int16 table of a group, not yet walked.

    The int64 table lives only through the identity check. A row of the
    int16 table that holds the identity is an element with a right
    inverse; when every row holds it and Light's test passes, the table is
    an associative finite monoid with right inverses, so a group, so a
    Latin square, and no line is scanned. A table that fails either test
    is scanned for a repeated entry, which wins over a failing triple.
    """
    arr = _read_table(text, max_order)
    n = arr.shape[0]
    # as uint64, a negative entry (saturated or not) is at least 2**63
    if arr.view(np.uint64).max() >= n:
        x, y = divmod(int(np.argmax(arr.view(np.uint64) >= n)), n)
        raise CayleyValidationError("closure", f"entry at ({x}, {y}) is outside [0, {n})")
    expect = np.arange(n)
    for e in np.flatnonzero(arr[:, 0] == 0).tolist():  # the identity has e*0 == 0
        if np.array_equal(arr[e], expect) and np.array_equal(arr[:, e], expect):
            break
    else:
        raise CayleyValidationError("identity", "no two-sided identity element found")
    # sigma swaps labels 0 and e; it is its own inverse, so it also maps a
    # renumbered witness back to the file's labels
    sigma = expect.astype(np.int16)
    sigma[[0, e]] = e, 0
    table = sigma.take(arr)
    del arr
    table[[0, e]] = table[[e, 0]]
    table[:, [0, e]] = table[:, [e, 0]]
    if not (table == 0).any(axis=1).all():
        _check_latin(table, sigma)
    try:
        _check_associative(table, sigma)
    except CayleyValidationError:
        _check_latin(table, sigma)
        raise
    return table


def _check_latin(table: np.ndarray, sigma: np.ndarray) -> None:
    """Raise the latin-square violation of the renumbered ``table``, if it
    has one: the file's first row, else its first column, that repeats an
    entry. Line i of ``table`` is line sigma[i] of the file."""
    n = table.shape[0]
    offsets = np.arange(0, n * n, n)
    for axis, offset in (("row", offsets[:, None]), ("column", offsets)):
        seen = np.zeros(n * n, dtype=bool)
        seen[table + offset] = True  # seen[i*n + v]: value v occurs in line i
        full = seen.reshape(n, n).all(axis=1)[sigma]
        if not full.all():
            raise CayleyValidationError(
                "latin-square", f"{axis} {np.argmin(full)} repeats an entry")


def _check_associative(arr: np.ndarray, sigma: np.ndarray) -> None:
    """Light's associativity test over a greedily chosen generating set S;
    a failing triple is named through the relabelling ``sigma``.

    S grows by the first element not yet reached, and the reached set is
    closed under right multiplication by S. The caller has seen the
    identity 0 in every row of ``arr``, so every element has a right
    inverse, and the test stops within floor(log2 n) + 1 rounds,
    O(n^2 log n), Latin square or not:
    1. each s in S that passes lies in the middle nucleus
       N = {s : (x*s)*y == x*(s*y) for all x, y}, which is closed under
       products, so the reached set lies in N and is associative: once it
       holds every element, the table is;
    2. such an s has a right inverse y, so s^b*y == s^(b-1) with powers
       taken left to right; as s^a == s^b for some a < b, cancelling y on
       the right down to a == 0 gives s^m == 0 for m = b - a;
    3. the reached set is therefore a subgroup, and each new generator t
       at least doubles it, the coset reached*t lying outside it.
    """
    n = arr.shape[0]
    reached = [True] + [False] * (n - 1)
    members = [0]
    cols: list[list[int]] = []
    while len(members) < n:
        s = reached.index(False)
        col = arr[:, s]
        lhs = arr.take(col, axis=0)     # lhs[x, y] = (x*s)*y
        rhs = arr.take(arr[s], axis=1)  # rhs[x, y] = x*(s*y)
        if not np.array_equal(lhs, rhs):
            x, y, s = sigma[[*np.argwhere(lhs != rhs)[0], s]].tolist()
            raise CayleyValidationError(
                "associativity", f"({x}*{s})*{y} != {x}*({s}*{y})"
            )
        cols.append(col.tolist())
        # members reached before s still need s; later ones need every generator
        old = len(members)
        i = 0
        while i < len(members):
            for col in cols[-1:] if i < old else cols:
                y = col[members[i]]
                if not reached[y]:
                    reached[y] = True
                    members.append(y)
            i += 1


def ingest_cayley(text: str, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """The group of a Cayley file's text (see ``cayley_table``)."""
    return FiniteGroup(cayley_table(text, max_order))
