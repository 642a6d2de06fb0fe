"""Reading Cayley-table files: the one way an untrusted table gets in.

Format: the first data line holds the order n, the next n lines hold n
entries each: ASCII decimal integers with an optional sign, separated by
spaces and tabs. Only a line feed ends a line, and one carriage return
before it is dropped, so CRLF files read the same. ``#`` starts a comment
that runs to the end of the line and blank lines are skipped; any other
text, other ASCII whitespace and non-ASCII digits or spaces included, is a
parse error. A file that cannot be read or is not UTF-8 raises GroupError.

The order line is read on its own, so an order above the cap is rejected
before any row is scanned. One loop then reads the rows in blocks of at
most ``BLOCK`` characters (see ``_cut``) and writes their values in token
order into one n x n int16 table. Each line's tokens are counted before
any value is built, so a line of the wrong length is refused without its
values, and the first broken line wins as in a line-by-line reading. A
value is built from its digit places, one numpy pass per place, up to nine
places in int32 (uint16 for the first four); a token with a digit other
than 0 before its last nine places reads as 2**31 - 1 with its own sign.

A file's table is untrusted, and this module alone checks group laws,
each exactly and before the table is used. The first broken law is named,
in the order closure, identity, latin-square, associativity, with its
witness in the file's own labels. An entry outside [0, n), negative or of
any size, breaks closure, raised once the whole text has parsed so that a
parse error still wins. The identity, at any index, is renumbered to 0 in
place. Associativity is Light's test, O(n^2 log n). An accepted table is
not scanned for the Latin square (see ``cayley_table``); only a table that
fails is, so that a repeated entry is named before a failing triple. No
law check makes an n x n temporary: each runs over blocks of rows.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .errors import CayleyParseError, CayleyValidationError, GroupError, GroupSizeError
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, table_cap

BLOCK = 1 << 20  # characters of text read as one block, and entries of a block of rows

# the blank and comment lines before the order line, and any spaces or
# tabs that open it: runs of them take one step, not one per line
_BLANK_LINES = re.compile(r"(?:[ \t\n]+|#[^\n]*\n|\r\n)*")
_COMMENT = re.compile(rb"#[^\n]*")
_TOKEN_END = re.compile(r"[^ \t\n#]*\n?")  # a token, and the line feed right after it
_STRAY = re.compile(r"[^#\n]*?(?:[\x0b\x0c]|\r(?!\n))")  # a separator before the comment
_PAD = 9  # spaces put before scanned bytes: nine digit places stay in range
_SEPARATOR = "a separator other than space or tab"
_TOKEN = "non-integer token"


def _scan(lines: str) -> tuple[np.ndarray, tuple[int, str] | None, Callable[[], np.ndarray]]:
    """Scan the lines of ``lines + "\\n"``, comments and the carriage return
    before each line feed dropped, a non-ASCII character read as ``?``: the
    token count of each line, the first line that breaks the grammar as
    (index, message) or None, and a function building the tokens' int32
    values. A token is a run of digits, a sign allowed right before it."""
    raw = lines.encode("ascii", "replace")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    if b"#" in raw:
        raw = _COMMENT.sub(b"", raw)
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
    """The int32 values of the tokens whose last digits sit at ``last``,
    past the ``_PAD`` spaces of ``buf``. Place k of every token is added
    in one pass over the bytes, up to nine places, which fit in int32 with
    either sign; a token with a digit other than 0 before its last nine
    places saturates to 2**31 - 1, its sign kept."""
    size = len(buf) - _PAD
    # digit values, read only where run is set, in the accumulator's dtype:
    # numpy < 2 would keep a uint8 digit times 10**k in uint8
    places = (buf - 48).astype(np.uint16)
    run = digit[_PAD:]  # run[i]: bytes i - k .. i are all digits
    value = places[_PAD:].copy()
    for k in range(1, _PAD):
        run = run & digit[_PAD - k:_PAD - k + size]
        if not run.any():
            break
        if k == 4:  # 9 * 10**4 does not fit in uint16
            places, value = places.astype(np.int32), value.astype(np.int32)
        place = places[_PAD - k:_PAD - k + size] * run
        place *= place.dtype.type(10**k)
        value += place
    wide = run.any()  # a token of nine digits or more
    value = value.take(last).astype(np.int32)
    if not (signed or wide):
        return value
    first = np.flatnonzero(digit[_PAD:] > digit[_PAD - 1:-1])  # each token's first digit
    long = np.flatnonzero(last - first >= _PAD)
    if len(long):  # a digit other than 0 before the last nine places
        # nonzero[i]: the digits other than 0 before byte i
        nonzero = np.cumsum(buf[_PAD - 1:] > 48, dtype=np.int32)
        value[long[nonzero[last[long] - _PAD + 1] > nonzero[first[long]]]] = 2**31 - 1
    np.negative(value, out=value, where=buf.take(first + _PAD - 1) == 45)
    return value


def _cut(text: str, pos: int, end: int) -> tuple[int, int]:
    """Where the block of ``text[:end]`` at ``pos`` stops and the next one
    starts: after its last line feed; in a line longer than a block, at its
    comment (skipped to the line feed), else after its last space or tab,
    else after its token and a line feed right after it."""
    limit = pos + BLOCK
    if limit >= end:
        return end, end
    stop = text.rfind("\n", pos, limit) + 1
    if not stop:
        comment = text.find("#", pos, limit)
        if comment >= 0:
            line_end = text.find("\n", comment, end)
            return comment, end if line_end < 0 else line_end
        stop = max(text.rfind(" ", pos, limit), text.rfind("\t", pos, limit)) + 1
        if not stop:
            stop = _TOKEN_END.match(text, pos, end).end()
    return stop, stop


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
    """The n x n int16 table of a Cayley file's text; raises the parse error
    of its first broken line, else the closure violation of its first entry
    outside [0, n)."""
    end = len(text) - text.endswith("\r")  # a carriage return ending the text ends its line
    pos = text.rfind("\n", 0, _BLANK_LINES.match(text, 0, end).end()) + 1
    lineno = text.count("\n", 0, pos) + 1
    stop = text.find("\n", pos, end) + 1 or end
    counts, bad, values = _scan(text[pos:stop])
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
    table = np.empty(n * n, dtype=np.int16)
    at = filled = carry = 0  # tokens and rows read, and the tokens of a cut line
    outside = None  # the index of the first entry outside [0, n)
    pos, lineno = stop, lineno + 1
    while pos < end:
        stop, resume = _cut(text, pos, end)
        counts, bad, values = _scan(text[pos:stop])
        tokens = int(counts.sum())
        counts[0] += carry
        carry = int(counts[-1]) if resume < end else 0  # a line cut at the block's end
        counts[-1] -= carry
        if resume < end and bad and bad[0] == len(counts) - 1 and _STRAY.match(text, resume, end):
            bad = bad[0], _SEPARATOR  # a separator later in the cut line
        filled += _count_rows(counts, bad, n, filled, lineno)
        # past a table's worth of tokens, or n in a line, the text is refused once read
        if tokens and carry <= n and at + tokens <= n * n:
            entries = values()
            if outside is None and entries.view(np.uint32).max() >= n:
                outside = at + int(np.argmax(entries.view(np.uint32) >= n))
            table[at:at + tokens] = entries
        at += tokens
        lineno += len(counts) - 1
        pos = resume
    if filled != n:
        raise CayleyParseError(f"expected {n} table rows, found {filled}")
    if outside is not None:
        x, y = divmod(outside, n)
        raise CayleyValidationError("closure", f"entry at ({x}, {y}) is outside [0, {n})")
    return table.reshape(n, n)


def read_cayley_file(path: str) -> str:
    """A Cayley file's text; raises GroupError when it cannot be read as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupError(f"cannot read {path}: {exc}") from None


def parse_cayley_text(text: str, max_order: int = DEFAULT_MAX_ORDER) -> list[list[int]]:
    """Parse the raw file into an n x n list of ints in [0, n), raising a
    closure violation once it has parsed; no other law is checked. Raises
    GroupSizeError at the order line when n exceeds ``table_cap(max_order)``,
    before any table row is scanned."""
    return _read_table(text, max_order).tolist()


def _row_blocks(n: int) -> list[slice]:
    """The rows of an n x n table in blocks of about ``BLOCK`` entries."""
    step = max(1, BLOCK // n)
    return [slice(i, i + step) for i in range(0, n, step)]


def cayley_table(text: str, max_order: int = DEFAULT_MAX_ORDER) -> np.ndarray:
    """Read the table, its closure checked; renumber the identity e to 0
    in place, swapping the values 0 and e and then their rows and columns;
    check the Latin-square property and associativity: the int16 table of
    a group, not yet walked.

    A row that holds the identity is an element with a right inverse; when
    every row holds it and Light's test passes, the table is an associative
    finite monoid with right inverses, so a group, so a Latin square, and
    no line is scanned. A table that fails either test is scanned for a
    repeated entry, which wins over a failing triple.
    """
    table = _read_table(text, max_order)
    n = len(table)
    expect = np.arange(n)
    for e in np.flatnonzero(table[:, 0] == 0).tolist():  # the identity has e*0 == 0
        if np.array_equal(table[e], expect) and np.array_equal(table[:, e], expect):
            break
    else:
        raise CayleyValidationError("identity", "no two-sided identity element found")
    inverses = True  # every row holds the identity
    for rows in _row_blocks(n):
        block = table[rows]
        is_e = block == e
        inverses = inverses and bool(is_e.any(axis=1).all())
        if e:
            block[block == 0] = e
            block[is_e] = 0
    table[[0, e]] = table[[e, 0]]
    table[:, [0, e]] = table[:, [e, 0]]
    sigma = expect  # swaps labels 0 and e: its own inverse, it maps witnesses back
    sigma[[0, e]] = e, 0
    if not inverses:
        _check_latin(table, sigma)
    try:
        _check_associative(table, sigma)
    except CayleyValidationError:
        _check_latin(table, sigma)
        raise
    return table


def _check_latin(table: np.ndarray, sigma: np.ndarray) -> None:
    """Raise the latin-square violation of the renumbered ``table``, its
    entries in [0, n), if it has one: the file's first row, else its first
    column, that repeats an entry. Line i of ``table`` is line sigma[i] of
    the file."""
    expect = np.arange(len(table))
    for axis, lines in (("row", table), ("column", table.T)):
        # sorted in C order, each line is contiguous
        full = np.concatenate([(np.sort(np.ascontiguousarray(lines[rows])) == expect).all(axis=1)
                               for rows in _row_blocks(len(table))])[sigma]
        if not full.all():
            raise CayleyValidationError(
                "latin-square", f"{axis} {np.argmin(full)} repeats an entry")


def _check_associative(arr: np.ndarray, sigma: np.ndarray) -> None:
    """Light's associativity test over a greedily chosen generating set S;
    a failing triple is named through the relabelling ``sigma``. Each
    generator's products are compared a block of rows at a time.

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
        for rows in _row_blocks(n):
            lhs = arr.take(col[rows], axis=0)     # lhs[x, y] = (x*s)*y
            rhs = arr[rows].take(arr[s], axis=1)  # rhs[x, y] = x*(s*y)
            if not np.array_equal(lhs, rhs):
                x, y = np.argwhere(lhs != rhs)[0].tolist()
                x, y, s = sigma[[rows.start + x, y, s]].tolist()
                raise CayleyValidationError("associativity",
                                            f"({x}*{s})*{y} != {x}*({s}*{y})")
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
