"""Reading Cayley-table files: the one way an untrusted table gets in.

Format: the first data line holds the order n, the next n lines hold n
entries each: ASCII decimal integers with an optional sign, separated by
spaces and tabs. Only a line feed ends a line, and one carriage return
before it is dropped, so CRLF files read the same. ``#`` starts a comment
that runs to the end of the line and blank lines are skipped; any other
text, other ASCII whitespace and non-ASCII digits or spaces included, is a
parse error. A file that cannot be read or is not UTF-8 raises GroupError.

A file's table is untrusted, and this module alone checks group laws. An
order above the cap is rejected at the order line, and each law is checked
exactly before the table is used, the first broken one named, in the order
closure, identity, latin-square, associativity. Each law is one flat numpy
pass over the table (associativity one per generator), and every witness
is named in the file's own labels. An entry outside [0, n), negative or of
any size, breaks closure: the table is read in int64 and becomes int16 only
once it is a Latin square. The identity may sit at any index; the cast
renumbers it to index 0. Associativity is Light's test, O(n^2 log n) for a
group.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import numpy as np

from .errors import CayleyParseError, CayleyValidationError, GroupError, GroupSizeError
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, table_cap

# np.fromstring reads a lone sign as a number ("- 1" -> [-1]), so a line
# holding a sign must also match the grammar
_SIGNED_LINE = re.compile(r"\s*[+-]?[0-9]+(?:\s+[+-]?[0-9]+)*\s*", re.ASCII)


def _read_table(text: str, max_order: int) -> np.ndarray:
    """The raw n x n int64 table (see ``parse_cayley_text``). np.fromstring
    saturates a token beyond int64 to the int64 maximum; closure rejects it."""
    table, n, filled = None, 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 warns on bad text
        # not str.splitlines, which also ends a line at \x0b, \x0c, \x1c-\x1e,
        # U+0085, U+2028 and U+2029
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.removesuffix("\r").split("#", 1)[0]
            if not line.strip(" \t"):
                continue
            # np.fromstring would take these as separators, and a line of them as [0]
            if "\r" in line or "\x0b" in line or "\x0c" in line:
                raise CayleyParseError(f"line {lineno}: a separator other than space or tab")
            try:
                if ("+" in line or "-" in line) and not _SIGNED_LINE.fullmatch(line):
                    raise ValueError
                values = np.fromstring(line, dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning):
                raise CayleyParseError(f"line {lineno}: non-integer token") from None
            if table is None:
                if len(values) != 1:
                    raise CayleyParseError(
                        f"line {lineno}: expected a single order, got {values.tolist()}")
                n = int(values[0])
                if n < 1:
                    raise CayleyParseError(f"line {lineno}: order must be >= 1, got {n}")
                cap = table_cap(max_order)
                if n > cap:
                    raise GroupSizeError(f"group order {n} exceeds the cap of {cap}")
                table = np.empty((n, n), dtype=np.int64)
                continue
            if len(values) != n:
                raise CayleyParseError(f"line {lineno}: expected {n} entries, got {len(values)}")
            if filled == n:
                raise CayleyParseError(f"line {lineno}: more than {n} table rows")
            table[filled] = values
            filled += 1
    if table is None:
        raise CayleyParseError("empty file: no order line found")
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
    ``table_cap(max_order)``, before any table row is read.
    """
    return _read_table(text, max_order).tolist()


def cayley_table(text: str, max_order: int = DEFAULT_MAX_ORDER) -> np.ndarray:
    """Parse; check closure, locate the identity e and check the Latin-square
    property on the file's table; renumber e to 0 in the cast to int16 and
    check associativity: the int16 table of a group, not yet walked."""
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
    offsets = np.arange(0, n * n, n)
    for axis, offset in (("row", offsets[:, None]), ("column", offsets)):
        seen = np.zeros(n * n, dtype=bool)
        seen[arr + offset] = True  # seen[i*n + v]: value v occurs in line i
        full = seen.reshape(n, n).all(axis=1)
        if not full.all():
            raise CayleyValidationError(
                "latin-square", f"{axis} {np.argmin(full)} repeats an entry")
    # sigma swaps labels 0 and e; it is its own inverse, so it also maps a
    # renumbered witness back to the file's labels
    sigma = expect.astype(np.int16)
    sigma[[0, e]] = e, 0
    arr = sigma.take(arr)
    arr[[0, e]] = arr[[e, 0]]
    arr[:, [0, e]] = arr[:, [e, 0]]
    _check_associative(arr, sigma)
    return arr


def _check_associative(arr: np.ndarray, sigma: np.ndarray) -> None:
    """Light's associativity test over a greedily chosen generating set S;
    a failing triple is named through the relabelling ``sigma``.

    The elements s with (x*s)*y == x*(s*y) for all x, y are closed under
    products, so checking each s in S covers every element S generates.
    S grows by the first element not yet reached, and the reached set is
    closed under right multiplication by S; for a group each new generator
    at least doubles it, so |S| <= log2 n and the test costs O(n^2 log n).
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
