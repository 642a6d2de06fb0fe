"""Reading Cayley-table files.

Format: the first data line holds the order n, the next n lines hold n
whitespace-separated 0-based element indices each. ``#`` starts a comment
that runs to the end of the line. The identity may sit at any index; it is
located and renumbered to index 0 before validation. A file's table is
untrusted: an order above the cap is rejected at the order line, and every
group law is checked exactly before the table is used.
"""

from __future__ import annotations

import numpy as np

from .errors import CayleyParseError, CayleyValidationError, GroupSizeError
from .groups import DEFAULT_MAX_ORDER, FiniteGroup


def parse_cayley_text(text: str, max_order: int = DEFAULT_MAX_ORDER) -> list[list[int]]:
    """Parse the raw file into an n x n list of ints (no group laws checked).

    Raises GroupSizeError at the order line when n exceeds ``max_order``,
    before any table row is read.
    """
    rows: list[list[int]] = []
    n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise CayleyParseError(f"line {lineno}: non-integer token ({exc})") from None
        if n is None:
            if len(values) != 1:
                raise CayleyParseError(f"line {lineno}: expected a single order, got {values}")
            n = values[0]
            if n < 1:
                raise CayleyParseError(f"line {lineno}: order must be >= 1, got {n}")
            if n > max_order:
                raise GroupSizeError(f"group order {n} exceeds the cap of {max_order}")
            continue
        if len(values) != n:
            raise CayleyParseError(
                f"line {lineno}: expected {n} entries, got {len(values)}"
            )
        rows.append(values)
        if len(rows) > n:
            raise CayleyParseError(f"line {lineno}: more than {n} table rows")
    if n is None:
        raise CayleyParseError("empty file: no order line found")
    if len(rows) != n:
        raise CayleyParseError(f"expected {n} table rows, found {len(rows)}")
    return rows


def _find_identity(rows: list[list[int]]) -> int | None:
    n = len(rows)
    for e in range(n):
        if all(rows[e][j] == j for j in range(n)) and all(rows[i][e] == i for i in range(n)):
            return e
    return None


def ingest_cayley(text: str, *, spec=None, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Parse, locate the identity, renumber it to 0, and validate."""
    rows = parse_cayley_text(text, max_order)
    n = len(rows)
    arr = np.array(rows, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= n:
        raise CayleyValidationError("closure", f"table entries must lie in [0, {n})")
    e = _find_identity(rows)
    if e is None:
        raise CayleyValidationError("identity", "no two-sided identity element found")
    if e != 0:
        sigma = np.arange(n)
        sigma[[0, e]] = [e, 0]
        arr = sigma[arr[np.ix_(sigma, sigma)]]
    return FiniteGroup.from_table(arr, spec=spec, max_order=max_order)
