"""Serializable group-construction descriptors and their textual grammar.

One flat grammar serves the CLI, reports, and roster listings:

    cyclic:N
    product:<spec>,<spec>,...
    dihedral:M                (order 2M, M >= 2)
    dicyclic:M                (order 4M, M >= 2)
    metacyclic:M:N:K          (Z_M x| Z_N, action i -> K*i)
    perm:DEGREE:<gen>,<gen>,...   with cycle-notation generators like (0 1 2)
    file:PATH                 (Cayley table file)

The four integer families are described once, in ``_INT_FAMILIES``: the
grammar of their parameters and the presentation (m, n, k, t) of
<a, b | a^m = 1, b^n = a^t, bab^-1 = a^k> that they name, the input of
``groups.metacyclic_table``, the one closed-form builder: cyclic:N is
(N, 1, 1, 0), dihedral:M (M, 2, M-1, 0), dicyclic:M (2M, 2, 2M-1, M) and
metacyclic:M:N:K (M, N, K, 0), each of order m*n. Parsing, serialization,
``known_order`` and the table each read them in one branch off that table.

``parse_spec`` reads a spec in one pass and checks its syntax only. Each
factor drops its "product:" prefixes, so products flatten at any depth, and
a product made directly refuses a product factor: serialization
round-trips. A spec is the only way to build a group: ``GroupSpec`` checks
each family's parameter laws when it is made, and ``realize`` checks the
order cap before it calls a table builder of ``epgraph.groups``
(``cayley_io.cayley_table`` for a file) and wraps the table in one
``FiniteGroup``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cayley_io import cayley_table, read_cayley_file
from .errors import GroupParameterError, GroupSizeError, SpecSyntaxError
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    closure_table,
    metacyclic_table,
    product_table,
    table_cap,
)

FAMILIES = ("cyclic", "product", "dihedral", "dicyclic", "metacyclic", "perm", "file")


class _IntFamily(NamedTuple):
    names: tuple[str, ...]  # the grammar: one integer per name after "family:"
    presentation: Callable[..., tuple[int, int, int, int]]  # metacyclic_table's (m, n, k, t)


_INT_FAMILIES = {
    "cyclic": _IntFamily(("n",), lambda n: (n, 1, 1, 0)),
    "dihedral": _IntFamily(("m",), lambda m: (m, 2, m - 1, 0)),
    "dicyclic": _IntFamily(("m",), lambda m: (2 * m, 2, 2 * m - 1, m)),
    "metacyclic": _IntFamily(("m", "n", "k"), lambda m, n, k: (m, n, k, 0)),
}

# ASCII: \d and \s would also match non-ASCII digits and spaces
_CYCLE_RE = re.compile(r"\(([^()]*)\)", re.ASCII)
_GEN_RE = re.compile(r"^(\(\s*(\d+(\s+\d+)*)?\s*\))+$", re.ASCII)
_INT_RE = re.compile(r"-?[0-9]+")
# "product:" prefixes in one linear match; \s matches what str.strip strips
_PRODUCTS_RE = re.compile(r"(?:product:\s*)*")


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """A group construction: family name plus family-specific parameters.

    Instances are immutable and hashable. The parameters are checked when
    the spec is made, raising GroupParameterError: an integer family takes
    exactly as many ``int`` parameters as its grammar in ``_INT_FAMILIES``
    names, and every family's parameters obey its laws. The family-named
    classmethods only shape them.
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GroupParameterError(f"unknown family {self.family!r}")
        _check_laws(self.family, self.params)

    def __repr__(self) -> str:
        return f"GroupSpec({self.serialize()!r})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        return cls("cyclic", (n,))

    @classmethod
    def product(cls, children) -> "GroupSpec":
        flat: list = []
        for child in children:
            if isinstance(child, GroupSpec) and child.family == "product":
                flat.extend(child.params)
            else:
                flat.append(child)
        return cls("product", tuple(flat))

    @classmethod
    def dihedral(cls, m: int) -> "GroupSpec":
        return cls("dihedral", (m,))

    @classmethod
    def dicyclic(cls, m: int) -> "GroupSpec":
        return cls("dicyclic", (m,))

    @classmethod
    def metacyclic(cls, m: int, n: int, k: int) -> "GroupSpec":
        return cls("metacyclic", (m, n, k))

    @classmethod
    def perm(cls, degree: int, generators) -> "GroupSpec":
        return cls("perm", (degree, tuple(tuple(g) for g in generators)))

    @classmethod
    def file(cls, path: str) -> "GroupSpec":
        return cls("file", (str(path) if path else "",))

    # -- views ----------------------------------------------------------------

    def known_order(self) -> int | None:
        """The group order when it is determined by the parameters alone."""
        f = self.family
        if f in _INT_FAMILIES:
            m, n, _, _ = _INT_FAMILIES[f].presentation(*self.params)
            return m * n
        if f == "product":
            orders = [c.known_order() for c in self.params]
            return None if any(o is None for o in orders) else math.prod(orders)
        return None

    def serialize(self) -> str:
        f = self.family
        if f in _INT_FAMILIES:
            return f"{f}:" + ":".join(map(str, self.params))
        if f == "product":
            return "product:" + ",".join(c.serialize() for c in self.params)
        if f == "perm":
            degree, gens = self.params
            return f"perm:{degree}:" + ",".join(cycle_notation(g) for g in gens)
        return f"file:{self.params[0]}"

    def display(self) -> str:
        """A short human-facing name (used as the graph title in exports)."""
        f = self.family
        if f == "cyclic":
            return f"Z{self.params[0]}"
        if f == "product":
            return "x".join(c.display() for c in self.params)
        if f == "dihedral":
            return f"D{self.params[0]}"
        if f == "dicyclic":
            m = self.params[0]
            return f"Q{4 * m}" if m & (m - 1) == 0 else f"Dic{m}"
        if f == "metacyclic":
            m, n, k = self.params
            if n == 2 and m >= 8 and m & (m - 1) == 0 and k == m // 2 - 1:
                return f"SD{2 * m}"
            return f"Meta({m},{n},{k})"
        if f == "perm":
            degree, gens = self.params
            return f"Perm{degree}:" + ",".join(cycle_notation(g) for g in gens)
        return Path(self.params[0]).name

    def realize(self, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
        """Construct the described group; only a ``file:`` table is validated.

        Raises GroupSizeError when the order exceeds ``max_order``: before
        any table is built when the parameters fix the order, and while
        building for a permutation closure or a file.
        """
        return FiniteGroup(self._table(max_order), self)

    def _table(self, max_order: int) -> np.ndarray:
        """The multiplication table; a product folds its factors' tables."""
        self._check_cap(max_order)
        f, p = self.family, self.params
        if f in _INT_FAMILIES:
            return metacyclic_table(*_INT_FAMILIES[f].presentation(*p))
        if f == "perm":
            return closure_table(*p, max_order=max_order)
        if f == "file":
            return cayley_table(read_cayley_file(p[0]), max_order)
        tables = [c._table(max_order) for c in p]
        self._check_cap(max_order, math.prod(len(t) for t in tables))
        return product_table(tables)

    def _check_cap(self, max_order: int, order: int | None = None) -> None:
        """Raise GroupSizeError when ``order`` (default ``known_order()``)
        exceeds ``table_cap(max_order)``. A product too large first names a
        factor too large on its own, as building the factors left to right
        would."""
        if order is None:
            order = self.known_order()
        cap = table_cap(max_order)
        if order is None or order <= cap:
            return
        if self.family != "product":
            raise GroupSizeError(f"group order {order} exceeds the cap of {cap}")
        for c in self.params:
            c._check_cap(max_order)
        raise GroupSizeError(f"product order {order} exceeds the cap of {cap}")


def _check_laws(family: str, params: tuple) -> None:
    """Raise GroupParameterError unless ``params`` obey the family's laws.
    Their shape is checked first: an integer family takes as many ``int``
    values as its grammar names, ``perm`` an ``int`` degree and a tuple of
    ``int`` tuples, and ``file`` one ``str``, a path its spec text names."""
    if family in _INT_FAMILIES:
        names = _INT_FAMILIES[family].names
        if len(params) != len(names) or not all(type(p) is int for p in params):
            grammar = ":".join(names)
            raise GroupParameterError(f"{family} needs int parameters {grammar}, got {params!r}")
    if family == "cyclic":
        if params[0] < 1:
            raise GroupParameterError(f"cyclic order must be >= 1, got {params[0]}")
    elif family == "product":
        # flat, as GroupSpec.product makes it, so its text parses back to it
        if not all(isinstance(c, GroupSpec) and c.family != "product" for c in params):
            raise GroupParameterError("product factors must be GroupSpec values, none a product")
        if not params:
            raise GroupParameterError("product needs at least one factor")
    elif family in ("dihedral", "dicyclic"):
        if params[0] < 2:
            raise GroupParameterError(f"{family} parameter must be >= 2, got {params[0]}")
    elif family == "metacyclic":
        m, n, k = params
        if m < 1 or n < 1 or k < 1:
            raise GroupParameterError(f"metacyclic parameters must be positive, got {params}")
        if math.gcd(k, m) != 1 or pow(k, n, m) != 1 % m:
            raise GroupParameterError(
                f"metacyclic needs gcd(k, m) = 1 and k^n = 1 (mod m), got {params}"
            )
    elif family == "perm":
        shaped = len(params) == 2 and type(params[0]) is int and type(params[1]) is tuple
        if not shaped or not all(type(g) is tuple and all(type(x) is int for x in g)
                                 for g in params[1]):
            raise GroupParameterError(
                f"perm needs an int degree and a tuple of int tuples, got {params!r}"
            )
        degree, gens = params
        if degree < 1:
            raise GroupParameterError(f"permutation degree must be >= 1, got {degree}")
        if not gens:
            raise GroupParameterError("perm spec needs at least one generator")
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise GroupParameterError(f"{g} is not a permutation of 0..{degree - 1}")
    elif len(params) != 1 or type(params[0]) is not str:
        raise GroupParameterError(f"file needs one str path, got {params!r}")
    elif not params[0] or "," in params[0] or params[0] != params[0].rstrip():
        # the grammar ends a path at a comma and strips the whitespace ending it
        raise GroupParameterError(f"no spec text names the file path {params[0]!r}: it is "
                                  "empty, holds a comma or ends in whitespace")


def cycle_notation(perm) -> str:
    """One-line image tuple -> canonical cycle notation, '()' for the identity."""
    seen = set()
    parts = []
    for s in range(len(perm)):
        if s in seen or perm[s] == s:
            seen.add(s)
            continue
        cyc = [s]
        seen.add(s)
        t = perm[s]
        while t != s:
            cyc.append(t)
            seen.add(t)
            t = perm[t]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def parse_generator(text: str, degree: int) -> tuple[int, ...]:
    """Cycle notation like '(0 1)(2 3)' -> one-line image tuple."""
    s = text.strip()
    if not _GEN_RE.match(s):
        raise SpecSyntaxError(f"malformed permutation {text!r}")
    mapping = list(range(degree))
    touched: set[int] = set()
    for m in _CYCLE_RE.finditer(s):
        pts = [int(tok) for tok in m.group(1).split()]
        for v in pts:
            if v >= degree:
                raise SpecSyntaxError(f"point {v} out of range for degree {degree}")
            if v in touched:
                raise SpecSyntaxError(f"point {v} repeated in {text!r}")
            touched.add(v)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            mapping[a] = b
    return tuple(mapping)


def _int_param(tok: str, context: str) -> int:
    """An ASCII decimal integer, minus sign allowed; not what int() also
    takes (spaces, a plus sign, underscores, non-ASCII digits)."""
    if not _INT_RE.fullmatch(tok):
        raise SpecSyntaxError(f"expected an integer in {context!r}")
    return int(tok)


def _parse_factor(text: str, *gens: str) -> GroupSpec:
    """One factor, its leading "product:" prefixes dropped: an integer
    family, a ``perm`` whose further generators are ``gens``, or a
    ``file``. Only the syntax is checked here; GroupSpec checks the laws."""
    text = text[_PRODUCTS_RE.match(text).end():]
    if not text:
        raise SpecSyntaxError("empty group spec")
    head, _, rest = text.partition(":")
    if head == "perm":
        deg_tok, _, first_gen = rest.partition(":")
        degree = _int_param(deg_tok, text)
        return GroupSpec.perm(degree, [parse_generator(g, degree) for g in (first_gen, *gens)])
    if gens:
        raise SpecSyntaxError(f"trailing content after spec: {','.join(gens)!r}")
    if head in _INT_FAMILIES:  # GroupSpec checks the parameter count
        return GroupSpec(head, tuple([_int_param(p, text) for p in rest.split(":")]))
    if head == "file":
        return GroupSpec.file(rest)
    raise SpecSyntaxError(f"unknown group family in {text!r}")


def parse_spec(text: str) -> GroupSpec:
    """Parse a textual group spec; raises SpecSyntaxError on malformed input.
    Of the pieces between commas, one that opens with '(' is a generator of
    the piece before it; a product is a spec opening with "product:"."""
    if not isinstance(text, str):
        raise SpecSyntaxError(f"group spec must be a str, got {type(text).__name__}")
    factors: list[list[str]] = []  # a factor's text, then its further generators
    for piece in map(str.strip, text.split(",")):
        if factors and piece.startswith("("):
            factors[-1].append(piece)
        else:
            factors.append([piece])
    product = factors[0][0].startswith("product:")
    if len(factors) > 1 and not product:
        rest = ",".join(",".join(f) for f in factors[1:])
        raise SpecSyntaxError(f"trailing content after spec: {rest!r}")
    try:
        specs = [_parse_factor(*f) for f in factors]
        return GroupSpec.product(specs) if product else specs[0]
    except GroupParameterError as exc:
        raise SpecSyntaxError(str(exc)) from None
