"""Serializable group-construction descriptors and their textual grammar.

One flat grammar serves the CLI, reports, and roster listings:

    cyclic:N
    product:<spec>,<spec>,...
    dihedral:M                (order 2M, M >= 2)
    dicyclic:M                (order 4M, M >= 2)
    metacyclic:M:N:K          (Z_M x| Z_N, action i -> K*i)
    perm:DEGREE:<gen>,<gen>,...   with cycle-notation generators like (0 1 2)
    file:PATH                 (Cayley table file)

Nested products flatten, so serialization round-trips.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .errors import GroupParameterError, SpecSyntaxError
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_direct_product,
    make_metacyclic,
    closure_from_generators,
)

FAMILIES = ("cyclic", "product", "dihedral", "dicyclic", "metacyclic", "perm", "file")

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_GEN_RE = re.compile(r"^(\(\s*(\d+(\s+\d+)*)?\s*\))+$")


class GroupSpec:
    """A group construction: family name plus family-specific parameters.

    Instances are immutable and hashable; build them through the
    family-named classmethods so parameters are checked up front.
    """

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: tuple):
        if family not in FAMILIES:
            raise GroupParameterError(f"unknown family {family!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value):
        raise AttributeError("GroupSpec is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSpec)
            and self.family == other.family
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.family, self.params))

    def __repr__(self) -> str:
        return f"GroupSpec({self.serialize()!r})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        if n < 1:
            raise GroupParameterError(f"cyclic order must be >= 1, got {n}")
        return cls("cyclic", (n,))

    @classmethod
    def product(cls, children) -> "GroupSpec":
        flat: list[GroupSpec] = []
        for child in children:
            if not isinstance(child, GroupSpec):
                raise GroupParameterError("product children must be GroupSpec values")
            if child.family == "product":
                flat.extend(child.params)
            else:
                flat.append(child)
        if not flat:
            raise GroupParameterError("product needs at least one factor")
        return cls("product", tuple(flat))

    @classmethod
    def dihedral(cls, m: int) -> "GroupSpec":
        if m < 2:
            raise GroupParameterError(f"dihedral parameter must be >= 2, got {m}")
        return cls("dihedral", (m,))

    @classmethod
    def dicyclic(cls, m: int) -> "GroupSpec":
        if m < 2:
            raise GroupParameterError(f"dicyclic parameter must be >= 2, got {m}")
        return cls("dicyclic", (m,))

    @classmethod
    def metacyclic(cls, m: int, n: int, k: int) -> "GroupSpec":
        if m < 1 or n < 1 or k < 1:
            raise GroupParameterError(f"metacyclic parameters must be positive, got {(m, n, k)}")
        if math.gcd(k, m) != 1 or pow(k, n, m) != 1 % m:
            raise GroupParameterError(
                f"metacyclic needs gcd(k, m) = 1 and k^n = 1 (mod m), got {(m, n, k)}"
            )
        return cls("metacyclic", (m, n, k))

    @classmethod
    def perm(cls, degree: int, generators) -> "GroupSpec":
        if degree < 1:
            raise GroupParameterError(f"permutation degree must be >= 1, got {degree}")
        gens = tuple(tuple(g) for g in generators)
        if not gens:
            raise GroupParameterError("perm spec needs at least one generator")
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise GroupParameterError(f"{g} is not a permutation of 0..{degree - 1}")
        return cls("perm", (degree, gens))

    @classmethod
    def file(cls, path: str) -> "GroupSpec":
        if not path:
            raise GroupParameterError("file spec needs a path")
        return cls("file", (str(path),))

    # -- views ----------------------------------------------------------------

    def known_order(self) -> int | None:
        """The group order when it is determined by the parameters alone."""
        f = self.family
        if f == "cyclic":
            return self.params[0]
        if f == "product":
            orders = [c.known_order() for c in self.params]
            return None if any(o is None for o in orders) else math.prod(orders)
        if f == "dihedral":
            return 2 * self.params[0]
        if f == "dicyclic":
            return 4 * self.params[0]
        if f == "metacyclic":
            return self.params[0] * self.params[1]
        return None

    def serialize(self) -> str:
        f = self.family
        if f == "cyclic":
            return f"cyclic:{self.params[0]}"
        if f == "product":
            return "product:" + ",".join(c.serialize() for c in self.params)
        if f == "dihedral":
            return f"dihedral:{self.params[0]}"
        if f == "dicyclic":
            return f"dicyclic:{self.params[0]}"
        if f == "metacyclic":
            m, n, k = self.params
            return f"metacyclic:{m}:{n}:{k}"
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
        """Construct the described group; only a ``file:`` table is validated."""
        f = self.family
        kwargs = {"spec": self, "max_order": max_order}
        if f == "cyclic":
            return make_cyclic(self.params[0], **kwargs)
        if f == "product":
            parts = [c.realize(max_order=max_order) for c in self.params]
            return make_direct_product(parts, **kwargs)
        if f == "dihedral":
            return make_dihedral(self.params[0], **kwargs)
        if f == "dicyclic":
            return make_dicyclic(self.params[0], **kwargs)
        if f == "metacyclic":
            return make_metacyclic(*self.params, **kwargs)
        if f == "perm":
            degree, gens = self.params
            return closure_from_generators(degree, gens, **kwargs)
        from .cayley_io import ingest_cayley

        text = Path(self.params[0]).read_text(encoding="utf-8")
        return ingest_cayley(text, **kwargs)


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


def _split_top_level(text: str) -> list[str]:
    chunks = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecSyntaxError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            chunks.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise SpecSyntaxError(f"unbalanced parentheses in {text!r}")
    chunks.append("".join(current))
    return chunks


def _int_param(tok: str, context: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SpecSyntaxError(f"expected an integer in {context!r}") from None


def _parse_one(chunks: list[str], i: int) -> tuple[GroupSpec, int]:
    chunk = chunks[i].strip()
    if not chunk:
        raise SpecSyntaxError("empty group spec")
    head, _, rest = chunk.partition(":")
    try:
        if head == "cyclic":
            return GroupSpec.cyclic(_int_param(rest, chunk)), i + 1
        if head == "dihedral":
            return GroupSpec.dihedral(_int_param(rest, chunk)), i + 1
        if head == "dicyclic":
            return GroupSpec.dicyclic(_int_param(rest, chunk)), i + 1
        if head == "metacyclic":
            parts = rest.split(":")
            if len(parts) != 3:
                raise SpecSyntaxError(f"metacyclic needs m:n:k, got {chunk!r}")
            m, n, k = (_int_param(p, chunk) for p in parts)
            return GroupSpec.metacyclic(m, n, k), i + 1
        if head == "file":
            if not rest:
                raise SpecSyntaxError("file spec needs a path")
            return GroupSpec.file(rest), i + 1
        if head == "perm":
            deg_tok, _, first_gen = rest.partition(":")
            degree = _int_param(deg_tok, chunk)
            if not first_gen:
                raise SpecSyntaxError(f"perm spec needs generators, got {chunk!r}")
            gen_texts = [first_gen]
            j = i + 1
            while j < len(chunks) and chunks[j].strip().startswith("("):
                gen_texts.append(chunks[j].strip())
                j += 1
            gens = [parse_generator(t, degree) for t in gen_texts]
            return GroupSpec.perm(degree, gens), j
        if head == "product":
            if not rest:
                raise SpecSyntaxError("product spec needs factors")
            sub = [rest] + chunks[i + 1:]
            children = []
            j = 0
            while j < len(sub):
                child, j = _parse_one(sub, j)
                children.append(child)
            return GroupSpec.product(children), len(chunks)
    except GroupParameterError as exc:
        raise SpecSyntaxError(str(exc)) from None
    raise SpecSyntaxError(f"unknown group family in {chunk!r}")


def parse_spec(text: str) -> GroupSpec:
    """Parse a textual group spec; raises SpecSyntaxError on malformed input."""
    if not isinstance(text, str) or not text.strip():
        raise SpecSyntaxError("empty group spec")
    chunks = _split_top_level(text.strip())
    spec, nxt = _parse_one(chunks, 0)
    if nxt != len(chunks):
        raise SpecSyntaxError(f"trailing content after spec: {','.join(chunks[nxt:])!r}")
    return spec
