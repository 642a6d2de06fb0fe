"""Machine checks for the characterization theorems, run over group rosters.

Every check pairs a graph-side predicate (computed on the enhanced power
graph or its deleted variant) with a group-side predicate (computed from
the multiplication table), and asserts that the two are equal on every
roster group passing the check's filter; a one-way implication puts its
hypothesis in the filter, and its group side is true.
A counterexample on any roster group signals an implementation bug, never
new mathematics: each check encodes a proved statement.

``run_all`` is the one verify loop. It runs every selected check over
one list of specs: a caller's, or else the standard roster followed by
the coprime products T3.1 adds to it. Verification is group-major, with
no bundle cache, over each distinct spec of the list once, in order of
first appearance, so ``tested`` counts groups. Each group is realized and
its bundle built once, every selected check run on it, and it is dropped
before the next group's is built, so memory stays that of one group
however long the roster. The specs are split over the usable CPUs: spec
i goes to shard i mod w, the caller streams shard 0 and a forked child
each other shard, and the shards' reports are summed, with the
counterexamples put back in the list's order, so the output is the same
for every w apart from ``ms``, the predicate time summed over shards. A
process with a second live Python thread, or a platform without
``os.fork``, streams every spec itself.

Every graph side but T2.1's reads a field of the bundle's lazy
``PropertyReport`` on its enhanced power graph (``bundle.report``) or on
its deleted graph (``bundle.deleted_report``), so each decider runs at
most once per graph, whichever checks ask: T2.2 and C2.3 share one cycle
search, T3.1-T3.4 one cone-vertex scan, and T5.1-T5.3 one connectivity
test. A report asks for a star only of a tree and for connectivity only
when every degree is even. T2.1 reads the graph by bitmasks: one mask per
generator class (a walk's members whose order is the walk's length) and
one union per subgroup size, so each generator's row is tested once, in
plain loops that stop at the first cross edge.

Every ``applies`` and group side reads only the group, never a graph or
a spec, so a fault in graph construction cannot move both sides of a
check together, and a check means the same on any group. T2.4's "cyclic"
is some element of order |G|, T4.1's group side is the largest element
order, T3.1 applies when some central z has order n coprime to |G|/n,
the group sides of T3.2, T3.3 and T5.1 test ``prime_subgroup_counts``
inline, which T3.4's simplicity test reads before any normal closure, and
T5.3 marks the order-p elements of each walk whose length is not a power
of p. T3.3's and T5.1's filters ask for a prime-power order, and T5.3's
for two or more primes, by ``prime_factors`` of the order.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, BinaryIO, Callable, Optional, Sequence

from .cyclic import _generator_positions
from .epg import EpgBundle, build_bundle
from .errors import GroupParameterError, GroupSizeError
from .groups import is_simple, prime_factors, prime_subgroup_counts, table_cap
from .specs import GroupSpec

# (order, degree, generators) for the fixed permutation-closure roster members
_PERM_ROSTER = (
    (6, 3, ((1, 0, 2), (1, 2, 0))),            # S3: (0 1), (0 1 2)
    (12, 4, ((1, 2, 0, 3), (0, 2, 3, 1))),     # A4: (0 1 2), (1 2 3)
    (24, 4, ((1, 0, 2, 3), (1, 2, 3, 0))),     # S4: (0 1), (0 1 2 3)
    (60, 5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0))),  # A5: (0 1 2), (0 1 2 3 4)
)


def _abelian_noncyclic_shapes(max_order: int) -> list[tuple[int, ...]]:
    """Non-decreasing multisets of prime powers with a repeated prime.

    Shapes whose primes are pairwise distinct are isomorphic to a cyclic
    group and are left to the cyclic roster.
    """
    prime_powers = [
        q for q in range(2, max_order // 2 + 1) if len(prime_factors(q)) == 1
    ]
    shapes: list[tuple[int, ...]] = []

    def grow(start: int, prod: int, shape: list[int]) -> None:
        if len(shape) >= 2:
            primes = [min(prime_factors(q)) for q in shape]
            if len(set(primes)) < len(primes):
                shapes.append(tuple(shape))
        for i in range(start, len(prime_powers)):
            q = prime_powers[i]
            if prod * q > max_order:
                continue
            shape.append(q)
            grow(i, prod * q, shape)
            shape.pop()

    grow(0, 1, [])
    return shapes


def roster_generate(max_order: int) -> list[GroupSpec]:
    """Deterministic roster of group specs with orders up to max_order.

    Families: all cyclic groups; abelian products of prime-power cyclic
    factors (deduplicated by shape, cyclic shapes omitted); dihedral,
    dicyclic, and a fixed metacyclic family (semidihedral 2-groups plus a
    few non-abelian odd-order and 3-group members); S3, A4, S4, A5 as
    permutation closures. Sorted by (order, family, parameters).
    """
    if max_order < 1:
        raise GroupParameterError(f"max_order must be >= 1, got {max_order}")

    entries: list[tuple[int, str, tuple, GroupSpec]] = []
    for n in range(1, max_order + 1):
        entries.append((n, "cyclic", (n,), GroupSpec.cyclic(n)))
    for shape in _abelian_noncyclic_shapes(max_order):
        spec = GroupSpec.product([GroupSpec.cyclic(q) for q in shape])
        entries.append((math.prod(shape), "product", shape, spec))
    for m in range(3, max_order // 2 + 1):
        entries.append((2 * m, "dihedral", (m,), GroupSpec.dihedral(m)))
    for m in range(2, max_order // 4 + 1):
        entries.append((4 * m, "dicyclic", (m,), GroupSpec.dicyclic(m)))
    params: list[tuple[int, int, int]] = []
    size = 16
    while size <= max_order:  # semidihedral 2-groups
        params.append((size // 2, 2, size // 4 - 1))
        size *= 2
    if max_order >= 20:
        params.append((5, 4, 2))
    if max_order >= 21:
        params.append((7, 3, 2))
    if max_order >= 27:
        params.append((9, 3, 4))
    for m, n, k in params:
        entries.append((m * n, "metacyclic", (m, n, k), GroupSpec.metacyclic(m, n, k)))
    for order, degree, gens in _PERM_ROSTER:
        if order <= max_order:
            entries.append((order, "perm", (degree, gens), GroupSpec.perm(degree, gens)))

    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return [spec for _, _, _, spec in entries]


@dataclass(frozen=True)
class TheoremCheck:
    """One checkable statement: a filter and two sides that must be equal.

    A check holds on a group it applies to when its graph side equals its
    group side. An "implies" check puts its hypothesis in ``applies`` and
    has the group side ``_const_true``; ``direction`` ("iff" or "implies")
    only decides whether a check that tested no group makes ``verify`` exit
    1, as a vacuous "iff" check does. ``roster`` names the groups this
    check adds to the one roster.

    The benchmark's tracer rebuilds every check with
    ``dataclasses.replace`` on ``applies``, ``graph_side``, ``group_side``
    and ``roster``, and labels its spans with the bundle's
    ``group.spec``: so the fields keep their names, every predicate takes
    the bundle as its one argument, and a bundle's group keeps its spec.
    """

    check_id: str
    direction: str
    summary: str
    applies: Callable[[EpgBundle], bool]
    graph_side: Callable[[EpgBundle], Any]
    group_side: Callable[[EpgBundle], Any]
    roster: Optional[Callable[[int], list[GroupSpec]]] = None


@dataclass
class Counterexample:
    spec: str
    graph_side: Any
    group_side: Any
    witness: Any = None


@dataclass
class TheoremReport:
    theorem: str
    tested: int
    passed: int
    vacuous: bool
    counterexamples: list[Counterexample] = field(default_factory=list)
    ms: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


# -- predicate helpers --------------------------------------------------------


def _const_true(_bundle: EpgBundle) -> bool:
    return True


def _is_cyclic(bundle: EpgBundle) -> bool:
    return bundle.group.order in bundle.group.orders


def _no_cross_edges_between_equal_order_classes(bundle: EpgBundle) -> bool:
    """No adjacency between generator classes of equal order but distinct subgroups.

    A walk of length k generates <g>, whose generators are its members
    x^j with gcd(j, k) = 1, at the positions the walk itself gives orders
    to (``cyclic._generator_positions``). Each class is one bitmask, and
    the classes of one subgroup size are OR-ed into one union; a
    generator's row may meet that union only inside its own class. A size
    with a single class has nothing to cross. Plain loops build the masks
    and test the rows, returning at the first cross edge.
    """
    rows = bundle.epg.rows
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for walk in bundle.group.walks:
        by_size.setdefault(len(walk), []).append(walk)
    for k, walks in by_size.items():
        if len(walks) < 2:
            continue
        positions = _generator_positions(k)
        masks = []
        for walk in walks:
            mask = 0
            for j in positions:
                mask |= 1 << walk[j]
            masks.append(mask)
        union = sum(masks)  # the classes are disjoint
        for walk, mask in zip(walks, masks):
            others = union ^ mask
            for j in positions:
                if rows[walk[j]] & others:
                    return False
    return True


def _t53_applies(bundle: EpgBundle) -> bool:
    group = bundle.group
    return len(prime_factors(group.order)) >= 2 and len(prime_factors(len(group.center()))) == 1


def _t53_group_side(bundle: EpgBundle) -> bool:
    """Every non-central order-p element touches a non-p-element (p from the center).

    An x of order p touches one exactly when x lies in a walk whose length
    k is not a power of p. Its order-p elements are ``walk[j * k / p - 1]``,
    0 < j < p; each such walk strikes its own off the non-central ones, and
    the side holds when none is left. It reads the walks, never the graph.
    """
    group = bundle.group
    center = group.center()
    p = next(iter(prime_factors(len(center))))
    unmarked = {x for x, o in enumerate(group.orders) if o == p}.difference(center)
    for walk in group.walks:
        k = len(walk)
        if k % p == 0 and len(prime_factors(k)) > 1:
            unmarked.difference_update(walk[j * (k // p) - 1] for j in range(1, p))
            if not unmarked:
                return True
    return not unmarked


def _t31_roster(max_order: int) -> list[GroupSpec]:
    """Coprime pairs: non-cyclic roster groups of order <= 24 times Z_n."""
    out: list[GroupSpec] = []
    for base in roster_generate(min(24, max_order)):
        if base.family == "cyclic":
            continue
        base_order = base.known_order()
        if base_order is None:
            base_order = next(o for o, d, g in _PERM_ROSTER if base.params == (d, g))
        for n in (3, 5, 7, 9):
            if math.gcd(base_order, n) == 1 and base_order * n <= max_order:
                out.append(GroupSpec.product([base, GroupSpec.cyclic(n)]))
    return out


def _coprime_central(bundle: EpgBundle) -> list[int]:
    """The central z != 1 whose order n is coprime to |G|/n: each is a cone vertex.

    For any g, <g, z> is abelian; its Sylow p-subgroup is <z>'s, all of G's
    p-part, for p | n, and embeds in the cyclic <g, z>/<z> for any other p.
    So <g, z> is cyclic. In H x Z_n with gcd(|H|, n) = 1, z = (identity,
    generator) is one.
    """
    group, orders = bundle.group, bundle.group.orders
    return [z for z in group.center()[1:] if math.gcd(orders[z], group.order // orders[z]) == 1]


def _c23_graph_side(bundle: EpgBundle) -> list[bool]:
    report = bundle.report
    return [report.bipartite, report.tree, report.star]


def _c23_group_side(bundle: EpgBundle) -> list[bool]:
    return [all(o <= 2 for o in bundle.group.orders)] * 3


CHECKS: tuple[TheoremCheck, ...] = (
    TheoremCheck(
        "T2.1", "iff",
        "equal-order generator classes with distinct subgroups have no cross edges",
        _const_true, _no_cross_edges_between_equal_order_classes, _const_true,
    ),
    TheoremCheck(
        "T2.2", "iff",
        "the enhanced power graph has a cycle iff some element has order >= 3",
        _const_true,
        lambda b: b.report.cycle,
        lambda b: any(o >= 3 for o in b.group.orders),
    ),
    TheoremCheck(
        "C2.3", "iff",
        "bipartite = tree = star = every non-identity element has order 2",
        _const_true, _c23_graph_side, _c23_group_side,
    ),
    TheoremCheck(
        "T2.4", "iff",
        "the enhanced power graph is complete iff the group is cyclic",
        _const_true, lambda b: b.report.complete, _is_cyclic,
    ),
    TheoremCheck(
        "T3.1", "implies",
        "a central z of order n coprime to |G|/n is a cone vertex, as in H x Z_n",
        lambda b: bool(_coprime_central(b)),
        lambda b: set(_coprime_central(b)).issubset(b.report.cone_vertices), _const_true,
        roster=_t31_roster,
    ),
    TheoremCheck(
        "T3.2", "iff",
        "abelian: cone vertex exists iff some Sylow subgroup is cyclic",
        lambda b: b.group.order >= 2 and b.group.is_abelian(),
        lambda b: bool(b.report.cone_vertices),
        # an abelian group's Sylow p-subgroup is cyclic iff it has one subgroup of order p
        lambda b: 1 in prime_subgroup_counts(b.group).values(),
    ),
    TheoremCheck(
        "T3.3", "iff",
        "non-abelian p-group: cone vertex exists iff generalized quaternion",
        lambda b: not b.group.is_abelian() and len(prime_factors(b.group.order)) == 1,
        lambda b: bool(b.report.cone_vertices),
        # a non-abelian p-group with one subgroup of order 2 is generalized quaternion
        lambda b: prime_subgroup_counts(b.group) == {2: 1},
    ),
    TheoremCheck(
        "T3.4", "implies",
        "non-abelian simple groups have no cone vertex",
        # a non-abelian simple group has a trivial center, and center() is cached
        lambda b: len(b.group.center()) == 1 and not b.group.is_abelian() and is_simple(b.group),
        lambda b: not b.report.cone_vertices, _const_true,
    ),
    TheoremCheck(
        "T4.1", "iff",
        "planar iff every element order lies in {1, 2, 3, 4}",
        _const_true,
        lambda b: b.report.planar,
        lambda b: max(b.group.orders) <= 4,
    ),
    TheoremCheck(
        "T4.2", "iff",
        "Eulerian iff the group order is odd (with even degrees throughout)",
        _const_true, lambda b: b.report.eulerian, lambda b: b.group.order % 2 == 1,
    ),
    TheoremCheck(
        "T5.1", "iff",
        "p-group: deleted graph connected iff the minimal subgroup is unique",
        lambda b: len(prime_factors(b.group.order)) == 1,
        lambda b: b.deleted_report.connected,
        # the minimal subgroups are those of prime order
        lambda b: sum(prime_subgroup_counts(b.group).values()) == 1,
    ),
    TheoremCheck(
        "T5.2", "implies",
        "two or more primes in |Z(G)| force the deleted graph connected",
        lambda b: len(prime_factors(len(b.group.center()))) >= 2,
        lambda b: b.deleted_report.connected, _const_true,
    ),
    TheoremCheck(
        "T5.3", "iff",
        "p-power center, composite order: deleted graph connected iff every "
        "non-central order-p element touches a non-p-element",
        _t53_applies, lambda b: b.deleted_report.connected, _t53_group_side,
    ),
    TheoremCheck(
        "T5.4", "iff",
        "deleted graph is a forest iff every element order is below 4",
        _const_true,
        lambda b: b.deleted_report.forest,
        lambda b: all(o < 4 for o in b.group.orders),
    ),
)

CHECKS_BY_ID: dict[str, TheoremCheck] = {c.check_id: c for c in CHECKS}


def _stream(
    checks: Sequence[TheoremCheck], specs: Sequence[GroupSpec], max_order: int
) -> list[TheoremReport]:
    """Build each spec's bundle once, run every check on it, drop it.

    Reports follow ``checks`` one to one, with ``ms`` unrounded and
    ``passed`` and ``vacuous`` unset: ``run_all`` settles all three once the
    shards are summed. ``ms`` covers each check's own predicates only;
    building the bundles they read is not charged to any check, so the
    deleted graph, which a bundle builds on first read, is read here first.
    A property field that several checks read is decided once, on the
    bundle's report, and its cost is charged to the first check that reads
    it. A report holds no reference to its bundle, so each bundle is freed
    when dropped.
    """
    reports = [TheoremReport(c.check_id, 0, 0, False) for c in checks]
    for spec in specs:
        bundle = build_bundle(spec.realize(max_order=max_order))
        _ = bundle.deleted
        for check, report in zip(checks, reports):
            start = time.perf_counter()
            if check.applies(bundle):
                report.tested += 1
                graph_value = check.graph_side(bundle)
                group_value = check.group_side(bundle)
                if graph_value != group_value:
                    report.counterexamples.append(
                        Counterexample(spec.serialize(), graph_value, group_value)
                    )
            report.ms += (time.perf_counter() - start) * 1000.0
        del bundle  # freed before the next group's bundle is built
    return reports


def _shard_count(jobs: int) -> int:
    """One shard per usable CPU, at most one per spec, and one where forking is unsafe.

    A process with a second live Python thread is never forked, and a
    platform without ``os.fork`` or ``os.sched_getaffinity`` runs one shard.
    Only Python threads are counted: numpy's OpenBLAS pool thread is alive
    from ``import numpy``, so the fork relies on OpenBLAS's own
    ``pthread_atfork`` handling.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), jobs))


def _fork_shard(
    checks: Sequence[TheoremCheck], specs: Sequence[GroupSpec], max_order: int
) -> tuple[int, BinaryIO]:
    """Stream ``specs`` in a forked child; returns its pid and the read end of its pipe.

    The child sends ``(reports, None, None)`` pickled, or ``(None, error,
    traceback text)`` for the exception that stopped it, and leaves by
    ``os._exit`` whatever happens, so it never returns into the caller.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, os.fdopen(read_end, "rb")
    code = 1
    try:
        os.close(read_end)
        try:
            payload = pickle.dumps((_stream(checks, specs, max_order), None, None))
        except BaseException as exc:
            payload = pickle.dumps((None, exc, traceback.format_exc()))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _stream_shards(
    checks: Sequence[TheoremCheck], shards: Sequence[Sequence[GroupSpec]], max_order: int
) -> list[list[TheoremReport]]:
    """Stream shard 0 here and each other shard in a forked child, in parallel.

    A shard whose fork fails is streamed here too. Every child is reaped
    before this returns or raises, and on a raise one still running is
    killed first. An exception that stopped a child is raised here,
    chained to the child's traceback; a child that ended without sending
    its reports raises RuntimeError.
    """
    here = list(shards[0])
    children: list[tuple[int, BinaryIO]] = []
    statuses: list[int] = []
    try:
        for specs in shards[1:]:
            try:
                children.append(_fork_shard(checks, specs, max_order))
            except OSError:  # out of processes or memory
                here += specs
        parts = [_stream(checks, here, max_order)]
        payloads = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a child that has exited is a zombie until reaped
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), payload, status in zip(children, payloads, statuses):
        try:
            reports, error, trace = pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(
                f"verify shard in process {pid} ended without its reports "
                f"(exit status {status})"
            ) from None
        if error is not None:
            raise error from RuntimeError(f"in verify shard process {pid}:\n{trace}")
        parts.append(reports)
    return parts


def _roster(max_order: int) -> list[GroupSpec]:
    """``roster_generate(max_order)`` and then every check's own groups, each spec once.

    The extra groups come from every registered check, whichever run, so a
    check's ``tested`` count does not depend on the others selected.
    """
    specs = roster_generate(max_order)
    for check in CHECKS:
        if check.roster is not None:
            specs += check.roster(max_order)
    return list(dict.fromkeys(specs))


def run_all(
    max_order: int,
    *,
    check_ids: Optional[Sequence[str]] = None,
    specs: Optional[Sequence[GroupSpec]] = None,
) -> list[TheoremReport]:
    """Run every registered check (or a subset, in the order given) over ``specs``.

    Each group is realized under the order cap ``max_order``. Every selected
    check runs over the one list: ``specs``, or else the standard roster to
    ``max_order`` followed by the coprime products that T3.1 adds. Each
    distinct spec of the list is built and checked once, in order of first
    appearance: spec i goes to shard i mod w, w from ``_shard_count``, the
    shards' reports are summed, and each check's counterexamples are put
    back in the list's order. No check selected builds nothing. Without
    ``specs``, a ``max_order`` above the int16 table cap raises
    GroupSizeError before any group is built, since the roster reaches it.
    """
    checks = CHECKS if check_ids is None else tuple(CHECKS_BY_ID[i] for i in check_ids)
    if not checks:
        return []
    if specs is None:
        cap = table_cap(max_order)
        if cap < max_order:
            raise GroupSizeError(f"roster bound {max_order} exceeds the cap of {cap}")
        specs = _roster(max_order)
    jobs = list(dict.fromkeys(specs))
    w = _shard_count(len(jobs))
    parts = _stream_shards(checks, [jobs[k::w] for k in range(w)], max_order)

    reports = [TheoremReport(c.check_id, 0, 0, False) for c in checks]
    for part in parts:
        for report, got in zip(reports, part):
            report.tested += got.tested
            report.counterexamples += got.counterexamples
            report.ms += got.ms
    for report in reports:
        report.passed = report.tested - len(report.counterexamples)
        report.vacuous = report.tested == 0
        report.ms = round(report.ms, 3)
    if any(report.counterexamples for report in reports):
        place = {spec.serialize(): p for p, spec in enumerate(jobs)}
        for report in reports:
            report.counterexamples.sort(key=lambda c: place[c.spec])
    return reports
