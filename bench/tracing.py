"""In-memory spans around the calls into each epgraph layer.

``install`` replaces the public entry points of every layer module with
wrappers that record a span (name, start, end, parent, request id) and
the layer's exact counters, and returns a function that puts the
originals back. Nothing in epgraph changes: the wrappers sit on the
module and class attributes that callers look up at call time. A name
that a later version of epgraph no longer has is skipped and listed in
``Tracer.missing``, so the coverage figure shows what went unseen.
"""

from __future__ import annotations

import dataclasses
import json
import time
import weakref
from collections import Counter, defaultdict

# span fields
NAME, START, END, PARENT, RID, TAG, NESTED = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.live = 0
        self.peak_live = 0

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.peak_live = self.live

    def wrap(self, name, fn, *, rid=None, tag=None, on_result=None, on_error=None):
        """``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments. ``rid`` gives
        the request id; without it a span inherits its parent's. The
        callbacks run after the span has closed, so counting costs show up
        as tracing overhead rather than as layer time.
        """
        stack, active, clock = self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            if rid is not None:
                request = rid(args, kwargs)
            else:
                request = self.spans[parent][RID] if parent >= 0 else None
            span = [label, 0.0, 0.0, parent, request,
                    tag(args, kwargs) if tag else None, active[label] > 0]
            stack.append(len(self.spans))
            self.spans.append(span)
            active[label] += 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                active[label] -= 1
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            span[END] = clock()
            active[label] -= 1
            stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def summary(self, wall: float) -> dict:
        """Per-name inclusive seconds, per-layer self seconds and coverage of ``wall``.

        A span nested in a span of the same name (a product realizing its
        factors) adds to self time but not again to the inclusive total.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        family: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            self_time[s[NAME].split(".")[0]] += dur - child[i]
            if not s[NESTED]:
                total[s[NAME]] += dur
                if s[TAG] is not None:
                    family[s[TAG]] += dur
        covered = sum(v for layer, v in self_time.items() if layer != "bench")
        return {
            "total": dict(total),
            "self": dict(self_time),
            "family": dict(family),
            "coverage": covered / wall if wall > 0 else 0.0,
        }

    def dump(self, path, wall: float) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "wall_s": wall,
                                 "missing": self.missing}) + "\n")
            for s in self.spans:
                rid = s[RID]
                if rid is not None and not isinstance(rid, str):
                    rid = rid.serialize() if hasattr(rid, "serialize") else str(rid)
                fh.write(json.dumps({
                    "name": s[NAME], "start": round(s[START] - t0, 7),
                    "end": round(s[END] - t0, 7), "parent": s[PARENT], "rid": rid,
                }) + "\n")

    def _bundle_born(self, bundle) -> None:
        self.live += 1
        self.peak_live = max(self.peak_live, self.live)
        weakref.finalize(bundle, self._bundle_died)

    def _bundle_died(self) -> None:
        self.live -= 1


def install(tr: Tracer):
    """Wrap every layer's entry points; returns the function that undoes it."""
    from epgraph import analysis, cayley_io, cli, cyclic, epg, groups, specs, theorems

    undo: list[tuple] = []

    def patch(owner, attr, make):
        if attr not in vars(owner):
            tr.missing.append(f"{owner.__name__}.{attr}")
            return
        old = vars(owner)[attr]
        undo.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def everywhere(modules, attr, make):
        """Patch one function under every module name that refers to it."""
        first = None
        for mod in modules:
            if attr in vars(mod):
                first = first or make(vars(mod)[attr])
                patch(mod, attr, lambda _old, w=first: w)
            else:
                tr.missing.append(f"{mod.__name__}.{attr}")

    def count(key, amount):
        def on_result(result, _args, _kwargs):
            tr.counts[key] += amount(result)
        return on_result

    # specs and groups: realize and validate tables
    everywhere((specs, cli), "parse_spec", lambda f: tr.wrap("specs.parse_spec", f))
    patch(specs.GroupSpec, "realize", lambda f: tr.wrap(
        "groups.realize", f, tag=lambda a, k: a[0].family))
    patch(groups.FiniteGroup, "from_table", lambda cm: classmethod(
        tr.wrap("groups.from_table", cm.__func__)))

    # cayley_io: parse and ingest
    patch(cayley_io, "parse_cayley_text", lambda f: tr.wrap("cayley_io.parse", f))

    def rejected(exc):
        law = getattr(exc, "law", None)
        if law is not None:
            tr.counts[f"cayley_io.rejects.{law}"] += 1

    everywhere((cayley_io, cli), "ingest_cayley",
               lambda f: tr.wrap("cayley_io.ingest", f, on_error=rejected))

    # cyclic and epg: the lattice and the graphs
    everywhere((epg, cyclic), "build_lattice", lambda f: tr.wrap(
        "cyclic.build_lattice", f,
        on_result=count("cyclic.subgroups", lambda lat: len(lat.subgroups))))
    patch(epg, "build_epg", lambda f: tr.wrap(
        "epg.build_epg", f, on_result=count("epg.edges", lambda g: g.edge_count())))
    patch(epg, "build_deleted", lambda f: tr.wrap("epg.build_deleted", f))
    everywhere((epg, theorems, cli), "build_bundle", lambda f: tr.wrap(
        "epg.build_bundle", f, on_result=lambda b, _a, _k: tr._bundle_born(b)))

    # analysis and planarity: the deciders
    def planar_reject(report, _args, _kwargs):
        reason = report.to_dict().get("planar_reject")
        if reason:
            tr.counts[f"planarity.rejects.{reason}"] += 1

    patch(analysis, "analyze", lambda f: tr.wrap(
        lambda a, k: "analysis.analyze_deleted" if k.get("deleted") else "analysis.analyze",
        f, on_result=planar_reject))
    patch(analysis, "planarity_verdict", lambda f: tr.wrap("planarity.verdict", f))

    # theorems: the predicates, timed apart from the bundles they read
    def traced_check(check):
        by_bundle = dict(rid=lambda a, k: a[0].group.spec)
        name = f"theorems.{check.check_id}"
        fields = {
            "applies": tr.wrap(name, check.applies, **by_bundle),
            "graph_side": tr.wrap(name, check.graph_side, **by_bundle),
            "group_side": tr.wrap(name, check.group_side, **by_bundle),
        }
        if check.roster is not None:
            fields["roster"] = tr.wrap("theorems.roster", check.roster)
        return dataclasses.replace(check, **fields)

    if "CHECKS" in vars(theorems):
        checks = tuple(traced_check(c) for c in theorems.CHECKS)
        by_id = {c.check_id: c for c in checks}
        for mod in (theorems, cli):
            if "CHECKS" in vars(mod):
                patch(mod, "CHECKS", lambda _old: checks)
            if "CHECKS_BY_ID" in vars(mod):
                patch(mod, "CHECKS_BY_ID", lambda _old: by_id)
    else:
        tr.missing.append("epgraph.theorems.CHECKS")

    def traced_cache(cls):
        class TracedCache(cls):
            get = tr.wrap("theorems.bundle", cls.get, rid=lambda a, k: a[1])
        return TracedCache

    everywhere((theorems, cli), "BundleCache", traced_cache)
    everywhere((theorems, cli), "run_check", lambda f: tr.wrap(
        "theorems.run_check", f, rid=lambda a, k: a[0].check_id))
    everywhere((theorems, cli), "roster_generate",
               lambda f: tr.wrap("theorems.roster", f))

    # cli: the entry point
    patch(cli, "main", lambda f: tr.wrap("cli.main", f))

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore
