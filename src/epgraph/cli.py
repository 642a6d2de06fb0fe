"""Command-line surface: build graphs, check properties, verify theorems,
ingest Cayley-table files.

``ingest PATH`` is ``check --group file:PATH``: it realizes
``GroupSpec.file(PATH)`` and runs the same code from there on.

Exit codes: 0 success, 1 theorem counterexample (or an unexpectedly empty
iff-check roster), 2 usage or input error, an unreadable input file or an
unwritable ``--output`` included.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import analysis
from .epg import build_bundle
from .errors import GroupError
from .groups import DEFAULT_MAX_ORDER
from .simplegraph import SimpleGraph, to_dot, to_edgelist_lines, to_json
from .specs import GroupSpec, parse_spec
from .theorems import CHECKS, CHECKS_BY_ID, run_all

FORMATS = ("json", "dot", "edgelist", "text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epgraph",
        description="Enhanced power graphs of finite groups: build, check, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                       help=f"cap on group order (default {DEFAULT_MAX_ORDER})")
        p.add_argument("--output", type=Path, default=None,
                       help="write output to this file instead of stdout")

    p_build = sub.add_parser("build", help="emit a group's enhanced power graph")
    p_build.add_argument("--group", required=True, help="group spec, e.g. cyclic:6")
    p_build.add_argument("--deleted", action="store_true",
                         help="emit the graph with the identity vertex removed")
    p_build.add_argument("--format", choices=FORMATS, default="text")
    common(p_build)

    p_check = sub.add_parser("check", help="report graph properties as JSON")
    p_check.add_argument("--group", required=True, help="group spec, e.g. dicyclic:2")
    p_check.add_argument("--deleted", action="store_true",
                         help="analyze the identity-deleted graph")
    p_check.add_argument("--props", default=None,
                         help="comma-separated property names (default: all)")
    common(p_check)

    p_verify = sub.add_parser("verify", help="run theorem checks over a roster")
    p_verify.add_argument("--theorem", required=True,
                          help="check id like T2.4, a comma-separated list, or 'all'")
    p_verify.add_argument("--max-order", type=int, default=32, dest="roster_max",
                          help="roster order bound (default 32): every check "
                               "runs over each roster group and coprime product "
                               "H x Z_n up to this order")
    p_verify.add_argument("--output", type=Path, default=None)

    p_ingest = sub.add_parser("ingest", help="validate a Cayley file and report properties "
                                             "(check --group file:PATH)")
    p_ingest.add_argument("path", help="Cayley table file")
    p_ingest.add_argument("--deleted", action="store_true")
    p_ingest.add_argument("--props", default=None)
    common(p_ingest)

    return parser


def _emit(text: str, output: Optional[Path]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        output.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise GroupError(f"cannot write {output}: {exc}") from None


def _render_graph(graph: SimpleGraph, fmt: str) -> str:
    if fmt == "edgelist":
        lines = to_edgelist_lines(graph)
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "dot":
        return to_dot(graph)
    if fmt == "json":
        return to_json(graph)
    degrees = " ".join(str(d) for d in graph.degrees())
    return (
        f"graph: {graph.name}\n"
        f"vertices: {graph.n}\n"
        f"edges: {graph.edge_count()}\n"
        f"degrees: {degrees}\n"
    )


def _report_json(bundle, deleted: bool, props: Optional[str]) -> str:
    """The bundle's full report, or only the fields ``props`` names, deciding nothing else."""
    report = bundle.deleted_report if deleted else bundle.report
    if props is None:
        return json.dumps(report.to_dict()) + "\n"
    names = [p.strip() for p in props.split(",") if p.strip()]
    unknown = [p for p in names if p not in analysis.REPORT_FIELDS]
    if unknown:
        raise GroupError(
            f"unknown properties: {', '.join(unknown)}; "
            f"known: {', '.join(analysis.REPORT_FIELDS)}"
        )
    return json.dumps({name: getattr(report, name) for name in names}) + "\n"


def _cmd_build(args) -> int:
    spec = parse_spec(args.group)
    group = spec.realize(max_order=args.max_order)
    bundle = build_bundle(group)
    graph = bundle.deleted if args.deleted else bundle.epg
    _emit(_render_graph(graph, args.format), args.output)
    return 0


def _cmd_check(args) -> int:
    spec = GroupSpec.file(args.path) if args.command == "ingest" else parse_spec(args.group)
    group = spec.realize(max_order=args.max_order)
    bundle = build_bundle(group)
    _emit(_report_json(bundle, args.deleted, args.props), args.output)
    return 0


def _cmd_verify(args) -> int:
    ids: Optional[list[str]] = [t.strip() for t in args.theorem.split(",") if t.strip()]
    if ids == ["all"]:
        ids = None
    else:
        unknown = [i for i in ids if i not in CHECKS_BY_ID]
        if unknown or not ids:
            what = (f"unknown theorem ids: {', '.join(unknown)}" if unknown
                    else f"no theorem ids in {args.theorem!r}")
            raise GroupError(f"{what}; known: {', '.join(c.check_id for c in CHECKS)} or 'all'")
    reports = run_all(args.roster_max, check_ids=ids)
    failed = any(
        r.counterexamples or (r.vacuous and CHECKS_BY_ID[r.theorem].direction == "iff")
        for r in reports
    )
    _emit("\n".join(json.dumps(r.to_dict()) for r in reports) + "\n", args.output)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "check": _cmd_check,
        "verify": _cmd_verify,
        "ingest": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except GroupError as exc:
        law = getattr(exc, "law", None)
        prefix = f"{law} violation: " if law else ""
        print(f"epgraph: error: {prefix}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
