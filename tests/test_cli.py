"""End-to-end CLI behavior: formats, exit codes, environment cap."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epgraph import cli, groups, roster_generate, theorems
from epgraph.analysis import REPORT_FIELDS
from epgraph.theorems import CHECKS_BY_ID

from helpers import cayley_file_text, find_nonassociative_loop


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# -- build -------------------------------------------------------------------


def test_build_edgelist_k6(capsys):
    code, out, _ = run_cli(["build", "--group", "cyclic:6", "--format", "edgelist"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 15


def test_build_dot_q8(capsys):
    code, out, _ = run_cli(["build", "--group", "dicyclic:2", "--format", "dot"], capsys)
    assert code == 0
    assert out.count("[label=") == 8
    assert out.startswith('graph "Q8"')


def _dot_graph_id(header: str) -> tuple[str, str]:
    """The quoted ID opening a DOT header, unescaped, and the text after it,
    scanned as Graphviz does: backslash-quote and backslash-backslash are
    one token each, and the first other quote closes the ID."""
    assert header.startswith('graph "')
    i, chars = len('graph "'), []
    while header[i] != '"':
        if header[i] == "\\" and header[i + 1] in '"\\':
            i += 1
        chars.append(header[i])
        i += 1
    return "".join(chars), header[i + 1:]


@pytest.mark.parametrize("file_name", ['z6 "q".cayley', "z6\\", 'q"\\'])
@pytest.mark.parametrize("deleted", [False, True])
def test_build_dot_quotes_a_file_name(tmp_path, capsys, file_name, deleted):
    path = tmp_path / file_name
    path.write_text(cayley_file_text([[(i + j) % 6 for j in range(6)] for i in range(6)]))
    argv = ["build", "--group", f"file:{path}", "--format", "dot"]
    code, out, _ = run_cli(argv + ["--deleted"] * deleted, capsys)
    assert code == 0
    name, rest = _dot_graph_id(out.splitlines()[0])
    assert name == file_name + "*" * deleted
    assert rest == " {"


def test_build_rejects_oversized(capsys):
    code, _, err = run_cli(["build", "--group", "cyclic:9999"], capsys)
    assert code == 2
    assert "cap" in err


def test_build_json_schema(capsys):
    code, out, _ = run_cli(["build", "--group", "cyclic:4", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 4
    assert len(data["edges"]) == 6
    assert data["name"] == "Z4"


def test_build_deleted(capsys):
    code, out, _ = run_cli(
        ["build", "--group", "cyclic:6", "--deleted", "--format", "edgelist"], capsys
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 10  # K5


def test_build_text_format(capsys):
    code, out, _ = run_cli(["build", "--group", "dihedral:4", "--format", "text"], capsys)
    assert code == 0
    assert "vertices: 8" in out


def test_build_output_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run_cli(
        ["build", "--group", "cyclic:3", "--format", "dot", "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith('graph "Z3"')


def test_build_parse_error(capsys):
    code, _, err = run_cli(["build", "--group", "cyclic:abc"], capsys)
    assert code == 2
    assert "error" in err


# -- check --------------------------------------------------------------------


def test_check_eulerian_z9(capsys):
    code, out, _ = run_cli(["check", "--group", "cyclic:9", "--props", "eulerian"], capsys)
    assert code == 0
    assert json.loads(out) == {"eulerian": True}


def test_check_deleted_s3_disconnected(capsys):
    code, out, _ = run_cli(
        ["check", "--group", "perm:3:(0 1),(0 1 2)", "--props", "connected", "--deleted"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"connected": False}


def test_check_klein_star(capsys):
    code, out, _ = run_cli(
        ["check", "--group", "product:cyclic:2,cyclic:2", "--props", "star"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"star": True}


def test_check_unknown_property(capsys):
    code, _, err = run_cli(["check", "--group", "cyclic:4", "--props", "chromatic"], capsys)
    assert code == 2
    assert "unknown properties" in err


def test_check_full_report(capsys):
    code, out, _ = run_cli(["check", "--group", "cyclic:4"], capsys)
    assert code == 0
    data = json.loads(out)
    for name in REPORT_FIELDS:
        assert name in data


def test_check_exit_zero_on_negative_verdicts(capsys):
    code, out, _ = run_cli(["check", "--group", "cyclic:5", "--props", "planar"], capsys)
    assert code == 0
    assert json.loads(out) == {"planar": False}


@pytest.mark.parametrize("props", ["", ",", " , "])
def test_check_props_naming_nothing_prints_empty_report(props, capsys):
    code, out, _ = run_cli(["check", "--group", "cyclic:3", "--props", props], capsys)
    assert code == 0
    assert out == "{}\n"


def test_check_props_decide_only_what_they_name(decider_calls, capsys):
    code, out, _ = run_cli(["check", "--group", "cyclic:6", "--props", ","], capsys)
    assert code == 0 and out == "{}\n"
    assert not any(decider_calls.values())

    code, out, _ = run_cli(["check", "--group", "cyclic:6", "--props", "eulerian"], capsys)
    assert code == 0 and json.loads(out) == {"eulerian": False}
    assert decider_calls["planarity_verdict"] == 0
    assert decider_calls["find_cycle"] == decider_calls["bipartite_coloring"] == 0

    code, out, _ = run_cli(["check", "--group", "cyclic:6", "--props", "planar"], capsys)
    assert code == 0 and json.loads(out) == {"planar": False}
    assert decider_calls["planarity_verdict"] == 1
    assert decider_calls["find_cycle"] == decider_calls["bipartite_coloring"] == 0

    # the four reflections of D4 are isolated in its deleted graph; its
    # connectivity is read off one component_reps call and nothing else
    decider_calls.update(dict.fromkeys(decider_calls, 0))
    code, out, _ = run_cli(["check", "--group", "dihedral:4", "--props", "connected",
                            "--deleted"], capsys)
    assert code == 0 and json.loads(out) == {"connected": False}
    assert decider_calls == {**dict.fromkeys(decider_calls, 0), "component_reps": 1}


def test_check_full_report_runs_each_decider_once(decider_calls, capsys):
    code, _, _ = run_cli(["check", "--group", "dicyclic:3", "--deleted"], capsys)
    assert code == 0
    assert decider_calls == dict.fromkeys(decider_calls, 1)  # component_reps included


# -- verify --------------------------------------------------------------------


def test_verify_t24(capsys):
    code, out, _ = run_cli(["verify", "--theorem", "T2.4", "--max-order", "32"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["theorem"] == "T2.4"
    assert report["passed"] == report["tested"]
    assert report["counterexamples"] == []


def test_verify_all_reports_fourteen(capsys):
    code, out, _ = run_cli(["verify", "--theorem", "all", "--max-order", "24"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    for line in lines:
        json.loads(line)


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(["verify", "--theorem", "T9.9"], capsys)
    assert code == 2
    assert "unknown theorem" in err


def test_verify_comma_list(capsys):
    code, out, _ = run_cli(
        ["verify", "--theorem", "T4.1,T4.2", "--max-order", "16"], capsys
    )
    assert code == 0
    assert [json.loads(l)["theorem"] for l in out.strip().splitlines()] == ["T4.1", "T4.2"]


def test_verify_duplicate_ids_print_twice(capsys):
    code, out, _ = run_cli(["verify", "--theorem", "T2.4,T2.4", "--max-order", "16"], capsys)
    assert code == 0
    first, second = [json.loads(line) for line in out.strip().splitlines()]
    first["ms"] = second["ms"] = 0
    assert first == second and first["tested"] > 0


def test_verify_empty_id_list(capsys):
    # a list naming no check verifies nothing, so it is a usage error
    for theorem in (",", "", " , "):
        code, out, err = run_cli(["verify", "--theorem", theorem, "--max-order", "16"], capsys)
        assert code == 2 and out == ""
        assert "no theorem ids" in err and "known: T2.1," in err


def test_verify_vacuous_iff_check_fails(capsys):
    # at max order 1 the abelian cone check has an empty roster; an empty
    # roster on an iff-direction check is an unexpected vacuity -> exit 1
    code, out, _ = run_cli(["verify", "--theorem", "T3.2", "--max-order", "1"], capsys)
    assert code == 1
    assert json.loads(out)["vacuous"] is True


def test_verify_vacuous_implies_check_passes(capsys):
    # implication checks may legitimately have empty rosters at small orders
    code, out, _ = run_cli(["verify", "--theorem", "T3.4", "--max-order", "32"], capsys)
    assert code == 0
    assert json.loads(out)["vacuous"] is True


def test_verify_deterministic_output(capsys):
    def normalized(raw):
        rows = [json.loads(line) for line in raw.strip().splitlines()]
        for row in rows:
            row.pop("ms")
        return rows

    _, first, _ = run_cli(["verify", "--theorem", "all", "--max-order", "16"], capsys)
    _, second, _ = run_cli(["verify", "--theorem", "all", "--max-order", "16"], capsys)
    assert normalized(first) == normalized(second)


def test_verify_refuses_a_bound_over_the_cap_before_building(monkeypatch, capsys):
    # with the table cap at 16, a bound of 17 is refused before any group of
    # the roster is built, as 32769 is at the int16 cap
    built, build_bundle = [], theorems.build_bundle

    def recording(group):
        built.append(group.spec.serialize())
        return build_bundle(group)

    monkeypatch.setattr(groups, "MAX_TABLE_ORDER", 16)
    monkeypatch.setattr(theorems, "build_bundle", recording)
    code, out, err = run_cli(["verify", "--theorem", "all", "--max-order", "17"], capsys)
    assert code == 2 and out == "" and built == []
    assert err == "epgraph: error: roster bound 17 exceeds the cap of 16\n"


# -- ingest --------------------------------------------------------------------


def test_ingest_z2(tmp_path, capsys):
    path = tmp_path / "z2.cayley"
    path.write_text("2\n0 1\n1 0\n")
    code, out, _ = run_cli(["ingest", str(path), "--props", "complete"], capsys)
    assert code == 0
    assert json.loads(out) == {"complete": True}


def test_ingest_nonassociative_rejected(tmp_path, capsys):
    path = tmp_path / "loop.cayley"
    path.write_text(cayley_file_text(find_nonassociative_loop(5)))
    code, _, err = run_cli(["ingest", str(path)], capsys)
    assert code == 2
    assert "associativity" in err


def test_ingest_oversize_rejected(tmp_path, capsys):
    path = tmp_path / "huge.cayley"
    path.write_text("100000\n")
    code, _, err = run_cli(["ingest", str(path), "--max-order", "64"], capsys)
    assert code == 2
    assert "cap of 64" in err


def test_ingest_huge_entry_is_closure_violation(tmp_path):
    # run as a process: an uncaught error would print a traceback and exit 1
    path = tmp_path / "huge.cayley"
    path.write_text("2\n0 99999999999999999999\n1 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "epgraph", "ingest", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "closure violation: entry at (0, 1)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ingest_identity_renumbered(capsys):
    code, out, _ = run_cli(
        ["ingest", "tests/data/z6_identity_at_3.cayley", "--props", "complete"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"complete": True}


def test_ingest_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["ingest", str(tmp_path / "nope.cayley")], capsys)
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("name", ["z2.cayley ", "z2,cayley"])
def test_ingest_refuses_a_path_no_spec_names(tmp_path, capsys, name):
    # the file exists and holds Z2, but "file:PATH" would name another path
    path = tmp_path / name
    path.write_text("2\n0 1\n1 0\n")
    code, out, err = run_cli(["ingest", str(path)], capsys)
    assert code == 2 and out == ""
    assert repr(str(path)) in err


def _unreadable(tmp_path, kind: str) -> Path:
    if kind == "missing":
        return tmp_path / "nope.cayley"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1.cayley"
    path.write_bytes(b"# caf\xe9\n1\n0\n")  # Latin-1, not UTF-8
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
@pytest.mark.parametrize("how", ["ingest", "file-spec"])
def test_unreadable_file_is_an_input_error(tmp_path, capsys, kind, how):
    # in process, so an uncaught error would fail the test with its traceback
    path = str(_unreadable(tmp_path, kind))
    argv = ["ingest", path] if how == "ingest" else ["check", "--group", f"file:{path}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"epgraph: error: cannot read {path}: ")


@pytest.mark.parametrize("extra", [[], ["--deleted"], ["--props", "complete,planar"],
                                   ["--deleted", "--props", "cone_vertices"]])
@pytest.mark.parametrize("path", ["tests/data/z6_identity_at_3.cayley", "missing.cayley"])
def test_ingest_is_check_of_a_file_spec(capsys, path, extra):
    ingested = run_cli(["ingest", path, *extra], capsys)
    checked = run_cli(["check", "--group", f"file:{path}", *extra], capsys)
    assert ingested == checked
    assert ingested[0] == (0 if path.startswith("tests/") else 2)


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out, err = run_cli(["check", "--group", "cyclic:4", "--output", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"epgraph: error: cannot write {target}: ")
    code, _, err = run_cli(["verify", "--theorem", "T2.4", "--max-order", "4",
                            "--output", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith(f"epgraph: error: cannot write {tmp_path}: ")


# -- configuration ----------------------------------------------------------------


def test_max_order_flag_is_the_only_cap(monkeypatch, capsys):
    code, _, err = run_cli(["build", "--group", "cyclic:513"], capsys)
    assert code == 2 and "cap of 512" in err
    code, _, err = run_cli(["check", "--group", "cyclic:20", "--max-order", "16"], capsys)
    assert code == 2 and "cap of 16" in err
    # no environment variable moves the cap
    monkeypatch.setenv("EPG_MAX_ORDER", "16")
    code, out, _ = run_cli(["build", "--group", "cyclic:20", "--format", "edgelist"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 190


def test_flag_overrides_env(monkeypatch, capsys):
    # a stale EPG_MAX_ORDER in the environment does not get in the flag's way
    monkeypatch.setenv("EPG_MAX_ORDER", "16")
    code, out, _ = run_cli(
        ["build", "--group", "cyclic:20", "--max-order", "32", "--format", "edgelist"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 190


def test_env_cap_does_not_bound_verify(monkeypatch, capsys):
    # verify's --max-order is the roster bound, whatever EPG_MAX_ORDER says
    monkeypatch.setenv("EPG_MAX_ORDER", "16")
    code, out, _ = run_cli(["verify", "--theorem", "T2.4", "--max-order", "24"], capsys)
    assert code == 0
    report = json.loads(out)
    # T2.4 runs over the standard roster and T3.1's coprime products, each once
    one_roster = dict.fromkeys(roster_generate(24) + CHECKS_BY_ID["T3.1"].roster(24))
    assert report["tested"] == report["passed"] == len(one_roster)


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(["build"], capsys)  # missing --group
    assert code == 2
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 2
