import pytest
from hypothesis import settings

from epgraph import analysis, build_bundle
from epgraph.theorems import roster_generate

# `--hypothesis-profile=ci` raises the random-graph tests of test_analysis.py
# and test_planarity.py's certificate differential against networkx from 150
# examples each (and test_analysis.py's roster of component reps against
# networkx from order 48 to 256, its cone-vertex sets against the table
# from 64 to 256 and its deleted-graph component counts against the
# prime-order subgroup graph from 64 to 512, test_epg.py's power and
# commuting graph sandwich from 64 to 256 and its clique and independence
# numbers from 32 to 64),
# test_cyclic.py's relabelled tables, test_cayley_io.py's roster texts and
# law-oracle tables and test_specs.py's drawn spec round trips from 100,
# test_groups.py's metacyclic and product reference tables and drawn
# presentations, and
# test_cayley_io.py's mutated texts from 80, test_cayley_io.py's valid
# texts from 60 and its texts with lines longer than a block from 100, to 1000
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def bundle_of():
    """A spec's bundle, built once per test run and shared by every test."""
    memo = {}

    def get(spec):
        key = spec.serialize()
        if key not in memo:
            memo[key] = build_bundle(spec.realize(max_order=512))
        return memo[key]

    return get


@pytest.fixture(scope="session")
def roster_specs_48():
    return roster_generate(48)


@pytest.fixture(scope="session")
def roster_specs_64():
    return roster_generate(64)


@pytest.fixture(scope="session")
def roster_bundles_48(bundle_of, roster_specs_48):
    return [bundle_of(spec) for spec in roster_specs_48]


@pytest.fixture(scope="session")
def roster_bundles_64(bundle_of, roster_specs_64):
    return [bundle_of(spec) for spec in roster_specs_64]


@pytest.fixture(scope="session")
def roster_groups_48(roster_bundles_48):
    return [bundle.group for bundle in roster_bundles_48]


@pytest.fixture(scope="session")
def roster_groups_64(roster_bundles_64):
    return [bundle.group for bundle in roster_bundles_64]


ANALYSIS_DECIDERS = ("component_reps", "find_missing_edge", "find_cycle",
                     "bipartite_coloring", "odd_degree_vertex", "planarity_verdict",
                     "cone_vertices")


def _watch_deciders(monkeypatch, on_call):
    """Calls ``on_call(name, graph)`` before every decider a property report
    looks up in ``analysis``."""
    def watched(name, f):
        def wrapped(graph, *args):
            on_call(name, graph)
            return f(graph, *args)
        return wrapped

    for name in ANALYSIS_DECIDERS:
        monkeypatch.setattr(analysis, name, watched(name, getattr(analysis, name)))


@pytest.fixture
def decider_calls(monkeypatch):
    """Counts the calls of every decider a property report looks up in ``analysis``."""
    calls = dict.fromkeys(ANALYSIS_DECIDERS, 0)

    def count(name, _graph):
        calls[name] += 1

    _watch_deciders(monkeypatch, count)
    return calls


@pytest.fixture
def decider_graphs(monkeypatch):
    """Every decider call as (name, graph), in call order. The log holds each
    graph, so no two graphs it names can share an ``id``."""
    log = []
    _watch_deciders(monkeypatch, lambda name, graph: log.append((name, graph)))
    return log
