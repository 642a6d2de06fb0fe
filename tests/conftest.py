import pytest

from epgraph import BundleCache
from epgraph.theorems import roster_generate


@pytest.fixture(scope="session")
def bundle_cache():
    return BundleCache(max_order=512)


@pytest.fixture(scope="session")
def roster_specs_48():
    return roster_generate(48)


@pytest.fixture(scope="session")
def roster_specs_64():
    return roster_generate(64)


@pytest.fixture(scope="session")
def roster_bundles_48(bundle_cache, roster_specs_48):
    return [bundle_cache.get(spec) for spec in roster_specs_48]


@pytest.fixture(scope="session")
def roster_bundles_64(bundle_cache, roster_specs_64):
    return [bundle_cache.get(spec) for spec in roster_specs_64]


@pytest.fixture(scope="session")
def roster_groups_48(roster_bundles_48):
    return [bundle.group for bundle in roster_bundles_48]


@pytest.fixture(scope="session")
def roster_groups_64(roster_bundles_64):
    return [bundle.group for bundle in roster_bundles_64]
