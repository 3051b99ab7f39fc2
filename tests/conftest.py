from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, settings

import onecross.planarity as planarity
from onecross import families
from onecross.graph import Multigraph

settings.register_profile(
    "suite",
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def v8() -> Multigraph:
    return families.v8()


@pytest.fixture(scope="session")
def siran() -> Multigraph:
    return families.siran_graph()


@pytest.fixture(scope="session")
def k4() -> Multigraph:
    return families.complete_graph(4)


@pytest.fixture(scope="session")
def k5() -> Multigraph:
    return families.complete_graph(5)


@pytest.fixture(scope="session")
def k6() -> Multigraph:
    return families.complete_graph(6)


@pytest.fixture(scope="session")
def k33() -> Multigraph:
    return families.complete_bipartite(3, 3)


@pytest.fixture(scope="session")
def k34() -> Multigraph:
    return families.complete_bipartite(3, 4)


@pytest.fixture(scope="session")
def q3() -> Multigraph:
    return families.cube_graph()


@pytest.fixture()
def lr_tests(monkeypatch) -> list[int]:
    """Records each networkx left-right test that onecross.planarity makes, by
    the edge count of the graph it tests."""
    calls: list[int] = []

    class CountingNetworkx:
        def check_planarity(self, *args, **kwargs):
            calls.append(args[0].number_of_edges())
            return nx.check_planarity(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(nx, name)

    monkeypatch.setattr(planarity, "nx", CountingNetworkx())
    return calls
