"""The metric and route catalogue of PROTOCOL.md against the code.

PROTOCOL.md §8's table is the one list of ``eca_*`` families and §9's
the one list of admin routes.  A fully wired engine — durable
(``sync="commit"``), two runtime lanes, the profiler and the latency
analyzer on, a pooled HTTP transport, the standard deployment's event
and SPARQL services — must declare exactly the families of the table, each with the table's type and label names, and
the surface must answer exactly the table's routes.
"""

import pathlib
import re

import pytest

from repro.core import ECAEngine
from repro.durability import DurabilityManager
from repro.obs import Observability
from repro.obs.ops import INTROSPECTION_ROUTES
from repro.runtime import Runtime
from repro.services import standard_deployment
from repro.services.transports import HybridTransport

PROTOCOL = pathlib.Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"


def section(title, until):
    text = PROTOCOL.read_text(encoding="utf-8")
    start = text.index(title)
    return text[start:text.index(until, start)]


def table_rows(text):
    for line in text.splitlines():
        if line.startswith("| `"):
            yield [cell.strip() for cell in line.strip("|").split("|")]


def catalogued_families():
    """name → (type, label names) from §8's table."""
    families = {}
    for cells in table_rows(section("### Metric names", "## 9.")):
        labels = tuple(re.findall(r"`(\w+)`", cells[2]))
        for name in re.findall(r"`(eca_\w+)`", cells[0]):
            assert name not in families, f"{name} listed twice"
            families[name] = (cells[1], labels)
    return families


def catalogued_routes():
    routes = []
    for cells in table_rows(section("### The admin surface", "## 10.")):
        match = re.match(r"`GET (/[^?`]*)", cells[0])
        assert match, cells[0]
        routes.append(match.group(1))
    return routes


@pytest.fixture
def wired(tmp_path):
    deployment = standard_deployment()
    transport = HybridTransport()
    transport.local = deployment.transport   # the deployment's services
    deployment.grh.transport = transport
    durability = DurabilityManager(str(tmp_path), sync="commit")
    obs = Observability(profiler=True, critical=True)
    engine = ECAEngine(deployment.grh, durability=durability,
                       runtime=Runtime(workers=2),
                       observability=obs)
    try:
        yield obs.metrics
    finally:
        engine.shutdown(5)
        obs.close()
        durability.close()


def test_every_declared_family_is_catalogued(wired):
    declared = {name: (metric.kind, metric.label_names)
                for name, metric in wired._metrics.items()}
    assert declared == catalogued_families()


def test_every_route_is_catalogued():
    routes = catalogued_routes()
    assert len(routes) == len(set(routes))
    assert sorted(routes) == sorted(INTROSPECTION_ROUTES)
