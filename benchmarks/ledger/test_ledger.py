"""Tests of the ledger itself, on tiny sizes and without timing assertions.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (the
``benchmarks/conftest.py`` above this directory imports the program).
Tier-1 collects ``tests/`` only, so this file is not part of it.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import catalogue  # noqa: E402
import generators  # noqa: E402
import harness  # noqa: E402

WORKLOAD_NAMES = [name for name, _why in catalogue.WORKLOADS]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _inputs(name: str, seed: int):
    workload = harness.WORKLOADS[name]
    world = workload.world(seed, True)
    return world, workload.events(seed, world).take(60)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_generators_repeat_per_seed_and_differ_across_seeds(name):
    assert _inputs(name, 11) == _inputs(name, 11)
    world, events = _inputs(name, 11)
    other_world, other_events = _inputs(name, 12)
    assert world != other_world
    assert events != other_events
    assert len({event.id for event in events}) == len(events)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_oracle_agrees_with_the_engine(name):
    result = harness.run_timed(harness.WORKLOADS[name], seed=5, seconds=0.3,
                               quick=True)
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]
    assert list(result["metrics"]) == [row[0] for row in catalogue.END_TO_END]
    for name_, unit, _better, _bound in catalogue.END_TO_END:
        metric = result["metrics"][name_]
        assert metric["unit"] == unit
        assert metric["value"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_a_wrong_oracle_is_noticed(name):
    """The check is not vacuous: an oracle that expects one message more
    than the engine sends fails every event."""
    session = harness.Session(harness.WORKLOADS[name], seed=5, quick=True)
    truthful = session.oracle.expect

    def lying(event):
        truth = truthful(event)
        return dataclasses.replace(
            truth, messages=truth.messages + (("nowhere", "ghost", ()),))

    session.oracle.expect = lying
    session.run_block(40)
    assert session.finish()["failed"] == 40


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_the_catalogue_and_reconciles(name):
    result = harness.run_traced(harness.WORKLOADS[name], seed=5,
                                seconds=0.6, quick=True, dump=False)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [row[0] for row in catalogue.PER_LAYER]
    # children never stick out of their parents, also across the HTTP hop
    assert metrics["ledger.reconcile_error_share"]["value"] <= 0.01
    if name != "distributed_http":
        # one thread: the layers' self times add up to the blocks' wall
        assert metrics["ledger.unattributed_share"]["value"] <= 0.01
        for layer in ("transports.http_conn_reuse_share",
                      "runtime.worker_utilization_mean",
                      "durability.journal_ms_per_event"):
            assert metrics[layer]["value"] == 0
    else:
        assert metrics["durability.journal_ms_per_event"]["value"] > 0
        assert metrics["transports.http_conn_reuse_share"]["value"] > 0.9
    if name == "fanout_inproc":
        assert metrics["xq.eval_ms_per_event"]["value"] == 0
        assert metrics["core.instances_per_event"]["value"] == 4


def test_every_metric_name_is_well_formed_and_unique():
    names = [row[0] for row in catalogue.END_TO_END + catalogue.PER_LAYER]
    names += WORKLOAD_NAMES
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == catalogue.definition()


def test_one_run_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "fig4_inproc", "--seed", "1", "--seconds", "0.2", "--trace", "0",
         "--quick"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]


def test_fanout_world_keeps_the_work_per_event_fixed():
    world = generators.fanout_world(3)
    per_city = {}
    for _rule, city in world.rules:
        per_city[city] = per_city.get(city, 0) + 1
    assert set(per_city.values()) == {4} and len(per_city) == 500
