"""Zero semantic drift: sync engine vs 1-, 2-, 4-worker runtime.

The acceptance oracle of the concurrent runtime (ISSUE 5): for the
same seeded workload, the sorted set of externally visible action
effects must be *identical* across the synchronous engine and every
worker count.  Concurrency may reorder execution, never change what
is executed.
"""

import pytest

from repro.domain import WorkloadConfig
from repro.runtime import Runtime

from .harness import run_workload

WORKER_COUNTS = (1, 2, 4)
EVENTS = 20


def _config(seed: int) -> WorkloadConfig:
    return WorkloadConfig(persons=10, fleet_size=8, cities=3, seed=seed)


@pytest.mark.parametrize("seed", range(10))
def test_sync_vs_concurrent_effects_identical(seed):
    config = _config(seed)
    baseline = run_workload(config, EVENTS)
    assert baseline, "oracle produced no effects — workload is broken"
    for workers in WORKER_COUNTS:
        concurrent = run_workload(
            config, EVENTS, runtime=Runtime(workers=workers))
        assert concurrent == baseline, (
            f"seed {seed}, {workers} workers: effects diverged")

