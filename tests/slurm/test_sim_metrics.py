"""Simulator observability: throughput gauge and tombstone counter.

The simulator reports wall-clock throughput (``sim_jobs_per_second``)
and lazy-deletion pressure (``sim_events_tombstoned_total``); both feed
the a16 benchmark gate and the serving dashboards, so their wiring is
pinned here against the process-wide registry.
"""

import numpy as np
import pytest

from repro.obs.metrics import get_registry
from repro.slurm.simulator import PreemptionPolicy, Simulator
from tests.slurm.test_simulator import make_subs, tiny_cluster


@pytest.fixture
def registry():
    reg = get_registry()
    prev = reg.enabled
    reg.reset()
    reg.enabled = True
    try:
        yield reg
    finally:
        reg.enabled = prev
        reg.reset()


def _metric_value(reg, name):
    for metric_name, _labels, m in reg.items():
        if metric_name == name:
            return m.value
    raise AssertionError(f"metric {name!r} not registered")


def test_jobs_per_second_gauge_set_after_run(registry):
    rows = [
        dict(submit_time=float(i), req_cpus=10, timelimit_min=5.0, runtime_min=1.0)
        for i in range(20)
    ]
    Simulator(tiny_cluster(), n_users=4).run(make_subs(rows))
    assert _metric_value(registry, "sim_jobs_per_second") > 0.0


def test_tombstone_counter_bumps_under_preemption(registry):
    # Low-QOS jobs saturate the pool; a high-QOS arrival evicts them,
    # which tombstones their stale END events in the lazy-deletion queue.
    rows = [
        dict(job_id=1, submit_time=0.0, req_cpus=60, qos=0,
             timelimit_min=120.0, runtime_min=120.0),
        dict(job_id=2, submit_time=0.0, req_cpus=40, qos=0,
             timelimit_min=120.0, runtime_min=120.0),
        dict(job_id=3, submit_time=60.0, req_cpus=100, qos=2,
             timelimit_min=10.0, runtime_min=10.0),
    ]
    res = Simulator(
        tiny_cluster(),
        n_users=4,
        preemption=PreemptionPolicy(min_preemptor_qos=2),
    ).run(make_subs(rows))
    assert res.n_preemptions > 0
    assert _metric_value(registry, "sim_events_tombstoned_total") >= res.n_preemptions


def test_tombstone_counter_stays_zero_without_preemption(registry):
    rows = [
        dict(submit_time=0.0, req_cpus=10, timelimit_min=5.0, runtime_min=1.0)
    ]
    Simulator(tiny_cluster(), n_users=4).run(make_subs(rows))
    assert _metric_value(registry, "sim_events_tombstoned_total") == 0.0
