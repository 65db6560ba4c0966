"""Product simulator vs the reference oracle: bitwise trace equivalence.

The product :class:`~repro.slurm.simulator.Simulator` (lazy-deletion
event queue, swap-remove pools, vectorised backfill, cached priority) is
an optimisation, not a re-specification: for any submission table and
any mode combination it must reproduce the straight-line
:class:`~tests.oracles.ReferenceSimulator` trace *bit for bit* —
start/end times, priorities-at-eligibility, pass and preemption counts,
makespan.  Hypothesis hammers that contract with random tables, once at
the default scalar/vector threshold and once with every pass forced
through the vector path; fixed scenarios pin the multi-pool, preemption
and node-level vector corners, plus run-to-run determinism of a
two-pool trace (set-ordered pool iteration was once a silent
nondeterminism hazard).
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slurm import scheduler
from repro.slurm.resources import Cluster, NodePool, Partition
from repro.slurm.scheduler import VectorBackfillScheduler
from repro.slurm.simulator import PreemptionPolicy, Simulator
from repro.workload.generator import WorkloadConfig, generate_trace
from tests.oracles import ReferenceSimulator
from tests.slurm.test_simulator import make_subs, tiny_cluster

job_strategy = st.fixed_dictionaries(
    {
        "user_id": st.integers(0, 3),
        "submit_time": st.floats(0, 5000),
        "partition": st.integers(0, 1),
        "req_cpus": st.sampled_from([1, 10, 25, 50, 100]),
        "qos": st.integers(0, 2),
        "timelimit_min": st.sampled_from([5.0, 30.0, 120.0]),
        "runtime_min": st.floats(0.1, 120.0),
    }
)


def two_pool_cluster():
    pools = [
        NodePool("a", n_nodes=2, cpus_per_node=100, mem_gb_per_node=512.0),
        NodePool("b", n_nodes=1, cpus_per_node=100, mem_gb_per_node=1024.0),
    ]
    parts = [Partition("qa", pool="a"), Partition("qb", pool="b")]
    return Cluster("twopool", pools, parts)


def _trace_fingerprint(res):
    return (
        res.jobs._records.tobytes(),
        res.priorities_at_eligibility.tobytes(),
        res.n_scheduler_passes,
        res.n_preemptions,
        res.makespan_s,
    )


def _assert_parity(cluster_fn, rows, **kw):
    """Run ``rows`` through the product and the oracle; traces must match."""
    ref = ReferenceSimulator(cluster_fn(), n_users=4, **kw).run(make_subs(rows))
    prod = Simulator(cluster_fn(), n_users=4, **kw).run(make_subs(rows))
    assert _trace_fingerprint(prod) == _trace_fingerprint(ref)
    return prod


def _check_random_table(rows, preempt, node_level):
    rows = [dict(r, job_id=i + 1) for i, r in enumerate(rows)]
    policy = PreemptionPolicy(min_preemptor_qos=2) if preempt else None
    _assert_parity(two_pool_cluster, rows, preemption=policy, node_level=node_level)


@given(
    rows=st.lists(job_strategy, min_size=1, max_size=30),
    preempt=st.booleans(),
    node_level=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_engines_bitwise_identical(rows, preempt, node_level):
    _check_random_table(rows, preempt, node_level)


@given(
    rows=st.lists(job_strategy, min_size=1, max_size=30),
    preempt=st.booleans(),
    node_level=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_engines_bitwise_identical_all_vector(rows, preempt, node_level):
    # Random tables rarely put more than 16 jobs in one ready queue, so
    # at the default threshold they exercise only the scalar pass.
    # Threshold 0 sends every non-empty pass through the vector path.
    with mock.patch.object(scheduler, "_SCALAR_PASS_MAX", 0):
        _check_random_table(rows, preempt, node_level)


def test_node_level_vector_pass_parity_on_congested_pool():
    # Four 32-core nodes, a shared and a whole-node partition, and waves
    # of 24 mixed-width jobs: every wave opens with a >16-ready vector
    # pass whose head fits, which takes the node-level greedy head walk.
    def cluster():
        pool = NodePool("n", n_nodes=4, cpus_per_node=32, mem_gb_per_node=256.0)
        parts = [
            Partition("shared", pool="n"),
            Partition("whole", pool="n", exclusive=True),
        ]
        return Cluster("nodes", [pool], parts)

    rows = []
    for i in range(96):
        nodes = 2 if i % 5 == 0 else 1
        rows.append(
            dict(
                job_id=i + 1,
                user_id=i % 4,
                partition=1 if i % 7 == 0 else 0,
                submit_time=float((i // 24) * 1800 + i % 3),
                req_cpus=nodes * (4, 8, 16, 24, 32)[i % 5],
                req_nodes=nodes,
                req_mem_gb=float(8 * (1 + i % 6)),
                qos=i % 3,
                timelimit_min=(30.0, 60.0, 120.0)[i % 3],
                runtime_min=float(5 + (i * 7) % 50),
            )
        )
    head_walks = []
    node_level_head = VectorBackfillScheduler._head_node_level

    def spy(self, ordered, req3, ledger):
        head_walks.append(len(ordered))
        return node_level_head(self, ordered, req3, ledger)

    with mock.patch.object(VectorBackfillScheduler, "_head_node_level", spy):
        _assert_parity(cluster, rows, node_level=True)
    assert head_walks, "the node-level vector head walk never ran"
    assert max(head_walks) > scheduler._SCALAR_PASS_MAX


def test_engines_match_on_generated_multi_pool_trace():
    # End-to-end through the workload generator: an Anvil-shaped cluster
    # (several pools live) at congesting load, product and oracle.
    cfg = WorkloadConfig(n_jobs=1500, seed=11, cluster_scale=0.05, load=0.45)
    assert _trace_fingerprint(generate_trace(cfg)[0]) == _trace_fingerprint(
        _generate_with(ReferenceSimulator, cfg)
    )


def _generate_with(sim_cls, cfg):
    """``generate_trace`` with its simulator class swapped for ``sim_cls``."""
    with mock.patch("repro.workload.generator.Simulator", sim_cls):
        return generate_trace(cfg)[0]


@pytest.mark.parametrize(
    "sim_cls", [Simulator, ReferenceSimulator], ids=["fast", "reference"]
)
def test_two_pool_trace_is_run_to_run_deterministic(sim_cls):
    # Pool iteration order must be sorted, not set order: with two pools
    # dirty in one event batch, an unsorted walk reorders fair-share
    # charges and diverges.  Two fresh runs must agree byte for byte.
    cfg = WorkloadConfig(n_jobs=800, seed=3, cluster_scale=0.05, load=0.5)
    a = _generate_with(sim_cls, cfg)
    b = _generate_with(sim_cls, cfg)
    assert _trace_fingerprint(a) == _trace_fingerprint(b)


def test_preemption_parity_on_saturated_single_pool():
    # Dense QOS mix on one saturated pool: preemption fires repeatedly
    # and product and oracle must agree on every eviction and requeue.
    # Low-QOS jobs saturate the pool first; wide QOS-2 arrivals then
    # block at the head and must evict them.
    rows = [
        dict(
            job_id=i + 1,
            user_id=i % 4,
            submit_time=float(i * 60),
            req_cpus=90 if i % 7 == 3 else 30,
            qos=2 if i % 7 == 3 else 0,
            timelimit_min=90.0,
            runtime_min=60.0,
        )
        for i in range(40)
    ]
    policy = PreemptionPolicy(min_preemptor_qos=2)
    res = _assert_parity(tiny_cluster, rows, preemption=policy)
    assert res.n_preemptions > 0  # the scenario actually preempts
