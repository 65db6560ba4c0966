"""A16 — simulator throughput gate.

The simulator's engine (indexed lazy-deletion event queue, swap-remove
pools, vectorised backfill pass, incremental cached priority) exists for
one reason: trace generation at study scale.  This gate holds it to a
≥5× jobs/second advantage over the straight-line reference oracle
(``tests/oracles``) on a congested Anvil-shaped workload, and re-checks
the bitwise contract on the exact traces it times — a speedup that
changes the trace is a bug, not a win.

The CI workload is 60 k jobs at load 0.5 (the congestion regime where
the reference oracle's per-pass rebuild cost dominates, and the regime
study sweeps actually visit).  Knobs: ``REPRO_BENCH_JOBS``,
``REPRO_BENCH_SEED`` and ``REPRO_BENCH_SIM_LOAD``.  The committed
``out/a16_sim_throughput.txt`` records a larger local run (see
benchmarks/README.md).
"""

import os
import time

from benchmarks.conftest import emit, once
from repro.eval.report import format_table
from repro.slurm.anvil import anvil_cluster
from repro.slurm.simulator import Simulator
from repro.workload.generator import WorkloadConfig, generate_submissions
from tests.oracles import ReferenceSimulator

#: jobs/s ratio the simulator must clear over the oracle in CI.  Locally
#: measured at 8–14× (60 k–200 k jobs, load 0.5); the floor leaves
#: headroom for noisy shared runners without ever letting a regression
#: to the reference oracle's complexity class pass.
MIN_SPEEDUP = 5.0


def _workload():
    cfg = WorkloadConfig(
        n_jobs=int(os.environ.get("REPRO_BENCH_JOBS", 60_000)),
        seed=int(os.environ.get("REPRO_BENCH_SEED", 7)),
        load=float(os.environ.get("REPRO_BENCH_SIM_LOAD", 0.5)),
        cluster_scale=0.05,
    )
    cluster = anvil_cluster(scale=cfg.cluster_scale)
    subs, pop = generate_submissions(cfg, cluster)
    return cfg, cluster, subs, pop


def test_a16_sim_throughput(benchmark):
    cfg, cluster, subs, pop = _workload()

    def run(sim_cls):
        sim = sim_cls(cluster, n_users=pop.n_users)
        t0 = time.perf_counter()
        res = sim.run(subs.copy())
        return time.perf_counter() - t0, res

    t_ref, res_ref = run(ReferenceSimulator)
    t_fast, res_fast = once(benchmark, lambda: run(Simulator))

    # The timed traces themselves must agree bit for bit.
    assert res_fast.jobs._records.tobytes() == res_ref.jobs._records.tobytes()
    assert res_fast.n_scheduler_passes == res_ref.n_scheduler_passes

    n = cfg.n_jobs
    speedup = t_ref / t_fast if t_fast > 0 else float("inf")
    emit(
        "a16_sim_throughput",
        format_table(
            ["engine", "jobs", "load", "wall (s)", "jobs/s", "speedup"],
            [
                ["reference", n, cfg.load, t_ref, n / t_ref, 1.0],
                ["fast", n, cfg.load, t_fast, n / t_fast, speedup],
            ],
            float_fmt="{:.2f}",
        ),
    )
    assert speedup >= MIN_SPEEDUP, (t_ref, t_fast, speedup)
