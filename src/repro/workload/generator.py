"""End-to-end synthetic workload generation.

:func:`generate_submissions` produces a :data:`SUBMISSION_DTYPE` table for a
given cluster; :func:`generate_trace` additionally runs the simulator and
returns the accounting trace.  The number of jobs is fixed by the config and
the trace *duration is derived* from the target average utilisation: total
sampled CPU-work divided by ``load × cluster CPU capacity``, so a higher
``load`` compresses the same jobs into less wall time and queues grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.slurm.anvil import ANVIL_PARTITIONS, anvil_cluster
from repro.slurm.priority import PriorityWeights
from repro.slurm.resources import Cluster
from repro.slurm.simulator import SUBMISSION_DTYPE, SimulationResult, Simulator
from repro.utils.logging import get_logger
from repro.utils.rng import default_rng
from repro.workload.arrivals import burst_sizes, sample_event_times
from repro.workload.jobs import sample_requests, sample_runtimes
from repro.workload.users import UserPopulation

__all__ = ["WorkloadConfig", "generate_submissions", "generate_trace"]

log = get_logger(__name__)

#: Default global partition shares; ``shared`` carries 68.95 % as in §I.
DEFAULT_PARTITION_SHARES: dict[str, float] = {
    "shared": 0.6895,
    "wholenode": 0.12,
    "standard": 0.08,
    "debug": 0.04,
    "gpu": 0.035,
    "highmem": 0.02,
    "wide": 0.0155,
}


@dataclass
class WorkloadConfig:
    """Knobs of the synthetic trace.

    ``load`` is the target mean CPU utilisation of the busiest pool; around
    0.28 the queue is mostly empty with bursts of congestion, matching the
    paper's ~87 % of jobs queuing under ten minutes while keeping a
    days-long right tail.  (Mean utilisation is calibrated against *actual*
    runtimes; instantaneous load during bursts is far higher.)
    """

    n_jobs: int = 50_000
    seed: int = 7
    cluster_scale: float = 0.05
    load: float = 0.28
    #: Fraction of the simulated trace discarded as warm-up: the cluster
    #: starts empty, so the earliest window is unrepresentatively quiet
    #: (standard steady-state simulation methodology).  The generator
    #: simulates extra jobs so the *returned* trace still has n_jobs.
    warmup_fraction: float = 0.15
    n_users: int | None = None  # default: ceil(n_jobs / 600), min 50
    partition_shares: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PARTITION_SHARES)
    )
    crash_fraction: float = 0.32
    delayed_eligibility_prob: float = 0.02
    mean_eligibility_delay_s: float = 2 * 3600.0
    max_burst: int = 400

    def resolved_n_users(self) -> int:
        if self.n_users is not None:
            return self.n_users
        return max(50, int(np.ceil(self.n_jobs / 600)))


def generate_submissions(
    config: WorkloadConfig, cluster: Cluster
) -> tuple[np.ndarray, UserPopulation]:
    """Sample a submission table for ``cluster``.

    Returns the table (sorted by submit time, job ids assigned in that
    order) and the user population that produced it.
    """
    if config.n_jobs <= 0:
        raise ValueError(f"n_jobs must be positive, got {config.n_jobs}")
    if not (np.isfinite(config.load) and config.load > 0):
        raise ValueError(f"load must be positive and finite, got {config.load}")
    rng = default_rng(config.seed)
    n_users = config.resolved_n_users()

    shares = np.array(
        [config.partition_shares.get(name, 0.0) for name in cluster.partition_names]
    )
    if shares.sum() <= 0:
        raise ValueError(
            "partition_shares has no overlap with the cluster's partitions"
        )
    pop = UserPopulation.sample(n_users, shares, seed=rng)

    # --- submission events (bursts) until we have n_jobs jobs ------------- #
    user_p = pop.activity_probs()
    mean_batch = float(
        np.mean(1.0 - pop.burstiness + pop.burstiness * pop.mean_burst)
    )
    n_events = max(8, int(config.n_jobs / mean_batch * 1.3))
    ev_users = rng.choice(n_users, size=n_events, p=user_p)
    sizes = burst_sizes(
        n_events,
        pop.burstiness[ev_users],
        pop.mean_burst[ev_users],
        rng,
        max_burst=config.max_burst,
    )
    cum = np.cumsum(sizes)
    # Keep events until we cover n_jobs, truncating the final burst.
    last = int(np.searchsorted(cum, config.n_jobs))
    if last >= n_events:  # undershoot: top up with single-job events
        deficit = config.n_jobs - int(cum[-1])
        extra_users = rng.choice(n_users, size=max(deficit, 0), p=user_p)
        ev_users = np.concatenate([ev_users, extra_users])
        sizes = np.concatenate([sizes, np.ones(max(deficit, 0), dtype=np.int64)])
        last = len(sizes) - 1
        cum = np.cumsum(sizes)
    overshoot = int(cum[last]) - config.n_jobs
    sizes = sizes[: last + 1].copy()
    ev_users = ev_users[: last + 1]
    sizes[-1] -= overshoot
    if sizes[-1] <= 0:
        sizes[-1] = 1
    n_events = len(sizes)
    n_jobs = int(sizes.sum())

    # --- per-burst attributes (identical within a burst) ------------------ #
    ev_part = np.array(
        [rng.choice(len(shares), p=pop.partition_pref[u]) for u in ev_users],
        dtype=np.intp,
    )
    ev_req = sample_requests(
        ev_part, pop.resource_scale[ev_users], cluster, rng
    )

    # --- expand bursts to jobs -------------------------------------------- #
    job_user = np.repeat(ev_users, sizes).astype(np.int32)
    job_part = np.repeat(ev_part, sizes).astype(np.int16)
    req_cpus = np.repeat(ev_req["req_cpus"], sizes).astype(np.int32)
    req_mem = np.repeat(ev_req["req_mem_gb"], sizes)
    req_nodes = np.repeat(ev_req["req_nodes"], sizes).astype(np.int32)
    req_gpus = np.repeat(ev_req["req_gpus"], sizes).astype(np.int32)
    timelimit = np.repeat(ev_req["timelimit_min"], sizes)

    runtime, fail = sample_runtimes(
        timelimit, pop.utilization_mean[job_user], rng, config.crash_fraction
    )

    # --- timeline ---------------------------------------------------------- #
    # Calibrate the trace duration against the *bottleneck* pool: each
    # pool's sampled CPU-work divided by its capacity gives the minimum
    # duration keeping that pool at or below the target load.
    pool_ids = cluster.partition_pool_ids()
    job_pool = pool_ids[job_part.astype(np.intp)]
    cpu_s = req_cpus * runtime * 60.0
    duration_s = 0.0
    for k, pool in enumerate(cluster.pools):
        pool_work = float(cpu_s[job_pool == k].sum())
        if pool_work > 0:
            duration_s = max(duration_s, pool_work / (config.load * pool.total_cpus))
    if duration_s <= 0:
        duration_s = 3600.0
    ev_times = sample_event_times(n_events, duration_s, rng)
    # Jobs within a burst land seconds apart (scripted submissions).
    gaps = rng.exponential(5.0, size=n_jobs)
    burst_start = np.repeat(ev_times, sizes)
    offsets = np.concatenate([np.cumsum(g) for g in np.split(gaps, np.cumsum(sizes)[:-1])])
    submit = burst_start + offsets

    elig_delay = np.zeros(n_jobs)
    delayed = rng.random(n_jobs) < config.delayed_eligibility_prob
    elig_delay[delayed] = rng.exponential(
        config.mean_eligibility_delay_s, int(delayed.sum())
    )
    eligible = submit + elig_delay

    qos = rng.choice(
        np.array([0, 1, 2], dtype=np.int8), size=n_jobs, p=[0.05, 0.85, 0.10]
    )

    order = np.argsort(submit, kind="stable")
    table = np.zeros(n_jobs, dtype=SUBMISSION_DTYPE)
    table["job_id"] = np.arange(1, n_jobs + 1)
    table["user_id"] = job_user[order]
    table["partition"] = job_part[order]
    table["qos"] = qos[order]
    table["submit_time"] = submit[order]
    table["eligible_time"] = eligible[order]
    table["req_cpus"] = req_cpus[order]
    table["req_mem_gb"] = req_mem[order]
    table["req_nodes"] = req_nodes[order]
    table["req_gpus"] = req_gpus[order]
    table["timelimit_min"] = timelimit[order]
    table["runtime_min"] = runtime[order]
    table["fail"] = fail[order]
    log.info(
        "generated %d jobs over %.1f days (load=%.2f, users=%d)",
        n_jobs,
        duration_s / 86400.0,
        config.load,
        n_users,
    )
    return table, pop


def generate_trace(
    config: WorkloadConfig,
    cluster: Cluster | None = None,
    weights: PriorityWeights | None = None,
) -> tuple[SimulationResult, Cluster]:
    """Generate submissions and run them through the simulator.

    Returns the :class:`SimulationResult` (trace ordered by eligibility)
    and the cluster used.
    """
    import dataclasses

    if cluster is None:
        cluster = anvil_cluster(scale=config.cluster_scale)
    if not 0.0 <= config.warmup_fraction < 0.9:
        raise ValueError("warmup_fraction must be in [0, 0.9)")
    n_keep = config.n_jobs
    if config.warmup_fraction > 0:
        # Simulate extra jobs, then drop the cold-start prefix so the
        # returned trace holds n_jobs of steady-state behaviour.
        n_total = int(np.ceil(n_keep / (1.0 - config.warmup_fraction)))
        config = dataclasses.replace(config, n_jobs=n_total, warmup_fraction=0.0)
    table, pop = generate_submissions(config, cluster)
    sim = Simulator(cluster, n_users=pop.n_users, weights=weights)
    result = sim.run(table)
    if len(result.jobs) > n_keep:
        # Trace is eligibility-ordered; keep the most recent n_keep jobs.
        keep = np.arange(len(result.jobs) - n_keep, len(result.jobs))
        result = SimulationResult(
            jobs=result.jobs[keep],
            priorities_at_eligibility=result.priorities_at_eligibility[keep],
            n_scheduler_passes=result.n_scheduler_passes,
            makespan_s=result.makespan_s,
        )
    return result, cluster
