"""Event-driven cluster simulation.

Feed a submission table (what users asked for and when) through the
multifactor-priority + EASY-backfill scheduler over a
:class:`~repro.slurm.resources.Cluster`; queue times come out the other
side.  The result converts to a :class:`~repro.data.schema.JobSet`
accounting trace identical in shape to what the paper extracted from
Slurm's ``sacct``.

One engine runs the loop: an indexed lazy-deletion event queue
(:class:`~repro.slurm.queue.EventQueue`), O(1) swap-remove
pending/running sets (:class:`~repro.slurm.queue.JobPool`), cached
incremental priorities and the vectorised backfill pass
(:class:`~repro.slurm.scheduler.VectorBackfillScheduler`).  Its traces
are pinned bit for bit against the original straight-line engine, which
lives on as a test oracle (``tests/oracles/reference_sim.py``) and
overrides only :meth:`Simulator._event_loop`.

The event loop has three event kinds — a job becoming *eligible*, a job
*ending*, and a requeue hold *releasing* — and runs a scheduling pass
over each affected pool after every batch of simultaneous events.  Job
attributes live in one structured array so scheduling passes are
vectorised gathers, not object traversals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.schema import JOB_DTYPE, JobSet, JobState
from repro.obs import metrics, tracing
from repro.slurm.fairshare import FairShareTracker
from repro.slurm.nodes import NodeLedger
from repro.slurm.priority import CachedPriority, MultifactorPriority, PriorityWeights
from repro.slurm.queue import EventQueue, JobPool
from repro.slurm.resources import Cluster
from repro.slurm.scheduler import PoolLedger, VectorBackfillScheduler
from repro.utils.logging import get_logger

__all__ = [
    "SUBMISSION_DTYPE",
    "Simulator",
    "SimulationResult",
]

log = get_logger(__name__)

#: What a user hands the scheduler, one record per job.  ``runtime_min`` is
#: the job's *actual* runtime (known to the workload generator, invisible to
#: the scheduler until the job ends); ``fail`` marks jobs that die early.
SUBMISSION_DTYPE = np.dtype(
    [
        ("job_id", np.int64),
        ("user_id", np.int32),
        ("partition", np.int16),
        ("qos", np.int8),
        ("submit_time", np.float64),
        ("eligible_time", np.float64),
        ("req_cpus", np.int32),
        ("req_mem_gb", np.float64),
        ("req_nodes", np.int32),
        ("req_gpus", np.int32),
        ("timelimit_min", np.float64),
        ("runtime_min", np.float64),
        ("fail", np.int8),
    ]
)

_SIM_DTYPE = np.dtype(SUBMISSION_DTYPE.descr + [("start_time", np.float64), ("end_time", np.float64)])

_EV_ELIGIBLE = 0
_EV_END = 1
_EV_RELEASE = 2  # a requeue hold expired; re-run the pool's scheduler

@dataclass(frozen=True)
class PreemptionPolicy:
    """QOS-based requeue preemption (Slurm ``PreemptMode=REQUEUE``).

    The Slurm docs the paper quotes put "jobs that can preempt" first in
    evaluation order.  Under this policy, a blocked queue-head job whose
    QOS is at least ``min_preemptor_qos`` may evict running jobs of
    strictly lower QOS (most recently started first) until it fits; the
    victims are requeued and restart from scratch (their partial run is
    still charged to fair-share).
    """

    min_preemptor_qos: int = 2
    max_victims_per_pass: int = 32
    #: Seconds a requeued victim is held out of scheduling.  Matches
    #: Slurm's requeue-then-re-pend behaviour and, crucially, prevents the
    #: evict/backfill livelock where a victim re-enters the gap it just
    #: vacated within the same scheduling instant.
    requeue_hold_s: float = 60.0

    def __post_init__(self) -> None:
        if self.min_preemptor_qos < 1:
            raise ValueError("min_preemptor_qos must be >= 1")
        if self.max_victims_per_pass < 1:
            raise ValueError("max_victims_per_pass must be >= 1")
        if self.requeue_hold_s <= 0:
            raise ValueError("requeue_hold_s must be positive")


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    jobs: JobSet  # accounting trace, eligibility-ordered
    priorities_at_eligibility: np.ndarray  # parallel to ``jobs``
    n_scheduler_passes: int
    makespan_s: float
    n_preemptions: int = 0

    @property
    def queue_time_min(self) -> np.ndarray:
        return self.jobs.queue_time_min


class _Metrics:
    """Handles resolved once per run; per-pass updates are attribute
    bumps (or no-ops with telemetry disabled)."""

    def __init__(self) -> None:
        reg = metrics.get_registry()
        self.queue = reg.gauge("sim_queue_depth", help="pending jobs across all pools")
        self.running = reg.gauge(
            "sim_running_jobs", help="running jobs across all pools"
        )
        self.passes = reg.counter(
            "sim_scheduler_passes_total", help="scheduling passes executed"
        )
        self.started = reg.counter(
            "sim_jobs_started_total", help="job starts (requeued jobs count again)"
        )
        self.backfilled = reg.counter(
            "sim_jobs_backfilled_total", help="jobs started via EASY backfill"
        )
        self.preempted = reg.counter(
            "sim_preemptions_total", help="running jobs evicted by preemption"
        )
        self.tombstoned = reg.counter(
            "sim_events_tombstoned_total",
            help="events invalidated in the lazy-deletion queue",
        )
        self.jobs_per_second = reg.gauge(
            "sim_jobs_per_second",
            help="simulated jobs per wall-clock second, last run",
        )
        # Queue depth is a dimensionless job count — none of the unit
        # suffixes apply, and the name is a published PR-3 surface.
        self.depth = reg.histogram(  # repro: ignore[OBS001]
            "sim_queue_depth_per_pass",
            help="pool queue depth seen by each scheduling pass",
            buckets=metrics.log_buckets(1.0, 1e5),
        )


class Simulator:
    """Run a submission table through the scheduler.

    Parameters
    ----------
    cluster:
        Machine shape (see :func:`repro.slurm.anvil.anvil_cluster`).
    n_users:
        Size of the user-id space for the fair-share tracker.
    weights:
        Multifactor priority weights.
    backfill_depth:
        Per-pass backfill scan bound.
    fairshare_half_life_s:
        Usage decay half-life.
    """

    def __init__(
        self,
        cluster: Cluster,
        n_users: int,
        weights: PriorityWeights | None = None,
        backfill_depth: int = 100,
        fairshare_half_life_s: float = 14 * 24 * 3600.0,
        preemption: "PreemptionPolicy | None" = None,
        node_level: bool = False,
    ) -> None:
        self.cluster = cluster
        self.fairshare = FairShareTracker(n_users, half_life_s=fairshare_half_life_s)
        self.priority = MultifactorPriority(cluster, self.fairshare, weights)
        #: Per-pass backfill scan bound (Slurm's ``bf_max_job_test``).
        self.backfill_depth = backfill_depth
        #: Per-partition whole-node flags (used in node-level mode).
        self.exclusive_by_partition = np.array(
            [p.exclusive for p in cluster.partitions], dtype=bool
        )
        self.preemption = preemption
        #: Fragmentation-aware per-node placement (see repro.slurm.nodes).
        self.node_level = node_level

    # ------------------------------------------------------------------ #
    def run(self, submissions: np.ndarray) -> SimulationResult:
        """Simulate to completion and return the accounting trace.

        ``submissions`` must use :data:`SUBMISSION_DTYPE`.  Every job
        eventually starts (requests are validated as satisfiable up front);
        the simulation drains all events.
        """
        with tracing.span("simulate", jobs=len(submissions)):
            return self._run(submissions)

    def _run(self, submissions: np.ndarray) -> SimulationResult:
        submissions = np.asarray(submissions)
        if submissions.dtype != SUBMISSION_DTYPE:
            raise TypeError(
                f"submissions must use SUBMISSION_DTYPE, got {submissions.dtype}"
            )
        n = len(submissions)
        jobs = np.zeros(n, dtype=_SIM_DTYPE)
        for name in SUBMISSION_DTYPE.names:
            jobs[name] = submissions[name]
        jobs["start_time"] = -1.0
        jobs["end_time"] = -1.0
        self._validate(jobs)
        mx = _Metrics()
        t0 = time.perf_counter()
        result = self._event_loop(jobs, mx)
        elapsed = time.perf_counter() - t0
        mx.jobs_per_second.set(n / elapsed if elapsed > 0 else 0.0)
        return result

    def _make_ledgers(self) -> list[PoolLedger]:
        return [
            PoolLedger(
                pool.total_cpus,
                pool.total_mem_gb,
                pool.total_gpus,
                nodes=NodeLedger(pool) if self.node_level else None,
            )
            for pool in self.cluster.pools
        ]

    # ------------------------------------------------------------------ #
    # Event loop: lazy-deletion event queue, swap-remove pools,
    # incremental priorities, vectorised scheduling pass.
    # ------------------------------------------------------------------ #
    def _event_loop(self, jobs: np.ndarray, mx: _Metrics) -> SimulationResult:
        n = len(jobs)
        part_pool = self.cluster.partition_pool_ids()
        pool_of_job = part_pool[jobs["partition"].astype(np.intp)]
        ledgers = self._make_ledgers()
        n_pools = len(self.cluster.pools)
        pending = [JobPool(n) for _ in range(n_pools)]
        running = [JobPool(n) for _ in range(n_pools)]
        prio_at_elig = np.zeros(n, dtype=np.float64)

        # Hot job attributes as contiguous columns: scheduling reads are
        # array gathers, never structured-array scalar pulls.
        elig = jobs["eligible_time"].astype(np.float64)
        req_c = jobs["req_cpus"].astype(np.float64)
        req_m = jobs["req_mem_gb"].astype(np.float64)
        req_g = jobs["req_gpus"].astype(np.float64)
        req_nodes = jobs["req_nodes"].astype(np.int64)
        limit_s = jobs["timelimit_min"].astype(np.float64) * 60.0
        eff_run_s = np.minimum(jobs["runtime_min"], jobs["timelimit_min"]) * 60.0
        user_ids = jobs["user_id"].astype(np.intp)
        qos = jobs["qos"].astype(np.int64)
        start_arr = np.full(n, -1.0, dtype=np.float64)
        end_arr = np.full(n, -1.0, dtype=np.float64)
        # Global start counter: equals the reference oracle's running-list
        # insertion order, so every tie the oracle breaks positionally
        # (shadow release schedule, victim selection) breaks identically.
        start_seq = np.zeros(n, dtype=np.int64)
        next_seq = 0
        excl = self.exclusive_by_partition[jobs["partition"].astype(np.intp)]

        cached = CachedPriority(self.priority, jobs)
        vsched = VectorBackfillScheduler(
            cached,
            self.backfill_depth,
            job_ids=jobs["job_id"].astype(np.int64),
            eligible=elig,
            req_cpus=req_c,
            req_mem=req_m,
            req_gpus=req_g,
            req_nodes=req_nodes,
            limit_s=limit_s,
            exclusive=excl,
        )

        # Requeued victims are held until this time before rescheduling.
        hold_until = np.zeros(n, dtype=np.float64)
        n_preemptions = 0
        policy = self.preemption

        q = EventQueue()
        for j in np.argsort(elig, kind="stable"):
            q.push(float(elig[j]), _EV_ELIGIBLE, int(j))

        def preempt(pool: int, ledger: PoolLedger) -> list[int]:
            """Evict lower-QOS running jobs for a blocked preemptor head.

            Victims go most recently started first until the head fits;
            each victim's stale END event is tombstoned in the queue and
            the victim requeues from scratch.
            """
            head = vsched.last_blocked
            run_pool = running[pool]
            if policy is None or head is None or len(run_pool) == 0:
                return []
            head_qos = int(qos[head])
            if head_qos < policy.min_preemptor_qos:
                return []
            view = run_pool.view()
            vic = view[qos[view] < head_qos]
            if len(vic) == 0:
                return []
            # Most recently started first (ties: earliest-started-counter
            # first, the reference's list order): minimises wasted work.
            vic = vic[np.lexsort((start_seq[vic], -start_arr[vic]))]
            need = (req_c_l[head], req_m_l[head], req_g_l[head])
            evicted: list[int] = []
            for j in vic:
                if ledger.fits(*need) or len(evicted) >= policy.max_victims_per_pass:
                    break
                j = int(j)
                run_pool.remove(j)
                vsched.schedule_remove(run_pool, j)
                ledger.release_job(j, req_c_l[j], req_m_l[j], req_g_l[j])
                # Charge the wasted partial run to fair-share; requeue
                # from scratch with the old END event tombstoned.
                self.fairshare.add_usage(
                    user_ids_l[j], req_c_l[j] * max(t - start_arr[j], 0.0), t
                )
                q.invalidate(_EV_END, j)
                start_arr[j] = -1.0
                end_arr[j] = -1.0
                pending[pool].add(j)
                evicted.append(j)
            # If victims ran out before the head fits, the evictions stand
            # and the head keeps waiting (Slurm behaves the same).
            return evicted

        # Python-scalar mirrors for per-event lookups in the loop (same
        # IEEE doubles; list indexing skips NumPy scalar boxing).
        pool_ids = pool_of_job.tolist()
        req_c_l = req_c.tolist()
        req_m_l = req_m.tolist()
        req_g_l = req_g.tolist()
        user_ids_l = user_ids.tolist()
        elig_l = elig.tolist()
        eff_run_s_l = eff_run_s.tolist()
        n_pending = 0
        n_running = 0
        # Latest requeue-hold expiry: when ``t`` has passed it, no job is
        # held and the per-pass hold filter is skipped entirely.
        hold_horizon = -np.inf
        n_passes = 0
        # Counter totals accumulate locally and flush once after the
        # loop — the counters are monotone, so only the final value is
        # observable from a finished run.
        n_started_total = 0
        n_backfilled_total = 0
        while True:
            batch = q.drain_next(1e-9)
            if batch is None:
                break
            t, events = batch
            dirty: set[int] = set()
            newly_eligible: list[int] = []
            # Drain all events at this timestamp before scheduling.
            for _, kind, j in events:
                pool = pool_ids[j]
                if kind == _EV_ELIGIBLE:
                    pending[pool].add(j)
                    n_pending += 1
                    newly_eligible.append(j)
                elif kind == _EV_END:
                    running[pool].remove(j)
                    vsched.schedule_remove(running[pool], j)
                    n_running -= 1
                    ledgers[pool].release_job(j, req_c_l[j], req_m_l[j], req_g_l[j])
                    run_s = end_arr[j] - start_arr[j]
                    self.fairshare.add_usage(user_ids_l[j], req_c_l[j] * run_s, t)
                # _EV_RELEASE: hold expired — just mark the pool dirty.
                dirty.add(pool)

            if newly_eligible:
                if len(newly_eligible) == 1:
                    j = newly_eligible[0]
                    prio_at_elig[j] = cached.compute_one(j, t)
                else:
                    ne = np.asarray(newly_eligible, dtype=np.intp)
                    prio_at_elig[ne] = cached.compute_for(ne, t)

            mx.queue.set(float(n_pending))
            mx.running.set(float(n_running))

            for pool in sorted(dirty):
                pend = pending[pool]
                run_pool = running[pool]
                ledger = ledgers[pool]
                while True:
                    # Jobs under a requeue hold sit out this pass.
                    if t < hold_horizon:
                        view = pend.view()
                        ready = view[hold_until[view] <= t]
                    else:
                        ready = pend.view()
                    mx.depth.observe(float(len(ready)))
                    started = vsched.run_pass(t, ready, run_pool, ledger)
                    n_passes += 1
                    n_started_total += len(started)
                    n_backfilled_total += vsched.last_backfilled
                    for j in started:
                        pend.remove(j)
                        # Event batching groups times within 1e-9 s; clamp
                        # so a job never starts before its own eligibility.
                        start = max(t, elig_l[j])
                        start_arr[j] = start
                        end = start + eff_run_s_l[j]
                        end_arr[j] = end
                        run_pool.add(j)
                        start_seq[j] = next_seq
                        vsched.schedule_insert(run_pool, j, start, next_seq)
                        next_seq += 1
                        q.push(end, _EV_END, j)
                    n_pending -= len(started)
                    n_running += len(started)
                    if policy is None:
                        break
                    evicted = preempt(pool, ledger)
                    if not evicted:
                        break
                    n_preemptions += len(evicted)
                    n_pending += len(evicted)
                    n_running -= len(evicted)
                    mx.preempted.inc(len(evicted))
                    release = t + policy.requeue_hold_s
                    for j in evicted:
                        hold_until[j] = release
                    if release > hold_horizon:
                        hold_horizon = release
                    q.push(float(release), _EV_RELEASE, int(evicted[0]))

        mx.passes.inc(n_passes)
        mx.started.inc(n_started_total)
        mx.backfilled.inc(n_backfilled_total)
        mx.tombstoned.inc(q.tombstoned)
        jobs["start_time"] = start_arr
        jobs["end_time"] = end_arr
        return self._finish(jobs, prio_at_elig, n_passes, n_preemptions)

    # ------------------------------------------------------------------ #
    def _finish(
        self,
        jobs: np.ndarray,
        prio_at_elig: np.ndarray,
        n_passes: int,
        n_preemptions: int,
    ) -> SimulationResult:
        n = len(jobs)
        unstarted = np.flatnonzero(jobs["start_time"] < 0)
        if len(unstarted):
            raise RuntimeError(
                f"{len(unstarted)} jobs never started — first: "
                f"job_id={int(jobs['job_id'][unstarted[0]])}"
            )
        trace = self._to_jobset(jobs, prio_at_elig)
        order = np.argsort(jobs["eligible_time"], kind="stable")
        log.info("simulated %d jobs, %d scheduler passes", n, n_passes)
        return SimulationResult(
            jobs=trace[order],
            priorities_at_eligibility=prio_at_elig[order],
            n_scheduler_passes=n_passes,
            makespan_s=float(jobs["end_time"].max() if n else 0.0),
            n_preemptions=n_preemptions,
        )

    # ------------------------------------------------------------------ #
    def _validate(self, jobs: np.ndarray) -> None:
        """Reject unsatisfiable requests before the event loop starts."""
        part_pool = self.cluster.partition_pool_ids()
        pools = self.cluster.pools
        cap_cpus = np.array([pools[i].total_cpus for i in part_pool])
        cap_mem = np.array([pools[i].total_mem_gb for i in part_pool])
        cap_gpus = np.array([pools[i].total_gpus for i in part_pool])
        p = jobs["partition"].astype(np.intp)
        bad = (
            (jobs["req_cpus"] > cap_cpus[p])
            | (jobs["req_mem_gb"] > cap_mem[p])
            | (jobs["req_gpus"] > cap_gpus[p])
            | (jobs["req_cpus"] <= 0)
            | (jobs["req_nodes"] <= 0)
            | (jobs["req_mem_gb"] <= 0)
            | (jobs["timelimit_min"] <= 0)
            | (jobs["runtime_min"] < 0)
            | (jobs["eligible_time"] < jobs["submit_time"])
        )
        if self.node_level:
            # Per-node share must fit one node even on an empty pool.
            cpn = np.array([pools[i].cpus_per_node for i in part_pool])
            mpn = np.array([pools[i].mem_gb_per_node for i in part_pool])
            gpn = np.array([pools[i].gpus_per_node for i in part_pool])
            nn = np.array([pools[i].n_nodes for i in part_pool])
            k = np.maximum(jobs["req_nodes"], 1).astype(np.float64)
            bad |= np.ceil(jobs["req_cpus"] / k) > cpn[p]
            bad |= (jobs["req_mem_gb"] / k) > mpn[p] + 1e-9
            bad |= np.ceil(jobs["req_gpus"] / k) > gpn[p]
            bad |= jobs["req_nodes"] > nn[p]
        if np.any(bad):
            first = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"unsatisfiable or malformed submission at row {first} "
                f"(job_id={int(jobs['job_id'][first])})"
            )

    def _to_jobset(self, jobs: np.ndarray, prio: np.ndarray) -> JobSet:
        """Convert the simulation array to an accounting JobSet."""
        n = len(jobs)
        rec = np.zeros(n, dtype=JOB_DTYPE)
        for name in (
            "job_id",
            "user_id",
            "partition",
            "qos",
            "submit_time",
            "eligible_time",
            "start_time",
            "end_time",
            "req_cpus",
            "req_mem_gb",
            "req_nodes",
            "timelimit_min",
        ):
            rec[name] = jobs[name]
        rec["priority"] = prio
        ran_full = jobs["runtime_min"] >= jobs["timelimit_min"]
        state = np.full(n, int(JobState.COMPLETED), dtype=np.int8)
        state[ran_full.nonzero()] = int(JobState.TIMEOUT)
        state[(jobs["fail"] == 1) & ~ran_full] = int(JobState.FAILED)
        rec["state"] = state
        return JobSet(rec, self.cluster.partition_names)
