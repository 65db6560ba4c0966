"""Reference simulator: the determinism oracle for ``repro.slurm``.

The product :class:`~repro.slurm.simulator.Simulator` is an optimisation
of this straight-line implementation, not a re-specification: for any
submission table under every mode combination (preemption × node_level)
it must reproduce this engine's trace bit for bit.  Here the event loop
is a plain binary heap of ``(time, seq, kind, job, attempt)`` tuples with
attempt-tagged stale END events, pending/running membership lives in
Python lists, and every scheduling pass is the scalar
:class:`BackfillScheduler` — full multifactor priority evaluation and a
per-pass rebuild of the backfill shadow schedule.

:class:`ReferenceSimulator` overrides only the event loop; validation,
ledgers and result assembly are the product's own.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.slurm.priority import MultifactorPriority
from repro.slurm.scheduler import PoolLedger
from repro.slurm.simulator import (
    _EV_ELIGIBLE,
    _EV_END,
    _EV_RELEASE,
    SimulationResult,
    Simulator,
    _Metrics,
)

__all__ = ["BackfillScheduler", "ReferenceSimulator"]


class BackfillScheduler:
    """EASY backfill over the pending queue of one pool.

    Parameters
    ----------
    priority_engine:
        Multifactor priority evaluator shared with the simulator.
    backfill_depth:
        How many jobs past the blocked head are considered for backfill per
        pass (Slurm's ``bf_max_job_test`` analogue; bounds pass cost).
    """

    def __init__(
        self,
        priority_engine: MultifactorPriority,
        backfill_depth: int = 100,
        exclusive_by_partition: np.ndarray | None = None,
    ) -> None:
        self.priority = priority_engine
        self.backfill_depth = backfill_depth
        #: Per-partition whole-node flags (used in node-level mode).
        self.exclusive_by_partition = exclusive_by_partition
        #: Index of the job that blocked at the head of the queue on the
        #: most recent pass (None when everything started).  The simulator
        #: uses this for preemption decisions.
        self.last_blocked: int | None = None
        #: How many of the most recent pass's started jobs were backfilled
        #: (started from below a blocked head) rather than started in
        #: priority order.  Telemetry reads this after each pass.
        self.last_backfilled: int = 0

    def _is_exclusive(self, jobs: np.ndarray, j: int) -> bool:
        if self.exclusive_by_partition is None:
            return False
        return bool(self.exclusive_by_partition[int(jobs["partition"][j])])

    def run_pass(
        self,
        t: float,
        jobs: np.ndarray,
        pending: list[int],
        running: list[int],
        ledger: PoolLedger,
    ) -> list[int]:
        """Start every job that can start at time ``t``; return their indices.

        ``jobs`` is the submission record array; ``pending`` / ``running``
        are index lists for this pool.  Started jobs are removed from
        ``pending`` and resources allocated in ``ledger``; the caller sets
        start times, pushes end events and updates ``running``.
        """
        self.last_blocked = None
        self.last_backfilled = 0
        if not pending:
            return []
        idx = np.asarray(pending, dtype=np.intp)
        prio = self.priority.compute(
            t,
            eligible_time=jobs["eligible_time"][idx],
            user_ids=jobs["user_id"][idx],
            partitions=jobs["partition"][idx],
            req_cpus=jobs["req_cpus"][idx].astype(np.float64),
            qos=jobs["qos"][idx],
        )
        # Slurm order: priority desc, then eligibility asc, then job id asc.
        order = np.lexsort((jobs["job_id"][idx], jobs["eligible_time"][idx], -prio))
        ordered = idx[order]

        started: list[int] = []
        blocked: int | None = None
        shadow_time = np.inf
        extra = np.array([np.inf, np.inf, np.inf])
        scanned_past_block = 0

        for j in ordered:
            cpus = float(jobs["req_cpus"][j])
            mem = float(jobs["req_mem_gb"][j])
            gpus = float(jobs["req_gpus"][j])
            req_nodes = int(jobs["req_nodes"][j])
            exclusive = self._is_exclusive(jobs, j)
            fits = ledger.fits_job(cpus, mem, gpus, req_nodes, exclusive)

            if blocked is None:
                if fits:
                    ledger.allocate_job(int(j), cpus, mem, gpus, req_nodes, exclusive)
                    started.append(int(j))
                    continue
                blocked = int(j)
                self.last_blocked = blocked
                shadow_time, extra = self._shadow(
                    t, jobs, running, ledger, cpus, mem, gpus
                )
                continue

            # Backfill region: bounded scan below the blocked head.
            scanned_past_block += 1
            if scanned_past_block > self.backfill_depth:
                break
            if not fits:
                continue
            expected_end = t + float(jobs["timelimit_min"][j]) * 60.0
            req = np.array([cpus, mem, gpus])
            if expected_end <= shadow_time + 1e-9:
                # Finishes before the reservation needs its resources.
                ledger.allocate_job(int(j), cpus, mem, gpus, req_nodes, exclusive)
                started.append(int(j))
                self.last_backfilled += 1
            elif np.all(req <= extra + 1e-9):
                # Fits in resources the reservation will not need.
                ledger.allocate_job(int(j), cpus, mem, gpus, req_nodes, exclusive)
                extra = extra - req
                started.append(int(j))
                self.last_backfilled += 1

        for j in started:
            pending.remove(j)
        return started

    def _shadow(
        self,
        t: float,
        jobs: np.ndarray,
        running: list[int],
        ledger: PoolLedger,
        need_cpus: float,
        need_mem: float,
        need_gpus: float,
    ) -> tuple[float, np.ndarray]:
        """Reservation for the blocked head job.

        Walk running jobs in expected-completion order (start + timelimit —
        the scheduler cannot see actual runtimes), accumulating released
        resources until the head job fits.  Returns ``(shadow_time,
        extra)`` where ``extra`` is what remains free at the shadow time
        beyond the head job's needs.  If the head can never fit (should not
        happen for validated requests), the shadow is ``inf`` and everything
        currently free is backfillable.
        """
        free = np.array([ledger.free_cpus, ledger.free_mem, ledger.free_gpus])
        need = np.array([need_cpus, need_mem, need_gpus])
        if not running:
            return np.inf, free.copy()
        ridx = np.asarray(running, dtype=np.intp)
        expected_end = jobs["start_time"][ridx] + jobs["timelimit_min"][ridx] * 60.0
        expected_end = np.maximum(expected_end, t)  # overrunning jobs end "now"
        order = np.argsort(expected_end, kind="stable")
        avail = free.copy()
        for k in order:
            j = ridx[k]
            avail += np.array(
                [
                    float(jobs["req_cpus"][j]),
                    float(jobs["req_mem_gb"][j]),
                    float(jobs["req_gpus"][j]),
                ]
            )
            if np.all(need <= avail + 1e-9):
                return float(expected_end[k]), avail - need
        return np.inf, free.copy()


class ReferenceSimulator(Simulator):
    """The product simulator with the original event loop swapped in."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scheduler = BackfillScheduler(
            self.priority,
            self.backfill_depth,
            exclusive_by_partition=self.exclusive_by_partition,
        )

    def _event_loop(self, jobs: np.ndarray, mx: _Metrics) -> SimulationResult:
        n = len(jobs)
        part_pool = self.cluster.partition_pool_ids()
        pool_of_job = part_pool[jobs["partition"].astype(np.intp)]
        ledgers = self._make_ledgers()
        pending: list[list[int]] = [[] for _ in self.cluster.pools]
        running: list[list[int]] = [[] for _ in self.cluster.pools]
        prio_at_elig = np.zeros(n, dtype=np.float64)

        # END events carry the job's attempt number so a preempted job's
        # stale completion is ignored (the requeue bumps the attempt).
        attempt = np.zeros(n, dtype=np.int32)
        # Requeued victims are held until this time before rescheduling.
        hold_until = np.zeros(n, dtype=np.float64)
        n_preemptions = 0

        heap: list[tuple[float, int, int, int, int]] = []
        seq = 0
        for j in np.argsort(jobs["eligible_time"], kind="stable"):
            heap.append(
                (float(jobs["eligible_time"][j]), seq, _EV_ELIGIBLE, int(j), 0)
            )
            seq += 1
        heapq.heapify(heap)

        n_passes = 0
        t = 0.0
        while heap:
            t = heap[0][0]
            dirty: set[int] = set()
            newly_eligible: list[int] = []
            # Drain all events at this timestamp before scheduling.
            while heap and heap[0][0] <= t + 1e-9:
                _, _, kind, j, ev_attempt = heapq.heappop(heap)
                pool = int(pool_of_job[j])
                if kind == _EV_ELIGIBLE:
                    pending[pool].append(j)
                    newly_eligible.append(j)
                elif kind == _EV_RELEASE:
                    pass  # hold expired: just mark the pool dirty below
                else:  # _EV_END
                    if ev_attempt != attempt[j]:
                        continue  # stale: the job was preempted mid-run
                    running[pool].remove(j)
                    ledgers[pool].release_job(
                        int(j),
                        float(jobs["req_cpus"][j]),
                        float(jobs["req_mem_gb"][j]),
                        float(jobs["req_gpus"][j]),
                    )
                    run_s = jobs["end_time"][j] - jobs["start_time"][j]
                    self.fairshare.add_usage(
                        int(jobs["user_id"][j]),
                        float(jobs["req_cpus"][j]) * float(run_s),
                        t,
                    )
                dirty.add(pool)

            if newly_eligible:
                ne = np.asarray(newly_eligible, dtype=np.intp)
                prio_at_elig[ne] = self.priority.compute(
                    t,
                    eligible_time=jobs["eligible_time"][ne],
                    user_ids=jobs["user_id"][ne],
                    partitions=jobs["partition"][ne],
                    req_cpus=jobs["req_cpus"][ne].astype(np.float64),
                    qos=jobs["qos"][ne],
                )

            mx.queue.set(float(sum(len(p) for p in pending)))
            mx.running.set(float(sum(len(r) for r in running)))

            # Sorted: set iteration order is unspecified, and multi-pool
            # batches must replay identically across runs (fair-share
            # charges are order-sensitive at equal timestamps).
            for pool in sorted(dirty):
                # Jobs under a requeue hold sit out this pool's passes;
                # started jobs leave ``ready`` inside run_pass and evicted
                # jobs are held past ``t``, so one filter per pool
                # suffices — no rebuild inside the requeue-hold loop.
                if self.preemption is not None:
                    ready = [j for j in pending[pool] if hold_until[j] <= t]
                else:
                    ready = pending[pool]
                while True:
                    mx.depth.observe(float(len(ready)))
                    started = self.scheduler.run_pass(
                        t, jobs, ready, running[pool], ledgers[pool]
                    )
                    n_passes += 1
                    mx.passes.inc()
                    mx.started.inc(len(started))
                    mx.backfilled.inc(self.scheduler.last_backfilled)
                    if ready is not pending[pool]:
                        for j in started:
                            pending[pool].remove(j)
                    for j in started:
                        # Event batching groups times within 1e-9 s; clamp
                        # so a job never starts before its own eligibility.
                        start = max(t, float(jobs["eligible_time"][j]))
                        jobs["start_time"][j] = start
                        end = start + self._effective_runtime_s(jobs, j)
                        jobs["end_time"][j] = end
                        running[pool].append(j)
                        heapq.heappush(
                            heap, (float(end), seq, _EV_END, j, int(attempt[j]))
                        )
                        seq += 1
                    evicted = self._maybe_preempt(
                        t, jobs, pending[pool], running[pool], ledgers[pool], attempt
                    )
                    if not evicted:
                        break
                    n_preemptions += len(evicted)
                    mx.preempted.inc(len(evicted))
                    release = t + self.preemption.requeue_hold_s
                    for j in evicted:
                        hold_until[j] = release
                    heapq.heappush(
                        heap, (float(release), seq, _EV_RELEASE, int(evicted[0]), 0)
                    )
                    seq += 1

        return self._finish(jobs, prio_at_elig, n_passes, n_preemptions)

    def _maybe_preempt(
        self,
        t: float,
        jobs: np.ndarray,
        pending: list[int],
        running: list[int],
        ledger,
        attempt: np.ndarray,
    ) -> list[int]:
        """Evict lower-QOS running jobs for a blocked preemptor head.

        Returns the requeued victims (empty = nothing to do).  The caller
        re-runs the scheduling pass afterwards so the head starts into the
        freed resources, and holds the victims briefly so they cannot
        backfill straight back into the gap.
        """
        policy = self.preemption
        head = self.scheduler.last_blocked
        if policy is None or head is None or not running:
            return []
        head_qos = int(jobs["qos"][head])
        if head_qos < policy.min_preemptor_qos:
            return []
        victims = [j for j in running if int(jobs["qos"][j]) < head_qos]
        if not victims:
            return []
        # Most recently started first: minimises wasted work.  Stable
        # argsort over the gathered start times keeps the running-list
        # tiebreak of the equivalent per-victim key sort.
        starts = jobs["start_time"][np.asarray(victims, dtype=np.intp)]
        victims = [victims[k] for k in np.argsort(-starts, kind="stable")]
        need = (
            float(jobs["req_cpus"][head]),
            float(jobs["req_mem_gb"][head]),
            float(jobs["req_gpus"][head]),
        )
        evicted: list[int] = []
        for j in victims:
            if ledger.fits(*need) or len(evicted) >= policy.max_victims_per_pass:
                break
            running.remove(j)
            ledger.release_job(
                int(j),
                float(jobs["req_cpus"][j]),
                float(jobs["req_mem_gb"][j]),
                float(jobs["req_gpus"][j]),
            )
            # Charge the wasted partial run to fair-share; requeue from
            # scratch with a bumped attempt so the old END event is stale.
            self.fairshare.add_usage(
                int(jobs["user_id"][j]),
                float(jobs["req_cpus"][j]) * max(t - float(jobs["start_time"][j]), 0.0),
                t,
            )
            attempt[j] += 1
            jobs["start_time"][j] = -1.0
            jobs["end_time"][j] = -1.0
            pending.append(j)
            evicted.append(int(j))
        # If victims ran out before the head fits, the evictions stand and
        # the head keeps waiting (Slurm behaves the same under REQUEUE).
        return evicted

    def _effective_runtime_s(self, jobs: np.ndarray, j: int) -> float:
        """Actual runtime, clipped to the timelimit (TIMEOUT kills)."""
        runtime = float(jobs["runtime_min"][j])
        limit = float(jobs["timelimit_min"][j])
        return min(runtime, limit) * 60.0
