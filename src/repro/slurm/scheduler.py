"""Priority scheduling with EASY backfill.

One scheduling pass orders a pool's pending jobs by multifactor priority
(ties broken by eligibility time then job id, Slurm's documented order),
starts jobs until the head of the queue no longer fits, computes that head
job's *shadow time* (when enough running jobs will have released resources
for it) and then lets lower-priority jobs backfill — either because they
will finish before the shadow time, or because they fit inside the spare
("extra") resources the reservation does not need.  This is the classic
EASY algorithm at aggregate-resource granularity.

The straight-line per-job form of the pass — the "reference" the
comments below refer to — lives in ``tests/oracles/reference_sim.py``,
where the equivalence suite pins this module against it bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from repro.slurm.nodes import Allocation, NodeLedger
from repro.slurm.priority import CachedPriority

__all__ = ["PoolLedger", "VectorBackfillScheduler"]

#: Ready-queue sizes at or below this take the scalar pass path — the
#: typical pass sees one or two candidates, where Python scalars beat
#: NumPy's per-call dispatch overhead by an order of magnitude; the
#: crossover against the vector pass's fixed dispatch cost sits around
#: a dozen candidates.
_SCALAR_PASS_MAX = 16


@dataclass
class PoolLedger:
    """Free aggregate resources of one node pool.

    With a :class:`~repro.slurm.nodes.NodeLedger` attached, fit checks and
    allocations are additionally node-exact: a job starts only when a
    concrete per-node placement exists (fragmentation-aware mode).  Shadow
    and "extra" reasoning in the backfill pass stays aggregate — the
    classic EASY approximation.
    """

    free_cpus: float
    free_mem: float
    free_gpus: float
    nodes: NodeLedger | None = None
    _allocations: dict[int, Allocation] = field(default_factory=dict, repr=False)

    def fits(self, cpus: float, mem: float, gpus: float) -> bool:
        return (
            cpus <= self.free_cpus + 1e-9
            and mem <= self.free_mem + 1e-9
            and gpus <= self.free_gpus + 1e-9
        )

    def fits_job(
        self,
        cpus: float,
        mem: float,
        gpus: float,
        req_nodes: int,
        exclusive: bool,
    ) -> bool:
        """Aggregate fit plus (in node-level mode) a feasible placement."""
        if not self.fits(cpus, mem, gpus):
            return False
        if self.nodes is not None:
            return self.nodes.can_place(cpus, mem, gpus, req_nodes, exclusive)
        return True

    def allocate(self, cpus: float, mem: float, gpus: float) -> None:
        self.free_cpus -= cpus
        self.free_mem -= mem
        self.free_gpus -= gpus
        if self.free_cpus < -1e-6 or self.free_mem < -1e-6 or self.free_gpus < -1e-6:
            raise RuntimeError("pool over-allocated — scheduler invariant broken")

    def allocate_job(
        self,
        job: int,
        cpus: float,
        mem: float,
        gpus: float,
        req_nodes: int,
        exclusive: bool,
    ) -> None:
        """Allocate for a specific job, recording its node placement."""
        self.allocate(cpus, mem, gpus)
        if self.nodes is not None:
            self._allocations[job] = self.nodes.place(
                cpus, mem, gpus, req_nodes, exclusive
            )

    def release(self, cpus: float, mem: float, gpus: float) -> None:
        self.free_cpus += cpus
        self.free_mem += mem
        self.free_gpus += gpus

    def release_job(self, job: int, cpus: float, mem: float, gpus: float) -> None:
        """Release a job's aggregate share and its node placement."""
        self.release(cpus, mem, gpus)
        if self.nodes is not None:
            self.nodes.release(self._allocations.pop(job))


class VectorBackfillScheduler:
    """EASY backfill over pre-gathered job-attribute arrays.

    Same algorithm and pass semantics as the reference scalar pass, but
    the per-job scalar pulls from the structured submission array are
    replaced by contiguous float64 arrays
    gathered once per pass, the greedy head phase by one fit test over
    cumulative free-resource chains, the shadow walk by an early-exit
    scan of an incrementally-sorted release schedule, and the backfill
    scan by a masked vector feasibility test with a Python loop only
    over surviving candidates.

    Bitwise contract with the reference pass: every floating-point chain
    is evaluated in the reference's association order (the cumulative
    arrays are seeded with the current free value, so ``cumsum``
    reproduces the sequential ``+=``/``-=`` exactly), priorities come
    from :class:`~repro.slurm.priority.CachedPriority`, and running-set
    ties resolve on the caller's monotone start counter — which equals
    the reference's running-list insertion order.

    The caller reports every start and end via :meth:`schedule_insert` /
    :meth:`schedule_remove`, which keep a per-pool release schedule
    sorted incrementally for the shadow walk.
    """

    def __init__(
        self,
        priority: CachedPriority,
        backfill_depth: int,
        *,
        job_ids: np.ndarray,
        eligible: np.ndarray,
        req_cpus: np.ndarray,
        req_mem: np.ndarray,
        req_gpus: np.ndarray,
        req_nodes: np.ndarray,
        limit_s: np.ndarray,
        exclusive: np.ndarray,
    ) -> None:
        self.priority = priority
        self.backfill_depth = backfill_depth
        self._job_ids = job_ids
        self._elig = eligible
        self._req_c = req_cpus
        self._req_m = req_mem
        self._req_g = req_gpus
        #: (3, n_jobs) request matrix — one fancy-index per pass gathers
        #: all three resource dimensions at once.
        self._req3 = np.ascontiguousarray(np.stack([req_cpus, req_mem, req_gpus]))
        self._req_nodes = req_nodes
        self._limit_s = limit_s
        self._excl = exclusive
        # Python-scalar mirrors for the scalar pass path (read-only job
        # attributes; list indexing skips NumPy scalar boxing).
        self._job_ids_l = job_ids.tolist()
        self._elig_l = eligible.tolist()
        self._req_c_l = req_cpus.tolist()
        self._req_m_l = req_mem.tolist()
        self._req_g_l = req_gpus.tolist()
        self._req_nodes_l = req_nodes.tolist()
        self._excl_l = exclusive.tolist()
        self._limit_s_l = limit_s.tolist()
        #: Per-pool release schedule: a sorted list of ``(expected_end,
        #: start_seq, job, req_c, req_m, req_g)`` tuples maintained
        #: incrementally via :meth:`schedule_insert` /
        #: :meth:`schedule_remove`.  ``(end, seq)`` is unique and ``seq``
        #: is the caller's monotone start counter, so the order equals
        #: the reference's (expected end, insertion order) sort.
        self._sched: dict[object, list[tuple]] = {}
        self._sched_key: dict[int, tuple[float, int]] = {}
        #: One-entry-per-pool memo of the full shadow result — a pure
        #: function of (running-set version, free resources, head need),
        #: all compared exactly; consecutive blocked passes with no
        #: resource change (eligibility-only batches) hit it.
        self._shadow_result: dict[object, tuple] = {}
        self.last_blocked: int | None = None
        self.last_backfilled: int = 0

    # ------------------------------------------------------------------ #
    def schedule_insert(self, run_pool, j: int, start: float, seq: int) -> None:
        """Record started job ``j`` in the pool's release schedule."""
        lst = self._sched.get(run_pool)
        if lst is None:
            lst = self._sched[run_pool] = []
        ee = start + self._limit_s_l[j]
        self._sched_key[j] = (ee, seq)
        insort(
            lst,
            (ee, seq, j, self._req_c_l[j], self._req_m_l[j], self._req_g_l[j]),
        )

    def schedule_remove(self, run_pool, j: int) -> None:
        """Drop completed or evicted job ``j`` from the release schedule."""
        lst = self._sched[run_pool]
        # A (end, seq) prefix tuple sorts just before its full entry.
        pos = bisect_left(lst, self._sched_key.pop(j))
        del lst[pos]

    # ------------------------------------------------------------------ #
    def run_pass(
        self,
        t: float,
        ready: np.ndarray,
        run_pool,
        ledger: PoolLedger,
    ) -> list[int]:
        """Start every job that can start at ``t``; return their indices.

        ``ready`` is an index array (any order); ``run_pool`` is the
        pool's running :class:`~repro.slurm.queue.JobPool`.  Started jobs
        get resources allocated in ``ledger``; the caller removes them
        from its pending set, stamps start times and pushes end events.
        """
        self.last_blocked = None
        self.last_backfilled = 0
        n = len(ready)
        if n == 0:
            return []
        if n <= _SCALAR_PASS_MAX:
            return self._run_pass_scalar(t, ready, run_pool, ledger)
        prio = self.priority.compute_for(ready, t)
        # Slurm order: priority desc, then eligibility asc, then job id
        # asc — a total order (ids are unique), so the result does not
        # depend on the incoming permutation of ``ready``.
        order = np.lexsort((self._job_ids[ready], self._elig[ready], -prio))
        ordered = ready[order]
        req3 = self._req3[:, ordered]

        j0 = int(ordered[0])
        if not ledger.fits_job(
            self._req_c_l[j0],
            self._req_m_l[j0],
            self._req_g_l[j0],
            self._req_nodes_l[j0],
            self._excl_l[j0],
        ):
            # Blocked at the very head — the most common outcome under
            # load; skip building the cumulative chains entirely.
            started: list[int] = []
            blocked_pos = 0
        elif ledger.nodes is not None:
            started, blocked_pos = self._head_node_level(ordered, req3, ledger)
        else:
            started, blocked_pos = self._head_aggregate(ordered, req3, ledger)
        if blocked_pos >= n:
            return started
        self.last_blocked = int(ordered[blocked_pos])

        # Backfill region: the next ``backfill_depth`` candidates below
        # the blocked head.  Empty window → the shadow would be dead
        # state (it is pure), so skip computing it.
        lo = blocked_pos + 1
        hi = min(lo + self.backfill_depth, n)
        if lo >= hi:
            return started

        # Free resources and ``extra`` only shrink within a pass and the
        # shadow is fixed, so the static mask is an exact superset of the
        # jobs the reference scan would start — the loop re-checks each
        # survivor against live state.
        window = ordered[lo:hi]
        wreq = req3[:, lo:hi]
        eps = 1e-9
        fits_now = (
            (wreq[0] <= ledger.free_cpus + eps)
            & (wreq[1] <= ledger.free_mem + eps)
            & (wreq[2] <= ledger.free_gpus + eps)
        )
        if not fits_now.any():
            # Both backfill branches require the candidate to fit *now*;
            # the shadow is pure state, so skipping it is unobservable.
            return started
        shadow, extra_c, extra_m, extra_g = self._shadow(
            t,
            run_pool,
            ledger,
            float(req3[0, blocked_pos]),
            float(req3[1, blocked_pos]),
            float(req3[2, blocked_pos]),
        )
        before_shadow = (t + self._limit_s[window]) <= shadow + eps
        in_extra = (
            (wreq[0] <= extra_c + eps)
            & (wreq[1] <= extra_m + eps)
            & (wreq[2] <= extra_g + eps)
        )
        for i in np.flatnonzero(fits_now & (before_shadow | in_extra)):
            j = int(window[i])
            cpus = self._req_c_l[j]
            mem = self._req_m_l[j]
            gpus = self._req_g_l[j]
            req_nodes = self._req_nodes_l[j]
            exclusive = self._excl_l[j]
            if not ledger.fits_job(cpus, mem, gpus, req_nodes, exclusive):
                continue
            if before_shadow[i]:
                # Finishes before the reservation needs its resources.
                ledger.allocate_job(j, cpus, mem, gpus, req_nodes, exclusive)
                started.append(j)
                self.last_backfilled += 1
            elif (
                cpus <= extra_c + eps
                and mem <= extra_m + eps
                and gpus <= extra_g + eps
            ):
                # Fits in resources the reservation will not need.
                ledger.allocate_job(j, cpus, mem, gpus, req_nodes, exclusive)
                extra_c = extra_c - cpus
                extra_m = extra_m - mem
                extra_g = extra_g - gpus
                started.append(j)
                self.last_backfilled += 1
        return started

    def _run_pass_scalar(
        self,
        t: float,
        ready: np.ndarray,
        run_pool,
        ledger: PoolLedger,
    ) -> list[int]:
        """Reference-shaped scalar pass for short ready queues.

        Mirrors the reference pass operation for operation — scalar
        priorities, a tuple sort on the same ``(-priority, eligibility,
        job id)`` key, greedy head walk, bounded backfill scan — because
        NumPy's per-call dispatch overhead dominates at these sizes.
        """
        req_c = self._req_c_l
        req_m = self._req_m_l
        req_g = self._req_g_l
        req_nodes_l = self._req_nodes_l
        excl = self._excl_l
        if len(ready) == 1:
            # Ordering is trivial: trigger fair-share decay for parity
            # with the reference pass (which always evaluates priority
            # over a non-empty queue) and skip the pure shadow — there
            # are no backfill candidates.
            self.priority.touch(t)
            j = int(ready[0])
            c = req_c[j]
            m = req_m[j]
            g = req_g[j]
            rn = req_nodes_l[j]
            ex = excl[j]
            if ledger.fits_job(c, m, g, rn, ex):
                ledger.allocate_job(j, c, m, g, rn, ex)
                return [j]
            self.last_blocked = j
            return []
        idx = ready.tolist()
        prios = self.priority.compute_batch_scalar(idx, t)
        job_ids = self._job_ids_l
        elig = self._elig_l
        order = sorted(
            range(len(idx)),
            key=lambda i: (-prios[i], elig[idx[i]], job_ids[idx[i]]),
        )
        limit_s = self._limit_s_l
        eps = 1e-9
        started: list[int] = []
        blocked = False
        shadow = extra_c = extra_m = extra_g = 0.0
        scanned = 0
        for i in order:
            j = idx[i]
            c = req_c[j]
            m = req_m[j]
            g = req_g[j]
            rn = req_nodes_l[j]
            ex = excl[j]
            if not blocked:
                if ledger.fits_job(c, m, g, rn, ex):
                    ledger.allocate_job(j, c, m, g, rn, ex)
                    started.append(j)
                    continue
                blocked = True
                self.last_blocked = j
                shadow, extra_c, extra_m, extra_g = self._shadow(
                    t, run_pool, ledger, c, m, g
                )
                continue
            scanned += 1
            if scanned > self.backfill_depth:
                break
            if not ledger.fits_job(c, m, g, rn, ex):
                continue
            if t + limit_s[j] <= shadow + eps:
                # Finishes before the reservation needs its resources.
                ledger.allocate_job(j, c, m, g, rn, ex)
                started.append(j)
                self.last_backfilled += 1
            elif c <= extra_c + eps and m <= extra_m + eps and g <= extra_g + eps:
                # Fits in resources the reservation will not need.
                ledger.allocate_job(j, c, m, g, rn, ex)
                extra_c = extra_c - c
                extra_m = extra_m - m
                extra_g = extra_g - g
                started.append(j)
                self.last_backfilled += 1
        return started

    # ------------------------------------------------------------------ #
    def _head_aggregate(
        self,
        ordered: np.ndarray,
        req3: np.ndarray,
        ledger: PoolLedger,
    ) -> tuple[list[int], int]:
        """Longest startable prefix via cumulative free-resource chains.

        Row ``d`` of ``chain`` seeds the current free value of dimension
        ``d`` and subtracts requests left to right, reproducing the
        reference ledger's sequential ``free -= req`` chain bit for bit
        (IEEE ``a - b`` ≡ ``a + (-b)``); the prefix ends at the first job
        whose request exceeds the chained free in any dimension.  The
        ledger then jumps straight to the chained value — requests are
        non-negative, so the chain is monotone and the reference's
        per-allocation over-allocation check reduces to one check of the
        final value.
        """
        n = req3.shape[1]
        chain = np.empty((3, n + 1), dtype=np.float64)
        chain[0, 0] = ledger.free_cpus
        chain[1, 0] = ledger.free_mem
        chain[2, 0] = ledger.free_gpus
        np.negative(req3, out=chain[:, 1:])
        np.cumsum(chain, axis=1, out=chain)
        fits = (req3 <= chain[:, :-1] + 1e-9).all(axis=0)
        blocked = np.flatnonzero(~fits)
        blocked_pos = int(blocked[0]) if len(blocked) else n
        if blocked_pos == 0:
            return [], 0
        end = chain[:, blocked_pos]
        if end[0] < -1e-6 or end[1] < -1e-6 or end[2] < -1e-6:
            raise RuntimeError("pool over-allocated — scheduler invariant broken")
        # Plain floats: keeps all downstream ledger arithmetic on Python
        # scalars (float() of a float64 is exact).
        ledger.free_cpus = float(end[0])
        ledger.free_mem = float(end[1])
        ledger.free_gpus = float(end[2])
        return [int(j) for j in ordered[:blocked_pos]], blocked_pos

    def _head_node_level(
        self,
        ordered: np.ndarray,
        req3: np.ndarray,
        ledger: PoolLedger,
    ) -> tuple[list[int], int]:
        """Greedy head walk when placement feasibility is stateful."""
        started: list[int] = []
        for i in range(req3.shape[1]):
            j = int(ordered[i])
            c = self._req_c_l[j]
            m = self._req_m_l[j]
            g = self._req_g_l[j]
            req_nodes = self._req_nodes_l[j]
            exclusive = self._excl_l[j]
            if not ledger.fits_job(c, m, g, req_nodes, exclusive):
                return started, i
            ledger.allocate_job(j, c, m, g, req_nodes, exclusive)
            started.append(j)
        return started, req3.shape[1]

    def _shadow(
        self,
        t: float,
        run_pool,
        ledger: PoolLedger,
        need_c: float,
        need_m: float,
        need_g: float,
    ) -> tuple[float, float, float, float]:
        """Reservation for the blocked head job.

        Returns ``(shadow_time, extra_c, extra_m, extra_g)``.  Walks the
        incrementally-maintained release schedule — running jobs in
        expected-completion order, ties broken by start sequence = the
        reference's running-list insertion order — accumulating freed
        resources with the same left-associated scalar ``avail +=``
        chain and early exit as the reference walk, on the same IEEE
        doubles.  The schedule is kept sorted by :meth:`schedule_insert`
        / :meth:`schedule_remove` (one O(log n) bisect per job start or
        end), so a blocked pass never rebuilds or re-sorts it.

        Results are memoised per pool: the shadow is a pure function of
        the running-set version, the current free resources and the head
        job's needs.  ``t`` does not enter — the reference clamps
        expected ends to ``t`` for "overrunning" jobs, but for a
        *running* job that is provably a no-op (its END event at
        ``end <= start + limit`` has not fired, so ``end > t + 1e-9``).
        """
        free_c = ledger.free_cpus
        free_m = ledger.free_mem
        free_g = ledger.free_gpus
        if len(run_pool) == 0:
            return np.inf, free_c, free_m, free_g
        version = run_pool.version
        memo = self._shadow_result.get(run_pool)
        if (
            memo is not None
            and memo[0] == version
            and memo[1] == free_c
            and memo[2] == free_m
            and memo[3] == free_g
            and memo[4] == need_c
            and memo[5] == need_m
            and memo[6] == need_g
        ):
            return memo[7], memo[8], memo[9], memo[10]
        eps = 1e-9
        avail_c = free_c
        avail_m = free_m
        avail_g = free_g
        result = None
        for ee, _seq, _j, rc, rm, rg in self._sched[run_pool]:
            avail_c = avail_c + rc
            avail_m = avail_m + rm
            avail_g = avail_g + rg
            if (
                need_c <= avail_c + eps
                and need_m <= avail_m + eps
                and need_g <= avail_g + eps
            ):
                result = (
                    ee,
                    avail_c - need_c,
                    avail_m - need_m,
                    avail_g - need_g,
                )
                break
        if result is None:
            result = (np.inf, free_c, free_m, free_g)
        self._shadow_result[run_pool] = (
            version,
            free_c,
            free_m,
            free_g,
            need_c,
            need_m,
            need_g,
        ) + result
        return result
