"""Slurm multifactor priority.

``priority = w_age·age + w_fairshare·F + w_jobsize·size + w_partition·tier
+ w_qos·qos`` — the weighted-sum form of Slurm's multifactor plugin, which
the paper identifies (together with preemption order and submit time) as
what determines evaluation order.  All factors are normalised to [0, 1]
before weighting, as in Slurm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.slurm.fairshare import FairShareTracker
from repro.slurm.resources import Cluster

__all__ = ["PriorityWeights", "MultifactorPriority", "CachedPriority"]


@dataclass(frozen=True)
class PriorityWeights:
    """Weights of the multifactor terms (Slurm ``PriorityWeight*``).

    The defaults mirror a fair-share-dominated configuration like Anvil's:
    fair share dominates, age breaks ties over hours-to-days, job size and
    QOS contribute second-order corrections.
    """

    age: float = 2_000.0
    fairshare: float = 10_000.0
    job_size: float = 1_000.0
    partition: float = 4_000.0
    qos: float = 2_000.0
    max_age_s: float = 3 * 24 * 3600.0  # age factor saturates (PriorityMaxAge)

    def __post_init__(self) -> None:
        if self.max_age_s <= 0:
            raise ValueError("max_age_s must be positive")
        for name in ("age", "fairshare", "job_size", "partition", "qos"):
            if getattr(self, name) < 0:
                raise ValueError(f"weight {name} must be non-negative")


class MultifactorPriority:
    """Vectorised priority computation for batches of pending jobs."""

    def __init__(
        self,
        cluster: Cluster,
        fairshare: FairShareTracker,
        weights: PriorityWeights | None = None,
        n_qos_levels: int = 3,
    ) -> None:
        self.cluster = cluster
        self.fairshare = fairshare
        self.weights = weights or PriorityWeights()
        self.n_qos_levels = max(1, n_qos_levels)
        tiers = np.array(
            [p.priority_tier for p in cluster.partitions], dtype=np.float64
        )
        # Normalise partition tiers to [0, 1].
        self._tier_factor = tiers / tiers.max() if tiers.max() > 0 else tiers
        self._total_cpus = float(
            sum(pool.total_cpus for pool in cluster.pools)
        )

    def compute(
        self,
        t: float,
        eligible_time: np.ndarray,
        user_ids: np.ndarray,
        partitions: np.ndarray,
        req_cpus: np.ndarray,
        qos: np.ndarray,
    ) -> np.ndarray:
        """Priorities for a batch of pending jobs at wall time ``t``.

        ``age`` counts from eligibility (Slurm accrues age once a job is
        eligible) and saturates at ``max_age_s``; ``job size`` favours wide
        jobs (Slurm's default favour-big setting, which keeps large jobs
        from starving under backfill).
        """
        w = self.weights
        age = np.clip((t - eligible_time) / w.max_age_s, 0.0, 1.0)
        fs = self.fairshare.factors(np.asarray(user_ids, dtype=np.intp), t)
        size = np.clip(req_cpus / self._total_cpus, 0.0, 1.0)
        tier = self._tier_factor[np.asarray(partitions, dtype=np.intp)]
        qos_f = np.asarray(qos, dtype=np.float64) / max(self.n_qos_levels - 1, 1)
        return (
            w.age * age
            + w.fairshare * fs
            + w.job_size * size
            + w.partition * tier
            + w.qos * qos_f
        )


class CachedPriority:
    """Incremental priority evaluation over a fixed submission table.

    Three of the five multifactor terms (job size, partition tier, QOS)
    never change after submission, so they are pre-weighted once per job
    up front; age is a cheap clip; only the fair-share factor is genuinely
    dynamic, and it is cached as a per-*user* vector keyed
    ``(t, fairshare.version)`` — recomputed when time advances or usage is
    charged, reused across pools and preemption re-passes at the same
    instant.

    Bitwise contract: for any index set, :meth:`compute_for` returns
    exactly what :meth:`MultifactorPriority.compute` would — every term
    is built from the same elementwise operations (which commute with the
    gather) and summed in the same order, and the fair-share cache
    triggers :class:`~repro.slurm.fairshare.FairShareTracker` decay at
    the same sequence of times as per-pass evaluation would.
    """

    def __init__(self, engine: MultifactorPriority, jobs: np.ndarray) -> None:
        w = engine.weights
        self.engine = engine
        self._elig = jobs["eligible_time"].astype(np.float64)
        self._users = jobs["user_id"].astype(np.intp)
        self._w_age = w.age
        self._w_fs = w.fairshare
        self._max_age_s = w.max_age_s
        size = np.clip(
            jobs["req_cpus"].astype(np.float64) / engine._total_cpus, 0.0, 1.0
        )
        tier = engine._tier_factor[jobs["partition"].astype(np.intp)]
        qos_f = jobs["qos"].astype(np.float64) / max(engine.n_qos_levels - 1, 1)
        self._size_term = w.job_size * size
        self._tier_term = w.partition * tier
        self._qos_term = w.qos * qos_f
        # (4, n_jobs) matrix of [eligible_time, size, tier, qos terms]:
        # one fancy-index per vector evaluation gathers all four columns.
        self._cols = np.ascontiguousarray(
            np.stack([self._elig, self._size_term, self._tier_term, self._qos_term])
        )
        # Python-scalar mirrors of the per-job columns: the scalar paths
        # read single elements, where list indexing returns a ready float
        # instead of boxing a NumPy scalar each time.  Values are the
        # same IEEE doubles, so arithmetic is bitwise-unchanged.
        self._elig_l = self._elig.tolist()
        self._users_l = self._users.tolist()
        self._size_l = self._size_term.tolist()
        self._tier_l = self._tier_term.tolist()
        self._qos_l = self._qos_term.tolist()
        self._fs_total = 0.0
        self._fs_total_key: tuple[float, int] | None = None
        # Per-user scalar factor memo keyed like the total: consecutive
        # scalar evaluations at one instant (eligibility snapshot +
        # scheduling pass) share each user's ``2**x``.
        self._fs_scalar: dict[int, float] = {}
        self._fs_scalar_key: tuple[float, int] | None = None

    def touch(self, t: float) -> None:
        """Trigger fair-share decay at ``t`` without computing anything.

        Decay is piecewise (``f(a)·f(b) != f(a+b)`` bitwise), so the
        simulator and its reference oracle must decay at the *same
        sequence of times*.  The reference pass
        evaluates priorities — and therefore decays — at every pass over
        a non-empty queue; a fast-path pass that skips priority evaluation
        (single-job queue: order is trivial) calls this instead.
        """
        self.engine.fairshare._decay_to(t)

    def _fs_total_at(self, t: float) -> float:
        """Decay to ``t`` and return the (cached) total decayed usage."""
        fairshare = self.engine.fairshare
        fairshare._decay_to(t)
        key = (t, fairshare.version)
        if key != self._fs_total_key:
            self._fs_total = float(fairshare._usage.sum())
            self._fs_total_key = key
        return self._fs_total

    def compute_batch_scalar(self, idx: list[int], t: float) -> list[float]:
        """Scalar :meth:`compute_for` for a short list of job indices.

        Same IEEE operations on the same float64 operands in the same
        order, so every element is bitwise-identical to the vector
        path's.  For a handful of jobs, memoised per-user scalar factors
        (division and ``2**x`` commute with the gather) are far cheaper
        than a factor vector over every user.
        """
        fairshare = self.engine.fairshare
        users = self._users_l
        total = self._fs_total_at(t)
        key = self._fs_total_key
        if key != self._fs_scalar_key:
            self._fs_scalar_key = key
            self._fs_scalar.clear()
        if total <= 0:

            def factor(j: int) -> float:
                return 1.0

        else:
            usage = fairshare._usage
            shares = fairshare._norm_shares
            memo = self._fs_scalar

            def factor(j: int) -> float:
                u = users[j]
                f = memo.get(u)
                if f is None:
                    f = np.power(2.0, -((usage[u] / total) / shares[u]))
                    memo[u] = f
                return f

        elig = self._elig_l
        max_age_s = self._max_age_s
        w_age = self._w_age
        w_fs = self._w_fs
        size_l = self._size_l
        tier_l = self._tier_l
        qos_l = self._qos_l
        out: list[float] = []
        for j in idx:
            age = (t - elig[j]) / max_age_s
            if age < 0.0:
                age = 0.0
            elif age > 1.0:
                age = 1.0
            out.append(
                w_age * age + w_fs * factor(j) + size_l[j] + tier_l[j] + qos_l[j]
            )
        return out

    def compute_one(self, j: int, t: float) -> float:
        """Scalar :meth:`compute_for` for a single job index."""
        return self.compute_batch_scalar([j], t)[0]

    def compute_for(self, idx: np.ndarray, t: float) -> np.ndarray:
        """Priorities for the job indices ``idx`` at wall time ``t``.

        Fair-share factors are computed for exactly the gathered users —
        the same expression as :meth:`FairShareTracker.factors` on those
        ids, so elementwise ops commute with the gather and the result
        matches a full-vector evaluation bitwise.
        """
        fairshare = self.engine.fairshare
        total = self._fs_total_at(t)
        users = self._users[idx]
        if total <= 0:
            fs = np.ones(len(users), dtype=np.float64)
        else:
            u_norm = fairshare._usage[users] / total
            fs = np.power(2.0, -(u_norm / fairshare._norm_shares[users]))
        cols = self._cols[:, idx]
        # minimum(maximum(x)) ≡ np.clip bitwise except at -0.0, which an
        # age cannot be: IEEE a-b of equal operands is +0.0, and the
        # worst negative age (the -1e-9 batching window over the 3-day
        # saturation horizon) is far above the underflow threshold.
        age = np.minimum(np.maximum((t - cols[0]) / self._max_age_s, 0.0), 1.0)
        return self._w_age * age + self._w_fs * fs + cols[1] + cols[2] + cols[3]
