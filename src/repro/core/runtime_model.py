"""Random-forest runtime prediction (§II/§III, extended per §V).

The paper includes "a separate model for predicting the runtime of existing
jobs" whose output feeds the wait-time model ("Pred Runtime" and the two
partition-aggregate prediction features in Table II); theirs is "basic" —
a random forest, as here.  Inputs are strictly what is known for a job
*still in the queue*: the request (CPUs, memory, nodes, timelimit),
partition, QOS, and priority.  The target is ``log1p(runtime_min)``;
predictions are clipped into ``[0, timelimit]``.

§V flags runtime prediction as the main accuracy bottleneck ("the average
job in our data used only 15 % of requested wall time, with some power
users using less than 5 %") and proposes a more robust model as future
work.  The ``user_history`` feature mode implements that extension: each
job additionally sees its submitter's *expanding past mean* walltime
utilisation and past runtime — strictly causal (only jobs that had
*ended* before the submit time contribute), so the feature is
deployment-safe.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import RuntimeModelConfig
from repro.data.schema import JobSet
from repro.ml.forest import RandomForestRegressor
from repro.utils.validation import check_fitted

__all__ = ["RuntimePredictor", "user_expanding_stats"]

#: Request-time columns the runtime model may see.
RUNTIME_FEATURES: tuple[str, ...] = (
    "req_cpus",
    "req_mem_gb",
    "req_nodes",
    "timelimit_min",
    "partition",
    "qos",
    "priority",
)

#: Prior used before a user has any history (the population mean of §V).
_UTIL_PRIOR = 0.15


def user_expanding_stats(jobs: JobSet) -> dict[str, np.ndarray]:
    """Per-job causal user-history features.

    For each job, the mean walltime utilisation and mean runtime (minutes)
    of the *same user's jobs that ended strictly before its submit time* —
    the only history a deployed model could have seen.  Jobs still queued
    or running at that moment do not count.  Jobs with no such history get
    the population prior.
    """
    rec = jobs.records
    n = len(jobs)
    util = np.full(n, _UTIL_PRIOR)
    mean_rt = np.full(n, 30.0)
    job_util = jobs.walltime_utilization
    job_rt = jobs.runtime_min
    for user in np.unique(rec["user_id"]):
        g = np.flatnonzero(rec["user_id"] == user)
        by_end = g[np.argsort(rec["end_time"][g], kind="stable")]
        cum_u = np.concatenate([[0.0], np.cumsum(job_util[by_end])])
        cum_r = np.concatenate([[0.0], np.cumsum(job_rt[by_end])])
        # k = number of this user's jobs with end_time < submit_time.
        ends = rec["end_time"][by_end]
        k = np.searchsorted(ends, rec["submit_time"][g], side="left")
        seen = k > 0
        denom = np.maximum(k, 1)
        util[g] = np.where(seen, cum_u[k] / denom, _UTIL_PRIOR)
        mean_rt[g] = np.where(seen, cum_r[k] / denom, 30.0)
    return {"user_mean_utilization": util, "user_mean_runtime_min": mean_rt}


class RuntimePredictor:
    """RF regression of actual runtime from request-time features.

    Parameters
    ----------
    features:
        ``"request"`` — the paper's basic model (request attributes only);
        ``"request+user"`` — §V's extension, adding the submitter's causal
        history statistics.
    """

    def __init__(
        self,
        config: RuntimeModelConfig | None = None,
        seed: int = 0,
        features: str = "request",
    ) -> None:
        if features not in ("request", "request+user"):
            raise ValueError(
                f"features must be 'request' or 'request+user', got {features!r}"
            )
        self.config = config or RuntimeModelConfig()
        self.seed = seed
        self.features = features
        self.forest_: RandomForestRegressor | None = None
        # Frozen per-user stats from the training trace, applied at predict
        # time (a deployed model would maintain these incrementally).
        self._user_util: dict[int, float] | None = None
        self._user_rt: dict[int, float] | None = None

    def design_matrix(self, jobs: JobSet) -> np.ndarray:
        """Log-scaled request features (+ optional user history)."""
        rec = jobs.records
        cols = [np.log1p(rec[name].astype(np.float64)) for name in RUNTIME_FEATURES]
        if self.features == "request+user":
            cols.extend(self._user_columns(jobs))
        return np.column_stack(cols)

    def _user_columns(self, jobs: JobSet) -> list[np.ndarray]:
        if self._user_util is None:
            # Training path: causal expanding statistics.
            stats = user_expanding_stats(jobs)
            return [
                stats["user_mean_utilization"],
                np.log1p(stats["user_mean_runtime_min"]),
            ]
        # Inference path: frozen training-time statistics per user.
        users = jobs.records["user_id"]
        util = np.array([self._user_util.get(int(u), _UTIL_PRIOR) for u in users])
        rt = np.array([self._user_rt.get(int(u), 30.0) for u in users])
        return [util, np.log1p(rt)]

    def fit(self, jobs: JobSet) -> "RuntimePredictor":
        """Train on a (past-only) trace; target is log1p(actual minutes)."""
        if len(jobs) < 10:
            raise ValueError(f"need at least 10 jobs to fit, got {len(jobs)}")
        self._user_util = None  # training mode for design_matrix
        self._user_rt = None
        X = self.design_matrix(jobs)
        y = np.log1p(np.maximum(jobs.runtime_min, 0.0))
        cfg = self.config
        self.forest_ = RandomForestRegressor(
            n_estimators=cfg.n_estimators,
            max_depth=cfg.max_depth,
            min_samples_leaf=cfg.min_samples_leaf,
            seed=self.seed,
        ).fit(X, y)
        if self.features == "request+user":
            # Freeze each user's final training-time statistics.
            rec = jobs.records
            util = jobs.walltime_utilization
            rt = jobs.runtime_min
            self._user_util = {}
            self._user_rt = {}
            for user in np.unique(rec["user_id"]):
                mask = rec["user_id"] == user
                self._user_util[int(user)] = float(util[mask].mean())
                self._user_rt[int(user)] = float(rt[mask].mean())
        return self

    def predict_minutes(self, jobs: JobSet) -> np.ndarray:
        """Predicted runtime in minutes, clipped to the requested limit."""
        check_fitted(self, "forest_")
        X = self.design_matrix(jobs)
        pred = np.expm1(self.forest_.predict(X))
        return np.clip(pred, 0.0, jobs.records["timelimit_min"].astype(np.float64))
