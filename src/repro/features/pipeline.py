"""Assembly of the full Table II feature matrix.

:class:`FeaturePipeline` turns an accounting trace into the canonical
33-column matrix (see :mod:`repro.features.names`): job-request columns
straight from the records, partition snapshots
(:mod:`repro.features.snapshots`), user past-day history, static
partition specs, and the runtime model's predictions.  ``log1p`` is
applied to every column, as in §III ("a natural log transformation was
applied to all features").

Finished matrices can be memoised on disk through
:class:`repro.features.cache.FeatureCache`.  Per-stage wall times are
recorded on the returned matrix for the benches and ``eval.report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.schema import JobSet
from repro.features.names import FEATURE_NAMES
from repro.features.snapshots import partition_snapshots
from repro.features.static_specs import static_partition_features
from repro.features.user_history import user_past_day
from repro.obs import metrics, tracing
from repro.slurm.resources import Cluster
from repro.utils.logging import get_logger

__all__ = ["FeatureMatrix", "FeaturePipeline"]

log = get_logger(__name__)


@dataclass
class FeatureMatrix:
    """A feature matrix with its provenance.

    ``X`` is the log1p-transformed matrix unless ``raw`` was requested;
    rows align with ``jobs`` (eligibility order preserved).  ``timings``
    holds per-stage wall seconds derived from the producing run's span
    tree (see :mod:`repro.obs.tracing`; empty on a cache hit, which sets
    ``cache_hit`` instead).
    """

    X: np.ndarray  # (n_jobs, 33)
    names: tuple[str, ...]
    queue_time_min: np.ndarray  # regression target, minutes
    log_transformed: bool
    timings: dict[str, float] = field(default_factory=dict, repr=False)
    cache_hit: bool = False

    def column(self, name: str) -> np.ndarray:
        """One feature column by name."""
        return self.X[:, self.names.index(name)]

    def __len__(self) -> int:
        return len(self.X)


class FeaturePipeline:
    """Trace → Table II matrix.

    Parameters
    ----------
    cluster:
        Supplies the static partition-spec columns.
    log_transform:
        Apply ``log1p`` columnwise (the paper's choice).
    user_window_s:
        Look-back window of the user-history columns.
    cache:
        Optional :class:`repro.features.cache.FeatureCache`; when set,
        :meth:`compute` is memoised on a content hash of the trace, the
        pipeline configuration and the predicted-runtime vector.
    """

    def __init__(
        self,
        cluster: Cluster,
        log_transform: bool = True,
        user_window_s: float = 24 * 3600.0,
        cache: "FeatureCache | None" = None,
    ) -> None:
        if user_window_s <= 0:
            raise ValueError("user_window_s must be positive")
        self.cluster = cluster
        self.log_transform = log_transform
        #: §V proposes matching the user-history window to the cluster's
        #: fair-share period ("user jobs ran in past slurm-period"); the
        #: default is the paper's past-day window.
        self.user_window_s = user_window_s
        self.cache = cache

    def signature(self) -> tuple:
        """Everything configuration-side the matrix depends on (cache key
        material): transforms, the user window and the cluster's static
        specs."""
        specs = self.cluster.partition_specs()
        return (
            self.log_transform,
            self.user_window_s,
            self.cluster.name,
            tuple(self.cluster.partition_names),
            tuple(
                (k, tuple(np.asarray(v, dtype=np.float64).tolist()))
                for k, v in sorted(specs.items())
            ),
        )

    def compute(
        self,
        jobs: JobSet,
        pred_runtime_min: np.ndarray | None = None,
    ) -> FeatureMatrix:
        """Build the matrix for a full trace.

        ``pred_runtime_min`` comes from
        :class:`repro.core.runtime_model.RuntimePredictor` trained on past
        data only; ``None`` falls back to requested timelimits for the three
        predicted-runtime columns (useful in tests).
        """
        rec = jobs.records
        n = len(jobs)
        if n == 0:
            raise ValueError("cannot featurise an empty trace")
        if pred_runtime_min is None:
            pred = rec["timelimit_min"].astype(np.float64)
        else:
            pred = np.asarray(pred_runtime_min, dtype=np.float64)
            if pred.shape != (n,):
                raise ValueError("pred_runtime_min must align with jobs")

        key: str | None = None
        if self.cache is not None:
            key = self.cache.key_for(jobs, pred, self.signature())
            cached = self.cache.load(key)
            if cached is not None:
                log.info("feature cache hit for %d jobs (key %s…)", n, key[:12])
                return cached

        with tracing.span("featurize", rows=n) as root:
            cols: dict[str, np.ndarray] = {
                "priority": rec["priority"].astype(np.float64),
                "timelimit_raw": rec["timelimit_min"].astype(np.float64),
                "req_cpus": rec["req_cpus"].astype(np.float64),
                "req_mem": rec["req_mem_gb"].astype(np.float64),
                "req_nodes": rec["req_nodes"].astype(np.float64),
                "pred_runtime": pred,
            }
            with tracing.span("snapshots"):
                cols.update(partition_snapshots(jobs, pred_runtime_min=pred))
            with tracing.span("user_history"):
                cols.update(user_past_day(jobs, window_s=self.user_window_s))
            with tracing.span("static_specs"):
                cols.update(static_partition_features(jobs, self.cluster))

            with tracing.span("assemble"):
                missing = [name for name in FEATURE_NAMES if name not in cols]
                if missing:
                    raise RuntimeError(
                        f"pipeline did not produce columns: {missing}"
                    )
                X = np.column_stack([cols[name] for name in FEATURE_NAMES])
                if np.any(X < -1e-6):
                    j = int(np.argmin(X.min(axis=0)))
                    raise ValueError(
                        f"negative raw feature value in {FEATURE_NAMES[j]!r}"
                    )
                # Prefix-sum arithmetic can leave −1e-12-scale residue; every
                # Table II quantity is non-negative by construction.
                X = np.maximum(X, 0.0)
                if self.log_transform:
                    X = np.log1p(X)
        timings = tracing.span_timings(root)
        reg = metrics.get_registry()
        reg.counter(
            "featurize_rows_total", help="jobs featurised (cache misses only)"
        ).inc(n)
        reg.histogram(
            "featurize_seconds", help="wall time of full matrix builds"
        ).observe(timings["total"])
        log.info(
            "featurised %d jobs into %d columns in %.2fs",
            n,
            X.shape[1],
            timings["total"],
        )
        fm = FeatureMatrix(
            X=np.ascontiguousarray(X),
            names=FEATURE_NAMES,
            queue_time_min=jobs.queue_time_min,
            log_transformed=self.log_transform,
            timings=timings,
        )
        if self.cache is not None and key is not None:
            self.cache.store(key, fm)
        return fm
