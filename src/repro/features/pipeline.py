"""Assembly of the full Table II feature matrix.

:class:`FeaturePipeline` turns an accounting trace into the canonical
33-column matrix (see :mod:`repro.features.names`): job-request columns
straight from the records, partition snapshots
(:mod:`repro.features.snapshots`), user past-day history, static
partition specs, and the runtime model's predictions.  ``log1p`` is
applied to every column, as in §III ("a natural log transformation was
applied to all features").

``compute(jobs, rows=idx)`` builds only the rows ``idx``: every builder
aggregates over the whole trace but answers only the requested jobs
(:mod:`repro.features.rows`), and the result is bitwise
``compute(jobs).X[idx]``.  A live query featurizes just the jobs it
answers this way.  Per-stage wall times are recorded on the returned
matrix for the benches and ``eval.report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.schema import JobSet
from repro.features.names import FEATURE_NAMES
from repro.features.rows import check_rows
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
    rows align with ``jobs`` (eligibility order preserved), or with the
    ``rows`` the matrix was computed for.  ``timings`` holds per-stage
    wall seconds derived from the producing run's span tree (see
    :mod:`repro.obs.tracing`).
    """

    X: np.ndarray  # (n_rows, 33)
    names: tuple[str, ...]
    queue_time_min: np.ndarray  # regression target, minutes
    log_transformed: bool
    timings: dict[str, float] = field(default_factory=dict, repr=False)

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
    """

    def __init__(
        self,
        cluster: Cluster,
        log_transform: bool = True,
        user_window_s: float = 24 * 3600.0,
    ) -> None:
        if user_window_s <= 0:
            raise ValueError("user_window_s must be positive")
        self.cluster = cluster
        self.log_transform = log_transform
        #: §V proposes matching the user-history window to the cluster's
        #: fair-share period ("user jobs ran in past slurm-period"); the
        #: default is the paper's past-day window.
        self.user_window_s = user_window_s

    def compute(
        self,
        jobs: JobSet,
        pred_runtime_min: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> FeatureMatrix:
        """Build the matrix for a trace, or for its jobs at ``rows``.

        ``pred_runtime_min`` comes from
        :class:`repro.core.runtime_model.RuntimePredictor` trained on past
        data only; ``None`` falls back to requested timelimits for the three
        predicted-runtime columns (useful in tests).  It covers every job:
        the snapshot columns sum it over each row's queue and running set.

        ``rows`` is an integer position array (any order, repeats
        allowed); the returned ``X`` and ``queue_time_min`` align with it
        and equal the full matrix's rows bitwise.  Positions outside the
        trace raise ``ValueError``.
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
        rows = check_rows(rows, n)
        sel = rec[rows]

        with tracing.span("featurize", rows=len(rows)) as root:
            cols: dict[str, np.ndarray] = {
                "priority": sel["priority"].astype(np.float64),
                "timelimit_raw": sel["timelimit_min"].astype(np.float64),
                "req_cpus": sel["req_cpus"].astype(np.float64),
                "req_mem": sel["req_mem_gb"].astype(np.float64),
                "req_nodes": sel["req_nodes"].astype(np.float64),
                "pred_runtime": pred[rows],
            }
            with tracing.span("snapshots"):
                cols.update(
                    partition_snapshots(jobs, pred_runtime_min=pred, rows=rows)
                )
            with tracing.span("user_history"):
                cols.update(
                    user_past_day(jobs, window_s=self.user_window_s, rows=rows)
                )
            with tracing.span("static_specs"):
                cols.update(static_partition_features(jobs, self.cluster, rows))

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
            "featurize_rows_total", help="feature rows built"
        ).inc(len(rows))
        reg.histogram(
            "featurize_seconds", help="wall time of matrix builds"
        ).observe(timings["total"])
        log.info(
            "featurised %d of %d jobs into %d columns in %.2fs",
            len(rows),
            n,
            X.shape[1],
            timings["total"],
        )
        return FeatureMatrix(
            X=np.ascontiguousarray(X),
            names=FEATURE_NAMES,
            queue_time_min=jobs.queue_time_min[rows],
            log_transformed=self.log_transform,
            timings=timings,
        )
