"""Deployment-time ("live") feature computation.

The deployed tool answers questions about jobs *currently in the queue* —
no start or end times exist yet for them.  The Table II features are
nevertheless fully computable, because every aggregate is evaluated at the
target job's *eligibility instant* ``t_j``, which is in the past at query
time ``t_now``:

- a job was **pending** at ``t_j`` iff it was eligible by ``t_j`` and had
  not started by ``t_j`` — known even if it is still pending now;
- a job was **running** at ``t_j`` iff it started by ``t_j`` and had not
  ended by ``t_j`` — known even if it is still running now;
- user past-day history uses submit times only.

:func:`mask_future` censors a trace at ``t_now`` (unknown starts/ends are
pushed to a far-future sentinel, which behaves correctly under the
half-open stabbing semantics), and :func:`live_features` produces feature
rows for the pending jobs.  It asks the pipeline for those rows only
(``FeaturePipeline.compute(rows=...)``), so a query costs in proportion
to the queue it answers rather than to the history behind it.  The test
suite proves these rows are *identical* to the offline pipeline's — i.e.
the offline training features contain no information a deployed
predictor would lack.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import JobSet
from repro.features.pipeline import FeatureMatrix, FeaturePipeline
from repro.slurm.resources import Cluster

__all__ = ["mask_future", "live_features", "pending_at", "running_at"]


def _sentinel(jobs: JobSet, t_now: float) -> float:
    """A finite far-future stand-in for 'unknown' start and end times."""
    horizon = max(float(np.max(jobs.records["end_time"], initial=0.0)), t_now)
    return 2.0 * horizon + 1.0e6


def pending_at(jobs: JobSet, t: float) -> np.ndarray:
    """Positions of jobs pending at time ``t`` (eligible, not started)."""
    rec = jobs.records
    return np.flatnonzero((rec["eligible_time"] <= t) & (rec["start_time"] > t))


def running_at(jobs: JobSet, t: float) -> np.ndarray:
    """Positions of jobs running at time ``t``."""
    rec = jobs.records
    return np.flatnonzero((rec["start_time"] <= t) & (rec["end_time"] > t))


def mask_future(jobs: JobSet, t_now: float) -> JobSet:
    """Censor a trace at ``t_now``: what a live system actually knows.

    - Jobs submitted after ``t_now`` are dropped entirely.
    - Jobs that have not started by ``t_now`` get ``start = end = FUTURE``.
    - Jobs still running at ``t_now`` keep their start but get
      ``end = FUTURE``.

    ``FUTURE`` is a finite far-future sentinel; under half-open interval
    semantics a ``[eligible, FUTURE)`` pending interval and a
    ``[start, FUTURE)`` running interval stab correctly at any past
    instant, and ``[FUTURE, FUTURE)`` is empty.
    """
    known = jobs.where(jobs.records["submit_time"] <= t_now)
    rec = known.records.copy()
    future = _sentinel(jobs, t_now)
    not_started = rec["start_time"] > t_now
    rec["start_time"][not_started] = future
    rec["end_time"][not_started] = future
    still_running = (~not_started) & (rec["end_time"] > t_now)
    rec["end_time"][still_running] = future
    return JobSet(rec, known.partition_names)


def live_features(
    jobs: JobSet,
    t_now: float,
    cluster: Cluster,
    pred_runtime_min: np.ndarray | None = None,
    pipeline: FeaturePipeline | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows for the jobs pending at ``t_now``, future-blind.

    Parameters
    ----------
    jobs:
        The full trace (only its past-of-``t_now`` part is used).
    pred_runtime_min:
        Runtime-model predictions aligned with ``jobs``; these depend only
        on request-time attributes so they carry no future information.
    pipeline:
        The pipeline to featurize with (default:
        ``FeaturePipeline(cluster)``).

    Returns
    -------
    (X_live, positions):
        Feature rows (masked-trace pipeline output) and the pending jobs'
        positions in the *original* trace.
    """
    masked = mask_future(jobs, t_now)
    if len(masked) == 0:
        raise ValueError(f"no jobs known at t_now={t_now}")
    pipeline = pipeline or FeaturePipeline(cluster)
    # ``mask_future`` keeps exactly these rows, in order.
    known = np.flatnonzero(jobs.records["submit_time"] <= t_now)
    if pred_runtime_min is not None:
        pred = np.asarray(pred_runtime_min, dtype=np.float64)[known]
    else:
        pred = None
    pend_masked = pending_at(masked, t_now)
    fm = pipeline.compute(masked, pred_runtime_min=pred, rows=pend_masked)
    return fm.X, known[pend_masked]
