"""Partition-state aggregates at eligibility time (Table II "Par *" rows).

For every job ``j`` with eligibility instant ``t_j`` these functions
aggregate, within j's partition, over:

- the **queue**: jobs pending at ``t_j`` (``eligible ≤ t_j < start``),
- the **ahead** subset: pending jobs with strictly higher priority, and
- the **running** set: jobs executing at ``t_j`` (``start ≤ t_j < end``);

summing jobs / CPUs / memory / nodes / timelimit (and, optionally, the
runtime model's predictions).  The job itself is excluded from every set.

Stabbing needs no tree: the queries are the partition's own eligibility
times, so after one stable sort the queries inside an interval
``[a, b)`` are the contiguous run ``searchsorted(a) .. searchsorted(b)``
of that order.  The (query, source) pairs are expanded with ``np.repeat``
and aggregated with ``np.bincount``, which sums each query's matches in
ascending source order — the order the paper's chunked interval trees
return them in, so the float sums are bit-identical to a tree-based
build.  Those trees live on as the test oracle
(``tests/oracles/interval_tree.py``), timed by the A1 bench.

Asked for some ``rows`` only (:mod:`repro.features.rows`), the queries
are just those rows' eligibility times, stabbed against every interval
of their partitions.  Sources still come in ascending order, so each
``np.bincount`` sums every query's matches in the full build's order and
the requested rows are bitwise the full build's.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import JobSet
from repro.features.rows import check_rows, group_rows
from repro.obs import tracing

__all__ = ["partition_snapshots", "SNAPSHOT_KEYS"]

SNAPSHOT_KEYS: tuple[str, ...] = (
    "par_jobs_ahead",
    "par_cpus_ahead",
    "par_mem_ahead",
    "par_nodes_ahead",
    "par_timelimit_ahead",
    "par_jobs_queue",
    "par_cpus_queue",
    "par_mem_queue",
    "par_nodes_queue",
    "par_timelimit_queue",
    "par_jobs_running",
    "par_cpus_running",
    "par_mem_running",
    "par_nodes_running",
    "par_timelimit_running",
    "par_queue_pred_timelimit",
    "par_running_pred_timelimit",
)


def _stab_pairs(
    order: np.ndarray,
    ts: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    query_job: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(query, source) pairs with ``lo[source] ≤ ts[query] < hi[source]``.

    ``order`` stably sorts the queries and ``ts`` is the sorted times.
    Query ``i`` is source ``query_job[i]``'s own eligibility time, and
    those self-pairs are dropped.  Pairs come grouped by ascending source, so
    every query meets its sources in ascending order: ``np.bincount``
    sums each query's bin in that order, exactly as it would over the
    (query, source)-sorted list, with no sort needed.
    """
    first = np.searchsorted(ts, lo, side="left")
    counts = np.maximum(np.searchsorted(ts, hi, side="left") - first, 0)
    src = np.repeat(np.arange(len(lo)), counts)
    # Sorted position of each pair: its source's run start plus its offset.
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    qry = order[np.arange(len(src)) + shift]
    keep = query_job[qry] != src
    return qry[keep], src[keep]


def _aggregate(
    qids: np.ndarray,
    matches: np.ndarray,
    m: int,
    values: dict[str, np.ndarray],
    prefix: str,
    out: dict[str, np.ndarray],
) -> None:
    """bincount-accumulate the matched jobs' attributes per query."""
    out[f"par_jobs_{prefix}"] += np.bincount(qids, minlength=m).astype(np.float64)
    for key, vals in values.items():
        out[f"par_{key}_{prefix}"] += np.bincount(
            qids, weights=vals[matches], minlength=m
        )


def _partition(
    elig: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    prio: np.ndarray,
    values: dict[str, np.ndarray],
    pred: np.ndarray,
    query_job: np.ndarray,
) -> dict[str, np.ndarray]:
    """All aggregates for one partition's job slice, at the eligibility
    instants of its jobs ``query_job``."""
    m = len(query_job)
    q_elig = elig[query_job]
    order = np.argsort(q_elig, kind="stable")
    ts = q_elig[order]
    sub = {k: np.zeros(m) for k in SNAPSHOT_KEYS}

    # --- pending intervals [eligible, start) ---------------------------- #
    qq, mi = _stab_pairs(order, ts, elig, start, query_job)
    _aggregate(qq, mi, m, values, "queue", sub)
    sub["par_queue_pred_timelimit"] += np.bincount(qq, weights=pred[mi], minlength=m)
    # "Ahead": strictly higher priority among the pending set.
    ahead = prio[mi] > prio[query_job][qq]
    _aggregate(qq[ahead], mi[ahead], m, values, "ahead", sub)

    # --- running intervals [start, end) --------------------------------- #
    qq, mi = _stab_pairs(order, ts, start, end, query_job)
    _aggregate(qq, mi, m, values, "running", sub)
    sub["par_running_pred_timelimit"] += np.bincount(
        qq, weights=pred[mi], minlength=m
    )
    return sub


def partition_snapshots(
    jobs: JobSet,
    pred_runtime_min: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Compute all partition-state aggregates for an eligibility-ordered trace.

    Parameters
    ----------
    jobs:
        The full accounting trace.  Must contain final start/end times
        (feature engineering is done on history, as in the paper).
    pred_runtime_min:
        Per-job predicted runtimes from the runtime model; enables the
        ``par_queue_pred_timelimit`` / ``par_running_pred_timelimit``
        features.  ``None`` falls back to the requested timelimit (the
        scheduler's own assumption).
    rows:
        Positions of the jobs to aggregate for (default: all); see
        :mod:`repro.features.rows`.

    Returns
    -------
    Mapping of :data:`SNAPSHOT_KEYS` to arrays aligned with ``rows`` (the
    input order by default).
    """
    n = len(jobs)
    rec = jobs.records
    if pred_runtime_min is None:
        pred_runtime_min = rec["timelimit_min"].astype(np.float64)
    else:
        pred_runtime_min = np.asarray(pred_runtime_min, dtype=np.float64)
        if pred_runtime_min.shape != (n,):
            raise ValueError("pred_runtime_min must have one value per job")

    rows = check_rows(rows, n)
    out: dict[str, np.ndarray] = {k: np.zeros(len(rows)) for k in SNAPSHOT_KEYS}
    values_all = {
        "cpus": rec["req_cpus"].astype(np.float64),
        "mem": rec["req_mem_gb"].astype(np.float64),
        "nodes": rec["req_nodes"].astype(np.float64),
        "timelimit": rec["timelimit_min"].astype(np.float64),
    }

    for p, g, sel, local in group_rows(rec["partition"], rows):
        with tracing.span(f"partition[{int(p)}]", rows=len(sel)):
            sub = _partition(
                rec["eligible_time"][g],
                rec["start_time"][g],
                rec["end_time"][g],
                rec["priority"][g],
                {k: v[g] for k, v in values_all.items()},
                pred_runtime_min[g],
                local,
            )
        for k in SNAPSHOT_KEYS:
            out[k][sel] = sub[k]
    return out
