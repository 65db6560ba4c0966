"""Per-user past-day aggregates (Table II "User * Past Day" rows).

At each job's eligibility instant, count/sum the *same user's* submissions
in the trailing 24 hours — the feature block that lets the model see
fair-share pressure ("this makes it necessary to integrate features
relating to users and their history").

Computed per user with prefix sums over the user's submit-time-sorted jobs:
the past-day window at any instant is a ``searchsorted`` pair, so the whole
block is O(n log n).  Asked for some ``rows`` only
(:mod:`repro.features.rows`), it visits only those rows' users and
answers only their queries, from the same prefix sums.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import JobSet
from repro.features.rows import check_rows, group_rows

__all__ = ["user_past_day", "USER_KEYS", "PAST_DAY_S"]

PAST_DAY_S = 24 * 3600.0

USER_KEYS: tuple[str, ...] = (
    "user_jobs_past_day",
    "user_cpus_past_day",
    "user_mem_past_day",
    "user_nodes_past_day",
    "user_timelimit_past_day",
)


def user_past_day(
    jobs: JobSet,
    window_s: float = PAST_DAY_S,
    rows: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Aggregates over each user's submissions in ``[t − window, t)``.

    ``t`` is the job's eligibility instant; the job's own submission is
    inside its window when ``submit > eligible − window`` (it always is for
    immediately-eligible jobs) and is **excluded** — the features describe
    the user's *other* recent activity.

    Returns a mapping of :data:`USER_KEYS` to arrays aligned with
    ``rows`` (the input order by default).
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    rec = jobs.records
    rows = check_rows(rows, len(jobs))
    out = {k: np.zeros(len(rows)) for k in USER_KEYS}
    values = {
        "cpus": rec["req_cpus"].astype(np.float64),
        "mem": rec["req_mem_gb"].astype(np.float64),
        "nodes": rec["req_nodes"].astype(np.float64),
        "timelimit": rec["timelimit_min"].astype(np.float64),
    }
    for _user, g, sel, local in group_rows(rec["user_id"], rows):
        submit = rec["submit_time"][g]
        elig = rec["eligible_time"][g][local]
        order = np.argsort(submit, kind="stable")
        submit_sorted = submit[order]
        # Prefix sums over the user's jobs in submit order; window bounds
        # found with two binary searches per query.
        lo = np.searchsorted(submit_sorted, elig - window_s, side="left")
        hi = np.searchsorted(submit_sorted, elig, side="right")
        span = (hi - lo).astype(np.float64)
        # Exclude the job's own submission when it falls in its window.
        pos = np.empty(len(g), dtype=np.intp)
        pos[order] = np.arange(len(g))
        pos = pos[local]
        own_in = (pos >= lo) & (pos < hi)
        out["user_jobs_past_day"][sel] = span - own_in
        for key, vals in values.items():
            v_sorted = vals[g][order]
            csum = np.concatenate([[0.0], np.cumsum(v_sorted)])
            sums = csum[hi] - csum[lo]
            sums -= np.where(own_in, vals[g][local], 0.0)
            out[f"user_{key}_past_day"][sel] = sums
    return out
