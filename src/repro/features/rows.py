"""Row selections for the feature builders.

Every builder takes an optional ``rows``: integer positions into the
trace, in any order, repeats allowed.  Its columns then align with
``rows`` instead of the trace, and are bitwise the full build's columns
at those positions.  The per-group builders (partitions for the
snapshots, users for the past-day history) visit only the groups some
requested row belongs to, aggregating over every member of the group.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["check_rows", "group_rows"]


def check_rows(rows: np.ndarray | None, n: int) -> np.ndarray:
    """``rows`` as an intp position array into ``n`` jobs (all when None)."""
    if rows is None:
        return np.arange(n, dtype=np.intp)
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ValueError(
            f"rows must be a 1-D array of integer positions, got "
            f"{rows.dtype} of shape {rows.shape}"
        )
    rows = rows.astype(np.intp, copy=False)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(
            f"rows must lie in [0, {n}), got values in "
            f"[{rows.min()}, {rows.max()}]"
        )
    return rows


def group_rows(
    key: np.ndarray, rows: np.ndarray
) -> Iterator[tuple[object, np.ndarray, np.ndarray, np.ndarray]]:
    """``(value, members, sel, local)`` per distinct ``key[rows]`` value.

    ``members`` are the ascending positions of every job with that key
    (``flatnonzero(key == value)``), ``sel`` the indices into ``rows`` of
    the requested jobs with it, and ``local`` those jobs' indices within
    ``members``, so ``members[local] == rows[sel]``.
    """
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    row_key = key[rows]
    row_order = np.argsort(row_key, kind="stable")
    values, row_lo = np.unique(row_key[row_order], return_index=True)
    row_hi = np.append(row_lo[1:], len(rows))
    lo = np.searchsorted(sorted_key, values, side="left")
    hi = np.searchsorted(sorted_key, values, side="right")
    for value, a, b, c, d in zip(values, lo, hi, row_lo, row_hi):
        members = order[a:b]
        sel = row_order[c:d]
        yield value, members, sel, np.searchsorted(members, rows[sel])
