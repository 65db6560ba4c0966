"""Plain-text rendering helpers: aligned tables and timing reports.

These live in ``utils`` (the bottom layer) because both the evaluation
reports (``repro.eval.report``) and the telemetry exporters
(``repro.obs.export``) render tables — and ``obs`` may not import
``eval`` under the layering DAG.  ``repro.eval.report`` re-exports them,
so benchmark and CLI call sites keep their historical import path.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["format_table", "format_timing_report"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned text table."""
    def fmt(v: object) -> str:
        if isinstance(v, float) or isinstance(v, np.floating):
            return float_fmt.format(float(v))
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[j]) for r in cells)) if cells else len(str(h))
        for j, h in enumerate(headers)
    ]
    out = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for r in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def format_timing_report(timings: Mapping[str, float]) -> str:
    """Per-stage wall-time table.

    ``timings`` is the :attr:`FeatureMatrix.timings` mapping (stage →
    seconds).  Used by ``trout train`` and the telemetry report.
    """
    total = float(timings.get("total", sum(timings.values())))
    rows = []
    for stage, secs in timings.items():
        share = 100.0 * secs / total if total > 0 else 0.0
        rows.append([stage, secs * 1e3, share])
    return format_table(["stage", "wall (ms)", "% of total"], rows)
