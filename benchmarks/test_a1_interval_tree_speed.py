"""A1 — §V claim: interval trees accelerate overlap feature engineering.

"Using interval trees offers an improved solution to this problem,
resulting in faster compute times for engineering features relating to
overlapping jobs."  The bench stabs the benchmark trace's pending intervals
at every eligibility instant through (a) the paper's chunked interval
forest (the test oracle) and (b) the naive O(n·m) scan, on growing
slices, and reports the speed-up — which must grow with n.  A third
column times the product's sorted range expansion
(:mod:`repro.features.snapshots`) on the same stabs.
"""

import time

import numpy as np

from benchmarks.conftest import emit, once
from repro.eval.report import format_table
from repro.features.snapshots import _stab_pairs
from tests.oracles.interval_tree import ChunkedIntervalForest, naive_stab_batch


def _range_expansion(s: np.ndarray, e: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Matches per query through the product's stab, self-pairs included."""
    order = np.argsort(ts, kind="stable")
    qry, _ = _stab_pairs(order, ts[order], s, e)
    # The product drops each job's own interval; the other columns keep it.
    return np.bincount(qry, minlength=len(ts)) + (e > s)


def test_a1_tree_vs_naive_scaling(benchmark, bench_trace):
    result, _ = bench_trace
    rec = result.jobs.records
    elig = rec["eligible_time"]
    start = rec["start_time"]

    sizes = [1000, 4000, 16000]
    sizes = [n for n in sizes if n <= len(rec)]
    rows = []
    speedups = []
    for n in sizes:
        s, e, ts = elig[:n], start[:n], elig[:n]
        t0 = time.perf_counter()
        forest = ChunkedIntervalForest(s, e, chunk_size=100_000, overlap=10_000)
        iv_t, ptr_t = forest.stab_batch(ts)
        t_tree = time.perf_counter() - t0
        t0 = time.perf_counter()
        iv_n, ptr_n = naive_stab_batch(s, e, ts)
        t_naive = time.perf_counter() - t0
        # Same answers (counts per query suffice; exact sets are covered by
        # the unit tests).
        np.testing.assert_array_equal(np.diff(ptr_t), np.diff(ptr_n))
        t0 = time.perf_counter()
        counts_r = _range_expansion(s, e, ts)
        t_range = time.perf_counter() - t0
        np.testing.assert_array_equal(counts_r, np.diff(ptr_n))
        rows.append(
            [n, t_tree * 1e3, t_naive * 1e3, t_naive / t_tree, t_range * 1e3]
        )
        speedups.append(t_naive / t_tree)

    emit(
        "a1_interval_tree_speed",
        format_table(
            ["n jobs", "tree (ms)", "naive (ms)", "speed-up", "range expansion (ms)"],
            rows,
            float_fmt="{:.2f}",
        ),
    )

    # Timed artefact: the tree path at the largest size.
    n = sizes[-1]
    once(
        benchmark,
        lambda: ChunkedIntervalForest(elig[:n], start[:n]).stab_batch(elig[:n]),
    )

    # The speed-up exists at scale and grows with n.
    assert speedups[-1] > 2.0, speedups
    assert speedups[-1] > speedups[0]
