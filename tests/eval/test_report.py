"""Report formatting utilities."""

import numpy as np
import pytest

from repro.eval.report import (
    density_series,
    format_table,
    format_timing_report,
    scatter_series,
)


def test_format_table_alignment():
    text = format_table(["model", "mape"], [["nn", 97.567], ["xgb", 150.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "97.57" in lines[2]
    assert lines[0].startswith("model")


def test_format_table_empty_rows():
    text = format_table(["a"], [])
    assert "a" in text


def test_format_timing_report_empty_mapping():
    text = format_timing_report({})
    assert "stage" in text  # header renders, no rows, no crash


def test_format_timing_report_zero_total():
    text = format_timing_report({"a": 0.0, "total": 0.0})
    # Zero total must not divide by zero; shares render as 0.
    assert "0.00" in text


def test_format_timing_report_missing_total_sums_stages():
    text = format_timing_report({"a": 0.25, "b": 0.75})
    lines = text.splitlines()
    row_a = next(line for line in lines if line.lstrip().startswith("a"))
    # Without an explicit "total" key the denominator is the stage sum,
    # so a's share is 25%.
    assert "25.00" in row_a


def test_density_series_normalised():
    rng = np.random.default_rng(0)
    q = rng.lognormal(1.0, 2.0, 5000)
    d = density_series(q, n_bins=40)
    widths = np.diff(d["edges"])
    np.testing.assert_allclose((d["density"] * widths).sum(), 1.0, rtol=1e-6)
    assert len(d["bin_centers"]) == 40


def test_density_series_log_bins_grow():
    d = density_series(np.array([0.1, 1.0, 100.0, 10000.0]), n_bins=10)
    widths = np.diff(d["edges"])
    assert widths[-1] > widths[0]
    with pytest.raises(ValueError):
        density_series(np.ones(5), n_bins=1)


def test_density_clip_min_sets_first_edge():
    d = density_series(np.array([0.0, 5.0, 50.0]), n_bins=5, clip_min=1.0)
    np.testing.assert_allclose(d["edges"][0], 1.0)


def test_density_linear_mode():
    d = density_series(np.linspace(0, 10, 100), n_bins=10, log_scale=False)
    widths = np.diff(d["edges"])
    np.testing.assert_allclose(widths, widths[0])


def test_ascii_scatter_shape_and_content():
    from repro.eval.report import ascii_scatter

    rng = np.random.default_rng(0)
    x = np.exp(rng.normal(3, 1, 300))
    y = x * np.exp(rng.normal(0, 0.3, 300))
    plot = ascii_scatter(x, y, width=40, height=10)
    lines = plot.splitlines()
    assert len(lines) == 12  # 10 rows + axis + footer
    assert all(line.startswith("|") for line in lines[:10])
    assert lines[10].startswith("+")
    # Some density marks present.
    assert any(g in plot for g in ".:*#")


def test_ascii_scatter_validation():
    from repro.eval.report import ascii_scatter

    with pytest.raises(ValueError):
        ascii_scatter(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        ascii_scatter(np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        ascii_scatter(np.ones(3), np.ones(3), width=2)


def test_ascii_scatter_constant_inputs():
    from repro.eval.report import ascii_scatter

    plot = ascii_scatter(np.full(5, 7.0), np.full(5, 7.0), log_scale=False)
    assert "#" in plot or "." in plot  # all mass in one cell, no crash


def test_scatter_series_subsamples():
    t = np.arange(10_000.0)
    p = t * 2
    s = scatter_series(t, p, max_points=500, seed=0)
    assert len(s["actual"]) == 500
    np.testing.assert_allclose(s["predicted"], s["actual"] * 2)
    # Small inputs pass through untouched.
    s2 = scatter_series(t[:10], p[:10])
    assert len(s2["actual"]) == 10
