"""Metrics registry: instruments, identity, null path, bucket maths."""

import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    telemetry_enabled,
)


def reg():
    return MetricsRegistry(enabled=True)


# ---------------------------------------------------------------------- #
# instruments
# ---------------------------------------------------------------------- #
def test_counter_monotonic():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_up_and_down():
    g = Gauge()
    g.set(5.0)
    g.inc(2.0)
    g.dec(3.0)
    assert g.value == 4.0


def test_histogram_bucket_placement():
    h = Histogram((1.0, 10.0, 100.0))
    for v in (0.5, 1.0, 5.0, 50.0, 5000.0):
        h.observe(v)
    # bisect_left: a value equal to a bound lands in that bound's bucket.
    assert h.counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(5056.5)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram(())
    with pytest.raises(ValueError):
        Histogram((1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram((2.0, 1.0))


def test_log_buckets_ladder():
    b = log_buckets(1.0, 100.0, per_decade=1)
    assert b[0] == pytest.approx(1.0)
    assert b[-1] >= 100.0
    assert all(y > x for x, y in zip(b, b[1:]))
    with pytest.raises(ValueError):
        log_buckets(0.0, 1.0)
    with pytest.raises(ValueError):
        log_buckets(1.0, 100.0, per_decade=0)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
def test_get_or_create_returns_same_handle():
    r = reg()
    a = r.counter("x_total")
    b = r.counter("x_total")
    assert a is b
    a.inc()
    assert b.value == 1.0


def test_labels_split_series():
    r = reg()
    a = r.counter("t_total", labels={"model": "a"})
    b = r.counter("t_total", labels={"model": "b"})
    assert a is not b
    a.inc(3)
    assert b.value == 0.0
    # Label insertion order does not matter for identity.
    c = r.gauge("g", labels={"x": "1", "y": "2"})
    d = r.gauge("g", labels={"y": "2", "x": "1"})
    assert c is d


def test_kind_conflict_raises():
    r = reg()
    r.counter("n")
    with pytest.raises(ValueError, match="already registered"):
        r.gauge("n")


def test_help_text_kept_first_wins():
    r = reg()
    r.counter("h_total", help="first")
    r.counter("h_total", help="second")
    assert r.help_for("h_total") == "first"
    assert r.help_for("unknown") == ""


def test_snapshot_shape_and_reset():
    r = reg()
    r.counter("c_total").inc(2)
    r.gauge("g").set(1.5)
    r.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
    snap = r.snapshot()
    assert [e["name"] for e in snap["counters"]] == ["c_total"]
    assert snap["gauges"][0]["value"] == 1.5
    hist = snap["histograms"][0]
    assert hist["counts"] == [0, 1, 0] and hist["count"] == 1
    r.reset()
    assert r.snapshot() == {"counters": [], "gauges": [], "histograms": []}


def test_disabled_registry_hands_out_nulls():
    r = MetricsRegistry(enabled=False)
    c = r.counter("c_total")
    c.inc(100)
    g = r.gauge("g")
    g.set(5)
    h = r.histogram("h")
    h.observe(1.0)
    assert c.value == 0.0 and g.value == 0.0 and h.count == 0
    # Nothing registered: the snapshot stays empty.
    assert r.snapshot() == {"counters": [], "gauges": [], "histograms": []}


def test_telemetry_on_by_default_off_under_zero(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    assert telemetry_enabled()
    assert MetricsRegistry().enabled
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    assert not telemetry_enabled()
    assert not MetricsRegistry().enabled


def test_concurrent_creation_single_instance():
    r = reg()
    handles = []

    def grab():
        handles.append(r.counter("race_total"))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(h is handles[0] for h in handles)
