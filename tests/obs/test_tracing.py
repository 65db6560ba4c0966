"""Span trees: nesting, retention, cross-process grafting, timings."""

import pickle
import threading
import time

from repro.obs.tracing import Span, Tracer, span_timings


def test_nested_spans_build_a_tree():
    tr = Tracer(retain=True)
    with tr.span("root") as root:
        with tr.span("a"):
            time.sleep(0.002)
        with tr.span("b"):
            with tr.span("b1"):
                pass
    assert [c.name for c in root.children] == ["a", "b"]
    assert [c.name for c in root.children[1].children] == ["b1"]
    assert root.elapsed >= root.children[0].elapsed
    assert tr.roots[-1] is root


def test_spans_measure_even_without_retention():
    """The overhead contract: REPRO_TELEMETRY=0 keeps timings working —
    only the finished-root history is dropped."""
    tr = Tracer(retain=False)
    with tr.span("root") as root:
        with tr.span("stage"):
            time.sleep(0.002)
    assert root.elapsed > 0
    assert root.children[0].elapsed > 0
    assert len(tr.roots) == 0


def test_root_buffer_is_bounded():
    tr = Tracer(max_roots=3, retain=True)
    for i in range(10):
        with tr.span(f"r{i}"):
            pass
    assert len(tr.roots) == 3
    assert [r.name for r in tr.roots] == ["r7", "r8", "r9"]


def test_drain_empties_roots():
    tr = Tracer(retain=True)
    with tr.span("x"):
        pass
    out = tr.drain()
    assert [r.name for r in out] == ["x"]
    assert len(tr.roots) == 0


def test_span_is_picklable_round_trip():
    rec = Span("w", elapsed=1.25, meta={"rows": 10})
    rec.children.append(Span("inner", elapsed=0.25))
    clone = pickle.loads(pickle.dumps(rec))
    assert clone.name == "w" and clone.children[0].elapsed == 0.25


def test_to_dict_from_dict_round_trip():
    rec = Span("r", elapsed=2.0, alloc_blocks=7, meta={"k": 1})
    rec.children.append(Span("c", elapsed=1.0))
    clone = Span.from_dict(rec.to_dict())
    assert clone.meta == {"k": 1}
    assert clone.children[0].name == "c"
    assert clone.alloc_blocks == 7


def test_span_timings_sums_same_name_children():
    root = Span("fit", elapsed=10.0)
    root.children = [Span("epoch", elapsed=2.0), Span("epoch", elapsed=3.0)]
    t = span_timings(root)
    assert t == {"epoch": 5.0, "total": 10.0}


def test_thread_local_stacks_do_not_interleave():
    tr = Tracer(retain=True)
    errors = []

    def worker(name):
        try:
            with tr.span(name) as rec:
                time.sleep(0.005)
                assert tr.current() is rec
        except AssertionError as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Each thread's span finished with an empty stack -> all become roots.
    assert sorted(r.name for r in tr.roots) == ["t0", "t1", "t2", "t3"]


def test_exception_inside_span_still_closes_it():
    tr = Tracer(retain=True)
    try:
        with tr.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    assert tr.current() is None
    assert tr.roots[-1].name == "boom"
