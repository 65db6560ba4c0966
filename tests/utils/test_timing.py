"""Timer accumulation semantics."""

import time

from repro.utils.timing import Timer


def test_timer_accumulates_laps():
    t = Timer()
    for _ in range(3):
        with t:
            time.sleep(0.002)
    assert t.laps == 3
    assert t.elapsed >= 0.005
    assert t.mean > 0


def test_timer_reset():
    t = Timer()
    with t:
        pass
    t.reset()
    assert t.laps == 0 and t.elapsed == 0.0 and t.mean == 0.0


def test_timer_reentrant_nested_blocks():
    """Nested ``with`` on one instance must time each region independently.

    Before the start-stack fix the inner block clobbered the single
    ``_t0``, so the outer block's lap measured only the post-inner tail.
    """
    t = Timer()
    with t:
        time.sleep(0.004)
        with t:
            time.sleep(0.002)
    assert t.laps == 2
    # inner (~2 ms) + outer (~6 ms, containing the inner) >= 8 ms; the
    # clobbered version records only inner + ~0 instead.
    assert t.elapsed >= 0.007
