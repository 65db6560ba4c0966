"""Unit tests for the simulator event loop's data structures.

:class:`EventQueue` (indexed lazy-deletion heap) and :class:`JobPool`
(swap-remove membership set) carry the event loop's determinism
contract, so their edge cases — tombstoning, supersession, drain
ordering, version bumps — are pinned here independently of any
simulation scenario.
"""

import numpy as np
import pytest

from repro.slurm.queue import EventQueue, JobPool


class TestEventQueue:
    def test_pops_in_time_kind_seq_order(self):
        q = EventQueue()
        q.push(5.0, 1, 10)
        q.push(3.0, 1, 11)
        q.push(3.0, 0, 12)  # same time, lower kind drains first
        q.push(3.0, 1, 13)  # same (time, kind): push order breaks the tie
        assert q.pop() == (3.0, 0, 12)
        assert q.pop() == (3.0, 1, 11)
        assert q.pop() == (3.0, 1, 13)
        assert q.pop() == (5.0, 1, 10)
        assert q.empty()

    def test_push_supersedes_live_event_for_same_key(self):
        q = EventQueue()
        q.push(5.0, 1, 7)
        q.push(9.0, 1, 7)  # reschedule: the 5.0 entry is tombstoned
        assert len(q) == 1
        assert q.tombstoned == 1
        assert q.pop() == (9.0, 1, 7)
        assert q.empty()

    def test_same_job_different_kinds_are_distinct_keys(self):
        q = EventQueue()
        q.push(1.0, 0, 7)
        q.push(2.0, 1, 7)
        assert len(q) == 2
        assert q.pop() == (1.0, 0, 7)
        assert q.pop() == (2.0, 1, 7)

    def test_invalidate_tombstones_and_reports(self):
        q = EventQueue()
        q.push(5.0, 1, 7)
        assert q.invalidate(1, 7) is True
        assert q.invalidate(1, 7) is False  # already gone
        assert q.tombstoned == 1
        assert len(q) == 0
        assert q.empty()

    def test_readd_after_invalidate(self):
        q = EventQueue()
        q.push(5.0, 1, 7)
        q.invalidate(1, 7)
        q.push(8.0, 1, 7)
        assert q.pop() == (8.0, 1, 7)

    def test_peek_does_not_pop(self):
        q = EventQueue()
        q.push(4.0, 0, 1)
        assert q.peek_time() == 4.0
        assert q.peek_time() == 4.0
        assert len(q) == 1

    def test_empty_queue_errors(self):
        q = EventQueue()
        with pytest.raises(IndexError):
            q.pop()
        with pytest.raises(IndexError):
            q.peek_time()
        assert q.empty()

    def test_drain_returns_batch_within_cutoff_in_order(self):
        q = EventQueue()
        q.push(1.0, 1, 1)
        q.push(1.0, 0, 2)
        q.push(1.0 + 5e-10, 1, 3)  # inside the 1e-9 batching window
        q.push(2.0, 0, 4)
        batch = q.drain(1.0 + 1e-9)
        assert batch == [(1.0, 0, 2), (1.0, 1, 1), (1.0 + 5e-10, 1, 3)]
        assert len(q) == 1
        assert q.pop() == (2.0, 0, 4)

    def test_drain_skips_tombstones(self):
        q = EventQueue()
        q.push(1.0, 1, 1)
        q.push(1.0, 1, 2)
        q.invalidate(1, 1)
        assert q.drain(1.0) == [(1.0, 1, 2)]

    def test_drain_next_fuses_peek_and_drain(self):
        q = EventQueue()
        q.push(3.0, 1, 1)
        q.push(3.0 + 5e-10, 0, 2)
        q.push(4.0, 0, 3)
        t, events = q.drain_next(1e-9)
        assert t == 3.0
        assert events == [(3.0, 1, 1), (3.0 + 5e-10, 0, 2)]
        assert q.drain_next(1e-9) == (4.0, [(4.0, 0, 3)])
        assert q.drain_next(1e-9) is None

    def test_drain_next_all_tombstoned_is_none(self):
        q = EventQueue()
        q.push(3.0, 1, 1)
        q.invalidate(1, 1)
        assert q.drain_next(1e-9) is None

    def test_interleaved_pushes_preserve_heap_order(self):
        q = EventQueue()
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 100, size=200)
        for j, t in enumerate(times):
            q.push(float(t), 1, j)
        # Invalidate every third job, reschedule every seventh.
        for j in range(0, 200, 3):
            q.invalidate(1, j)
        for j in range(0, 200, 7):
            q.push(float(times[j] + 1000.0), 1, j)
        popped = []
        while not q.empty():
            popped.append(q.pop())
        assert popped == sorted(popped)
        alive = {j for _, _, j in popped}
        expect = (set(range(200)) - set(range(0, 200, 3))) | set(range(0, 200, 7))
        assert alive == expect


class TestJobPool:
    def test_add_remove_contains_len(self):
        pool = JobPool(10)
        pool.add(3)
        pool.add(7)
        assert len(pool) == 2
        assert 3 in pool and 7 in pool and 5 not in pool
        pool.remove(3)
        assert len(pool) == 1
        assert 3 not in pool and 7 in pool

    def test_view_holds_current_members(self):
        pool = JobPool(10)
        for j in (2, 5, 8):
            pool.add(j)
        assert set(pool.view().tolist()) == {2, 5, 8}
        pool.remove(5)
        assert set(pool.view().tolist()) == {2, 8}

    def test_swap_remove_moves_last_member(self):
        pool = JobPool(10)
        for j in (1, 2, 3):
            pool.add(j)
        pool.remove(1)  # 3 swaps into slot 0
        assert pool.view().tolist() == [3, 2]

    def test_version_bumps_on_every_mutation(self):
        pool = JobPool(4)
        v0 = pool.version
        pool.add(0)
        pool.add(1)
        assert pool.version == v0 + 2
        pool.remove(0)
        assert pool.version == v0 + 3

    def test_double_add_and_missing_remove_raise(self):
        pool = JobPool(4)
        pool.add(2)
        with pytest.raises(ValueError):
            pool.add(2)
        with pytest.raises(KeyError):
            pool.remove(3)

    def test_zero_capacity_pool_is_valid(self):
        pool = JobPool(0)
        assert len(pool) == 0
        assert pool.view().tolist() == []
