"""rng.split_pass: a pass cut into contiguous ranges, the first run in this
process and each other in a forked child, gives the doubles of the serial
pass for any worker count, raises the serial pass's error, and leaves no
child behind.  The worker count is forced by replacing rng._workers, the
one function that chooses it."""

import os
import threading
import time
import warnings

import numpy as np
import pytest

from planted_bipartite import (
    BudgetError,
    DetectorKind,
    DetectorTag,
    ProblemShape,
    tv_exact,
)
from planted_bipartite import harness, rng
from planted_bipartite.detectors import null_statistics

WORKERS = (1, 2, 3)


def _force(monkeypatch, workers):
    monkeypatch.setattr(rng, "_workers", lambda items, work: workers)


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _ranges(lo, hi):
    yield from range(lo, hi)


class TestSameDoubles:
    @pytest.mark.parametrize("kind, shape", [
        (DetectorKind(DetectorTag.TOTAL_DEGREE), ProblemShape(12, 20, 3, 5)),
        (DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS1, tau=1.0), ProblemShape(12, 20, 3, 5)),
        (DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS2, tau=1.0), ProblemShape(12, 20, 3, 5)),
        (DetectorKind(DetectorTag.MAX_TRUNC_AXIS1, tau=1.0, k_scan=3), ProblemShape(8, 16, 3, 2)),
    ], ids=["total", "trunc1", "trunc2", "max"])
    def test_null_statistics(self, monkeypatch, kind, shape):
        """101 trials in chunks of 3, so every range starts inside a block
        of the serial pass and ends with a short chunk."""
        monkeypatch.setattr(rng, "BATCH_BYTES", 8 * shape.n1 * shape.n2 * 3)
        want = _hex(null_statistics(kind, shape, 0.25, 101, 8))
        for workers in WORKERS:
            _force(monkeypatch, workers)
            assert _hex(null_statistics(kind, shape, 0.25, 101, 8)) == want, workers
        _no_child_left()

    def test_planted_accept_count(self, monkeypatch):
        """The A4 config (64 x 64, k = 16) at three deltas of its grid, over
        300 trials: more than two blocks of 128."""
        shape, kind = ProblemShape(64, 64, 16, 16), DetectorKind(DetectorTag.TOTAL_DEGREE)
        deltas = [0.0, 0.4090937099072257 / 3, 0.4090937099072257]
        want = harness._planted_accept_count(kind, shape, 0.25, deltas, 1.5, 300, 4)
        assert len(set(want)) == 3
        for workers in WORKERS:
            _force(monkeypatch, workers)
            got = harness._planted_accept_count(kind, shape, 0.25, deltas, 1.5, 300, 4)
            assert got == want, workers
        _no_child_left()

    @pytest.mark.parametrize("budget", [None, 1, 127], ids=["default", "one-row", "127-row"])
    def test_tv_exact(self, monkeypatch, budget):
        """At the one-row and 127-row budgets, (3, 4, 2, 2) walks 32 blocks of
        128 rows; at the default budget its 4,096 rows are one block."""
        shape = ProblemShape(3, 4, 2, 2)
        if budget is not None:
            monkeypatch.setattr(rng, "BATCH_BYTES", budget * 8 * 12)
        want = _hex(tv_exact(shape, 0.25, 0.3))
        for workers in WORKERS:
            _force(monkeypatch, workers)
            assert _hex(tv_exact(shape, 0.25, 0.3)) == want, workers
        _no_child_left()

    def test_ranges_run_in_children(self, monkeypatch):
        def pids(lo, hi):
            yield os.getpid()

        _force(monkeypatch, 3)
        (first,), (second,), (third,) = rng.split_pass(3, 0, pids)
        assert first == os.getpid() and len({first, second, third}) == 3
        _no_child_left()

    def test_more_workers_than_items(self, monkeypatch):
        _force(monkeypatch, 3)
        assert rng.split_pass(2, 0, _ranges) == [[], [0], [1]]
        _no_child_left()


class TestFailures:
    def test_budget_error_of_the_second_range(self, monkeypatch):
        """Seed 7's first 20 trials need at most 20 subsets of 3 rows, and
        its last 20 a table of 35: only the child's range fails."""
        shape = ProblemShape(8, 16, 3, 2)
        kind = DetectorKind(DetectorTag.MAX_TRUNC_AXIS1, tau=1.0, k_scan=3, budget=20)
        null_statistics(kind, shape, 0.25, 20, 7)
        with pytest.raises(BudgetError) as serial:
            null_statistics(kind, shape, 0.25, 40, 7)
        _force(monkeypatch, 2)
        with pytest.raises(BudgetError) as split:
            null_statistics(kind, shape, 0.25, 40, 7)
        assert str(split.value) == str(serial.value)
        _no_child_left()

    @pytest.mark.parametrize("failing, raised", [({1, 2}, 1), ({0, 2}, 0), ({2}, 2)])
    def test_earliest_failing_range_wins(self, monkeypatch, failing, raised):
        def task(lo, hi):
            yield lo
            if lo in failing:
                raise (KeyError if lo == 1 else ValueError)(f"range {lo}")

        _force(monkeypatch, 3)
        with pytest.raises(KeyError if raised == 1 else ValueError, match=f"range {raised}"):
            rng.split_pass(3, 0, task)
        _no_child_left()

    def test_interrupted_pass_kills_its_children(self, monkeypatch):
        """The children would sleep for a minute; the interrupt in this
        process's range must kill and reap them at once."""
        def task(lo, hi):
            if lo:
                threading.Event().wait(60)
            raise KeyboardInterrupt
            yield

        _force(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            rng.split_pass(3, 0, task)
        assert time.monotonic() - start < 30
        _no_child_left()

    def test_child_without_result(self, monkeypatch):
        def task(lo, hi):
            if lo:
                os._exit(3)
            yield lo

        _force(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="items \\[1, 2\\)"):
            rng.split_pass(2, 0, task)
        _no_child_left()


class TestProcessHygiene:
    def test_children_flush_no_inherited_buffer(self, monkeypatch, tmp_path):
        """A child leaves by os._exit, so this process's unflushed buffer is
        written once, by this process."""
        _force(monkeypatch, 3)
        with open(tmp_path / "out.txt", "w", encoding="ascii") as fh:
            fh.write("once")
            assert rng.split_pass(3, 0, _ranges) == [[0], [1], [2]]
        assert (tmp_path / "out.txt").read_text(encoding="ascii") == "once"
        _no_child_left()

    def test_no_fork_while_another_thread_lives(self, monkeypatch):
        """With four CPUs and work for four workers the pass would fork;
        while another thread waits on an Event it runs in-process."""
        calls = []

        def fork():
            calls.append(1)
            raise OSError("fork called")

        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(rng.os, "fork", fork)
        work = 4 * rng.MIN_WORK
        with pytest.raises(OSError, match="fork called"):
            rng.split_pass(4, work, _ranges)
        assert calls == [1]
        calls.clear()
        event = threading.Event()
        waiter = threading.Thread(target=event.wait)
        waiter.start()
        try:
            assert rng.split_pass(4, work, _ranges) == [[0, 1, 2, 3]]
        finally:
            event.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert calls == []

    def test_fork_warning_of_other_threads_is_no_error(self, monkeypatch):
        """Python 3.12+ warns at a fork while numpy's BLAS pool threads are
        alive; with warnings as errors the pass still forks and succeeds."""
        fork = os.fork

        def warning_fork():
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may "
                "lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(rng.os, "fork", warning_fork)
        _force(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rng.split_pass(2, 0, _ranges) == [[0], [1]]
        _no_child_left()

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: set(range(8)))
        assert rng._workers(3, 100 * rng.MIN_WORK) == 3
        assert rng._workers(100, 2 * rng.MIN_WORK) == 2
        assert rng._workers(100, 2 * rng.MIN_WORK - 1) == 1
        assert rng._workers(100, 0) == 1
        assert rng._workers(100, 100 * rng.MIN_WORK) == 8
        monkeypatch.delattr(rng.os, "sched_getaffinity")
        assert rng._workers(100, 100 * rng.MIN_WORK) == 1
