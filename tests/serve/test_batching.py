"""MicroBatcher: coalescing, correctness under concurrency, failure
propagation, and the ServingStats counters."""

import threading
import time

import numpy as np
import pytest

from repro.serve import MicroBatcher, ServingStats
from repro.serve.batching import BatcherClosed


def _run_concurrent(batcher, rows):
    """Submit every row from its own thread; returns results in order."""
    out = [None] * len(rows)
    errors = []

    def go(i):
        try:
            out[i] = batcher.submit(rows[i])
        except Exception as exc:  # noqa: BLE001 - collected for assertions
            errors.append(exc)

    threads = [threading.Thread(target=go, args=(i,))
               for i in range(len(rows))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out, errors


class TestCoalescing:
    def test_concurrent_rows_share_batches(self):
        batch_sizes = []

        def fn(X):
            batch_sizes.append(len(X))
            return X[:, 0] * 2

        rows = np.random.default_rng(0).standard_normal((24, 3))
        with MicroBatcher(fn, max_batch=24, max_delay_ms=100) as mb:
            out, errors = _run_concurrent(mb, rows)
        assert not errors
        assert np.allclose(out, rows[:, 0] * 2)
        # 24 requests must not mean 24 model calls
        assert len(batch_sizes) < 24
        assert sum(batch_sizes) == 24

    def test_max_batch_is_honoured(self):
        batch_sizes = []

        def fn(X):
            batch_sizes.append(len(X))
            time.sleep(0.01)  # let the queue fill while a batch runs
            return X[:, 0]

        rows = np.random.default_rng(1).standard_normal((20, 2))
        with MicroBatcher(fn, max_batch=4, max_delay_ms=50) as mb:
            _, errors = _run_concurrent(mb, rows)
        assert not errors
        assert max(batch_sizes) <= 4
        assert sum(batch_sizes) == 20

    def test_results_map_back_to_callers(self):
        # identity on a marker column: every caller must get its own row back
        def fn(X):
            return X[:, 0]

        rows = np.arange(40, dtype=np.float64).reshape(40, 1)
        with MicroBatcher(fn, max_batch=8, max_delay_ms=20) as mb:
            out, errors = _run_concurrent(mb, rows)
        assert not errors
        assert np.array_equal(np.asarray(out), np.arange(40.0))

    def test_proba_shaped_results(self):
        def fn(X):
            p = 1 / (1 + np.exp(-X[:, 0]))
            return np.column_stack([1 - p, p])

        rows = np.random.default_rng(2).standard_normal((10, 1))
        with MicroBatcher(fn, max_batch=10, max_delay_ms=50) as mb:
            out, errors = _run_concurrent(mb, rows)
        assert not errors
        assert all(o.shape == (2,) for o in out)


class TestFailure:
    def test_predict_error_reaches_every_caller(self):
        def fn(X):
            raise ValueError("bad model")

        with MicroBatcher(fn, max_batch=4, max_delay_ms=20) as mb:
            out, errors = _run_concurrent(
                mb, np.zeros((6, 2))
            )
        assert len(errors) == 6
        assert all("bad model" in str(e) for e in errors)
        assert mb.stats.snapshot()["errors"] == 6

    def test_submit_after_close_raises(self):
        mb = MicroBatcher(lambda X: X[:, 0])
        mb.close()
        with pytest.raises(RuntimeError, match="closed"):
            mb.submit([1.0, 2.0])

    def test_close_is_idempotent(self):
        mb = MicroBatcher(lambda X: X[:, 0])
        mb.close()
        mb.close()


class TestSubmitRacingClose:
    def test_close_during_enqueue_never_strands_the_row(self):
        """close() starts on another thread just as submit() enqueues and
        gets up to 0.2 s to finish first.  The row must then be served
        or refused with BatcherClosed — never left behind the shutdown
        sentinel with no worker to serve it."""
        mb = MicroBatcher(lambda X: X[:, 0])
        put = mb._queue.put

        def put_racing_close(item, block=True, timeout=None):
            if item is not None:
                closer = threading.Thread(target=mb.close)
                closer.start()
                closer.join(timeout=0.2)
            put(item, block, timeout)

        mb._queue.put = put_racing_close
        outcome = []

        def client():
            try:
                outcome.append(mb.submit([7.0, 1.0]))
            except BatcherClosed as exc:
                outcome.append(exc)

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        thread.join(timeout=3)
        assert not thread.is_alive(), "submit stranded behind close()"
        assert outcome == [7.0] or isinstance(outcome[0], BatcherClosed)
        mb.close()


class TestStats:
    def test_counters_and_percentiles(self):
        with MicroBatcher(lambda X: X[:, 0], max_batch=8,
                          max_delay_ms=20) as mb:
            _run_concurrent(mb, np.zeros((16, 2)))
            snap = mb.stats.snapshot()
        assert snap["requests"] == 16
        assert snap["rows"] == 16
        assert snap["batches"] <= 16
        assert snap["mean_batch_size"] == 16 / snap["batches"]
        assert 0 <= snap["latency_ms_p50"] <= snap["latency_ms_p95"]
        assert snap["latency_ms_p95"] <= snap["latency_ms_p99"]

    def test_empty_stats_are_json_safe(self):
        snap = ServingStats().snapshot()
        assert snap["requests"] == 0
        assert "latency_ms_p50" not in snap

    def test_throughput_honest_from_the_first_request(self):
        # the span used to be first-to-last request, which is zero with
        # one request: operators saw throughput_rps=0.0 until a second
        # request arrived.  Span is now first-request-to-snapshot.
        stats = ServingStats()
        assert stats.snapshot()["throughput_rps"] == 0.0  # 0 requests

        stats.record_request(0.002)
        one = stats.snapshot()
        assert one["requests"] == 1
        assert one["throughput_rps"] > 0.0

        stats.record_request(0.002)
        two = stats.snapshot()
        assert two["requests"] == 2
        assert two["throughput_rps"] > 0.0

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda X: X, max_batch=0)
