"""Deadlines, cancellation tokens, and the execution guard.

Unit coverage for the substrate (:mod:`repro.resilience.deadline`) plus
its integration into the query executor: typed unwinding, exact row
budgets, amortized deadline checks, and partial-progress stats on the
raised errors (including the partial EXPLAIN ANALYZE tree).
"""

import time

import pytest

from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout
from repro.obs import metrics
from repro.query.executor import QueryEngine
from repro.resilience import CancelToken, Deadline, Guard


class TestDeadline:
    def test_after_is_an_instant_on_the_monotonic_clock(self):
        before = time.perf_counter()
        deadline = Deadline.after(60.0)
        assert before + 59.0 < deadline.at < time.perf_counter() + 60.0
        assert deadline.timeout_s == 60.0
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0

    def test_zero_span_is_already_expired(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired()
        assert deadline.remaining() <= 0.0

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


class TestCancelToken:
    def test_starts_clear_and_is_sticky(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        token.cancel()  # idempotent
        assert token.cancelled


class TestGuard:
    def test_row_budget_is_exact(self):
        guard = Guard(max_rows=5)
        for _ in range(5):
            guard.tick()
        with pytest.raises(BudgetExceeded) as exc_info:
            guard.tick()
        exc = exc_info.value
        assert exc.budget == "rows"
        assert exc.limit == 5
        assert exc.used == 6
        assert exc.rows_examined == 6

    def test_deadline_check_amortized_to_stride(self):
        # An already-expired deadline only trips on the stride boundary.
        guard = Guard(deadline=Deadline.after(0.0), stride=4)
        for _ in range(3):
            guard.tick()  # under the stride: no clock read, no raise
        with pytest.raises(QueryTimeout) as exc_info:
            guard.tick()
        assert exc_info.value.rows_examined == 4

    def test_check_forces_immediate_deadline(self):
        guard = Guard(deadline=Deadline.after(0.0), stride=1_000_000)
        with pytest.raises(QueryTimeout):
            guard.check()

    def test_cancellation_raises_on_check(self):
        token = CancelToken()
        guard = Guard(cancel=token, stride=1_000_000)
        guard.tick()
        token.cancel()
        with pytest.raises(QueryCancelled):
            guard.check()

    def test_cancellation_trips_inside_tick(self):
        token = CancelToken()
        token.cancel()
        guard = Guard(cancel=token, stride=3)
        guard.tick()
        guard.tick()
        with pytest.raises(QueryCancelled) as exc_info:
            guard.tick()
        assert exc_info.value.rows_examined == 3

    def test_byte_budget(self):
        guard = Guard(max_bytes=100)
        guard.add_bytes(60)
        with pytest.raises(BudgetExceeded) as exc_info:
            guard.add_bytes(60)
        exc = exc_info.value
        assert exc.budget == "bytes"
        assert exc.limit == 100
        assert exc.used == 120

    def test_stats_snapshot(self):
        guard = Guard()
        guard.tick(7)
        guard.add_bytes(42)
        stats = guard.stats()
        assert stats["rows_examined"] == 7
        assert stats["bytes_used"] == 42
        assert stats["elapsed_s"] >= 0.0

    def test_metrics_move_on_violation(self):
        timeouts = metrics.counter("resilience.deadline.timeouts")
        cancelled = metrics.counter("resilience.deadline.cancelled")
        budget = metrics.counter("resilience.budget.exceeded")
        with pytest.raises(QueryTimeout):
            Guard(deadline=Deadline.after(0.0)).check()
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            Guard(cancel=token).check()
        with pytest.raises(BudgetExceeded):
            Guard(max_rows=0).tick()
        assert timeouts.value == 1
        assert cancelled.value == 1
        assert budget.value == 1

    @pytest.mark.parametrize(
        "kwargs", [{"stride": 0}, {"max_rows": -1}, {"max_bytes": -1}]
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Guard(**kwargs)


class TestExecutorIntegration:
    """The guard threaded through ``QueryEngine.execute``."""

    @pytest.fixture()
    def engine(self, memory_store):
        memory_store.put_many(
            [{"id": i, "name": f"rec-{i}", "year": 1900 + (i % 100)}
             for i in range(1000)]
        )
        return QueryEngine(memory_store)

    def test_expired_deadline_raises_before_work(self, engine):
        with pytest.raises(QueryTimeout) as exc_info:
            engine.execute("year >= 1900", timeout_s=0.0)
        # The upfront check fires before the scan touches a row.
        assert exc_info.value.rows_examined == 0

    def test_max_rows_bounds_the_scan(self, engine):
        with pytest.raises(BudgetExceeded) as exc_info:
            engine.execute("year >= 1900", max_rows=100)
        exc = exc_info.value
        assert exc.limit == 100
        assert exc.used == 101

    def test_generous_bounds_leave_results_identical(self, engine):
        plain = engine.execute("year >= 1950 LIMIT 20")
        bounded = engine.execute(
            "year >= 1950 LIMIT 20", timeout_s=60.0, max_rows=1_000_000
        )
        assert bounded == plain

    def test_explicit_guard_accumulates_rows_examined(self, engine):
        guard = Guard()
        engine.execute("year >= 1900 LIMIT 5", guard=guard)
        assert guard.rows_examined > 0

    def test_shared_guard_spans_multiple_queries(self, engine):
        guard = Guard(max_rows=1000)
        engine.execute("year >= 1900 LIMIT 5", guard=guard)
        first = guard.rows_examined
        with pytest.raises(BudgetExceeded):
            engine.execute("year >= 1900", guard=guard)
        assert guard.rows_examined > first

    def test_cancelled_token_unwinds(self, engine):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            engine.execute("year >= 1900", cancel=token)

    def test_profiled_interruption_attaches_partial_tree(self, engine):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled) as exc_info:
            engine.execute("year >= 1900", profile=True, cancel=token)
        partial = exc_info.value.partial
        assert partial is not None
        assert partial.rows == []
        assert "[interrupted: QueryCancelled]" in partial.root.detail
        assert partial.plan_text

    def test_index_paths_are_guarded_too(self, engine, memory_store):
        from repro.storage.store import IndexKind

        memory_store.create_index("year", IndexKind.BTREE)
        with pytest.raises(BudgetExceeded):
            engine.execute("year >= 1900", max_rows=50)

    def test_store_state_untouched_after_interruption(self, engine, memory_store):
        before = len(memory_store)
        with pytest.raises(BudgetExceeded):
            engine.execute("year >= 1900", max_rows=10)
        assert len(memory_store) == before
        # The store still answers queries normally afterwards.
        assert engine.execute("year >= 1999") != []


class TestPagedIndexFetch:
    """The guard stops an index fetch on the paged format within one stride.

    ``year >= 1900 ORDER BY name LIMIT 10`` matches every record, so the
    index range hands the fetch 5,000 primary keys; the executor cannot
    stop early because the sort needs them all.  Each record fetched is
    one ``decode_record`` call.
    """

    QUERY = "year >= 1900 ORDER BY name LIMIT 10"

    @pytest.fixture()
    def engine(self, simple_schema, tmp_path):
        from repro.storage.store import IndexKind, RecordStore

        store = RecordStore(
            simple_schema, directory=tmp_path, data_format="paged", pool_pages=16
        )
        store.create_index("year", IndexKind.BTREE)
        store.put_many(
            [{"id": i, "name": f"rec-{i}", "year": 1900 + (i % 100)} for i in range(5000)]
        )
        store.checkpoint()
        engine = QueryEngine(store)
        assert len(engine.execute(self.QUERY)) == 10  # builds the year index
        yield engine
        store.close()

    @pytest.fixture()
    def decodes(self, monkeypatch):
        from repro.storage import paged_store

        calls = {"count": 0, "hook": None}
        original = paged_store.decode_record

        def counting(raw):
            if calls["hook"] is not None:
                calls["hook"]()
            calls["count"] += 1
            return original(raw)

        monkeypatch.setattr(paged_store, "decode_record", counting)
        return calls

    def test_row_budget_stops_the_fetch(self, engine, decodes):
        with pytest.raises(BudgetExceeded) as exc_info:
            engine.execute(self.QUERY, max_rows=100)
        assert exc_info.value.used == 101
        assert decodes["count"] <= Guard().stride + 100

    def test_deadline_stops_the_fetch(self, engine, decodes):
        deadline = Deadline.after(0.002)
        at_expiry = []

        def note_expiry():
            if not at_expiry and deadline.expired():
                at_expiry.append(decodes["count"])

        decodes["hook"] = note_expiry
        with pytest.raises(QueryTimeout):
            engine.execute(self.QUERY, guard=Guard(deadline=deadline))
        before = at_expiry[0] if at_expiry else decodes["count"]
        assert decodes["count"] - before <= Guard().stride


class TestSearchIntegration:
    def test_title_search_honors_the_guard(self, sample_records):
        from repro.search.engine import TitleSearchEngine

        engine = TitleSearchEngine(sample_records)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            engine.search("public trust", guard=Guard(cancel=token))
        # Unguarded search still works.
        assert engine.search("public trust")
