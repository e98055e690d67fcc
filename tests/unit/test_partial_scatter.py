"""Graceful degradation in scatter-gather: partial mode vs strict mode.

The contract under test (``ShardedQueryEngine.execute(partial=True)``):
quarantined shards are skipped up front, failing workers are retried
then skipped, and the result says exactly which shards are missing —
while strict mode stays all-or-nothing and refuses quarantined shards.
"""

import json

import pytest

from repro.errors import ShardUnavailableError
from repro.query import PartialResult, ShardedQueryEngine
from repro.query.executor import QueryProfile
from repro.storage import QUARANTINED, ShardedStore
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("year", FieldType.INT),
        Field("name", FieldType.STRING),
    ],
    primary_key="id",
)


def _corpus(n: int = 200) -> list[dict]:
    return [
        {"id": i, "year": 1900 + (i % 10), "name": f"n{i:04d}"} for i in range(n)
    ]


@pytest.fixture
def engine():
    store = ShardedStore(SCHEMA, shards=4)
    store.put_many(_corpus())
    engine = ShardedQueryEngine(store)
    yield engine
    engine.close()
    store.close()


def _canon(rows):
    return sorted(json.dumps(r, sort_keys=True) for r in rows)


class TestPartialMode:
    def test_all_healthy_returns_complete_partial_result(self, engine):
        rows = engine.execute("* ORDER BY id", partial=True)
        assert isinstance(rows, PartialResult)
        assert rows.partial is False
        assert rows.shards_failed == ()
        assert len(rows) == 200

    def test_quarantined_shard_is_skipped(self, engine):
        engine.store.quarantine(2, "test damage")
        rows = engine.execute("* ORDER BY id", partial=True)
        assert rows.partial is True
        assert rows.shards_failed == (2,)
        # Exactly the healthy shards' rows, still correctly merged.
        expected = [
            r
            for r in _corpus()
            if engine.store.shard_for(r["id"]) != 2
        ]
        assert list(rows) == sorted(expected, key=lambda r: r["id"])

    def test_execute_partial_alias(self, engine):
        engine.store.quarantine(0, "test")
        rows = engine.execute_partial("year >= 1905 ORDER BY id")
        assert rows.partial and rows.shards_failed == (0,)

    def test_profile_carries_degradation_metadata(self, engine):
        engine.store.quarantine(1, "test")
        profile = engine.execute("* ORDER BY id", partial=True, profile=True)
        assert isinstance(profile, QueryProfile)
        assert profile.partial is True
        assert profile.shards_failed == (1,)
        rendered = profile.render()
        assert "SKIPPED" in rendered

    def test_worker_failure_is_skipped_not_fatal(self, engine, monkeypatch):
        # Break one shard's worker below the health layer: partial mode
        # must return the three healthy shards and name the casualty.
        bad = engine.store.shards[3]
        monkeypatch.setattr(
            bad,
            "scan",
            lambda *a, **k: (_ for _ in ()).throw(OSError(5, "dead disk")),
        )
        rows = engine.execute("* ORDER BY id", partial=True)
        assert rows.partial is True
        assert rows.shards_failed == (3,)
        expected = [
            r for r in _corpus() if engine.store.shard_for(r["id"]) != 3
        ]
        assert _canon(rows) == _canon(expected)

    def test_readmit_restores_full_results(self, engine):
        engine.store.quarantine(2, "test")
        assert engine.execute("*", partial=True).shards_failed == (2,)
        engine.store.readmit(2)
        rows = engine.execute("* ORDER BY id", partial=True)
        assert rows.partial is False
        assert len(rows) == 200

    def test_aggregates_degrade_too(self, engine):
        engine.store.quarantine(0, "test")
        rows = engine.execute("* GROUP BY year", partial=True)
        assert rows.partial is True
        missing = sum(
            1 for r in _corpus() if engine.store.shard_for(r["id"]) == 0
        )
        assert sum(r["count"] for r in rows) == 200 - missing


class TestStrictMode:
    def test_strict_raises_on_quarantined_shard(self, engine):
        engine.store.quarantine(2, "bit rot")
        with pytest.raises(ShardUnavailableError) as err:
            engine.execute("* ORDER BY id")
        assert err.value.shard == 2
        assert err.value.state == QUARANTINED

    def test_strict_propagates_worker_failure(self, engine, monkeypatch):
        bad = engine.store.shards[1]
        monkeypatch.setattr(
            bad,
            "scan",
            lambda *a, **k: (_ for _ in ()).throw(OSError(5, "dead disk")),
        )
        with pytest.raises(OSError):
            engine.execute("* ORDER BY id")

    def test_strict_returns_plain_list_when_healthy(self, engine):
        rows = engine.execute("* ORDER BY id")
        assert not isinstance(rows, PartialResult)
        assert len(rows) == 200
