"""Differential property test: the primary-key probe against a full scan.

An equality on the primary key is planned as an ``INDEX LOOKUP`` that
reads the record map directly (``dict.get`` in memory, the paged tree
behind its overlay, each shard in turn under a sharded store).  For any
literal type — int, integral and fractional float, bool, str, and keys
that are absent or deleted — it must return exactly the rows a forced
full scan returns, with an extra residual conjunct applied on top.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.query import QueryEngine, ShardedQueryEngine
from repro.query.ast_nodes import And, Comparison, Operator, Query
from repro.storage import IndexKind, RecordStore, ShardedStore
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("name", FieldType.STRING),
        Field("year", FieldType.INT),
    ],
    primary_key="id",
)
NAMES = ["smith", "jones", "li", "garcia", "chen"]
BASE = 300  # checkpointed into the pages file
NEW = range(300, 320)  # overlay inserts
UPDATED = range(0, 300, 7)  # overlay replacements of base records
DELETED = [*range(3, 300, 11), 305]  # tombstones, plus one overlay delete


def _record(pk: int, year_shift: int = 0) -> dict:
    return {
        "id": pk,
        "name": NAMES[pk % len(NAMES)] + "-" + "x" * (pk % 40),
        "year": 1950 + (pk * 7 + year_shift) % 60,
    }


def _apply_changes(store) -> None:
    store.put_many([_record(pk) for pk in NEW])
    store.put_many([_record(pk, 13) for pk in UPDATED], on_conflict="replace")
    for pk in DELETED:
        store.delete(pk)


def _index(store) -> None:
    store.create_index("name", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    base = [_record(pk) for pk in range(BASE)]
    memory = RecordStore(SCHEMA)
    _index(memory)
    memory.put_many(base)
    _apply_changes(memory)

    paged = RecordStore(
        SCHEMA, directory=tmp_path_factory.mktemp("paged"), data_format="paged",
        pool_pages=4,
    )
    _index(paged)
    paged.put_many(base)
    paged.checkpoint()
    _apply_changes(paged)
    assert paged.is_paged and paged.overlay_size > 0

    sharded = ShardedStore(SCHEMA, shards=3)
    _index(sharded)
    sharded.put_many(base)
    _apply_changes(sharded)

    truth = {r["id"]: r for r in memory.scan()}
    sharded_engine = ShardedQueryEngine(sharded)
    yield {
        "memory": QueryEngine(memory),
        "paged": QueryEngine(paged),
        "sharded": sharded_engine,
    }, truth
    sharded_engine.close()
    for store in (memory, paged, sharded):
        store.close()


pk_literals = st.one_of(
    st.integers(min_value=-3, max_value=330),
    st.integers(min_value=-3, max_value=330).map(float),
    st.integers(min_value=0, max_value=330).map(lambda n: n + 0.5),
    st.booleans(),
    st.integers(min_value=0, max_value=330).map(str),
    st.just(10**12),
)
residuals = st.one_of(
    st.builds(Comparison, st.just("year"), st.sampled_from([Operator.GE, Operator.NE]),
              st.integers(min_value=1945, max_value=2015)),
    st.builds(Comparison, st.just("name"), st.just(Operator.MATCH),
              st.sampled_from([_record(pk)["name"] for pk in range(40)])),
)


@given(
    literal=pk_literals,
    op=st.sampled_from([Operator.EQ, Operator.MATCH]),
    residual=residuals,
    pk_first=st.booleans(),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pk_probe_matches_full_scan(engines, literal, op, residual, pk_first):
    by_format, truth = engines
    pk = Comparison("id", op, literal)
    query = Query(where=And(pk, residual) if pk_first else And(residual, pk))
    expected = sorted(pk for pk, r in truth.items() if query.matches(r))
    for name, engine in by_format.items():
        # The plan cache keys on the AST, so ``id = 1.0`` may reuse the
        # plan of ``id = 1``; both probe the same key.
        plan = engine.explain(query)
        assert "INDEX LOOKUP (hash) id = " in plan.splitlines()[0], (name, plan)
        got = engine.execute(query)
        assert sorted(r["id"] for r in got) == expected, (name, literal)
        assert all(query.matches(r) for r in got)
        if name != "sharded":
            scanned = engine.execute_without_indexes(query)
            assert sorted(r["id"] for r in scanned) == expected, (name, literal)


def test_overlay_and_tombstones_are_seen(engines):
    by_format, truth = engines
    for name, engine in by_format.items():
        assert engine.execute("id = 301") == [truth[301]], name  # overlay insert
        assert engine.execute("id = 7") == [truth[7]], name  # overlay replacement
        assert truth[7]["year"] != _record(7)["year"]
        assert engine.execute("id = 3") == [], name  # tombstone over the base
        assert engine.execute("id = 305") == [], name  # inserted, then deleted
