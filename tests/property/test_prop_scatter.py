"""Property tests: partial-aggregate combine and scatter-gather merges.

Two layers of the same claim — decomposing work over shards never changes
the answer:

* :class:`PartialAggregate` folded over *any* partitioning of the values,
  merged in *any* order, finalizes identically to a single whole-list fold
  (int values keep sums exact, so equality is strict).
* A :class:`ShardedQueryEngine` over a hypothesis-chosen shard count
  returns byte-identical sorted scans and aggregates to the 1-shard case,
  which is itself checked against a plain-Python ground truth.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import PartialAggregate, ShardedQueryEngine
from repro.storage import ShardedStore
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("year", FieldType.INT),
        Field("volume", FieldType.INT),
    ],
    primary_key="id",
)

values = st.lists(st.integers(min_value=-(10**9), max_value=10**9), max_size=60)
# A partitioning is expressed as a bucket index per value.
bucket_picks = st.lists(st.integers(min_value=0, max_value=7), max_size=60)


def _fold(vals) -> PartialAggregate:
    partial = PartialAggregate()
    for v in vals:
        partial.add(v)
    return partial


@given(values=values, picks=bucket_picks, merge_order=st.randoms())
@settings(max_examples=200)
def test_partial_aggregate_partition_invariant(values, picks, merge_order):
    buckets: list[list[int]] = [[] for _ in range(8)]
    for i, v in enumerate(values):
        buckets[picks[i % len(picks)] if picks else 0].append(v)
    partials = [_fold(b) for b in buckets]
    merge_order.shuffle(partials)
    merged = PartialAggregate()
    for partial in partials:
        merged.merge(partial)
    assert merged.finalize() == _fold(values).finalize()


@given(values=st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=40))
@settings(max_examples=100)
def test_partial_aggregate_ground_truth(values):
    result = _fold(values).finalize()
    assert result == {
        "count": len(values),
        "sum": sum(values),
        "min": min(values),
        "max": max(values),
        "avg": sum(values) / len(values),
    }


records_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1900, max_value=1940),  # year
        st.integers(min_value=0, max_value=5),  # volume
    ),
    max_size=50,
)


@given(rows=records_strategy, shards=st.integers(min_value=2, max_value=8))
@settings(max_examples=50, deadline=None)
def test_scatter_gather_matches_single_shard(rows, shards):
    records = [
        {"id": i, "year": year, "volume": volume}
        for i, (year, volume) in enumerate(rows)
    ]
    engines = []
    try:
        for n in (1, shards):
            store = ShardedStore(SCHEMA, shards=n)
            store.put_many(records)
            engines.append(ShardedQueryEngine(store))
        one, many = engines
        for query in (
            "* ORDER BY year",
            "* ORDER BY year DESC LIMIT 7",
            "* GROUP BY volume",
            "year >= 1920 ORDER BY volume",
        ):
            assert many.execute(query) == one.execute(query), query
            assert many.execute(query, profile=True).rows == many.execute(query), query
        if records:
            agg = many.aggregate("*", "year")
            years = [r["year"] for r in records]
            assert agg == {
                "count": len(years),
                "sum": sum(years),
                "min": min(years),
                "max": max(years),
                "avg": sum(years) / len(years),
            }
    finally:
        for engine in engines:
            engine.close()
            engine.store.close()
