"""Property-based planner/scan equivalence over random data and queries."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.slowlog import SlowQueryLog
from repro.query.ast_nodes import And, Comparison, Not, Operator, Or, Query
from repro.query.executor import QueryEngine
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.store import IndexKind, RecordStore

_SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("name", FieldType.STRING),
        Field("year", FieldType.INT),
        Field("tags", FieldType.STRING_LIST, required=False),
    ],
    primary_key="id",
)

_NAMES = ["smith", "jones", "li", "garcia", "chen"]
_TAGS = ["coal", "tax", "tort", "labor"]

rows = st.lists(
    st.tuples(
        st.sampled_from(_NAMES),
        st.integers(min_value=1960, max_value=2000),
        st.lists(st.sampled_from(_TAGS), max_size=3),
    ),
    max_size=40,
)


@st.composite
def expressions(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        field = draw(st.sampled_from(["name", "year", "tags"]))
        if field == "name":
            op = draw(st.sampled_from([Operator.EQ, Operator.NE, Operator.MATCH]))
            value = draw(st.sampled_from(_NAMES + ["nobody"]))
        elif field == "year":
            op = draw(st.sampled_from(list(Operator)))
            value = draw(st.integers(min_value=1955, max_value=2005))
        else:
            op = draw(st.sampled_from([Operator.MATCH, Operator.EQ]))
            value = draw(st.sampled_from(_TAGS + ["missing"]))
        return Comparison(field, op, value)
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(expressions(depth=depth + 1)))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return And(left, right) if kind == "and" else Or(left, right)


@st.composite
def queries(draw):
    return Query(
        where=draw(st.one_of(st.none(), expressions())),
        order_by=draw(st.sampled_from([None, "year", "name", "id"])),
        descending=draw(st.booleans()),
        limit=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=10))),
    )


def _build_engines(data):
    indexed = RecordStore(_SCHEMA)
    for i, (name, year, tags) in enumerate(data):
        indexed.insert({"id": i, "name": name, "year": year, "tags": tags})
    indexed.create_index("name", IndexKind.HASH)
    indexed.create_index("year", IndexKind.BTREE)
    indexed.create_index("tags", IndexKind.BTREE)
    return QueryEngine(indexed)


@given(rows, queries())
@settings(max_examples=150, deadline=None)
@example(
    # Duplicate ORDER BY keys cut by a LIMIT: ties must keep one order.
    [("li", 1970, []), ("chen", 1970, ["tax"]), ("li", 1980, []), ("li", 1970, ["tax"])],
    Query(where=None, order_by="name", descending=True, limit=2),
)
@example(
    [("li", 1970, []), ("chen", 1970, []), ("li", 1970, ["tax"]), ("smith", 1990, [])],
    Query(where=Comparison("year", Operator.GE, 1970), order_by="year", limit=2),
)
def test_planned_execution_equals_full_scan(data, query):
    engine = _build_engines(data)
    planned = engine.execute(query)
    # Plain, profiled and slow-logged runs share one operator chain: the
    # same rows in the same order, ties included.
    assert engine.execute(query, profile=True).rows == planned
    slow_log = SlowQueryLog(threshold_s=0.0)
    logged = QueryEngine(engine.store, slow_log=slow_log).execute(query)
    assert logged == planned
    (entry,) = slow_log.entries()
    assert entry["profile"]["tree"]["rows_returned"] == len(planned)
    scanned = engine.execute_without_indexes(query)
    if query.limit is None:
        assert sorted(r["id"] for r in planned) == sorted(r["id"] for r in scanned)
    else:
        # With LIMIT the specific rows may differ (ties), but the count
        # must agree and every planned row must satisfy the filter.
        assert len(planned) == len(scanned)
        for row in planned:
            assert query.matches(row)


@given(rows, queries())
@settings(max_examples=80, deadline=None)
def test_all_results_match_predicate(data, query):
    engine = _build_engines(data)
    for row in engine.execute(query):
        assert query.matches(row)


@given(rows, queries())
@settings(max_examples=80, deadline=None)
def test_order_by_respected(data, query):
    engine = _build_engines(data)
    rows_out = engine.execute(query)
    if query.order_by in ("year", "id"):
        values = [r[query.order_by] for r in rows_out]
        assert values == sorted(values, reverse=query.descending)


@given(rows, queries())
@settings(max_examples=60, deadline=None)
def test_limit_respected(data, query):
    engine = _build_engines(data)
    rows_out = engine.execute(query)
    if query.limit is not None:
        assert len(rows_out) <= query.limit
