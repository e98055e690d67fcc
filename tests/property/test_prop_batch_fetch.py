"""Differential property tests for the batched, key-ordered record fetch.

Index-backed reads turn a list of primary keys into records with one
batched fetch; on the paged format it walks the tree once per batch
(:meth:`PagedBTree.get_many`) instead of descending once per key.  Two
oracles pin it down:

* ``get_many`` on a depth-3 tree must equal point gets for any ascending
  batch — absent keys, keys below the minimum and above the maximum, and
  the empty batch included;
* on a paged store with a live overlay and tombstones, ``find_by`` and
  ``range_by`` must return what the memory format returns, order
  included, and the engine must agree with ``execute_without_indexes``.

The list-field index holds records that carry one value twice, so a range
over that value returns the record twice: as two distinct dicts.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.query import QueryEngine
from repro.resilience import Guard
from repro.storage import IndexKind, RecordStore
from repro.storage.paged_btree import PagedBTree
from repro.storage.schema import Field, FieldType, Schema

# -- the tree --------------------------------------------------------------


def _tree_key(i: int) -> str:
    return f"{i:05d}" + "." * 300  # long keys: a small fan-out, a deep tree


TREE_KEYS = range(10, 1210, 2)  # odd keys, keys < 10 and keys > 1208 are absent


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    path = tmp_path_factory.mktemp("tree") / "t.pages"
    items = ((_tree_key(i), b"value-%d" % i) for i in TREE_KEYS)
    with PagedBTree.bulk_build(path, items, pool_pages=8) as tree:
        tree.flush()
        assert tree.verify()["depth"] == 3
        yield tree


@given(st.lists(st.integers(min_value=0, max_value=1300), max_size=150))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_get_many_matches_point_gets(tree, picks):
    keys = sorted({_tree_key(i) for i in picks})
    expected = [(k, tree.get(k)) for k in keys if k in tree]
    assert list(tree.get_many(keys)) == expected


# -- the stores --------------------------------------------------------------

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("year", FieldType.INT),
        Field("tags", FieldType.STRING_LIST),
    ],
    primary_key="id",
)
TAGS = "abcdefgh"
BASE = 400  # checkpointed into the pages file
NEW = range(400, 430)  # overlay inserts
UPDATED = range(0, 400, 9)  # overlay replacements of base records
DELETED = [*range(5, 400, 13), 411]  # tombstones, plus one overlay delete


def _record(pk: int, shift: int = 0) -> dict:
    # pk % 4 == 0 gives the same tag twice: ["a", "a"], ["e", "e"], ...
    return {
        "id": pk,
        "year": 1950 + (pk * 7 + shift) % 60,
        "tags": [TAGS[(pk + shift) % 8], TAGS[(pk * 3 + shift) % 8]],
    }


def _fill(store: RecordStore, *, checkpoint: bool) -> None:
    store.create_index("year", IndexKind.BTREE)
    store.create_index("tags", IndexKind.BTREE)
    store.put_many([_record(pk) for pk in range(BASE)])
    if checkpoint:
        store.checkpoint()
    store.put_many([_record(pk) for pk in NEW])
    store.put_many([_record(pk, 3) for pk in UPDATED], on_conflict="replace")
    for pk in DELETED:
        store.delete(pk)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    memory = RecordStore(SCHEMA)
    _fill(memory, checkpoint=False)
    paged = RecordStore(
        SCHEMA,
        directory=tmp_path_factory.mktemp("paged"),
        data_format="paged",
        pool_pages=4,
    )
    _fill(paged, checkpoint=True)
    assert paged.is_paged and paged.overlay_size > 0
    yield memory, paged
    memory.close()
    paged.close()


def _distinct_objects(rows: list[dict]) -> bool:
    return len({id(row) for row in rows}) == len(rows)


bounds = st.one_of(st.none(), st.integers(min_value=1945, max_value=2015))
tag_bounds = st.one_of(st.none(), st.sampled_from(TAGS + "z"))


@given(low=bounds, high=bounds, include_low=st.booleans(), include_high=st.booleans())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_year_ranges_match_memory_and_scan(stores, low, high, include_low, include_high):
    memory, paged = stores
    kwargs = dict(include_low=include_low, include_high=include_high)
    expected = memory.range_by("year", low, high, **kwargs)
    assert paged.range_by("year", low, high, **kwargs) == expected
    guard = Guard()
    assert paged.range_by("year", low, high, guard=guard, **kwargs) == expected
    assert guard.rows_examined == len(expected)

    conds = []
    if low is not None:
        conds.append(f"year {'>=' if include_low else '>'} {low}")
    if high is not None:
        conds.append(f"year {'<=' if include_high else '<'} {high}")
    if conds:
        query = " AND ".join(conds) + " ORDER BY id"
        engine = QueryEngine(paged)
        assert engine.execute(query) == engine.execute_without_indexes(query)


@given(low=tag_bounds, high=tag_bounds, include_low=st.booleans(), include_high=st.booleans())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_list_field_ranges_match_memory(stores, low, high, include_low, include_high):
    memory, paged = stores
    kwargs = dict(include_low=include_low, include_high=include_high)
    expected = memory.range_by("tags", low, high, **kwargs)
    got = paged.range_by("tags", low, high, **kwargs)
    assert got == expected
    assert _distinct_objects(got)


@given(field=st.sampled_from(["year", "tags", "id"]), value=st.integers(min_value=-5, max_value=2015))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_find_by_matches_memory_and_scan(stores, field, value):
    memory, paged = stores
    if field == "tags":
        value = TAGS[value % 8] if value % 9 else "z"  # "z" is never stored
    expected = memory.find_by(field, value)
    assert paged.find_by(field, value) == expected
    literal = f'"{value}"' if isinstance(value, str) else value
    query = f"{field} = {literal} ORDER BY id"
    engine = QueryEngine(paged)
    assert engine.execute(query) == engine.execute_without_indexes(query)
    assert sorted(r["id"] for r in expected) == [r["id"] for r in engine.execute(query)]


def test_a_value_held_twice_yields_two_distinct_dicts(stores):
    memory, paged = stores
    for store in (memory, paged):
        rows = store.range_by("tags", "a", "a")
        pk = next(r["id"] for r in rows if r["tags"] == ["a", "a"])
        first, second = [r for r in rows if r["id"] == pk]
        assert first == second and first is not second
        assert _distinct_objects(rows)
        # An equality probe keeps first hits only.
        pks = [r["id"] for r in store.find_by("tags", "a")]
        assert len(pks) == len(set(pks))
