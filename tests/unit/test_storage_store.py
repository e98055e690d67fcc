"""Unit tests for repro.storage.store — CRUD, indexes, durability."""

import json

import pytest

from repro.errors import (
    DuplicateKeyError,
    RecordNotFoundError,
    StorageError,
    ValidationError,
)
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.store import IndexKind, RecordStore


def _record(i: int, name: str = "x", year: int = 1990, **extra) -> dict:
    return {"id": i, "name": name, "year": year, **extra}


class TestCrud:
    def test_insert_get(self, memory_store):
        memory_store.insert(_record(1, "a"))
        assert memory_store.get(1)["name"] == "a"

    def test_get_returns_copy(self, memory_store):
        memory_store.insert(_record(1))
        copy = memory_store.get(1)
        copy["name"] = "mutated"
        assert memory_store.get(1)["name"] == "x"

    def test_insert_duplicate(self, memory_store):
        memory_store.insert(_record(1))
        with pytest.raises(DuplicateKeyError):
            memory_store.insert(_record(1))

    def test_insert_validates(self, memory_store):
        with pytest.raises(ValidationError):
            memory_store.insert({"id": 1, "name": 5, "year": 1990})

    def test_insert_unknown_field(self, memory_store):
        with pytest.raises(ValidationError):
            memory_store.insert(_record(1, bogus="y"))

    def test_get_missing(self, memory_store):
        with pytest.raises(RecordNotFoundError):
            memory_store.get(404)

    def test_delete(self, memory_store):
        memory_store.insert(_record(1))
        memory_store.delete(1)
        assert 1 not in memory_store
        with pytest.raises(RecordNotFoundError):
            memory_store.delete(1)

    def test_upsert_insert_path(self, memory_store):
        assert memory_store.upsert(_record(1)) is False
        assert len(memory_store) == 1

    def test_upsert_replace_path(self, memory_store):
        memory_store.insert(_record(1, "a"))
        assert memory_store.upsert(_record(1, "b")) is True
        assert memory_store.get(1)["name"] == "b"
        assert len(memory_store) == 1

    def test_update(self, memory_store):
        memory_store.insert(_record(1, "a", 1990))
        updated = memory_store.update(1, {"name": "b"})
        assert updated["name"] == "b"
        assert memory_store.get(1)["year"] == 1990

    def test_update_cannot_change_pk(self, memory_store):
        memory_store.insert(_record(1))
        with pytest.raises(ValidationError):
            memory_store.update(1, {"id": 2})

    def test_scan(self, memory_store):
        for i in range(5):
            memory_store.insert(_record(i, year=1990 + i))
        assert len(list(memory_store.scan())) == 5
        filtered = list(memory_store.scan(lambda r: r["year"] >= 1993))
        assert [r["id"] for r in filtered] == [3, 4]

    def test_keys_insertion_order(self, memory_store):
        for i in (3, 1, 2):
            memory_store.insert(_record(i))
        assert list(memory_store.keys()) == [3, 1, 2]


class TestIndexes:
    def test_create_index_unknown_field(self, memory_store):
        with pytest.raises(ValidationError):
            memory_store.create_index("bogus")

    def test_index_built_over_existing_data(self, memory_store):
        memory_store.insert(_record(1, "a"))
        memory_store.insert(_record(2, "b"))
        memory_store.create_index("name", IndexKind.HASH)
        assert [r["id"] for r in memory_store.find_by("name", "a")] == [1]

    def test_index_maintained_on_write(self, memory_store):
        memory_store.create_index("name", IndexKind.HASH)
        memory_store.insert(_record(1, "a"))
        memory_store.insert(_record(2, "a"))
        memory_store.delete(1)
        assert [r["id"] for r in memory_store.find_by("name", "a")] == [2]

    def test_index_maintained_on_update(self, memory_store):
        memory_store.create_index("name", IndexKind.HASH)
        memory_store.insert(_record(1, "a"))
        memory_store.update(1, {"name": "b"})
        assert memory_store.find_by("name", "a") == []
        assert [r["id"] for r in memory_store.find_by("name", "b")] == [1]

    def test_redeclare_same_kind_noop(self, memory_store):
        memory_store.create_index("name", IndexKind.HASH)
        memory_store.create_index("name", IndexKind.HASH)
        assert memory_store.index_kind("name") is IndexKind.HASH

    def test_redeclare_different_kind_errors(self, memory_store):
        memory_store.create_index("name", IndexKind.HASH)
        with pytest.raises(StorageError):
            memory_store.create_index("name", IndexKind.BTREE)

    def test_drop_index(self, memory_store):
        memory_store.create_index("name")
        memory_store.drop_index("name")
        assert not memory_store.has_index("name")
        with pytest.raises(StorageError):
            memory_store.drop_index("name")

    def test_find_by_without_index_scans(self, memory_store):
        memory_store.insert(_record(1, "a"))
        assert [r["id"] for r in memory_store.find_by("name", "a")] == [1]

    def test_list_field_indexes_every_element(self, memory_store):
        memory_store.create_index("tags", IndexKind.HASH)
        memory_store.insert(_record(1, tags=["coal", "tax"]))
        memory_store.insert(_record(2, tags=["coal"]))
        assert [r["id"] for r in memory_store.find_by("tags", "coal")] == [1, 2]
        assert [r["id"] for r in memory_store.find_by("tags", "tax")] == [1]

    def test_list_field_duplicate_elements_deduped(self, memory_store):
        memory_store.create_index("tags", IndexKind.HASH)
        memory_store.insert(_record(1, tags=["coal", "coal"]))
        assert [r["id"] for r in memory_store.find_by("tags", "coal")] == [1]

    def test_range_by_btree(self, memory_store):
        memory_store.create_index("year", IndexKind.BTREE)
        for i, year in enumerate([1970, 1985, 1990, 1993]):
            memory_store.insert(_record(i, year=year))
        got = [r["year"] for r in memory_store.range_by("year", 1980, 1991)]
        assert got == [1985, 1990]

    def test_range_by_exclusive(self, memory_store):
        memory_store.create_index("year", IndexKind.BTREE)
        for i, year in enumerate([1980, 1985, 1990]):
            memory_store.insert(_record(i, year=year))
        got = [r["year"] for r in memory_store.range_by(
            "year", 1980, 1990, include_low=False, include_high=False)]
        assert got == [1985]

    def test_range_by_without_index_scans_sorted(self, memory_store):
        for i, year in enumerate([1990, 1970, 1985]):
            memory_store.insert(_record(i, year=year))
        got = [r["year"] for r in memory_store.range_by("year", 1971, None)]
        assert got == [1985, 1990]

    def test_range_by_hash_index_falls_back_to_scan(self, memory_store):
        memory_store.create_index("year", IndexKind.HASH)
        for i, year in enumerate([1990, 1970]):
            memory_store.insert(_record(i, year=year))
        got = [r["year"] for r in memory_store.range_by("year", None, None)]
        assert got == [1970, 1990]

    def test_indexed_fields(self, memory_store):
        memory_store.create_index("name", IndexKind.HASH)
        memory_store.create_index("year", IndexKind.BTREE)
        assert set(memory_store.indexed_fields) == {"name", "year"}

    def test_primary_key_is_an_implicit_unique_index(self, memory_store):
        for i in range(3):
            memory_store.insert(_record(i))
        assert memory_store.index_kind("id") is IndexKind.HASH
        assert memory_store.index_statistics("id") == {"distinct_keys": 3, "entries": 3}
        assert [r["id"] for r in memory_store.find_by("id", 1)] == [1]
        assert [r["id"] for r in memory_store.find_by("id", 1.0)] == [1]
        assert memory_store.find_by("id", "1") == []
        assert memory_store.find_by("id", [1]) == []  # unhashable: no match
        assert memory_store.find_by("id", 9) == []
        # Not a declared index: nothing to build, drop, or persist.
        assert not memory_store.has_index("id")
        assert "id" not in memory_store.indexed_fields

    def test_declared_primary_key_index_takes_precedence(self, memory_store):
        memory_store.insert(_record(1))
        memory_store.create_index("id", IndexKind.BTREE)
        assert memory_store.index_kind("id") is IndexKind.BTREE
        assert [r["id"] for r in memory_store.range_by("id", 0, 5)] == [1]

    def test_close_releases_built_index_structures(self, simple_schema, tmp_path):
        store = RecordStore(simple_schema, tmp_path / "db")
        store.create_index("name", IndexKind.HASH)
        store.create_index("year", IndexKind.BTREE)
        store.insert(_record(1, "a", 1990))
        assert all(index.structure is not None for index in store._indexes.values())
        store.close()
        assert all(index.structure is None for index in store._indexes.values())
        assert store.index_kind("name") is IndexKind.HASH  # still declared
        with RecordStore(simple_schema, tmp_path / "db") as reopened:
            assert [r["id"] for r in reopened.find_by("name", "a")] == [1]


class TestDurability:
    def test_recover_from_wal(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "db") as store:
            store.insert(_record(1, "a"))
            store.insert(_record(2, "b"))
            store.delete(1)
        with RecordStore(simple_schema, tmp_path / "db") as reopened:
            assert len(reopened) == 1
            assert reopened.get(2)["name"] == "b"
            assert 1 not in reopened

    def test_snapshot_and_truncate(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "db") as store:
            for i in range(10):
                store.insert(_record(i))
            store.snapshot()
            assert store._wal.size_bytes == 0
            store.insert(_record(100))
        with RecordStore(simple_schema, tmp_path / "db") as reopened:
            assert len(reopened) == 11
            assert 100 in reopened

    def test_snapshot_preserves_indexes(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "db") as store:
            store.create_index("name", IndexKind.HASH)
            store.insert(_record(1, "a"))
            store.snapshot()
        with RecordStore(simple_schema, tmp_path / "db") as reopened:
            assert reopened.index_kind("name") is IndexKind.HASH
            assert [r["id"] for r in reopened.find_by("name", "a")] == [1]

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            (lambda rs: rs[1].update(year="1990"), "year"),
            (lambda rs: rs[1].pop("name"), "name"),
            (lambda rs: rs[1].update(extra=1), "extra"),
            (lambda rs: rs.__setitem__(1, []), "id"),
        ],
        ids=["wrong-type", "missing-field", "unknown-field", "not-an-object"],
    )
    def test_snapshot_record_violating_schema_fails_reopen(
        self, simple_schema, tmp_path, corrupt, field
    ):
        # Recovery validates every snapshot record; a record that breaks
        # the schema must fail the open even when the manifest's record
        # count still agrees with the snapshot.
        with RecordStore(simple_schema, tmp_path / "db") as store:
            store.insert(_record(1))
            store.insert(_record(2))
            store.snapshot()
        snapshot = tmp_path / "db" / "snapshot.json"
        state = json.loads(snapshot.read_text(encoding="utf-8"))
        assert state["version"] == 2 and state["record_count"] == 2
        corrupt(state["records"])
        snapshot.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            RecordStore(simple_schema, tmp_path / "db")
        assert excinfo.value.field == field

    def test_in_memory_cannot_snapshot(self, memory_store):
        with pytest.raises(StorageError):
            memory_store.snapshot()

    def test_upsert_replay(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "db") as store:
            store.insert(_record(1, "a"))
            store.upsert(_record(1, "b"))
        with RecordStore(simple_schema, tmp_path / "db") as reopened:
            assert reopened.get(1)["name"] == "b"

    def test_torn_final_write_recovers_prefix(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "db") as store:
            store.insert(_record(1))
            store.insert(_record(2))
        wal_path = tmp_path / "db" / "store.wal"
        wal_path.write_bytes(wal_path.read_bytes() + b"W1 dead")
        with RecordStore(simple_schema, tmp_path / "db") as reopened:
            assert sorted(reopened.keys()) == [1, 2]

    def test_close_idempotent(self, simple_schema, tmp_path):
        store = RecordStore(simple_schema, tmp_path / "db")
        store.close()
        store.close()
