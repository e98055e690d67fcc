"""Unit tests for repro.storage.paged_btree.

The tree is exercised against a plain ``dict`` model: after any sequence
of inserts, updates, and deletes, ``items()`` must equal the model's
sorted items — across splits, overflow chains, free-list reuse, and a
close/reopen cycle.  ``verify()`` (the deep structural check fsck runs)
must pass after every phase.  The buffer pool's decoded-node cache must
make repeat reads decode nothing, without letting a writer change a node
a reader still holds.
"""

import random

import pytest

from repro.errors import StorageError
from repro.storage.paged_btree import MAX_KEY_BYTES, PagedBTree
from repro.storage.pages import (
    OVERFLOW_CAPACITY,
    PAGE_SIZE,
    InternalNode,
    LeafNode,
    PageCorruptionError,
)


def _model_check(tree: PagedBTree, model: dict) -> None:
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    tree.verify()


class TestBasics:
    def test_empty_tree(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            assert len(tree) == 0
            assert tree.get(1) is None
            assert tree.get(1, b"dflt") == b"dflt"
            assert 1 not in tree
            assert list(tree.items()) == []
            tree.verify()

    def test_insert_get_update(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            tree.insert(2, b"two")
            tree.insert(1, b"one")
            assert tree.get(1) == b"one"
            assert len(tree) == 2
            tree.insert(1, b"uno")  # update in place
            assert tree.get(1) == b"uno"
            assert len(tree) == 2
            assert list(tree.keys()) == [1, 2]

    def test_delete(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            tree.insert(1, b"a")
            tree.delete(1)
            assert 1 not in tree
            assert len(tree) == 0
            with pytest.raises(KeyError):
                tree.delete(1)

    def test_oversized_key_rejected(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            with pytest.raises(StorageError):
                tree.insert("k" * (MAX_KEY_BYTES + 10), b"v")

    def test_mixed_key_types_round_trip(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree(path, create=True) as tree:
            tree.insert(("a", 1), b"tuple")
            tree.insert(("a", 2), b"tuple2")
            assert tree.get(("a", 1)) == b"tuple"
            assert [k for k, _ in tree.range_items(("a", 1), ("a", 2))] == [
                ("a", 1),
                ("a", 2),
            ]


class TestSplitsAndScale:
    def test_random_ops_match_dict_model(self, tmp_path):
        rng = random.Random(8)
        path = tmp_path / "t.pages"
        model: dict = {}
        with PagedBTree(path, create=True, pool_pages=16) as tree:
            for _ in range(3000):
                key = rng.randrange(600)
                op = rng.random()
                if op < 0.65 or key not in model:
                    value = f"value-{key}-{rng.randrange(10)}".encode() * rng.randrange(
                        1, 8
                    )
                    tree.insert(key, value)
                    model[key] = value
                else:
                    tree.delete(key)
                    del model[key]
            _model_check(tree, model)
            stats = tree.verify()
            assert stats["depth"] >= 2  # the workload forced splits
        # survives close/reopen byte-identically
        with PagedBTree(path, pool_pages=16) as tree:
            _model_check(tree, model)

    def test_range_items(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            for i in range(200):
                tree.insert(i, str(i).encode())
            inclusive = [k for k, _ in tree.range_items(10, 20)]
            assert inclusive == list(range(10, 21))
            exclusive = [k for k, _ in tree.range_items(10, 20, inclusive=False)]
            assert exclusive == list(range(10, 20))
            assert [k for k, _ in tree.range_items(150, None)] == list(range(150, 200))
            assert [k for k, _ in tree.range_items(None, 5)] == list(range(6))


class TestOverflow:
    def test_large_values_spill_and_round_trip(self, tmp_path):
        path = tmp_path / "t.pages"
        big = bytes(range(256)) * 64  # 16 KiB, several overflow pages
        with PagedBTree(path, create=True) as tree:
            tree.insert("big", big)
            tree.insert("small", b"s")
            assert tree.get("big") == big
            stats = tree.verify()
            assert stats["overflow_pages"] >= 4
        with PagedBTree(path) as tree:
            assert tree.get("big") == big

    def test_overflow_chain_freed_on_delete(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            tree.insert("big", b"x" * (OVERFLOW_CAPACITY * 3))
            occupied = tree.verify()["overflow_pages"]
            assert occupied >= 3
            tree.delete("big")
            stats = tree.verify()
            assert stats["overflow_pages"] == 0
            assert stats["free_pages"] >= occupied

    def test_update_replaces_overflow_chain(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            tree.insert("k", b"a" * (OVERFLOW_CAPACITY * 2))
            tree.insert("k", b"tiny")
            assert tree.get("k") == b"tiny"
            stats = tree.verify()
            assert stats["overflow_pages"] == 0
            assert stats["free_pages"] >= 2  # the old chain was reclaimed


class TestFreeList:
    def test_deleted_pages_are_reused(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True, pool_pages=16) as tree:
            for i in range(2000):
                tree.insert(i, f"v{i}".encode() * 4)
            for i in range(1500):
                tree.delete(i)
            tree.verify()
            before = tree._pager.meta.page_count
            for i in range(1000):
                tree.insert(i, f"w{i}".encode() * 4)
            grown = tree._pager.meta.page_count - before
            assert grown <= 5  # refill consumed the free list, not the file
            tree.verify()


class TestBulkBuild:
    def test_bulk_build_matches_inserts(self, tmp_path):
        items = [(i, f"value-{i}".encode()) for i in range(5000)]
        tree = PagedBTree.bulk_build(tmp_path / "bulk.pages", iter(items))
        try:
            assert len(tree) == 5000
            assert list(tree.items()) == items
            stats = tree.verify()
            assert stats["depth"] >= 2
            assert stats["free_pages"] == 0  # a fresh build wastes nothing
        finally:
            tree.close()

    def test_bulk_build_with_overflow_values(self, tmp_path):
        items = [(i, bytes([i % 256]) * 5000) for i in range(50)]
        tree = PagedBTree.bulk_build(tmp_path / "bulk.pages", iter(items))
        try:
            assert tree.get(7) == b"\x07" * 5000
            assert tree.verify()["overflow_pages"] >= 50
        finally:
            tree.close()

    def test_bulk_build_rejects_unsorted(self, tmp_path):
        with pytest.raises(StorageError):
            PagedBTree.bulk_build(
                tmp_path / "bulk.pages", iter([(2, b"b"), (1, b"a")])
            )

    def test_bulk_build_rejects_duplicates(self, tmp_path):
        with pytest.raises(StorageError):
            PagedBTree.bulk_build(
                tmp_path / "bulk.pages", iter([(1, b"a"), (1, b"b")])
            )

    def test_bulk_build_empty(self, tmp_path):
        tree = PagedBTree.bulk_build(tmp_path / "bulk.pages", iter([]))
        try:
            assert len(tree) == 0
            assert list(tree.items()) == []
            tree.verify()
        finally:
            tree.close()


class TestLifecycle:
    def test_read_only_open_never_writes(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree(path, create=True) as tree:
            for i in range(100):
                tree.insert(i, b"v")
        published = path.read_bytes()
        with PagedBTree(path) as tree:
            assert tree.get(50) == b"v"
            list(tree.items())
            tree.verify()
        assert path.read_bytes() == published  # byte-for-byte untouched

    def test_data_crc_survives_reopen(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree(path, create=True) as tree:
            tree.set_data_crc(0xCAFEBABE)
        with PagedBTree(path) as tree:
            assert tree.data_crc == 0xCAFEBABE

    def test_abandon_discards_unflushed_writes(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree(path, create=True) as tree:
            tree.insert(1, b"committed")
        tree = PagedBTree(path)
        tree.insert(2, b"doomed")
        tree.abandon()
        with PagedBTree(path) as tree:
            assert tree.get(1) == b"committed"
            assert tree.get(2) is None


@pytest.fixture
def unpack_calls(monkeypatch):
    """Count calls of ``LeafNode.unpack`` and ``InternalNode.unpack``."""
    calls = []
    for cls in (LeafNode, InternalNode):
        original = cls.__dict__["unpack"].__func__

        def counting(owner, page, original=original):
            calls.append(owner.__name__)
            return original(owner, page)

        monkeypatch.setattr(cls, "unpack", classmethod(counting))
    return calls


def _deep_tree(path, count=2000, **kwargs) -> PagedBTree:
    tree = PagedBTree.bulk_build(path, ((i, b"v%d" % i) for i in range(count)), **kwargs)
    tree.flush()
    return tree


class TestNodeCache:
    def test_repeat_get_decodes_nothing(self, tmp_path, unpack_calls):
        with _deep_tree(tmp_path / "t.pages") as tree:
            assert tree.get(1234) == b"v1234"
            assert "InternalNode" in unpack_calls and "LeafNode" in unpack_calls
            unpack_calls.clear()
            assert tree.get(1234) == b"v1234"
            assert 1234 in tree
            assert [k for k, _ in tree.range_items(1230, 1240)] == list(range(1230, 1241))
            assert unpack_calls == []

    def test_writes_drop_the_cached_node(self, tmp_path, unpack_calls):
        with _deep_tree(tmp_path / "t.pages") as tree:
            tree.get(50)
            tree.insert(50, b"changed")
            unpack_calls.clear()
            assert tree.get(50) == b"changed"
            assert unpack_calls == ["LeafNode"]  # the rewritten leaf only
            tree.delete(50)
            assert tree.get(50) is None

    def test_writer_never_changes_a_readers_node(self, tmp_path):
        def view(node):
            if isinstance(node, LeafNode):
                return list(node.keys), list(node.values), node.prev_leaf, node.next_leaf
            return list(node.keys), list(node.children)

        items = ((i, b"v" * 150) for i in range(600))  # ~25 keys per leaf
        with PagedBTree.bulk_build(tmp_path / "t.pages", items) as tree:

            def check(write):
                held = []  # what readers of these keys hold right now
                for key in range(0, 700, 10):  # every leaf
                    path, _pid, leaf = tree._descend(key)
                    held += [leaf] + [node for _, node, _ in path]
                before = [view(node) for node in held]
                write()
                assert [view(node) for node in held] == before

            check(lambda: tree.insert(250, b"replaced"))
            check(lambda: tree.delete(251))
            check(lambda: tree.insert(250.5, b"x" * 3000))  # overflow value
            for i in range(100):  # splits leaves, rewrites the root
                check(lambda i=i: tree.insert(400 + i / 100, b"y" * 150))
                check(lambda i=i: tree.insert(600 + i, b"y" * 150))
            for key in range(300):  # empties, unlinks and frees leaves
                if key != 251:
                    check(lambda key=key: tree.delete(key))
            tree.verify()

    def test_corrupted_page_raises_on_next_miss(self, tmp_path):
        path = tmp_path / "t.pages"
        _deep_tree(path).close()
        with PagedBTree(path, pool_pages=4) as tree:
            _path, leaf_pid, leaf = tree._descend(1000)
            assert tree.get(1000) == b"v1000"
            with open(path, "r+b") as fh:  # flip one byte of that leaf on disk
                fh.seek(leaf_pid * PAGE_SIZE + 200)
                byte = fh.read(1)
                fh.seek(leaf_pid * PAGE_SIZE + 200)
                fh.write(bytes([byte[0] ^ 0xFF]))
            assert tree.get(1000) == b"v1000"  # cached: the disk is not read
            for key in range(0, 2000, 100):  # cycle the pool to evict the leaf
                if key not in leaf.keys:
                    tree.get(key)
            assert leaf_pid not in tree.pool.resident()
            with pytest.raises(PageCorruptionError) as err:
                tree.get(1000)
            assert err.value.page_id == leaf_pid


@pytest.fixture
def node_reads(monkeypatch):
    """Count ``BufferPool.node`` calls: every node read, hit or miss."""
    from repro.storage.bufferpool import BufferPool

    calls = []
    original = BufferPool.node

    def counting(self, page_id, decode):
        calls.append(page_id)
        return original(self, page_id, decode)

    monkeypatch.setattr(BufferPool, "node", counting)
    return calls


def _wide_key(i: int) -> str:
    # Long keys keep the fan-out small (about a dozen children per
    # internal node), so batches of a few hundred keys cross
    # internal-node boundaries.
    return f"{i:06d}" + "k" * 300


class TestGetMany:
    @pytest.fixture
    def tree(self, tmp_path):
        items = ((_wide_key(i), b"v%d" % i) for i in range(0, 4000, 2))
        with PagedBTree.bulk_build(tmp_path / "t.pages", items) as tree:
            tree.flush()
            assert tree.verify()["depth"] == 3
            yield tree

    def test_matches_point_gets(self, tree):
        rng = random.Random(7)
        for size in (0, 1, 5, 50, 500):
            keys = sorted({_wide_key(rng.randrange(-10, 4100)) for _ in range(size)})
            expected = [(k, tree.get(k)) for k in keys if k in tree]
            assert list(tree.get_many(keys)) == expected

    def test_keys_must_ascend(self, tree):
        with pytest.raises(StorageError):
            list(tree.get_many([_wide_key(10), _wide_key(4)]))

    @staticmethod
    def _path_nodes(tree, keys):
        """Page ids of every node on the keys' root-to-leaf paths."""
        nodes = set()
        for key in keys:
            path, leaf_pid, _leaf = tree._descend(key)
            nodes.update(pid for pid, _node, _idx in path)
            nodes.add(leaf_pid)
        return nodes

    def test_reads_each_path_node_once(self, tree, node_reads):
        rng = random.Random(5)
        batches = [range(lo, hi) for lo, hi in ((0, 40), (100, 900), (1000, 3998), (3990, 4200))]
        batches += [rng.sample(range(-10, 4100), size) for size in (1, 3, 20, 200, 1000)]
        for batch in batches:
            keys = sorted({_wide_key(i) for i in batch})
            nodes = self._path_nodes(tree, keys)
            node_reads.clear()
            list(tree.get_many(keys))
            assert sorted(node_reads) == sorted(nodes)

    def test_consecutive_keys_under_one_parent(self, tree, node_reads):
        depth = tree.verify()["depth"]
        keys = [_wide_key(i) for i in range(0, 120)]
        parents = {tree._descend(k)[0][-1][0] for k in keys}
        leaves = {tree._descend(k)[1] for k in keys}
        assert len(parents) == 1 and len(leaves) > 3
        node_reads.clear()
        assert len(list(tree.get_many(keys))) == 60
        assert len(node_reads) == len(leaves) + depth - 1

    def test_scattered_keys_never_read_more_than_point_gets(self, tree, node_reads):
        rng = random.Random(11)
        for size in (1, 3, 20, 200, 1000):
            keys = sorted({_wide_key(rng.randrange(-10, 4100)) for _ in range(size)})
            node_reads.clear()
            list(tree.get_many(keys))
            batched = list(node_reads)
            node_reads.clear()
            for key in keys:
                tree.get(key)
            assert len(batched) <= len(node_reads), size
            assert set(batched) == set(node_reads)  # no page a point get skips

    def test_corrupted_page_raises_on_next_miss(self, tmp_path):
        path = tmp_path / "t.pages"
        _deep_tree(path).close()
        with PagedBTree(path, pool_pages=4) as tree:
            _path, leaf_pid, leaf = tree._descend(1000)
            keys = list(range(900, 1100))
            assert list(tree.get_many(keys)) == [(k, b"v%d" % k) for k in keys]
            with open(path, "r+b") as fh:  # flip one byte of that leaf on disk
                fh.seek(leaf_pid * PAGE_SIZE + 200)
                byte = fh.read(1)
                fh.seek(leaf_pid * PAGE_SIZE + 200)
                fh.write(bytes([byte[0] ^ 0xFF]))
            for key in range(0, 2000, 100):  # cycle the pool to evict the leaf
                if key not in leaf.keys:
                    tree.get(key)
            assert leaf_pid not in tree.pool.resident()
            with pytest.raises(PageCorruptionError) as err:
                list(tree.get_many(keys))
            assert err.value.page_id == leaf_pid
