"""Unit tests for repro.storage.bufferpool.

The invariants under test are the ones the paged B+ tree leans on:

* at most ``capacity`` frames resident (unless every frame is pinned);
* a pinned frame is **never** evicted, whatever the access pattern;
* a dirty frame is written back before its slot is reused, so a reader
  that misses always sees the latest bytes;
* pin counts balance — every ``pin`` exit decrements, an extra unpin
  raises;
* a decoded node is cached on its frame and dropped whenever the
  frame's bytes change or the frame leaves the pool.
"""

import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.bufferpool import BufferPool
from repro.storage.pages import PAGE_SIZE, LeafNode, PageCorruptionError, PageFile


def _make_pager(tmp_path, pages: int, name: str = "pool.pages") -> PageFile:
    """A page file whose page ``i`` holds key ``i`` (self-describing)."""
    pager = PageFile(tmp_path / name, create=True)
    for _ in range(pages):
        pid = pager.allocate()
        pager.write_page(pid, LeafNode(keys=[pid], values=[b"v"]).pack())
    pager.write_meta()
    return pager


class TestLRU:
    def test_capacity_bound_and_lru_order(self, tmp_path):
        pager = _make_pager(tmp_path, 10)
        pool = BufferPool(pager, capacity=3)
        for pid in (1, 2, 3, 4):
            with pool.pin(pid):
                pass
        assert len(pool) == 3
        assert pool.resident() == [2, 3, 4]  # 1 was LRU, evicted
        with pool.pin(2):  # touch 2: now 3 is LRU
            pass
        with pool.pin(5):
            pass
        assert pool.resident() == [4, 2, 5]

    def test_hit_does_not_reread(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        with pool.pin(1) as first:
            pass
        reads = []
        original = pager.read_page
        pager.read_page = lambda pid: reads.append(pid) or original(pid)
        with pool.pin(1) as again:
            assert again == first
        assert reads == []

    def test_capacity_validation(self, tmp_path):
        pager = _make_pager(tmp_path, 1)
        with pytest.raises(StorageError):
            BufferPool(pager, capacity=0)


class TestPinning:
    def test_pinned_frame_never_evicted(self, tmp_path):
        pager = _make_pager(tmp_path, 10)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1):
            for pid in (2, 3, 4, 5):
                with pool.pin(pid):
                    pass
            assert 1 in pool.resident()
            assert pool.pin_count(1) == 1
        assert pool.pin_count(1) == 0

    def test_all_pinned_overflows_rather_than_evicts(self, tmp_path):
        pager = _make_pager(tmp_path, 5)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1), pool.pin(2), pool.pin(3):
            # over capacity, but every frame has a live reader
            assert len(pool) == 3
        with pool.pin(4):
            pass
        assert len(pool) <= 2  # shrinks back once pins drop

    def test_unbalanced_unpin_raises(self, tmp_path):
        pager = _make_pager(tmp_path, 2)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1):
            pass
        with pytest.raises(StorageError):
            pool._release(1)

    def test_free_pinned_page_rejected(self, tmp_path):
        pager = _make_pager(tmp_path, 2)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1):
            with pytest.raises(StorageError):
                pool.free_page(1)
            assert 1 in pool.resident()  # refused, still resident


class TestDirtyWriteBack:
    def test_eviction_writes_back_dirty_frame(self, tmp_path):
        pager = _make_pager(tmp_path, 5)
        pool = BufferPool(pager, capacity=2)
        pool.put_page(1, LeafNode(keys=[100], values=[b"new"]).pack())
        assert pool.is_dirty(1)
        for pid in (2, 3, 4):  # push page 1 out
            with pool.pin(pid):
                pass
        assert 1 not in pool.resident()
        # a fresh miss must see the written-back bytes
        with pool.pin(1) as raw:
            assert LeafNode.unpack(raw).keys == [100]

    def test_flush_cleans_without_evicting(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        pool.put_page(2, LeafNode(keys=[7], values=[b"x"]).pack())
        pool.flush()
        assert not pool.is_dirty(2)
        assert 2 in pool.resident()
        assert LeafNode.unpack(pager.read_page(2)).keys == [7]

    def test_clear_with_pin_rejected(self, tmp_path):
        pager = _make_pager(tmp_path, 2)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1):
            with pytest.raises(StorageError):
                pool.clear()
        pool.clear()
        assert len(pool) == 0


class _CountingDecoder:
    """A ``decode`` callback for :meth:`BufferPool.node` that counts calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, page_id, raw):
        self.calls.append(page_id)
        return LeafNode.unpack(raw)


class TestNodeCache:
    def test_hit_does_not_decode(self, tmp_path):
        pool = BufferPool(_make_pager(tmp_path, 3), capacity=3)
        decode = _CountingDecoder()
        first = pool.node(1, decode)
        assert first.keys == [1]
        assert pool.node(1, decode) is first
        assert decode.calls == [1]
        assert pool.pin_count(1) == 0

    def test_put_page_drops_node(self, tmp_path):
        pool = BufferPool(_make_pager(tmp_path, 3), capacity=3)
        decode = _CountingDecoder()
        old = pool.node(1, decode)
        pool.put_page(1, LeafNode(keys=[100], values=[b"new"]).pack())
        assert pool.node(1, decode).keys == [100]
        assert old.keys == [1]  # a reader's node is never changed under it
        assert decode.calls == [1, 1]

    def test_free_page_drops_node(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        decode = _CountingDecoder()
        pool.node(2, decode)
        pool.free_page(2)
        assert 2 not in pool.resident()
        pool.put_page(pager.allocate(), LeafNode(keys=[9], values=[b"v"]).pack())
        assert pool.node(2, decode).keys == [9]  # the reused id decodes afresh
        assert decode.calls == [2, 2]

    def test_eviction_and_clear_drop_node(self, tmp_path):
        pool = BufferPool(_make_pager(tmp_path, 4), capacity=2)
        decode = _CountingDecoder()
        pool.node(1, decode)
        for pid in (2, 3):  # push page 1 out
            pool.node(pid, decode)
        assert 1 not in pool.resident()
        pool.node(1, decode)
        assert decode.calls == [1, 2, 3, 1]
        pool.clear()
        pool.node(1, decode)
        assert decode.calls == [1, 2, 3, 1, 1]

    def test_failed_decode_caches_nothing(self, tmp_path):
        pool = BufferPool(_make_pager(tmp_path, 2), capacity=2)

        def broken(page_id, raw):
            raise PageCorruptionError(page_id, "undecodable")

        with pytest.raises(PageCorruptionError):
            pool.node(1, broken)
        assert pool.pin_count(1) == 0
        decode = _CountingDecoder()
        assert pool.node(1, decode).keys == [1]
        assert decode.calls == [1]

    def test_corrupted_page_raises_on_next_miss(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=1)
        decode = _CountingDecoder()
        pool.node(1, decode)
        with open(pager.path, "r+b") as fh:  # flip one byte of page 1 on disk
            fh.seek(PAGE_SIZE + 100)
            byte = fh.read(1)
            fh.seek(PAGE_SIZE + 100)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert pool.node(1, decode).keys == [1]  # still cached: no disk read
        pool.node(2, decode)  # evicts page 1
        with pytest.raises(PageCorruptionError) as err:
            pool.node(1, decode)
        assert err.value.page_id == 1
        assert pool.pin_count(1) == 0


class TestPropertyInvariants:
    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_eviction_never_loses_data(self, accesses, capacity):
        with tempfile.TemporaryDirectory() as tmp:
            self._run(Path(tmp), accesses, capacity)

    @staticmethod
    def _run(tmp_path, accesses, capacity):
        pager = _make_pager(tmp_path, 12)
        try:
            pool = BufferPool(pager, capacity=capacity)
            for pid in accesses:
                with pool.pin(pid) as raw:
                    assert LeafNode.unpack(raw).keys == [pid]
                assert len(pool) <= capacity
                assert pool.pin_count(pid) == 0
        finally:
            pager.close()


class TestConcurrentReaders:
    def test_pin_counts_balance_under_contention(self, tmp_path):
        pager = _make_pager(tmp_path, 16)
        pool = BufferPool(pager, capacity=4)
        errors = []

        def reader(seed: int) -> None:
            try:
                for i in range(300):
                    pid = (seed * 7 + i) % 16 + 1
                    with pool.pin(pid) as raw:
                        if LeafNode.unpack(raw).keys != [pid]:
                            errors.append(f"page {pid} returned wrong bytes")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # quiescent: no pins left anywhere, pool back within capacity
        assert all(pool.pin_count(pid) == 0 for pid in pool.resident())
        assert len(pool) <= 4

    def test_node_cache_under_contention(self, tmp_path):
        """Readers racing on misses, hits and evictions always get the
        node of the page they asked for, and the pins balance."""
        pool = BufferPool(_make_pager(tmp_path, 16), capacity=4)
        errors = []

        def decode(page_id, raw):
            return LeafNode.unpack(raw)

        def reader(seed: int) -> None:
            try:
                for i in range(300):
                    pid = (seed * 7 + i) % 16 + 1
                    if pool.node(pid, decode).keys != [pid]:
                        errors.append(f"page {pid} returned the wrong node")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(pool.pin_count(pid) == 0 for pid in pool.resident())
        assert len(pool) <= 4
