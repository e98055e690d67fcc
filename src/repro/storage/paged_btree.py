"""A B+ tree stored in fixed-size pages, cached by an LRU buffer pool.

This is the on-disk counterpart of :class:`repro.storage.btree.BTree`:
same sorted-map contract (point get, ordered iteration, range scans),
plus :meth:`PagedBTree.get_many`, which reads a sorted batch of keys
in one walk.  The data lives in a :class:`~repro.storage.pages.PageFile`
and only the working set is resident — at most ``pool_pages`` pages at
a time, via the :class:`~repro.storage.bufferpool.BufferPool`.  Opening
a million-record tree touches two pages (meta + root); everything else
is read through on demand.

Values are opaque byte strings (the store layer keeps canonical
per-record JSON there).  Values larger than
:data:`~repro.storage.pages.OVERFLOW_THRESHOLD` spill to overflow-page
chains so leaves always hold many cells.  Keys follow the
:func:`~repro.storage.pages.pack_key` codec (int/str/float/bool and
tuples thereof) and must pack to at most :data:`MAX_KEY_BYTES`.

Concurrency contract: any number of readers OR one writer — the store
layer's lock already enforces this; the tree adds no locking of its own
beyond the buffer pool's internal consistency.

Decoded nodes are cached by the buffer pool next to their page bytes,
so a pool hit does no decoding.  Readers share the cached node; a
writer copies a node (:meth:`LeafNode.copy` / :meth:`InternalNode.copy`)
before changing it and installs the new bytes with ``put_page``, which
drops the cached node, so no reader ever sees a node mid-change.

Typical lifecycle::

    # Checkpoint: stream sorted records into a fresh page file.
    tree = PagedBTree.bulk_build(path, sorted_pairs, fs=fs)
    tree.set_data_crc(crc)
    tree.flush()

    # Recovery: open read-through in O(1).
    tree = PagedBTree(path, fs=fs, pool_pages=256)
    value = tree.get("wvlr-001")
"""

from __future__ import annotations

import bisect
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import StorageError
from repro.obs import metrics as _metrics
from repro.storage import faultfs as _faultfs
from repro.storage.bufferpool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.pages import (
    HEADER,
    HEADER_SIZE,
    OVERFLOW_CAPACITY,
    OVERFLOW_THRESHOLD,
    PAGE_SIZE,
    PT_FREE,
    PT_INTERNAL,
    PT_LEAF,
    PT_META,
    PT_OVERFLOW,
    InternalNode,
    LeafNode,
    OverflowRef,
    PageCorruptionError,
    PageFile,
    finalize_page,
    pack_key,
    page_type,
)

#: Largest packed key accepted.  Bounding the key guarantees a split
#: half always fits in one page, so splits can never cascade into an
#: unsplittable node.
MAX_KEY_BYTES = 1024

_SEARCHES = _metrics.counter("storage.paged_btree.searches")
_SPLITS = _metrics.counter("storage.paged_btree.node_splits")
_BULK_LOADS = _metrics.counter("storage.paged_btree.bulk_loads")
_DEPTH = _metrics.gauge("storage.paged_btree.depth")

_NO_KEY = object()


def _decode_node(page_id: int, raw: bytes) -> LeafNode | InternalNode:
    """Decode a node page (the buffer pool calls this on a cache miss)."""
    ptype = page_type(raw)
    if ptype == PT_LEAF:
        return LeafNode.unpack(raw)
    if ptype == PT_INTERNAL:
        return InternalNode.unpack(raw)
    raise PageCorruptionError(page_id, f"expected a node page, got type {ptype}")


class PagedBTree:
    """Sorted key → bytes map over a page file; see the module docstring."""

    def __init__(
        self,
        path: Path | str,
        *,
        fs: _faultfs.FileSystem | None = None,
        pool_pages: int = DEFAULT_POOL_PAGES,
        create: bool = False,
        shard: int | None = None,
    ):
        self.path = Path(path)
        self._pager = PageFile(self.path, fs=fs, create=create)
        self._pool = BufferPool(self._pager, capacity=pool_pages, shard=shard)
        # Shard-labeled metric handles under a ShardedStore (matching the
        # shard-labeled storage.sharded.* series); module handles otherwise.
        if shard is None:
            self._searches, self._splits = _SEARCHES, _SPLITS
            self._bulk_loads, self._depth = _BULK_LOADS, _DEPTH
        else:
            self._searches = _metrics.counter(
                "storage.paged_btree.searches", shard=shard
            )
            self._splits = _metrics.counter(
                "storage.paged_btree.node_splits", shard=shard
            )
            self._bulk_loads = _metrics.counter(
                "storage.paged_btree.bulk_loads", shard=shard
            )
            self._depth = _metrics.gauge("storage.paged_btree.depth", shard=shard)
        #: Whether anything was written since open/flush; a pure-read
        #: lifetime leaves the file untouched on close.
        self._dirty = create
        if create:
            # A fresh tree is one empty leaf; the root is never page 0
            # (that is the meta page), so "root == 0" never occurs.
            root = self._pager.allocate()
            self._write_node(root, LeafNode(keys=[], values=[]))
            self._pager.meta.root = root
            self._pager.write_meta()

    # -- properties ----------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return self._pager.meta.entry_count

    def __len__(self) -> int:
        return self._pager.meta.entry_count

    @property
    def data_crc(self) -> int:
        """The CRC-32 the store layer stamped at checkpoint time."""
        return self._pager.meta.data_crc

    def set_data_crc(self, crc: int) -> None:
        self._pager.meta.data_crc = crc & 0xFFFFFFFF
        self._dirty = True

    @property
    def pool(self) -> BufferPool:
        return self._pool

    # -- node I/O ------------------------------------------------------------

    def _read_node(self, page_id: int) -> LeafNode | InternalNode:
        """The (shared, read-only) decoded node of ``page_id``."""
        return self._pool.node(page_id, _decode_node)

    def _write_node(self, page_id: int, node: LeafNode | InternalNode) -> None:
        self._pool.put_page(page_id, node.pack())

    # -- values / overflow chains -------------------------------------------

    def _store_value(self, value: bytes) -> bytes | OverflowRef:
        if len(value) <= OVERFLOW_THRESHOLD:
            return value
        chunks = [
            value[i : i + OVERFLOW_CAPACITY]
            for i in range(0, len(value), OVERFLOW_CAPACITY)
        ]
        pids = [self._pool.new_page() for _ in chunks]
        for i, chunk in enumerate(chunks):
            nxt = pids[i + 1] if i + 1 < len(pids) else 0
            page = bytearray(PAGE_SIZE)
            HEADER.pack_into(page, 0, PT_OVERFLOW, 0, len(chunk), 0, nxt)
            page[HEADER_SIZE : HEADER_SIZE + len(chunk)] = chunk
            self._pool.put_page(pids[i], finalize_page(page))
        return OverflowRef(head=pids[0], length=len(value))

    def _load_value(self, stored: bytes | OverflowRef) -> bytes:
        if not isinstance(stored, OverflowRef):
            return stored
        parts: list[bytes] = []
        page_id = stored.head
        remaining = stored.length
        while page_id and remaining > 0:
            with self._pool.pin(page_id) as raw:
                if page_type(raw) != PT_OVERFLOW:
                    raise PageCorruptionError(
                        page_id, f"overflow chain hit page type {raw[0]}"
                    )
                _t, _f, count, _crc, nxt = HEADER.unpack_from(raw, 0)
                parts.append(bytes(raw[HEADER_SIZE : HEADER_SIZE + count]))
            remaining -= count
            page_id = nxt
        value = b"".join(parts)
        if len(value) != stored.length:
            raise PageCorruptionError(
                stored.head,
                f"overflow chain yielded {len(value)} bytes, expected {stored.length}",
            )
        return value

    def _free_chain(self, ref: OverflowRef) -> None:
        pids: list[int] = []
        page_id = ref.head
        while page_id:
            with self._pool.pin(page_id) as raw:
                nxt = HEADER.unpack_from(raw, 0)[4]
            pids.append(page_id)
            page_id = nxt
        for pid in pids:
            self._pool.free_page(pid)

    # -- search --------------------------------------------------------------

    def _descend(
        self, key: Any
    ) -> tuple[list[tuple[int, InternalNode, int]], int, LeafNode]:
        """Walk root → leaf for ``key``; returns (path, leaf_pid, leaf)."""
        path: list[tuple[int, InternalNode, int]] = []
        page_id = self._pager.meta.root
        node = self._read_node(page_id)
        while isinstance(node, InternalNode):
            idx = bisect.bisect_right(node.keys, key)
            path.append((page_id, node, idx))
            page_id = node.children[idx]
            node = self._read_node(page_id)
        return path, page_id, node

    def get(self, key: Any, default: Any = None) -> bytes | Any:
        self._searches.inc()
        _path, _pid, leaf = self._descend(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return self._load_value(leaf.values[idx])
        return default

    def __contains__(self, key: Any) -> bool:
        _path, _pid, leaf = self._descend(key)
        idx = bisect.bisect_left(leaf.keys, key)
        return idx < len(leaf.keys) and leaf.keys[idx] == key

    def get_many(self, keys: Iterable[Any]) -> Iterator[tuple[Any, bytes]]:
        """``(key, value)`` for each of the ascending ``keys`` that is present.

        One walk serves the whole batch.  It keeps the previous key's
        root-to-leaf path, each level with the exclusive upper bound of
        its span; the next key pops only the levels whose span it has
        left and descends from the lowest one that still covers it.  The
        walk therefore reads each node on its keys' root-to-leaf paths
        exactly once, and no other node: consecutive keys spanning L
        leaves under one parent read L + depth - 1 nodes, and no batch
        reads more nodes, or other pages, than point gets of its keys.
        """
        self._searches.inc()
        path: list[tuple[LeafNode | InternalNode, Any]] = []  # (node, upper bound)
        last: Any = _NO_KEY
        for key in keys:
            if last is not _NO_KEY and key < last:
                raise StorageError(f"get_many keys not ascending at {key!r}")
            last = key
            while path and path[-1][1] is not None and not key < path[-1][1]:
                path.pop()
            if not path:  # the root's span is unbounded: only the first key
                path.append((self._read_node(self._pager.meta.root), None))
            node, hi = path[-1]
            while isinstance(node, InternalNode):
                idx = bisect.bisect_right(node.keys, key)
                if idx < len(node.keys):
                    hi = node.keys[idx]
                node = self._read_node(node.children[idx])
                path.append((node, hi))
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                yield key, self._load_value(node.values[idx])

    # -- iteration -----------------------------------------------------------

    def _leftmost_leaf(self) -> tuple[int, LeafNode]:
        page_id = self._pager.meta.root
        node = self._read_node(page_id)
        while isinstance(node, InternalNode):
            page_id = node.children[0]
            node = self._read_node(page_id)
        return page_id, node

    def items(self) -> Iterator[tuple[Any, bytes]]:
        """All ``(key, value)`` pairs in key order, via the leaf chain.

        Snapshot semantics are NOT provided: do not mutate the tree
        while iterating (the store layer never does).
        """
        _pid, leaf = self._leftmost_leaf()
        while True:
            for key, stored in zip(leaf.keys, leaf.values):
                yield key, self._load_value(stored)
            if not leaf.next_leaf:
                return
            node = self._read_node(leaf.next_leaf)
            if not isinstance(node, LeafNode):
                raise PageCorruptionError(leaf.next_leaf, "leaf chain left the leaves")
            leaf = node

    def keys(self) -> Iterator[Any]:
        for key, _value in self.items():
            yield key

    def range_items(
        self, lo: Any = None, hi: Any = None, *, inclusive: bool = True
    ) -> Iterator[tuple[Any, bytes]]:
        """Pairs with ``lo <= key <= hi`` (``< hi`` when not inclusive)."""
        self._searches.inc()
        if lo is None:
            _pid, leaf = self._leftmost_leaf()
            idx = 0
        else:
            _path, _pid, leaf = self._descend(lo)
            idx = bisect.bisect_left(leaf.keys, lo)
        while True:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if hi is not None and (key > hi if inclusive else key >= hi):
                    return
                yield key, self._load_value(leaf.values[idx])
                idx += 1
            if not leaf.next_leaf:
                return
            node = self._read_node(leaf.next_leaf)
            if not isinstance(node, LeafNode):
                raise PageCorruptionError(leaf.next_leaf, "leaf chain left the leaves")
            leaf = node
            idx = 0

    # -- mutation ------------------------------------------------------------

    def insert(self, key: Any, value: bytes) -> None:
        """Set ``key`` to ``value`` (replacing any existing value)."""
        if len(pack_key(key)) > MAX_KEY_BYTES:
            raise StorageError(
                f"key packs to more than {MAX_KEY_BYTES} bytes: {key!r:.64}"
            )
        self._dirty = True
        path, page_id, leaf = self._descend(key)
        leaf = leaf.copy()
        stored = self._store_value(value)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            old = leaf.values[idx]
            if isinstance(old, OverflowRef):
                self._free_chain(old)
            leaf.values[idx] = stored
        else:
            leaf.keys.insert(idx, key)
            leaf.values.insert(idx, stored)
            self._pager.meta.entry_count += 1
        if leaf.packed_size() <= PAGE_SIZE:
            self._write_node(page_id, leaf)
            return
        self._split_leaf(path, page_id, leaf)

    def _split_leaf(self, path: list, page_id: int, leaf: LeafNode) -> None:
        self._splits.inc()
        split = self._leaf_split_point(leaf)
        right_pid = self._pool.new_page()
        right = LeafNode(
            keys=leaf.keys[split:],
            values=leaf.values[split:],
            prev_leaf=page_id,
            next_leaf=leaf.next_leaf,
        )
        left = LeafNode(
            keys=leaf.keys[:split],
            values=leaf.values[:split],
            prev_leaf=leaf.prev_leaf,
            next_leaf=right_pid,
        )
        if right.next_leaf:
            successor = self._read_node(right.next_leaf)
            if isinstance(successor, LeafNode):
                successor = successor.copy()
                successor.prev_leaf = right_pid
                self._write_node(right.next_leaf, successor)
        self._write_node(right_pid, right)
        self._write_node(page_id, left)
        self._insert_into_parent(path, page_id, right.keys[0], right_pid)

    @staticmethod
    def _leaf_split_point(leaf: LeafNode) -> int:
        """First index of the right half: split at ~half the payload bytes."""
        total = leaf.packed_size() - HEADER_SIZE - 4
        half = total // 2
        acc = 0
        for i, (key, value) in enumerate(zip(leaf.keys, leaf.values)):
            acc += leaf.cell_size(key, value)
            if acc >= half and i + 1 < len(leaf.keys):
                return i + 1
        return max(1, len(leaf.keys) - 1)

    def _insert_into_parent(
        self, path: list, left_pid: int, separator: Any, right_pid: int
    ) -> None:
        while path:
            page_id, node, idx = path.pop()
            node = node.copy()
            node.keys.insert(idx, separator)
            node.children.insert(idx + 1, right_pid)
            if node.packed_size() <= PAGE_SIZE:
                self._write_node(page_id, node)
                return
            # Split the internal node: the median key moves up (B+
            # internals do not duplicate it).
            self._splits.inc()
            mid = len(node.keys) // 2
            separator = node.keys[mid]
            right = InternalNode(
                keys=node.keys[mid + 1 :], children=node.children[mid + 1 :]
            )
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
            new_pid = self._pool.new_page()
            self._write_node(new_pid, right)
            self._write_node(page_id, node)
            left_pid, right_pid = page_id, new_pid
        new_root = self._pool.new_page()
        self._write_node(new_root, InternalNode([separator], [left_pid, right_pid]))
        self._pager.meta.root = new_root

    def delete(self, key: Any) -> None:
        """Remove ``key``; :class:`KeyError` if absent.

        Deletion is free-list based rather than rebalancing: a leaf that
        empties is unlinked from the chain, freed, and its separator
        dropped from the parent.  Pages are reused by later allocations;
        the tree never merges siblings (checkpoints rebuild it compactly
        anyway).
        """
        path, page_id, leaf = self._descend(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyError(key)
        self._dirty = True
        leaf = leaf.copy()
        old = leaf.values[idx]
        if isinstance(old, OverflowRef):
            self._free_chain(old)
        del leaf.keys[idx]
        del leaf.values[idx]
        self._pager.meta.entry_count -= 1
        if leaf.keys or not path:
            self._write_node(page_id, leaf)
            return
        # Empty non-root leaf: unlink from the chain, free, drop from parent.
        if leaf.prev_leaf:
            prev = self._read_node(leaf.prev_leaf)
            if isinstance(prev, LeafNode):
                prev = prev.copy()
                prev.next_leaf = leaf.next_leaf
                self._write_node(leaf.prev_leaf, prev)
        if leaf.next_leaf:
            nxt = self._read_node(leaf.next_leaf)
            if isinstance(nxt, LeafNode):
                nxt = nxt.copy()
                nxt.prev_leaf = leaf.prev_leaf
                self._write_node(leaf.next_leaf, nxt)
        self._pool.free_page(page_id)
        self._remove_from_parent(path, page_id)

    def _remove_from_parent(self, path: list, child_pid: int) -> None:
        page_id, node, idx = path.pop()
        if node.children[idx] != child_pid:
            raise PageCorruptionError(
                page_id, f"descent path stale: child {child_pid} not at slot {idx}"
            )
        node = node.copy()
        del node.children[idx]
        if node.keys:
            del node.keys[max(0, idx - 1)]
        if node.children:
            if not path and not node.keys and len(node.children) == 1:
                # Root with a single child: collapse one level.
                self._pager.meta.root = node.children[0]
                self._pool.free_page(page_id)
            else:
                self._write_node(page_id, node)
            return
        # The internal node emptied entirely; free it and recurse.
        self._pool.free_page(page_id)
        if path:
            self._remove_from_parent(path, page_id)
        else:
            # The whole tree emptied: fresh empty leaf as root.
            root = self._pool.new_page()
            self._write_node(root, LeafNode(keys=[], values=[]))
            self._pager.meta.root = root

    # -- bulk build ----------------------------------------------------------

    @classmethod
    def bulk_build(
        cls,
        path: Path | str,
        items: Iterable[tuple[Any, bytes]],
        *,
        fs: _faultfs.FileSystem | None = None,
        pool_pages: int = DEFAULT_POOL_PAGES,
        shard: int | None = None,
    ) -> "PagedBTree":
        """Build a fresh tree from **key-sorted** ``(key, value)`` pairs.

        Streams: leaves are packed full and written as they fill, so
        resident memory is bounded by the pool plus one (first_key,
        page_id) pair per leaf for the internal levels.  This is the
        checkpoint path — :meth:`flush` (fsync) is the caller's job.
        """
        tree = cls(path, fs=fs, pool_pages=pool_pages, create=True, shard=shard)
        tree._bulk_loads.inc()
        tree._bulk_load(items)
        return tree

    def _bulk_load(self, items: Iterable[tuple[Any, bytes]]) -> None:
        pager, pool = self._pager, self._pool
        cur_pid = pager.meta.root  # fresh tree: the pre-created empty leaf
        cur = LeafNode(keys=[], values=[])
        prev_pid = 0
        leaf_index: list[tuple[Any, int]] = []  # (first key, page id) per leaf
        last_key: Any = None
        count = 0

        for key, value in items:
            if last_key is not None and not key > last_key:
                raise StorageError(
                    f"bulk_build input not strictly key-sorted at {key!r}"
                )
            if len(pack_key(key)) > MAX_KEY_BYTES:
                raise StorageError(
                    f"key packs to more than {MAX_KEY_BYTES} bytes: {key!r:.64}"
                )
            last_key = key
            stored = self._store_value(value)
            if (
                cur.keys
                and cur.packed_size() + cur.cell_size(key, stored) > PAGE_SIZE
            ):
                nxt_pid = pool.new_page()
                cur.prev_leaf, cur.next_leaf = prev_pid, nxt_pid
                self._write_node(cur_pid, cur)
                leaf_index.append((cur.keys[0], cur_pid))
                prev_pid, cur_pid = cur_pid, nxt_pid
                cur = LeafNode(keys=[], values=[])
            cur.keys.append(key)
            cur.values.append(stored)
            count += 1

        cur.prev_leaf, cur.next_leaf = prev_pid, 0
        self._write_node(cur_pid, cur)
        leaf_index.append((cur.keys[0] if cur.keys else None, cur_pid))
        pager.meta.entry_count = count

        # Internal levels, bottom up, until one node remains.
        level = leaf_index
        while len(level) > 1:
            next_level: list[tuple[Any, int]] = []
            node = InternalNode(keys=[], children=[level[0][1]])
            node_first = level[0][0]
            for first_key, child_pid in level[1:]:
                trial = InternalNode(
                    keys=node.keys + [first_key], children=node.children + [child_pid]
                )
                if trial.packed_size() > PAGE_SIZE:
                    pid = pool.new_page()
                    self._write_node(pid, node)
                    next_level.append((node_first, pid))
                    node = InternalNode(keys=[], children=[child_pid])
                    node_first = first_key
                else:
                    node.keys.append(first_key)
                    node.children.append(child_pid)
            pid = pool.new_page()
            self._write_node(pid, node)
            next_level.append((node_first, pid))
            level = next_level
        pager.meta.root = level[0][1]

    # -- verification --------------------------------------------------------

    def verify(self, *, on_page: Callable[[int], None] | None = None) -> dict[str, Any]:
        """Deep-check every reachable page; raise on any inconsistency.

        Dirty frames are written back first, then every read goes
        straight through the pager (not the pool) so disk-level damage
        is caught even when a clean copy is cached.  On the read-only
        paths that matter — fsck, checkpoint read-back verification —
        nothing is dirty and the file is not touched.  Checks page
        CRCs, in-node key order, uniform leaf depth, the doubly-linked
        leaf chain (global key order across leaves), overflow chain
        lengths, the free list (no cycles, only free pages), and the
        meta entry count.  Returns a stats dict.

        ``on_page`` (when given) is called with ``1`` for every node
        page walked — the progress-tracker hook for long fsck runs.
        """
        self._pool.flush()
        meta = self._pager.meta
        stats = {
            "pages": meta.page_count,
            "leaves": 0,
            "internals": 0,
            "overflow_pages": 0,
            "free_pages": 0,
            "entries": 0,
            "depth": 0,
            "data_crc": meta.data_crc,
        }
        leaf_chain: list[tuple[int, LeafNode]] = []
        leaf_depths: set[int] = set()

        def walk(page_id: int, depth: int, lo: Any, hi: Any) -> None:
            raw = self._pager.read_page(page_id)  # CRC-verified
            if on_page is not None:
                on_page(1)
            node = _decode_node(page_id, raw)
            self._verify_keys(page_id, node.keys, lo, hi)
            if isinstance(node, LeafNode):
                for stored in node.values:
                    if isinstance(stored, OverflowRef):
                        stats["overflow_pages"] += self._verify_chain(stored)
                stats["leaves"] += 1
                stats["entries"] += len(node.keys)
                leaf_depths.add(depth)
                leaf_chain.append((page_id, node))
            else:
                if len(node.children) != len(node.keys) + 1:
                    raise PageCorruptionError(page_id, "child/key count mismatch")
                stats["internals"] += 1
                bounds = [lo, *node.keys, hi]
                for i, child in enumerate(node.children):
                    walk(child, depth + 1, bounds[i], bounds[i + 1])

        walk(meta.root, 1, None, None)
        stats["depth"] = max(leaf_depths)
        if len(leaf_depths) != 1:
            raise PageCorruptionError(meta.root, f"uneven leaf depths {leaf_depths}")
        if stats["entries"] != meta.entry_count:
            raise PageCorruptionError(
                0, f"meta says {meta.entry_count} entries, tree has {stats['entries']}"
            )
        # Leaf chain: walk() visits leaves left-to-right, so prev/next
        # must thread them in exactly that order.
        for i, (page_id, node) in enumerate(leaf_chain):
            expect_prev = leaf_chain[i - 1][0] if i > 0 else 0
            expect_next = leaf_chain[i + 1][0] if i + 1 < len(leaf_chain) else 0
            if node.prev_leaf != expect_prev or node.next_leaf != expect_next:
                raise PageCorruptionError(
                    page_id,
                    f"leaf chain broken: prev={node.prev_leaf} next={node.next_leaf},"
                    f" expected prev={expect_prev} next={expect_next}",
                )
        for free_pid in self._pager.free_list():
            stats["free_pages"] += 1
            if stats["free_pages"] > meta.page_count:
                raise PageCorruptionError(free_pid, "free list longer than the file")
        self._depth.set(stats["depth"])
        return stats

    @staticmethod
    def _verify_keys(page_id: int, keys: list, lo: Any, hi: Any) -> None:
        for a, b in zip(keys, keys[1:]):
            if not a < b:
                raise PageCorruptionError(page_id, f"keys out of order: {a!r} !< {b!r}")
        if keys:
            if lo is not None and keys[0] < lo:
                raise PageCorruptionError(page_id, f"key {keys[0]!r} below bound {lo!r}")
            if hi is not None and not keys[-1] < hi:
                raise PageCorruptionError(page_id, f"key {keys[-1]!r} at/above bound {hi!r}")

    def _verify_chain(self, ref: OverflowRef) -> int:
        pages = 0
        got = 0
        page_id = ref.head
        while page_id:
            raw = self._pager.read_page(page_id)
            if page_type(raw) != PT_OVERFLOW:
                raise PageCorruptionError(page_id, "overflow chain left overflow pages")
            _t, _f, count, _crc, nxt = HEADER.unpack_from(raw, 0)
            got += count
            pages += 1
            page_id = nxt
            if pages > self._pager.meta.page_count:
                raise PageCorruptionError(ref.head, "overflow chain cycle")
        if got != ref.length:
            raise PageCorruptionError(
                ref.head, f"overflow chain holds {got} bytes, ref says {ref.length}"
            )
        return pages

    # -- durability ----------------------------------------------------------

    def flush(self) -> None:
        """Write back dirty frames + meta and fsync the page file."""
        self._pool.flush()
        self._pager.write_meta()
        self._pager.fsync()
        self._dirty = False

    def close(self) -> None:
        """Flush (only if something was written) and release the file.

        A tree that was only read closes without touching the file, so
        a published checkpoint stays byte-identical under read traffic.
        """
        if self._dirty and not getattr(self._pager._fh, "closed", True):
            self.flush()
        self._pool.clear()
        self._pager.close()

    def abandon(self) -> None:
        """Release the file WITHOUT flushing (crash-path cleanup of a
        doomed build; the caller deletes the file next)."""
        self._pager.close()

    def __enter__(self) -> "PagedBTree":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["PagedBTree", "MAX_KEY_BYTES"]
