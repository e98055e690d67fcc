"""Read-through record map over a paged B+ tree.

:class:`PagedRecordMap` is the object :class:`~repro.storage.store.RecordStore`
swaps in for its plain ``dict`` when a store runs in ``"paged"`` data
format: the checkpointed records live on disk in a
:class:`~repro.storage.paged_btree.PagedBTree` (the *base*), and
everything written since that checkpoint lives in a small in-memory
*overlay* (a dict of records plus a tombstone set for deletes).  Reads
check the overlay first and fall through to the tree; iteration is a
two-pointer merge of the pk-sorted base with the sorted overlay.  The
result behaves like the dict the store already uses — ``in`` /
``[key]`` / ``pop`` / ``update`` / ``values`` / ``items`` — with two
deliberate differences:

* iteration order is **primary-key order**, not insertion order (the
  base is a sorted tree; a merged iteration has no insertion order to
  preserve);
* records read from the base are decoded fresh on every access (the
  tree stores canonical JSON bytes), so callers must not rely on
  object identity across reads — the store copies at its API boundary
  anyway.

The map is also the checkpoint *source*: :meth:`sorted_encoded_items`
streams ``(pk, canonical-JSON-bytes)`` pairs in pk order, reusing the
base's stored bytes for unmodified records so a checkpoint of a
million-record store with a ten-record overlay decodes ten records,
not a million.

The canonical per-record encoding (sorted keys, compact separators, no
ASCII escaping) is chosen so that concatenating the encoded records as
a JSON array reproduces byte-for-byte what
:func:`~repro.storage.store.records_checksum` hashes — one record
grammar, one checksum, shared by the snapshot writer, recovery, and
``repro fsck``.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Iterator, Mapping, Sequence

from repro.storage.paged_btree import PagedBTree


def encode_record(record: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes of one record (the tree's value format)."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def decode_record(raw: bytes) -> dict[str, Any]:
    return json.loads(raw.decode("utf-8"))


class StreamingChecksum:
    """CRC-32 over a JSON array assembled record-by-record.

    Feeding each record's canonical bytes yields exactly the CRC that
    :func:`~repro.storage.store.records_checksum` computes over the
    materialized list — ``json.dumps(list, separators=(",", ":"))`` is
    literally ``"[" + ",".join(items) + "]"``.
    """

    def __init__(self) -> None:
        self._crc = zlib.crc32(b"[")
        self._count = 0

    def add(self, record_bytes: bytes) -> None:
        if self._count:
            self._crc = zlib.crc32(b",", self._crc)
        self._crc = zlib.crc32(record_bytes, self._crc)
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def hexdigest(self) -> str:
        return f"{zlib.crc32(b']', self._crc) & 0xFFFFFFFF:08x}"

    def value(self) -> int:
        return zlib.crc32(b"]", self._crc) & 0xFFFFFFFF


class PagedRecordMap:
    """Dict-shaped view over base tree + overlay; see the module docstring."""

    def __init__(self, tree: PagedBTree):
        self._tree = tree
        self._overlay: dict[Any, dict[str, Any]] = {}
        self._deleted: set[Any] = set()
        self._len = tree.entry_count

    @property
    def tree(self) -> PagedBTree:
        return self._tree

    @property
    def overlay_size(self) -> int:
        """Records held in memory pending the next checkpoint."""
        return len(self._overlay) + len(self._deleted)

    # -- dict surface --------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: Any) -> bool:
        if key in self._overlay:
            return True
        if key in self._deleted:
            return False
        return key in self._tree

    def __getitem__(self, key: Any) -> dict[str, Any]:
        record = self._overlay.get(key)
        if record is not None:
            return record
        if key in self._deleted:
            raise KeyError(key)
        raw = self._tree.get(key)
        if raw is None:
            raise KeyError(key)
        return decode_record(raw)

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def fetch(self, keys: Sequence[Any]) -> list[dict[str, Any]]:
        """Fresh copies of the records under ``keys``, in the caller's order.

        Overlay records are copied; the rest are read from the base in
        one key-ordered walk (:meth:`PagedBTree.get_many`) and decoded as
        they are read, so no batch of raw values is held.  A key listed
        twice yields two distinct dicts.  :class:`KeyError` for an absent
        or deleted key.
        """
        overlay = self._overlay
        base_keys = {key for key in keys if key not in overlay}
        if not base_keys.isdisjoint(self._deleted):
            raise KeyError(next(iter(base_keys & self._deleted)))
        decoded = {
            key: decode_record(raw)
            for key, raw in self._tree.get_many(sorted(base_keys))
        }
        taken: set[Any] = set()
        out = []
        for key in keys:
            record = overlay.get(key)
            if record is None:
                record = decoded.get(key)
                if record is None:
                    raise KeyError(key)
                if key not in taken:  # the first occurrence takes the decode
                    taken.add(key)
                    out.append(record)
                    continue
            out.append(dict(record))
        return out

    def __setitem__(self, key: Any, record: dict[str, Any]) -> None:
        if key not in self:
            self._len += 1
        self._overlay[key] = record
        self._deleted.discard(key)

    def pop(self, key: Any) -> dict[str, Any]:
        record = self[key]  # raises KeyError when absent
        self._len -= 1
        self._overlay.pop(key, None)
        if key in self._tree:
            self._deleted.add(key)
        return record

    def update(self, other: Mapping[Any, dict[str, Any]]) -> None:
        for key, record in other.items():
            self[key] = record

    def __iter__(self) -> Iterator[Any]:
        for key, _record in self.items():
            yield key

    def keys(self) -> Iterator[Any]:
        return iter(self)

    def values(self) -> Iterator[dict[str, Any]]:
        for _key, record in self.items():
            yield record

    def items(self) -> Iterator[tuple[Any, dict[str, Any]]]:
        """Merged ``(pk, record)`` pairs in primary-key order.

        Do not mutate the map while iterating (the store collects first
        and applies after, so its own call sites never do).
        """
        for key, raw in self._merged_encoded():
            if raw is None:
                yield key, self._overlay[key]
            else:
                yield key, decode_record(raw)

    # -- checkpoint streaming ------------------------------------------------

    def sorted_encoded_items(self) -> Iterator[tuple[Any, bytes]]:
        """``(pk, canonical bytes)`` in pk order — the checkpoint stream.

        Unmodified base records pass through as their stored bytes; only
        overlay records are (re-)encoded.
        """
        for key, raw in self._merged_encoded():
            if raw is None:
                yield key, encode_record(self._overlay[key])
            else:
                yield key, raw

    def _merged_encoded(self) -> Iterator[tuple[Any, bytes | None]]:
        """Two-pointer merge; overlay entries carry ``None`` for bytes."""
        overlay_keys = sorted(self._overlay)
        base = self._tree.items()
        base_entry = next(base, None)
        i = 0
        while base_entry is not None and i < len(overlay_keys):
            base_key = base_entry[0]
            over_key = overlay_keys[i]
            if base_key < over_key:
                if base_key not in self._deleted:
                    yield base_key, base_entry[1]
                base_entry = next(base, None)
            elif over_key < base_key:
                yield over_key, None
                i += 1
            else:  # same key: overlay wins
                yield over_key, None
                i += 1
                base_entry = next(base, None)
        while base_entry is not None:
            if base_entry[0] not in self._deleted:
                yield base_entry[0], base_entry[1]
            base_entry = next(base, None)
        while i < len(overlay_keys):
            yield overlay_keys[i], None
            i += 1

    def close(self) -> None:
        self._tree.close()


__all__ = [
    "PagedRecordMap",
    "StreamingChecksum",
    "encode_record",
    "decode_record",
]
