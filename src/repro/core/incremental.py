"""Incremental index maintenance.

A cumulative index grows by one volume a year; rebuilding the whole thing
for every added article is wasteful once the corpus is large.
:class:`IncrementalIndexer` keeps the entry list sorted under the same
collation as :class:`~repro.core.builder.AuthorIndexBuilder` and applies
record additions/removals by binary insertion: finding a row's position
takes O(log n) comparisons, but inserting into or deleting from the Python
list shifts its tail, so each row costs O(n) element moves
(:meth:`IncrementalIndexer.add_all` merges a batch in one O(n + k) pass
instead).  It guarantees at all times::

    indexer.snapshot() == AuthorIndexBuilder().add_records(all_records).build()

(the equivalence the tests assert).  E2's companion benchmark measures the
incremental-vs-rebuild win.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.core.builder import AuthorIndex
from repro.core.collation import CollationOptions, DEFAULT_OPTIONS, collation_key
from repro.core.entry import IndexEntry, PublicationRecord, explode
from repro.errors import RecordNotFoundError, ValidationError
from repro.obs import metrics as _metrics

_RECORDS_ADDED = _metrics.counter("incremental.records.added")
_RECORDS_REMOVED = _metrics.counter("incremental.records.removed")
_ENTRIES_INSERTED = _metrics.counter("incremental.entries.inserted")
#: Rows whose sorted position was already occupied by an identical row —
#: the incremental rebuild's "cache hit": no insertion work needed.
_DEDUPE_HITS = _metrics.counter("incremental.dedupe.hits")


class IncrementalIndexer:
    """Maintains a sorted, de-duplicated entry list under record churn.

    Parameters
    ----------
    options:
        Collation rules (must stay fixed for the life of the indexer; the
        sort keys are cached).

    >>> indexer = IncrementalIndexer()
    >>> indexer.add(PublicationRecord.create(1, "T", ["Zed, A."], "90:1 (1987)"))
    >>> indexer.add(PublicationRecord.create(2, "U", ["Abel, B."], "90:2 (1987)"))
    >>> [e.author.surname for e in indexer.snapshot()]
    ['Abel', 'Zed']
    >>> indexer.remove(1)
    >>> [e.author.surname for e in indexer.snapshot()]
    ['Abel']
    """

    def __init__(self, *, options: CollationOptions = DEFAULT_OPTIONS):
        self.options = options
        self._keys: list[tuple] = []
        self._entries: list[IndexEntry] = []
        self._row_keys: dict[tuple, int] = {}  # row_key -> multiplicity
        self._by_record: dict[int, list[IndexEntry]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def record_count(self) -> int:
        return len(self._by_record)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._by_record

    # -- mutation ------------------------------------------------------------

    def add(self, record: PublicationRecord) -> None:
        """Insert one record's rows at their collation positions."""
        if record.record_id in self._by_record:
            raise ValidationError(
                f"record {record.record_id} already indexed", field="record_id"
            )
        added: list[IndexEntry] = []
        for entry in explode(record):
            row_key = entry.row_key()
            count = self._row_keys.get(row_key, 0)
            self._row_keys[row_key] = count + 1
            added.append(entry)
            if count:
                _DEDUPE_HITS.inc()
                continue  # duplicate row (e.g. identical record content)
            key = collation_key(entry, self.options)
            at = bisect.bisect_left(self._keys, key)
            self._keys.insert(at, key)
            self._entries.insert(at, entry)
            _ENTRIES_INSERTED.inc()
        self._by_record[record.record_id] = added
        _RECORDS_ADDED.inc()

    def add_all(self, records: Iterable[PublicationRecord]) -> None:
        """Insert many records in one sorted merge.

        Equivalent to repeated :meth:`add` — same entries, same metrics —
        but collects every new row into one sorted run and merges it with
        the entry list in a single O(n + k) pass instead of k binary
        insertions (each of which shifts the tail).  A duplicate record
        id — already indexed, or repeated within the batch — raises
        before anything mutates.
        """
        records = list(records)
        if not records:
            return
        batch_ids: set[int] = set()
        for record in records:
            if record.record_id in self._by_record or record.record_id in batch_ids:
                raise ValidationError(
                    f"record {record.record_id} already indexed", field="record_id"
                )
            batch_ids.add(record.record_id)
        fresh: list[tuple[tuple, IndexEntry]] = []
        pending: dict[tuple, int] = {}
        by_record: dict[int, list[IndexEntry]] = {}
        dedupe_hits = 0
        for record in records:
            added: list[IndexEntry] = []
            for entry in explode(record):
                row_key = entry.row_key()
                count = self._row_keys.get(row_key, 0) + pending.get(row_key, 0)
                pending[row_key] = pending.get(row_key, 0) + 1
                added.append(entry)
                if count:
                    dedupe_hits += 1
                    continue
                fresh.append((collation_key(entry, self.options), entry))
            by_record[record.record_id] = added
        if fresh:
            # collation_key totally orders distinct rows, so the merge has
            # no ties to break and the result matches repeated bisection.
            fresh.sort(key=lambda pair: pair[0])
            merged_keys: list[tuple] = []
            merged_entries: list[IndexEntry] = []
            old_i = new_i = 0
            while old_i < len(self._keys) and new_i < len(fresh):
                if fresh[new_i][0] < self._keys[old_i]:
                    key, entry = fresh[new_i]
                    merged_keys.append(key)
                    merged_entries.append(entry)
                    new_i += 1
                else:
                    merged_keys.append(self._keys[old_i])
                    merged_entries.append(self._entries[old_i])
                    old_i += 1
            merged_keys.extend(self._keys[old_i:])
            merged_entries.extend(self._entries[old_i:])
            for key, entry in fresh[new_i:]:
                merged_keys.append(key)
                merged_entries.append(entry)
            self._keys = merged_keys
            self._entries = merged_entries
        for row_key, count in pending.items():
            self._row_keys[row_key] = self._row_keys.get(row_key, 0) + count
        self._by_record.update(by_record)
        _RECORDS_ADDED.inc(len(records))
        _ENTRIES_INSERTED.inc(len(fresh))
        if dedupe_hits:
            _DEDUPE_HITS.inc(dedupe_hits)

    def remove(self, record_id: int) -> None:
        """Remove a record's rows (duplicates only vanish when the last
        contributing record goes)."""
        try:
            entries = self._by_record.pop(record_id)
        except KeyError:
            raise RecordNotFoundError(record_id) from None
        _RECORDS_REMOVED.inc()
        for entry in entries:
            row_key = entry.row_key()
            remaining = self._row_keys[row_key] - 1
            if remaining:
                self._row_keys[row_key] = remaining
                continue
            del self._row_keys[row_key]
            key = collation_key(entry, self.options)
            at = bisect.bisect_left(self._keys, key)
            # collation_key is a total order over distinct rows, so the
            # first match at the insertion point is the row itself.
            while self._entries[at].row_key() != row_key:
                at += 1
            self._keys.pop(at)
            self._entries.pop(at)

    def replace(self, record: PublicationRecord) -> None:
        """Atomically swap a record's rows for its new content."""
        if record.record_id in self._by_record:
            self.remove(record.record_id)
        self.add(record)

    # -- reads -------------------------------------------------------------------

    def snapshot(self) -> AuthorIndex:
        """The current index (an immutable :class:`AuthorIndex` copy)."""
        return AuthorIndex(list(self._entries), self.options)
