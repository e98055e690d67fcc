"""Span recorder and the timing wrappers of the traced run.

The wrappers are installed from the benchmark's own files, by patching each
function where its caller looks the name up (a class attribute or a module
global).  Nothing in the program is edited.

Each span has a name, a start, an end, a parent and the id of the request (or
benchmark operation) it belongs to.  A thread-local stack gives every span its
parent, so a span's self time -- its duration minus the time covered by its
child spans -- is computed when it closes.  The recorder keeps, per request
id, the count, total time and self time of each span name; the self times of
one request add up exactly to the duration of its outermost span.  Raw spans
are kept too, up to a cap, and written out with the aggregates.
"""

from __future__ import annotations

import functools
import json
import threading
import types
from time import perf_counter_ns
from typing import Any, Callable, Iterator
from urllib.parse import parse_qs, urlparse

#: Name of the measurement of the first indexed query after a store opens or
#: checkpoints (the lazy index rebuild).
FIRST_QUERY = "storage.store.first_query"
#: Raw spans kept per process; the aggregates count every span.
SPAN_CAP = 200_000


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[Any, dict[str, list[int]]]] = []
        self._spans: list[list[tuple]] = []
        self._span_count = 0

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.table = {}
            local.spans = []
            with self._lock:
                self._tables.append(local.table)
                self._spans.append(local.spans)
        return local

    def set_request(self, rid: Any) -> Any:
        """Make ``rid`` the request id of this thread's spans; returns the old one."""
        state = self._state()
        previous, state.rid = state.rid, rid
        return previous

    # -- spans -----------------------------------------------------------------

    def _close(self, state: Any, name: str, start: int, end: int, child: int) -> None:
        duration = end - start
        stack = state.stack
        if stack:
            stack[-1][0] += duration
        rows = state.table.get(state.rid)
        if rows is None:
            rows = state.table[state.rid] = {}
        agg = rows.get(name)
        if agg is None:
            rows[name] = [1, duration, duration - child]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child
        if self._span_count < SPAN_CAP:
            self._span_count += 1
            parent = stack[-1][1] if stack else None
            state.spans.append((name, start, end, parent, state.rid))

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        state = self._state()
        frame = [0, name]
        state.stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            state.stack.pop()
            self._close(state, name, start, end, frame[0])

    def note(self, name: str, duration_ns: int) -> None:
        """Count a measurement that is not a span (it has no self time)."""
        state = self._state()
        rows = state.table.setdefault(state.rid, {})
        agg = rows.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += duration_ns

    def wrap(self, name: str, fn: Callable) -> Callable:
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, **kwargs)

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: each resumption is one span."""
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = call(name, fn, *args, **kwargs)
            try:
                while True:
                    try:
                        item = call(name, next, inner)
                    except StopIteration:
                        return
                    yield item
            finally:
                inner.close()

        return wrapper

    # -- results ---------------------------------------------------------------

    def table(self) -> dict[Any, dict[str, list[int]]]:
        """``{request id: {span name: [count, total_ns, self_ns]}}`` over all threads."""
        merged: dict[Any, dict[str, list[int]]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for rid, rows in list(table.items()):
                target = merged.setdefault(rid, {})
                for name, (count, total, self_ns) in list(rows.items()):
                    agg = target.setdefault(name, [0, 0, 0])
                    agg[0] += count
                    agg[1] += total
                    agg[2] += self_ns
        return merged

    def spans(self) -> list[tuple]:
        with self._lock:
            lists = list(self._spans)
        return [span for spans in lists for span in spans]

    def dump(self, path: str) -> None:
        """Write aggregates and raw spans as JSON (request ids become strings)."""
        table = {str(rid): rows for rid, rows in self.table().items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"table": table, "spans": self.spans()}, fh)


def load_table(path: str) -> dict[str, dict[str, list[int]]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["table"]


# -- installing the wrappers ----------------------------------------------------


def _patch(undo: list, owner: Any, attr: str, value: Any) -> None:
    """Set ``owner.attr`` (a class or module attribute), remembering the old value."""
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _json_shim(rec: Recorder) -> types.ModuleType:
    """A stand-in ``json`` module whose ``dumps`` is timed."""
    shim = types.ModuleType("json")
    shim.__dict__.update(json.__dict__)
    shim.dumps = rec.wrap("json.dumps", json.dumps)
    return shim


def _timed_pin(rec: Recorder, pin: Callable) -> Callable:
    """``BufferPool.pin`` returns a context manager; time its ``__enter__``."""

    class _Pinned:
        __slots__ = ("_cm",)

        def __init__(self, cm: Any):
            self._cm = cm

        def __enter__(self) -> Any:
            return rec.call("storage.bufferpool.pin", self._cm.__enter__)

        def __exit__(self, *exc: Any) -> Any:
            return self._cm.__exit__(*exc)

    @functools.wraps(pin)
    def wrapper(self: Any, page_id: int) -> _Pinned:
        return _Pinned(pin(self, page_id))

    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every traced function; returns a callable that restores them."""
    from repro.core import builder as core_builder
    from repro.core import entry as core_entry
    from repro.core.render import text as render_text
    from repro.obs import server as obs_server
    from repro.query import executor as query_executor
    from repro.query.planner import PlanCache
    from repro.resilience import service as resilience_service
    from repro.storage import faultfs, paged_store, pages
    from repro.storage.bufferpool import BufferPool
    from repro.storage.paged_btree import PagedBTree
    from repro.storage.store import RecordStore
    from repro.storage.wal import WriteAheadLog

    undo: list = []
    fresh: set[int] = set()

    def method(owner: Any, attr: str, name: str) -> None:
        """Time ``owner.attr``: a function, method, classmethod or staticmethod."""
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(rec.wrap(name, raw.__func__))
        else:
            wrapped = rec.wrap(name, raw)
        _patch(undo, owner, attr, wrapped)

    # Query path.
    handler = obs_server._TelemetryHandler
    do_get = handler.__dict__["do_GET"]

    def traced_do_get(self: Any) -> None:
        rid = parse_qs(urlparse(self.path).query).get("rid", [None])[0]
        previous = rec.set_request(rid)
        try:
            rec.call("obs.server.do_GET", do_get, self)
        finally:
            rec.set_request(previous)

    _patch(undo, handler, "do_GET", traced_do_get)
    shim = _json_shim(rec)
    _patch(undo, obs_server, "json", shim)
    _patch(undo, resilience_service, "json", shim)
    method(resilience_service.QueryService, "execute_request", "resilience.service.execute_request")
    method(query_executor, "parse_query", "query.parser.parse_query")
    plan = PlanCache.__dict__["get_or_plan_fingerprinted"]

    def traced_plan(self: Any, query: Any, store: Any) -> Any:
        result = rec.call("query.planner.get_or_plan", plan, self, query, store)
        if result[3]:
            rec.note("query.planner.cache_hit", 0)
        return result

    _patch(undo, PlanCache, "get_or_plan_fingerprinted", traced_plan)
    method(query_executor.QueryEngine, "run_plan", "query.executor.run_plan")

    # Storage.
    init = RecordStore.__dict__["__init__"]

    def traced_init(self: Any, *args: Any, **kwargs: Any) -> None:
        rec.call("storage.store.open", init, self, *args, **kwargs)
        fresh.add(id(self))

    checkpoint = RecordStore.__dict__["checkpoint"]

    def traced_checkpoint(self: Any, *args: Any, **kwargs: Any) -> None:
        rec.call("storage.store.checkpoint", checkpoint, self, *args, **kwargs)
        fresh.add(id(self))

    def indexed(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            first = id(self) in fresh
            start = perf_counter_ns()
            try:
                return rec.call("storage.store.index", fn, self, *args, **kwargs)
            finally:
                if first:
                    fresh.discard(id(self))
                    rec.note(FIRST_QUERY, perf_counter_ns() - start)

        return wrapper

    _patch(undo, RecordStore, "__init__", traced_init)
    _patch(undo, RecordStore, "checkpoint", traced_checkpoint)
    _patch(undo, RecordStore, "find_by", indexed(RecordStore.__dict__["find_by"]))
    _patch(undo, RecordStore, "range_by", indexed(RecordStore.__dict__["range_by"]))
    _patch(undo, RecordStore, "scan", rec.wrap_generator("storage.store.scan", RecordStore.__dict__["scan"]))
    method(RecordStore, "put_many", "storage.store.put_many")
    _patch(undo, BufferPool, "pin", _timed_pin(rec, BufferPool.__dict__["pin"]))
    method(pages.PageFile, "read_page", "storage.pages.read_page")
    method(pages.LeafNode, "unpack", "storage.pages.unpack")
    method(pages.InternalNode, "unpack", "storage.pages.unpack")
    method(paged_store, "decode_record", "storage.paged_store.decode_record")
    method(PagedBTree, "bulk_build", "storage.paged_btree.bulk_build")
    method(WriteAheadLog, "append_many", "storage.wal.append_many")
    method(faultfs.FileSystem, "fsync", "storage.faultfs.fsync")
    method(faultfs.FileSystem, "fsync_dir", "storage.faultfs.fsync")

    # Artifact path.
    method(core_entry.PublicationRecord, "from_store_dict", "core.entry.from_store_dict")
    method(core_entry, "parse_name", "names.parser.parse_name")
    method(core_builder.AuthorIndexBuilder, "build", "core.builder.build")
    method(core_builder, "collation_key", "core.collation.collation_key")
    method(render_text, "paginate", "core.pagination.paginate")
    method(render_text.TextRenderer, "render", "core.render.text")

    def uninstall() -> None:
        while undo:
            owner, attr, value = undo.pop()
            setattr(owner, attr, value)

    return uninstall
