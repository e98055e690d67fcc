"""Query executor: run planned queries against a record store.

A plan compiles into one chain of physical operators — the access path,
then filter, aggregate, sort and limit as the query needs them — each a
:class:`PhysicalOp` that pulls rows from its child and counts the rows
it reads.  Records coming from list-field index probes are de-duplicated
by primary key (a list may contain the probe value twice).

:class:`QueryEngine` is the public entry point::

    engine = QueryEngine(store)
    rows = engine.execute('author:"McAteer" AND year >= 1978')
    print(engine.explain('year >= 1978'))

Plain and profiled runs share that one chain, so they share every query
semantic.  A plain run streams rows through it.  ``execute(...,
profile=True)`` is the ``EXPLAIN ANALYZE`` surface: the driver
materializes each operator's output in turn and times it, and the call
returns a :class:`QueryProfile` whose operator tree annotates every
node (seq-scan, index lookups/ranges, filter, aggregate, sort, limit)
with wall time, CPU time (``time.thread_time_ns``), bytes touched
(sampled estimate), and rows-examined/rows-returned counts.  The row
counts are there after a plain run too, which is what a slow-log entry
stores.  Every run, plain or profiled, counts once in
``query.executions``, ``query.rows.examined``, ``query.rows.returned``
and the ``query.seconds`` histogram.

Every execution (profiled or not) is additionally attributed to its query
*fingerprint* (:mod:`repro.query.fingerprint`) in the process-wide
:class:`~repro.obs.workload.WorkloadTable`: calls, rows, CPU/wall
nanoseconds, estimated bytes scanned, plan-cache hits, and deadline /
cancellation / budget interruptions aggregate per query shape, and a
profiled run rolls its per-operator breakdown into the same row.  The
attribution is one fingerprint memo hit, two thread-clock reads, and one
locked table fold per query — covered by the <5% overhead contract — and
collapses to a flag check when ``repro.obs`` is disabled.
"""

from __future__ import annotations

import base64
import heapq
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import (
    BudgetExceeded,
    QueryCancelled,
    QueryInterrupted,
    QueryPlanError,
    QueryTimeout,
    ShardUnavailableError,
)
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs import workload as _workload
from repro.obs.slowlog import SlowQueryLog
from repro.resilience.deadline import CancelToken, Deadline, Guard
from repro.resilience.retry import RetryPolicy
from repro.storage.bufferpool import PageStats, page_stats_scope
from repro.query.ast_nodes import Query
from repro.query.parser import parse_query
from repro.query.planner import (
    CompositeLookup,
    CompositeRange,
    FullScan,
    IndexLookup,
    IndexMultiLookup,
    IndexRange,
    Plan,
    PlanCache,
    ScatterPlan,
    plan_scatter,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema
    from repro.storage.sharded import ShardedStore
    from repro.storage.store import RecordStore

_EXECUTIONS = _metrics.counter("query.executions")
# Bound once: the default table is a process-lifetime singleton (reset
# mutates it in place), and the direct method call keeps the per-query
# attribution cost inside the <5% overhead contract.
_WORKLOAD_TABLE = _workload.get_default_table()
# Pre-bound hot-path method: one global load instead of a global load
# plus a method bind per attributed execution.
_RECORD_PACKED = _WORKLOAD_TABLE.record_packed
_ROWS_EXAMINED = _metrics.counter("query.rows.examined")
_ROWS_RETURNED = _metrics.counter("query.rows.returned")
_QUERY_SECONDS = _metrics.histogram("query.seconds")
_PROFILED = _metrics.counter("query.profiled.count")
# Availability SLO numerator (paired with query.executions): every
# execute() that unwound with an error, interruptions included.
_FAILURES = _metrics.counter("query.failures")

#: Rows sampled when estimating the byte footprint of a row set.
_BYTES_SAMPLE = 4

#: Attributed executions between per-row byte-estimate resamples on the
#: unprofiled path (profiled runs always sample their own rows).  The
#: resample countdown ticks only on thread-CPU sample trips (1 in
#: :data:`_CPU_SAMPLE_EVERY`), so keep this a multiple of that.
_BYTES_REFRESH = 512

#: Unprofiled executions between thread-CPU clock samples.  The
#: CLOCK_THREAD_CPUTIME_ID read behind ``time.thread_time_ns`` is a real
#: syscall on many kernels (no vDSO) — hundreds of ns, two reads per
#: execution.  Sampling 1-in-N keeps per-fingerprint CPU attribution
#: statistically sound (the fold scales sampled CPU up to the call
#: count) at 1/N of the clock cost.  Profiled runs always measure.
_CPU_SAMPLE_EVERY = 16


def _record_bytes(record: dict[str, Any]) -> int:
    """Cheap byte estimate of one record: string lengths + 8 per scalar."""
    total = 0
    for key, value in record.items():
        total += len(key)
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, list):
            total += sum(len(v) if isinstance(v, str) else 8 for v in value)
        else:
            total += 8
    return total


def _avg_row_bytes(rows: list[dict[str, Any]]) -> float:
    """Average byte estimate of ``rows``, measured on the first few only —
    constant cost regardless of result size, good enough for skew and
    attribution, not an accounting-grade number."""
    sample = rows[:_BYTES_SAMPLE]
    return sum(_record_bytes(r) for r in sample) / len(sample) if sample else 0.0


def _interruption_kind(exc: QueryInterrupted) -> str:
    if isinstance(exc, QueryTimeout):
        return "timeout"
    if isinstance(exc, BudgetExceeded):
        return "budget"
    return "cancelled"  # QueryCancelled, or an unknown subclass: closest bucket


@dataclass(frozen=True, slots=True)
class OpProfile:
    """One node of a profiled operator tree (``EXPLAIN ANALYZE`` output).

    ``rows_examined`` counts the rows the operator looked at (its input,
    or for a seq-scan the whole table); ``rows_returned`` counts the rows
    it passed upward.  ``seconds`` is the node's own wall time, measured
    over the materialization of its output (children excluded);
    ``cpu_ns`` is the thread-CPU time of the same stage, and ``bytes``
    the sampled byte estimate of the rows it handled.  The three are
    measured on profiled runs only and stay 0 on the tree of a plain run.
    """

    op: str  #: "seq-scan" | "index-lookup" | … | "filter" | "sort" | "limit"
    detail: str
    rows_examined: int
    rows_returned: int
    seconds: float
    children: tuple["OpProfile", ...] = ()
    cpu_ns: int = 0
    bytes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "detail": self.detail,
            "rows_examined": self.rows_examined,
            "rows_returned": self.rows_returned,
            "seconds": self.seconds,
            "cpu_ns": self.cpu_ns,
            "bytes": self.bytes,
            "children": [child.to_dict() for child in self.children],
        }

    def workload_node(self) -> dict[str, int | str]:
        """This node as a :class:`~repro.obs.workload.WorkloadTable`
        operator-breakdown entry."""
        return {
            "op": self.op,
            "rows_in": self.rows_examined,
            "rows_out": self.rows_returned,
            "cpu_ns": self.cpu_ns,
            "wall_ns": int(self.seconds * 1e9),
            "bytes": self.bytes,
        }

    def render(self) -> str:
        """Indented tree, root first (the outermost operator on top)."""
        lines: list[str] = []
        self._render_into(lines, "", "")
        return "\n".join(lines)

    def _render_into(self, lines: list[str], prefix: str, child_prefix: str) -> None:
        lines.append(
            f"{prefix}{self.op} ({self.detail})  "
            f"examined={self.rows_examined} returned={self.rows_returned}  "
            f"{self.seconds * 1e3:.3f}ms cpu={self.cpu_ns / 1e6:.3f}ms "
            f"bytes~{self.bytes}"
        )
        for child in self.children:
            child._render_into(lines, child_prefix + "└─ ", child_prefix + "   ")

    def iter_nodes(self) -> Iterator["OpProfile"]:
        """This node and every descendant, root first."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()


@dataclass(frozen=True, slots=True)
class QueryProfile:
    """Rows plus the annotated operator tree of one profiled execution.

    ``page_hits`` / ``page_misses`` are the buffer-pool pages this query
    touched (thread-attributed through
    :func:`repro.storage.bufferpool.page_stats_scope`; summed across
    shard workers on a scatter).  Both stay 0 against a memory-format
    store — there is no pool to hit.
    """

    rows: list[dict[str, Any]]
    root: OpProfile
    plan_text: str
    seconds: float
    plan_cached: bool = False  #: plan came from the engine's PlanCache
    fingerprint: str | None = None  #: workload fingerprint of the query shape
    page_hits: int = 0  #: buffer-pool hits attributed to this query
    page_misses: int = 0  #: buffer-pool misses attributed to this query
    partial: bool = False  #: a partial-mode scatter skipped shard(s)
    shards_failed: tuple[int, ...] = ()  #: skipped shard indexes

    def render(self) -> str:
        """The operator tree plus a total-time footer."""
        cached = "  (plan: cached)" if self.plan_cached else ""
        fp = f"  [fingerprint {self.fingerprint}]" if self.fingerprint else ""
        pages = ""
        if self.page_hits or self.page_misses:
            pages = f"  pages: {self.page_hits} hit / {self.page_misses} miss"
        degraded = ""
        if self.partial:
            failed = ", ".join(str(s) for s in self.shards_failed)
            degraded = f"\nPARTIAL RESULT: shard(s) {failed} failed or quarantined"
        return (
            f"{self.root.render()}\n"
            f"total: {self.seconds * 1e3:.3f}ms{pages}{cached}{fp}{degraded}"
        )

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "plan": self.plan_text,
            "plan_cached": self.plan_cached,
            "fingerprint": self.fingerprint,
            "seconds": self.seconds,
            "row_count": len(self.rows),
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "tree": self.root.to_dict(),
        }
        if self.partial:
            # Complete results keep the pre-sharding JSON shape; the
            # degradation keys only appear when shards actually dropped out.
            doc["partial"] = True
            doc["shards_failed"] = list(self.shards_failed)
        return doc


@dataclass(frozen=True, slots=True)
class Page:
    """One page of a cursor-paginated result."""

    rows: list[dict[str, Any]]
    next_cursor: str | None  #: None when this is the last page

    @property
    def has_more(self) -> bool:
        return self.next_cursor is not None


def _encode_cursor(sort_value: Any, primary_key: Any) -> str:
    payload = json.dumps([sort_value, primary_key], separators=(",", ":"))
    return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii")


def _decode_cursor(cursor: str) -> tuple[Any, Any]:
    try:
        payload = json.loads(base64.urlsafe_b64decode(cursor.encode("ascii")))
        sort_value, primary_key = payload
    except Exception as exc:
        raise QueryPlanError(f"malformed cursor: {exc}") from exc
    return sort_value, primary_key


def _parse(query: str | Query) -> Query:
    if isinstance(query, Query):
        return query
    return parse_query(query)


def _parse_filter(query: str | Query, what: str) -> Query:
    """``query`` parsed, rejected unless it is a bare filter."""
    parsed = _parse(query)
    if parsed.group_by or parsed.order_by or parsed.limit is not None:
        raise QueryPlanError(f"{what} accepts a bare filter (no GROUP BY/ORDER BY/LIMIT)")
    return parsed


def _make_guard(
    guard: Guard | None,
    timeout_s: float | None,
    cancel: CancelToken | None,
    max_rows: int | None,
) -> Guard | None:
    """``guard``, or one built from the convenience knobs when any is set."""
    if guard is not None or (timeout_s is None and cancel is None and max_rows is None):
        return guard
    return Guard(
        deadline=Deadline.after(timeout_s) if timeout_s is not None else None,
        cancel=cancel,
        max_rows=max_rows,
    )


def _check_fields(schema: "Schema", group_by: str | None, order_by: str | None) -> None:
    """Reject GROUP BY / ORDER BY on fields the output rows cannot have."""
    if group_by is not None and not schema.has_field(group_by):
        raise QueryPlanError(f"cannot GROUP BY unknown field {group_by!r}")
    if order_by is None:
        return
    if group_by is not None:
        known = order_by in (group_by, "count")
    else:
        known = schema.has_field(order_by)
    if not known:
        raise QueryPlanError(f"cannot ORDER BY unknown field {order_by!r}")


def _count_run(returned: int, examined: int, seconds: float) -> None:
    """The per-execution registry counters, bumped once per run."""
    _EXECUTIONS.inc()
    _ROWS_EXAMINED.inc(examined)
    _ROWS_RETURNED.inc(returned)
    _QUERY_SECONDS.observe(seconds)


def _record_slow(
    slow_log: SlowQueryLog, query_text: str, trace_id: str, profile: "QueryProfile"
) -> None:
    """One slow-log entry carrying the operator tree of the run that just
    happened (nothing is re-executed)."""
    slow_log.record(
        query=query_text,
        plan=profile.plan_text,
        plan_cached=profile.plan_cached,
        rows=len(profile.rows),
        seconds=profile.seconds,
        profile=profile,
        trace_id=trace_id,
        fingerprint=profile.fingerprint,
    )


def _format_groups(counts: dict[Any, int], field: str) -> list[dict[str, Any]]:
    """GROUP BY output rows ``{field: value, "count": n}``, sorted by value
    for a deterministic default order."""
    return [
        {field: value, "count": count}
        for value, count in sorted(counts.items(), key=lambda kv: _sort_key(kv[0]))
    ]


def _top_k(
    rows: list[dict[str, Any]],
    key: Callable[[dict[str, Any]], Any],
    descending: bool,
    limit: int | None,
) -> list[dict[str, Any]]:
    """``sorted(rows, key=key, reverse=descending)[:limit]``.

    With a limit only ``limit`` rows are kept while scanning:
    :func:`heapq.nsmallest` / :func:`heapq.nlargest` return exactly that
    slice, ties in input order.
    """
    if limit is None:
        return sorted(rows, key=key, reverse=descending)
    top = heapq.nlargest if descending else heapq.nsmallest
    return top(limit, rows, key=key)


class PhysicalOp:
    """One physical operator of a query's execution chain.

    Shaped like a Volcano-style ``QPop``: ``child`` feeds it rows, and
    :meth:`apply` turns the child's output into this operator's output,
    counting the rows it reads into ``rows_in`` inside the loop or list
    it already has.  :func:`_drain` then settles each ``rows_out`` from
    the parent's ``rows_in`` (the top operator's from the result), so a
    plain run pays for no counting beyond those loops.  ``seconds``,
    ``cpu_ns`` and ``bytes`` are measured on profiled runs only.  The
    operator reads its clause from ``plan``.
    """

    __slots__ = ("child", "plan", "rows_in", "rows_out", "seconds", "cpu_ns", "bytes")

    op = "?"

    def __init__(self, child: "PhysicalOp | None", plan: Plan):
        self.child = child
        self.plan = plan
        self.rows_in = self.rows_out = self.cpu_ns = self.bytes = 0
        self.seconds = 0.0

    def children(self) -> tuple["PhysicalOp", ...]:
        return () if self.child is None else (self.child,)

    def describe(self) -> str:
        raise NotImplementedError

    def apply(self, rows: Any, guard: Guard | None) -> Iterable[dict[str, Any]]:
        """This operator's output, given its child's (``None`` for a leaf)."""
        raise NotImplementedError

    def run(self, guard: Guard | None, profile: bool) -> Iterable[dict[str, Any]]:
        """Output of the chain under this operator.

        A plain run chains the operators' streams; a profiled run
        materializes the child's output first, then this operator's, and
        times only its own stage.
        """
        rows = None if self.child is None else self.child.run(guard, profile)
        if not profile:
            return self.apply(rows, guard)
        start = time.perf_counter()
        cpu_start = time.thread_time_ns()
        out = self.apply(rows, guard)
        if not isinstance(out, list):
            out = list(out)
        self.seconds = time.perf_counter() - start
        self.cpu_ns = time.thread_time_ns() - cpu_start
        handled = out if rows is None else rows
        self.bytes = int(_avg_row_bytes(handled) * len(handled))
        return out

    @property
    def examined(self) -> int:
        """Rows the chain's access path examined (settled after a run)."""
        op = self
        while op.child is not None:
            op = op.child
        return op.rows_in

    def profile(self) -> OpProfile:
        """The counters of this operator and those below it, as a tree."""
        return OpProfile(
            op=self.op,
            detail=self.describe(),
            rows_examined=self.rows_in,
            rows_returned=self.rows_out,
            seconds=self.seconds,
            children=tuple(child.profile() for child in self.children()),
            cpu_ns=self.cpu_ns,
            bytes=self.bytes,
        )


class _Access(PhysicalOp):
    """Candidate records from the plan's access path; the store ticks the
    guard once per record it examines."""

    __slots__ = ("store",)

    def __init__(self, store: Any, plan: Plan):
        super().__init__(None, plan)
        self.store = store

    @property
    def op(self) -> str:  # type: ignore[override]
        return self.plan.access.op

    def describe(self) -> str:
        return self.plan.access.describe()

    def apply(self, rows: Any, guard: Guard | None) -> Iterator[dict[str, Any]]:
        if guard is not None:
            # Fail fast on a pre-expired deadline or pre-cancelled token
            # instead of after the first check stride.
            guard.check()
        return _candidates(self.store, self.plan.access, guard)


class _Filter(PhysicalOp):
    __slots__ = ()
    op = "filter"

    def describe(self) -> str:
        return str(self.plan.residual)

    def apply(self, rows: Any, guard: Guard | None) -> Iterator[dict[str, Any]]:
        evaluate = self.plan.residual.evaluate
        n = 0
        for row in rows:
            n += 1
            if evaluate(row):
                self.rows_in = n  # current at every yield: a LIMIT may stop pulling
                yield row
        self.rows_in = n


class _Aggregate(PhysicalOp):
    """GROUP BY COUNT; a list field counts each of its elements."""

    __slots__ = ()
    op = "aggregate"

    def describe(self) -> str:
        return f"GROUP BY {self.plan.group_by} (COUNT)"

    def apply(self, rows: Any, guard: Guard | None) -> list[dict[str, Any]]:
        field = self.plan.group_by
        counts: dict[Any, int] = {}
        n = 0
        for row in rows:
            n += 1
            value = row.get(field)
            if value is None:
                continue
            for v in value if isinstance(value, list) else (value,):
                counts[v] = counts.get(v, 0) + 1
        self.rows_in = n
        return _format_groups(counts, field)


class _Sort(PhysicalOp):
    """ORDER BY, taking the LIMIT so only the top ``limit`` rows are kept
    (see :func:`_top_k`).  ``key`` overrides the ORDER BY value key."""

    __slots__ = ("key",)
    op = "sort"

    def __init__(self, child: PhysicalOp, plan: Plan, key: Callable | None = None):
        super().__init__(child, plan)
        field = plan.order_by
        self.key = key if key is not None else (lambda r: _sort_key(r.get(field)))

    def describe(self) -> str:
        return f"ORDER BY {self.plan.order_by} {'DESC' if self.plan.descending else 'ASC'}"

    def apply(self, rows: Any, guard: Guard | None) -> list[dict[str, Any]]:
        rows = list(rows)
        self.rows_in = len(rows)
        return _top_k(rows, self.key, self.plan.descending, self.plan.limit)


class _Limit(PhysicalOp):
    __slots__ = ()
    op = "limit"

    def describe(self) -> str:
        return f"LIMIT {self.plan.limit}"

    def apply(self, rows: Any, guard: Guard | None) -> list[dict[str, Any]]:
        if isinstance(rows, list):
            self.rows_in = len(rows)
            return rows[: self.plan.limit]
        out = list(islice(rows, self.plan.limit))
        self.rows_in = len(out)
        return out


def _candidates(
    store: Any, access: Any, guard: Guard | None
) -> Iterator[dict[str, Any]]:
    """Records from ``store`` along one access path, each record once."""
    if isinstance(access, FullScan):
        # The store's scan loop charges every record examined
        # (predicate-filtered ones included) to the guard so huge
        # scans stay interruptible.
        yield from store.scan(guard=guard)
        return
    # The index reads charge every record they fetch to the guard,
    # before fetching it, so a deadline or row budget stops them too.
    if isinstance(access, IndexLookup):
        yield from store.find_by(access.field, access.value, guard=guard)
        return
    if isinstance(access, CompositeLookup):
        yield from store.find_by_composite(access.fields, access.values, guard=guard)
        return
    if isinstance(access, CompositeRange):
        yield from store.range_by_composite(
            access.fields,
            access.prefix,
            access.low,
            access.high,
            include_low=access.include_low,
            include_high=access.include_high,
            guard=guard,
        )
        return
    if isinstance(access, IndexMultiLookup):
        records: Iterable[dict[str, Any]] = chain.from_iterable(
            store.find_by(access.field, value, guard=guard) for value in access.values
        )
    elif isinstance(access, IndexRange):
        records = store.range_by(
            access.field,
            access.low,
            access.high,
            include_low=access.include_low,
            include_high=access.include_high,
            guard=guard,
        )
    else:  # pragma: no cover
        raise QueryPlanError(f"unknown access path {access!r}")
    # A list field can match several probe values (or range keys) in
    # one record: yield each record once, by primary key.
    seen: set[Any] = set()
    primary_key_of = store.schema.primary_key_of
    for record in records:
        key = primary_key_of(record)
        if key not in seen:
            seen.add(key)
            yield record


def _compile(store: Any, plan: Plan, sort_key: Callable | None = None) -> PhysicalOp:
    """The operator chain for ``plan`` over ``store``; returns its top
    operator.  ``sort_key`` overrides the sort's ORDER BY value key."""
    _check_fields(store.schema, plan.group_by, plan.order_by)
    top: PhysicalOp = _Access(store, plan)
    if plan.residual is not None:
        top = _Filter(top, plan)
    if plan.group_by is not None:
        top = _Aggregate(top, plan)
    if plan.order_by is not None:
        top = _Sort(top, plan, sort_key)
    if plan.limit is not None:
        top = _Limit(top, plan)
    return top


def _drain(
    top: PhysicalOp, guard: Guard | None, profile: bool = False
) -> list[dict[str, Any]]:
    """Run the chain under ``top`` to the end and settle its counters.

    Each operator's output is exactly what its parent read, so
    ``rows_out`` comes from the parent's ``rows_in``, and the access
    path's ``rows_in`` (rows examined) from its own output.
    """
    rows = top.run(guard, profile)
    out = rows if isinstance(rows, list) else list(rows)
    top.rows_out = len(out)
    op = top
    while op.child is not None:
        op.child.rows_out = op.rows_in
        op = op.child
    op.rows_in = op.rows_out
    return out


class _Engine:
    """The execution skeleton both query engines share.

    :meth:`_execute` binds a trace ID (see
    :func:`repro.obs.logging.trace`), parses, takes the plan from the
    per-engine :class:`PlanCache`, runs it through the engine's
    ``_run(plan, guard, profile, plan_cached, fingerprint, partial)`` —
    which returns ``(rows, rows examined, seconds, tree)``, ``tree()``
    building the run's :class:`QueryProfile` — and then attributes the
    execution to its fingerprint, logs it at debug level, and records a
    slow-log entry holding the operator tree of that same run.
    """

    #: Whether executions sample this thread's CPU clock (a scatter's
    #: CPU burns on worker threads, invisible to it).
    _samples_cpu = True
    _log_event = "query.execute"

    def __init__(
        self,
        store: Any,
        *,
        plan_cache_size: int = 256,
        slow_log: SlowQueryLog | None = None,
    ):
        self.store = store
        self.plan_cache = PlanCache(maxsize=plan_cache_size)
        self.slow_log = slow_log
        # Cached per-row byte estimate for workload attribution: rows
        # share one schema, so a periodically refreshed average is as
        # good as sampling every execution at a fraction of the cost.
        self._bytes_per_row = 0.0
        # One merged countdown serves both sampling schedules: every
        # trip takes a thread-CPU sample, and every _BYTES_REFRESH /
        # _CPU_SAMPLE_EVERY trips the byte estimate is resampled too —
        # a single attribute decrement on the per-execution path.
        self._probe = 0  # executions until the next thread-CPU sample
        self._bytes_rounds = 0  # sample trips until the next byte resample

    def _log_fields(self, out: list[dict[str, Any]]) -> dict[str, Any]:
        return {}

    def _execute(
        self,
        query: str | Query,
        *,
        profile: bool,
        guard: Guard | None,
        partial: bool = False,
    ) -> list[dict[str, Any]] | QueryProfile:
        with _logging.trace() as trace_id:
            parsed = _parse(query)
            plan, fp, template, cached = self.plan_cache.get_or_plan_fingerprinted(
                parsed, self.store
            )
            query_text = query if isinstance(query, str) else str(query)
            if not _WORKLOAD_TABLE.enabled:
                fp = None
            # Thread-CPU clock reads are sampled (see _CPU_SAMPLE_EVERY);
            # cpu_start = -1 marks an unsampled execution.
            cpu_start = -1
            if fp is not None and self._samples_cpu:
                if profile:
                    cpu_start = time.thread_time_ns()
                else:
                    self._probe -= 1
                    if self._probe < 0:
                        self._probe = _CPU_SAMPLE_EVERY - 1
                        cpu_start = time.thread_time_ns()
            start = time.perf_counter()
            try:
                out, examined, seconds, tree = self._run(
                    plan, guard, profile, cached, fp, partial
                )
            except QueryInterrupted as exc:
                if fp is not None:
                    _RECORD_PACKED((
                        fp, template, 0, exc.rows_examined,
                        time.thread_time_ns() - cpu_start if cpu_start >= 0 else -1,
                        time.perf_counter() - start,
                        0, cached, _interruption_kind(exc), False, None,
                    ))
                raise
            slow = self.slow_log
            logged = slow is not None and seconds >= slow.threshold_s
            result = tree() if profile or logged else None
            if profile:
                _PROFILED.inc()
            rows = len(out)
            if fp is not None:
                cpu_ns = -1
                if cpu_start >= 0:
                    cpu_ns = time.thread_time_ns() - cpu_start
                    # A sample trip also ticks the byte-estimate
                    # resample countdown (see _BYTES_REFRESH).
                    self._bytes_rounds -= 1
                if out and (profile or not self._samples_cpu or self._bytes_rounds < 0):
                    self._refresh_bytes_per_row(out)
                # Packed positional form of WorkloadTable.record — one
                # deque append per execution (see record_packed); the
                # common successful path uses the short 8-slot shape.
                record = (
                    fp, template, rows, examined, cpu_ns, seconds,
                    examined * self._bytes_per_row, cached,
                )
                if profile:
                    nodes = [n.workload_node() for n in result.root.iter_nodes()]
                    record += (None, False, nodes)
                _RECORD_PACKED(record)
            if _logging.would_log("debug"):
                _logging.debug(
                    self._log_event,
                    query=query_text,
                    access=plan.access.op,
                    plan_cached=cached,
                    fingerprint=fp,
                    rows=rows,
                    seconds=round(seconds, 6),
                    profiled=profile,
                    **self._log_fields(out),
                )
            if logged:
                _record_slow(slow, query_text, trace_id, result)
            return result if profile else out

    def _refresh_bytes_per_row(self, out_rows: list[dict[str, Any]]) -> None:
        """Resample the cached per-row byte estimate from live rows.

        Sampling rows on every execution would dominate the attribution
        budget on sub-100µs queries; instead the first execution (and
        every :data:`_BYTES_REFRESH`\\ th after it) samples its result
        rows, and the rest extrapolate from the cached average inline at
        the record site.
        """
        self._bytes_per_row = _avg_row_bytes(out_rows)
        self._bytes_rounds = _BYTES_REFRESH // _CPU_SAMPLE_EVERY


class QueryEngine(_Engine):
    """Plans and executes query strings (or pre-parsed :class:`Query`).

    Plans are memoized in a per-engine :class:`PlanCache` (LRU of
    ``plan_cache_size`` entries, keyed on the parsed AST plus the store's
    ``index_epoch``) — a repeated query skips the planner's rule search
    entirely, and any index create/drop or bulk write retires every
    cached plan by bumping the epoch.

    Every :meth:`execute` runs under a trace ID (see
    :func:`repro.obs.logging.trace`): its log events, its spans, and —
    when a :class:`~repro.obs.slowlog.SlowQueryLog` is attached and the
    query crosses the threshold — its slow-log entry all carry that one
    ID.  The slow-log entry holds the operator tree of the run itself:
    per-operator rows always, per-operator times when the caller asked
    for ``profile=True``.  A slow query is never run a second time.
    """

    # -- public API ---------------------------------------------------------

    def execute(
        self,
        query: str | Query,
        *,
        profile: bool = False,
        guard: Guard | None = None,
        timeout_s: float | None = None,
        cancel: CancelToken | None = None,
        max_rows: int | None = None,
    ) -> list[dict[str, Any]] | QueryProfile:
        """Run ``query`` and return the matching records.

        With ``profile=True``, returns a :class:`QueryProfile` instead:
        the rows plus the annotated operator tree with per-node timings
        and rows-examined/rows-returned counts (``EXPLAIN ANALYZE``).

        Execution can be bounded: pass a pre-built
        :class:`~repro.resilience.Guard`, or let the convenience knobs
        (``timeout_s`` wall clock, ``cancel`` token, ``max_rows`` row
        budget) build one.  A violated bound unwinds with the matching
        :class:`~repro.errors.QueryInterrupted` subclass carrying
        partial-progress stats; a profiled run additionally attaches the
        partial EXPLAIN ANALYZE tree as ``exc.partial``.  An explicit
        ``guard`` takes precedence over the knobs.
        """
        guard = _make_guard(guard, timeout_s, cancel, max_rows)
        try:
            return self._execute(query, profile=profile, guard=guard)
        except Exception:
            _FAILURES.inc()
            raise

    def _run(
        self,
        plan: Plan,
        guard: Guard | None,
        profile: bool,
        plan_cached: bool,
        fingerprint: str | None,
        partial: bool,
    ) -> tuple[list[dict[str, Any]], int, float, Callable[[], QueryProfile]]:
        top = _compile(self.store, plan)
        pstats = PageStats()
        start = time.perf_counter()
        if not profile:
            out = self.run_plan(top, guard=guard)
            seconds = time.perf_counter() - start
        else:
            # EXPLAIN ANALYZE: materialize and time each operator.  An
            # interrupted run carries its partial tree as exc.partial.
            with _tracing.span(
                "query.execute", access=plan.access.op, profiled=True
            ) as qspan:
                trace_id = _logging.current_trace_id()
                if trace_id is not None:
                    qspan.set_attribute("trace_id", trace_id)
                if fingerprint is not None:
                    qspan.set_attribute("fingerprint", fingerprint)
                try:
                    with page_stats_scope(pstats):
                        out = _drain(top, guard, profile=True)
                except QueryInterrupted as exc:
                    seconds = time.perf_counter() - start
                    root = OpProfile(
                        op=plan.access.op,
                        detail=f"{plan.access.describe()} [interrupted: {type(exc).__name__}]",
                        rows_examined=exc.rows_examined,
                        rows_returned=0,
                        seconds=seconds,
                    )
                    exc.partial = QueryProfile(
                        rows=[],
                        root=root,
                        plan_text=plan.explain(),
                        seconds=seconds,
                        plan_cached=plan_cached,
                        fingerprint=fingerprint,
                    )
                    raise
                seconds = time.perf_counter() - start
                _count_run(len(out), top.examined, seconds)
                qspan.set_attribute("rows", len(out))
                if pstats.hits or pstats.misses:
                    qspan.set_attribute("page_hits", pstats.hits)
                    qspan.set_attribute("page_misses", pstats.misses)

        def tree() -> QueryProfile:
            return QueryProfile(
                rows=out,
                root=top.profile(),
                plan_text=plan.explain(),
                seconds=seconds,
                plan_cached=plan_cached,
                fingerprint=fingerprint,
                page_hits=pstats.hits,
                page_misses=pstats.misses,
            )

        return out, top.examined, seconds, tree

    def explain(self, query: str | Query) -> str:
        """The plan that :meth:`execute` would use, as text."""
        parsed = _parse(query)
        plan, _ = self.plan_cache.get_or_plan(parsed, self.store)
        return plan.explain()

    def execute_without_indexes(self, query: str | Query) -> list[dict[str, Any]]:
        """Run ``query`` as a pure scan (the E3 baseline and test oracle)."""
        parsed = _parse(query)
        plan = Plan(
            access=FullScan(),
            residual=parsed.where,
            order_by=parsed.order_by,
            descending=parsed.descending,
            limit=parsed.limit,
        )
        return self.run_plan(plan)

    # -- plan execution --------------------------------------------------------

    def count(self, query: str | Query) -> int:
        """Number of records matching ``query`` (ignores GROUP BY/LIMIT)."""
        parsed = _parse(query)
        plan, _ = self.plan_cache.get_or_plan(Query(where=parsed.where), self.store)
        return sum(1 for _ in _compile(self.store, plan).run(None, False))

    def execute_paged(
        self, query: str | Query, *, page_size: int, cursor: str | None = None
    ) -> Page:
        """Run ``query`` returning one stable page at a time.

        Rows are ordered by the query's ORDER BY (primary key as the
        implicit fallback and as the tiebreak), and the returned cursor
        names the last row seen — so pages stay consistent even if rows
        are inserted or deleted between calls (no offset drift; a row is
        never skipped or repeated unless it itself changed).  GROUP BY and
        LIMIT are rejected: pagination owns the output shape.
        """
        if page_size <= 0:
            raise QueryPlanError(f"page_size must be positive, got {page_size}")
        parsed = _parse(query)
        if parsed.group_by is not None or parsed.limit is not None:
            raise QueryPlanError("paged queries must not use GROUP BY or LIMIT")

        pk_field = self.store.schema.primary_key
        order_field = parsed.order_by or pk_field
        _check_fields(self.store.schema, None, order_field)
        plan, _ = self.plan_cache.get_or_plan(Query(where=parsed.where), self.store)
        rows = _compile(self.store, plan).run(None, False)

        def row_key(record: dict[str, Any]) -> tuple:
            return (
                _sort_key(record.get(order_field)),
                _sort_key(record.get(pk_field)),
            )

        if cursor is not None:
            after_value, after_pk = _decode_cursor(cursor)
            after = (_sort_key(after_value), _sort_key(after_pk))
            if parsed.descending:
                rows = (r for r in rows if row_key(r) < after)
            else:
                rows = (r for r in rows if row_key(r) > after)
        # The key is total (primary-key tiebreak); one row past the page
        # tells whether another page follows.
        ordered = _top_k(list(rows), row_key, parsed.descending, page_size + 1)
        page_rows = ordered[:page_size]
        next_cursor = None
        if len(ordered) > page_size:
            last = page_rows[-1]
            next_cursor = _encode_cursor(last.get(order_field), last.get(pk_field))
        return Page(rows=page_rows, next_cursor=next_cursor)

    def delete(self, query: str | Query) -> int:
        """Atomically delete every record matching ``query``'s filter.

        GROUP BY / ORDER BY / LIMIT clauses are rejected — a destructive
        operation must not depend on presentation clauses.
        """
        parsed = _parse_filter(query, "DELETE")
        return self.store.delete_where(parsed.matches)

    def run_plan(
        self, plan: Plan | PhysicalOp, *, guard: Guard | None = None
    ) -> list[dict[str, Any]]:
        """Execute a :class:`Plan` produced by the planner, unprofiled.

        Rows stream through the plan's operator chain.  ``plan`` may also
        be a chain already compiled from a plan, whose per-operator
        counters the caller reads afterwards.  ``guard`` bounds the
        execution (deadline / cancellation / row budget), ticked once per
        candidate row the access path examines.
        """
        start = time.perf_counter()
        top = plan if isinstance(plan, PhysicalOp) else _compile(self.store, plan)
        out = _drain(top, guard)
        _count_run(len(out), top.examined, time.perf_counter() - start)
        return out


def _sort_key(value: Any) -> tuple[int, Any]:
    """Total order over heterogeneous field values: None first, then by type."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    return (4, str(value))


# -- scatter-gather execution across a sharded store ------------------------

_SCATTER_COUNT = _metrics.counter("query.scatter.count")
_SCATTER_MERGE_SECONDS = _metrics.histogram("query.scatter.merge.seconds")
# Partial-mode scatters that actually returned a degraded (incomplete)
# result — the numerator of a "how often are we serving partial" SLO.
_SCATTER_PARTIAL = _metrics.counter("query.scatter.partial.count")


class PartialResult(list):
    """Rows from a partial-mode scatter, plus degradation metadata.

    A plain ``list`` subclass, so every caller that just iterates rows is
    unaffected; ``partial`` is ``True`` when at least one shard was
    skipped, and ``shards_failed`` names the skipped shard indexes.
    Strict-mode executions never return this type.
    """

    __slots__ = ("partial", "shards_failed")

    def __init__(
        self,
        rows: list[dict[str, Any]],
        *,
        partial: bool = False,
        shards_failed: tuple[int, ...] = (),
    ):
        super().__init__(rows)
        self.partial = partial
        self.shards_failed = shards_failed


class _SharedRowBudget:
    """One row budget shared by every shard worker of a scatter.

    The single-store guard enforces ``max_rows`` exactly; across
    concurrently scanning workers exactness would need a lock per row, so
    the shared ledger is charged in the same stride-sized blocks the
    workers already tick in — the budget still trips within one stride
    per worker of the limit, it just cannot promise ``used == limit + 1``.
    """

    __slots__ = ("max_rows", "rows", "_lock")

    def __init__(self, max_rows: int):
        self.max_rows = max_rows
        self.rows = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> int:
        with self._lock:
            self.rows += n
            return self.rows


class _EitherCancelled:
    """Duck-typed :class:`CancelToken` view over caller + scatter tokens.

    A worker must stop when either the caller cancelled the query or a
    sibling worker failed (the scatter's internal abort); :class:`Guard`
    only reads ``.cancelled``, so a two-token view slots straight in.
    """

    __slots__ = ("_caller", "_abort")

    def __init__(self, caller: CancelToken | None, abort: CancelToken):
        self._caller = caller
        self._abort = abort

    @property
    def cancelled(self) -> bool:
        return (
            self._caller is not None and self._caller.cancelled
        ) or self._abort.cancelled


class _ShardGuard(Guard):
    """Per-worker guard charging a scatter-shared row budget.

    A :class:`Guard` is single-execution state and must not be shared
    across threads, but its deadline and cancellation *inputs* are
    thread-safe — so every worker gets its own guard wired to the shared
    :class:`Deadline` / cancel tokens, and the row budget moves to a
    locked :class:`_SharedRowBudget` so all workers draw from one limit.
    """

    __slots__ = ("_ledger",)

    def __init__(
        self,
        *,
        deadline: Deadline | None,
        cancel: "_EitherCancelled | CancelToken | None",
        ledger: _SharedRowBudget | None,
        stride: int,
    ):
        super().__init__(deadline=deadline, cancel=cancel, stride=stride)  # type: ignore[arg-type]
        self._ledger = ledger

    def tick(self, rows: int = 1) -> None:
        self.rows_examined += rows
        ledger = self._ledger
        if ledger is not None:
            total = ledger.add(rows)
            if total > ledger.max_rows:
                self._raise_budget("rows", ledger.max_rows, total)
        self._until_check -= rows
        if self._until_check <= 0:
            self._until_check = self.stride
            self.check()


@dataclass(slots=True)
class PartialAggregate:
    """Mergeable aggregate state over one numeric field.

    Carries the classic decomposable set — count, sum, min, max — from
    which avg derives as ``sum / count``, so per-shard partials combine
    into exactly the whole-corpus aggregate (for ints bit-for-bit; float
    sums can differ in the last ulp across groupings, as any
    order-changing summation does).
    """

    count: int = 0
    total: Any = 0
    minimum: Any = None
    maximum: Any = None

    def add(self, value: Any) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "PartialAggregate") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.minimum is None or other.minimum < self.minimum:
            self.minimum = other.minimum
        if self.maximum is None or other.maximum > self.maximum:
            self.maximum = other.maximum

    def finalize(self) -> dict[str, Any]:
        """The aggregate row: count/sum/min/max/avg (None-valued on empty)."""
        if self.count == 0:
            return {"count": 0, "sum": 0, "min": None, "max": None, "avg": None}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "avg": self.total / self.count,
        }


class _Fold(PhysicalOp):
    """A shard's numeric aggregate: folds the ``field`` values of its rows
    into one :class:`PartialAggregate`, returned as a one-element list."""

    __slots__ = ("field",)
    op = "aggregate"

    def __init__(self, child: PhysicalOp, field: str):
        super().__init__(child, child.plan)
        self.field = field

    def describe(self) -> str:
        return f"PARTIAL AGGREGATE {self.field}"

    def apply(self, rows: Any, guard: Guard | None) -> list[PartialAggregate]:
        partial = PartialAggregate()
        n = 0
        for row in rows:
            n += 1
            value = row.get(self.field)
            if value is not None:
                partial.add(value)
        self.rows_in = n
        return [partial]


class ShardedQueryEngine(_Engine):
    """Scatter-gather query execution over a :class:`ShardedStore`.

    Planning happens once, at the facade: the sharded store exposes the
    same index metadata surface as a single store (epochs, kinds,
    summed statistics), so the ordinary planner — and this engine's
    :class:`PlanCache` — work unchanged.  The chosen plan is then split by
    :func:`~repro.query.planner.plan_scatter`: every shard runs the
    single-store operator chain for its share of the plan against its
    own partition on a worker thread, and the gather phase reassembles
    the output:

    * **sorted scans** — shards return runs pre-sorted by
      ``(ORDER BY value, primary key)`` and the gather k-way-merges them
      lazily (:func:`heapq.merge`), stopping at LIMIT.  The primary-key
      tiebreak totalizes the order, so the result is identical for any
      shard count.  (It can differ from a *plain* :class:`QueryEngine` on
      duplicate sort keys only: the plain engine keeps input order among
      ties where this engine uses primary-key order.)
    * **aggregates** — shards run the single-store aggregate operator;
      the gather sums the per-value counts and formats them with the
      same function, so GROUP BY output is byte-identical to
      single-store execution.
    * **LIMIT pushdown** — without aggregation each shard produces at most
      LIMIT rows (the sort's top-k when sorted, an early-exit limit when
      not) and the merged stream is trimmed again.  As in SQL, a query
      *without* ORDER BY returns its matches in unspecified order (here:
      shard-major), and LIMIT without ORDER BY picks an unspecified
      subset — both depend on the shard count.  Sorted scans and
      aggregates are the deterministic surfaces.

    Deadlines, cancellation, and row budgets span the whole scatter: the
    caller's :class:`Deadline` / :class:`CancelToken` are shared by every
    worker directly (both are thread-safe), while the row budget moves
    into a locked ledger all workers draw down together.  The first
    failing worker aborts its siblings through an internal cancel token;
    the first *root-cause* error (anything but the induced cancellation)
    is what propagates, with ``rows_examined`` summed across workers.

    Reads only — run ingest and queries from different phases, exactly as
    with a single :class:`RecordStore`.

    Observability: every execution runs under one trace ID that the
    shard workers adopt — the scatter emits a ``query.scatter`` root
    span with one ``query.shard`` child per shard (``shard`` / ``rows``
    / ``seconds`` attributes), and worker log lines carry the caller's
    trace ID.  ``execute(..., profile=True)`` returns a
    :class:`QueryProfile` whose root ``scatter`` node has one ``shard``
    child per shard (rows, per-shard wall time, buffer-pool page
    hits/misses attributed through
    :func:`~repro.storage.bufferpool.page_stats_scope`); a slow execution
    lands one slow-log entry covering the whole fan-out with the same
    tree, which a scatter measures whether profiled or not.
    """

    def __init__(
        self,
        store: "ShardedStore",
        *,
        plan_cache_size: int = 256,
        slow_log: SlowQueryLog | None = None,
        retry: RetryPolicy | None = None,
    ):
        super().__init__(store, plan_cache_size=plan_cache_size, slow_log=slow_log)
        #: Bounded per-shard retry used by partial mode before a failing
        #: shard is given up on (transient faults recover in place; a
        #: persistent fault costs max_attempts tries, then the shard is
        #: skipped).  Strict mode never retries — its semantics are
        #: byte-for-byte the pre-partial behaviour.
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=2)
        self._pool: ThreadPoolExecutor | None = None
        self._shard_rows = tuple(
            _metrics.counter("query.scatter.shard.rows", shard=str(i))
            for i in range(store.shard_count)
        )
        self._shard_skipped = tuple(
            _metrics.counter("query.scatter.shard.skipped", shard=str(i))
            for i in range(store.shard_count)
        )

    # -- public API --------------------------------------------------------

    def execute(
        self,
        query: str | Query,
        *,
        profile: bool = False,
        guard: Guard | None = None,
        timeout_s: float | None = None,
        cancel: CancelToken | None = None,
        max_rows: int | None = None,
        partial: bool = False,
    ) -> list[dict[str, Any]] | QueryProfile:
        """Run ``query`` across all shards and return the merged records.

        With ``profile=True``, returns a :class:`QueryProfile` instead:
        the merged rows plus a two-level operator tree — a ``scatter``
        root with one ``shard`` child per shard carrying that worker's
        rows, wall time, and buffer-pool page hits/misses.

        Bounds work as on :meth:`QueryEngine.execute` — pass a pre-built
        :class:`Guard` or the convenience knobs — except that the bound
        covers the *whole scatter*: the deadline and cancel token are
        shared by every shard worker, and ``max_rows`` limits the total
        rows examined across all shards (enforced at stride granularity;
        see :class:`_SharedRowBudget`).

        ``partial=True`` opts into graceful degradation: quarantined
        shards are skipped up front, a shard whose worker fails is
        retried (bounded, via the engine's :class:`RetryPolicy`) and
        then skipped instead of failing the whole query, and the rows
        come back as a :class:`PartialResult` whose ``partial`` /
        ``shards_failed`` attributes say exactly what is missing (the
        profile carries the same fields).  Interruptions — deadline,
        cancellation, row budget — still raise: they bound the *caller's*
        resources, not a shard's health.  The default (strict) mode is
        all-or-nothing: a worker failure propagates, and a quarantined
        shard raises :class:`~repro.errors.ShardUnavailableError` up
        front — its bytes cannot be trusted, so strict refuses to read
        around (or from) it.
        """
        guard = _make_guard(guard, timeout_s, cancel, max_rows)
        try:
            return self._execute(
                query, profile=profile, guard=guard, partial=partial
            )
        except Exception:
            _FAILURES.inc()
            raise

    def execute_partial(
        self, query: str | Query, **kwargs: Any
    ) -> PartialResult | QueryProfile:
        """:meth:`execute` with ``partial=True`` (convenience alias)."""
        return self.execute(query, partial=True, **kwargs)  # type: ignore[return-value]

    _samples_cpu = False
    _log_event = "query.scatter.execute"

    def _run(
        self,
        plan: Plan,
        guard: Guard | None,
        profile: bool,
        plan_cached: bool,
        fingerprint: str | None,
        partial: bool,
    ) -> tuple[list[dict[str, Any]], int, float, Callable[[], QueryProfile]]:
        splan = plan_scatter(plan)
        _check_fields(self.store.schema, splan.group_by, splan.order_by)
        group, order, limit = splan.group_by, splan.order_by, splan.shard_limit
        pk = self.store.schema.primary_key

        def merge_key(record: dict[str, Any]) -> tuple:
            return (_sort_key(record.get(order)), _sort_key(record.get(pk)))

        # Every shard compiles the single-store operator chain for its
        # share of the plan: access and filter, then the aggregate
        # (partial counts, summed below; groups are ordered after the
        # merge), a sort keeping its top ``shard_limit`` rows by
        # ``(ORDER BY value, primary key)``, or a limit.
        shard_plan = replace(
            splan.shard_plan,
            group_by=group,
            order_by=None if group is not None else order,
            descending=splan.descending,
            limit=limit,
        )
        start = time.perf_counter()
        with _tracing.span(
            "query.scatter",
            access=plan.access.op,
            shards=self.store.shard_count,
        ) as sspan:
            sspan.set_attribute("trace_id", _logging.current_trace_id())
            parts, examined, shards, shards_failed = self._scatter(
                guard,
                lambda store: _compile(store, shard_plan, merge_key),
                partial=partial,
            )
            merge_start = time.perf_counter()
            if group is not None:
                totals: dict[Any, int] = {}
                for part in parts:
                    for row in part:
                        totals[row[group]] = totals.get(row[group], 0) + row["count"]
                out = _format_groups(totals, group)
                if order is not None:
                    out = _top_k(
                        out, lambda r: _sort_key(r.get(order)), splan.descending, splan.limit
                    )
                if splan.limit is not None:
                    out = out[: splan.limit]
            elif order is not None:
                out = list(islice(
                    heapq.merge(*parts, key=merge_key, reverse=splan.descending), limit
                ))
            else:
                out = list(islice(chain.from_iterable(parts), limit))
            _SCATTER_MERGE_SECONDS.observe(time.perf_counter() - merge_start)
            seconds = time.perf_counter() - start
            sspan.set_attribute("rows", len(out))
            if shards_failed:
                sspan.set_attribute("shards_failed", list(shards_failed))
        for idx, shard in enumerate(shards):
            if shard is not None:
                self._shard_rows[idx].inc(shard[0].rows_returned)
        _SCATTER_COUNT.inc()
        if partial:
            out = PartialResult(
                out,
                partial=bool(shards_failed),
                shards_failed=shards_failed,
            )
            if shards_failed:
                _SCATTER_PARTIAL.inc()
        _count_run(len(out), examined, seconds)

        def tree() -> QueryProfile:
            # Shard rows and wall times are measured on every scatter
            # (they feed the query.shard spans): no profiled run needed.
            ran = [shard for shard in shards if shard is not None]
            skipped = tuple(
                OpProfile(
                    op="shard",
                    detail=f"shard {idx}  SKIPPED (failed or quarantined)",
                    rows_examined=0,
                    rows_returned=0,
                    seconds=0.0,
                )
                for idx in shards_failed
            )
            root = OpProfile(
                op="scatter",
                detail=(
                    f"{splan.shard_plan.access.describe()} "
                    f"over {self.store.shard_count} shards"
                ),
                rows_examined=examined,
                rows_returned=len(out),
                seconds=seconds,
                children=skipped + tuple(node for node, _ in ran),
            )
            return QueryProfile(
                rows=out,
                root=root,
                plan_text=splan.explain(),
                seconds=seconds,
                plan_cached=plan_cached,
                fingerprint=fingerprint,
                page_hits=sum(stats.hits for _, stats in ran),
                page_misses=sum(stats.misses for _, stats in ran),
                partial=bool(shards_failed),
                shards_failed=shards_failed,
            )

        return out, examined, seconds, tree

    def _log_fields(self, out: list[dict[str, Any]]) -> dict[str, Any]:
        return {
            "shards": self.store.shard_count,
            "partial": bool(getattr(out, "partial", False)),
        }

    def explain(self, query: str | Query) -> str:
        """The scatter plan :meth:`execute` would use, as text."""
        parsed = _parse(query)
        plan, _, _, _ = self.plan_cache.get_or_plan_fingerprinted(
            parsed, self.store  # type: ignore[arg-type]
        )
        return plan_scatter(plan).explain()

    def count(self, query: str | Query) -> int:
        """Number of records matching ``query`` (clauses beyond the filter
        are rejected, as on :meth:`QueryEngine.count`)."""
        parsed = _parse_filter(query, "COUNT")
        return len(self.execute(parsed))

    def aggregate(
        self,
        query: str | Query,
        field: str,
        *,
        guard: Guard | None = None,
    ) -> dict[str, Any]:
        """Scatter-gather numeric aggregate of ``field`` over the filter.

        Each shard folds its matching records into a
        :class:`PartialAggregate`; the partials merge into one row of
        ``{"count", "sum", "min", "max", "avg"}`` over the non-None
        values.  ``query`` must be a bare filter — GROUP BY COUNT goes
        through :meth:`execute`; this is the programmatic surface for the
        remaining decomposable aggregates.
        """
        parsed = _parse_filter(query, "aggregate()")
        schema = self.store.schema
        if not schema.has_field(field):
            raise QueryPlanError(f"cannot aggregate unknown field {field!r}")
        kind = schema.field(field).type.value
        if kind not in ("int", "float"):
            raise QueryPlanError(
                f"aggregate needs a numeric field; {field!r} is {kind}"
            )
        plan, _, _, _ = self.plan_cache.get_or_plan_fingerprinted(
            parsed, self.store  # type: ignore[arg-type]
        )
        shard_plan = plan_scatter(plan).shard_plan
        parts, examined, _, _ = self._scatter(
            guard, lambda store: _Fold(_compile(store, shard_plan), field)
        )
        merged = PartialAggregate()
        for (partial,) in parts:
            merged.merge(partial)
        _EXECUTIONS.inc()
        _ROWS_EXAMINED.inc(examined)
        _SCATTER_COUNT.inc()
        return merged.finalize()

    def close(self) -> None:
        """Shut down the worker pool (idempotent; shards stay open)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- scatter/gather internals ------------------------------------------

    def _scatter(
        self,
        guard: Guard | None,
        compile_shard: Callable[[Any], PhysicalOp],
        *,
        partial: bool = False,
    ) -> tuple[
        list[Any], int, list[tuple[OpProfile, PageStats] | None], tuple[int, ...]
    ]:
        """Run one operator chain per shard, in parallel.

        ``compile_shard(store)`` builds the chain over one shard's store;
        the per-shard outputs come back in shard order.  Returns
        ``(parts, total_rows_examined, shards, failed)`` where
        ``shards[i]`` is shard ``i``'s ``shard`` tree node (rows, rows
        examined, wall time) and its buffer-pool page touches — ``None``
        for a shard that did not run — and ``failed`` is the tuple of
        skipped shard indexes (always empty in strict mode, which raises
        instead).  Workers adopt the caller's trace context, so
        their ``query.shard`` spans nest under the ``query.scatter`` root
        and their log lines carry the same trace ID.

        In partial mode a quarantined shard is skipped without being
        touched, a shard whose worker raises gets a bounded retry (the
        engine's :class:`RetryPolicy` — only transient faults actually
        re-run) and is then skipped, and sibling workers are *not*
        aborted by a skippable failure.  Interruptions (deadline /
        cancel / budget) abort the scatter in both modes.
        """
        # Read once: ShardedStore.reopen_shard swaps the tuple after a repair.
        stores = self.store.shards
        if guard is not None:
            guard.check()  # fail fast before spawning workers
        abort = CancelToken()
        worker_guards: list[Guard | None]
        if guard is None:
            worker_guards = [None] * self.store.shard_count
        else:
            ledger = (
                _SharedRowBudget(guard.max_rows)
                if guard.max_rows is not None
                else None
            )
            cancel = _EitherCancelled(guard.cancel, abort)
            worker_guards = [
                _ShardGuard(
                    deadline=guard.deadline,
                    cancel=cancel,
                    ledger=ledger,
                    stride=guard.stride,
                )
                for _ in range(self.store.shard_count)
            ]

        ctx = _tracing.TraceContext.capture()
        shards: list[tuple[OpProfile, PageStats] | None] = [None] * self.store.shard_count
        health = getattr(self.store, "health", None)
        failed: dict[int, BaseException] = {}
        failed_lock = threading.Lock()
        skipped = object()  # sentinel part for a shard given up on

        def attempt(idx: int) -> Any:
            top = compile_shard(stores[idx])
            stats = PageStats()
            shard_start = time.perf_counter()
            with page_stats_scope(stats):
                part = _drain(top, worker_guards[idx])
            node = OpProfile(
                op="shard",
                detail=f"shard {idx}  pages hit={stats.hits} miss={stats.misses}",
                rows_examined=top.examined,
                rows_returned=len(part),
                seconds=time.perf_counter() - shard_start,
            )
            shards[idx] = (node, stats)
            return part

        def run_shard(idx: int) -> Any:
            with ctx.attach(), _tracing.span("query.shard", shard=idx) as sspan:
                try:
                    if partial:
                        part = self.retry.call(
                            lambda: attempt(idx), describe=f"query.shard{idx}"
                        )
                    else:
                        part = attempt(idx)
                except QueryInterrupted:
                    # The caller's bound tripped (or a sibling's abort
                    # propagated) — not a shard fault, in either mode.
                    abort.cancel()
                    raise
                except BaseException as exc:
                    if health is not None:
                        health.record_error(idx, exc, source="query")
                    if not partial:
                        abort.cancel()  # stop the sibling workers promptly
                        raise
                    with failed_lock:
                        failed[idx] = exc
                    self._shard_skipped[idx].inc()
                    sspan.set_attribute("skipped", True)
                    _logging.warn(
                        "query.scatter.shard_skipped",
                        shard=idx,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    return skipped
                if health is not None:
                    health.record_success(idx)
                node = shards[idx][0]
                sspan.set_attribute("rows", node.rows_returned)
                sspan.set_attribute("seconds", round(node.seconds, 6))
                return part

        count = self.store.shard_count
        indexes = list(range(count))
        if health is not None:
            for idx in list(indexes):
                if not health.is_serving(idx):
                    error = ShardUnavailableError(
                        idx, health.state(idx), health.reason(idx)
                    )
                    if not partial:
                        # Strict queries must not read a shard pulled
                        # out of service — a corruption quarantine means
                        # its bytes cannot be trusted.  Fail fast with
                        # the typed error instead of fanning out.
                        raise error
                    indexes.remove(idx)
                    failed[idx] = error
                    self._shard_skipped[idx].inc()
        if len(indexes) == 1:
            parts = [run_shard(indexes[0])]
        else:
            pool = self._pool
            if pool is None:
                pool = self._pool = ThreadPoolExecutor(
                    max_workers=count, thread_name_prefix="repro-scatter"
                )
            futures: list[Future] = [pool.submit(run_shard, i) for i in indexes]
            parts = []
            errors: list[BaseException] = []
            for future in futures:
                try:
                    parts.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
            if errors:
                self._raise_first(errors, worker_guards)
        parts = [part for part in parts if part is not skipped]

        # A skipped shard examined nothing this query can count.
        examined = sum(shard[0].rows_examined for shard in shards if shard is not None)
        if guard is not None:
            # Fold the workers' progress back into the caller's guard so
            # its stats()/partial-progress reporting covers the scatter.
            guard.rows_examined += examined
        return parts, examined, shards, tuple(sorted(failed))

    def _raise_first(
        self, errors: list[BaseException], worker_guards: list[Guard | None]
    ) -> None:
        """Propagate the scatter's root cause.

        Workers stopped by the internal abort token unwind with
        :class:`QueryCancelled` — secondary noise when a sibling hit the
        real limit — so any other error (in shard order) wins; a
        cancellation propagates only when it is all there is (i.e. the
        caller really cancelled).  Interrupted errors report the rows
        examined by the *whole* scatter, not one worker.
        """
        total = sum(g.rows_examined for g in worker_guards if g is not None)
        chosen = next(
            (e for e in errors if not isinstance(e, QueryCancelled)), errors[0]
        )
        if isinstance(chosen, QueryInterrupted):
            chosen.rows_examined = total
        raise chosen
