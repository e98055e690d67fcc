"""Per-layer metrics of a traced run, from the recorder's span aggregates.

Span names are ``<layer>.<function>``, where the layer is a module of the
program (``storage.store.index`` is ``RecordStore.find_by``/``range_by``).
Spans named ``bench.*`` are the benchmark's own root spans; their self time is
part of ``unattributed``.  Over the measured operations, the self times of all
layers plus ``unattributed`` equal the end-to-end time.
"""

from __future__ import annotations

from typing import Any

from perfbench.trace import FIRST_QUERY

#: Every per-layer metric, with its unit, in the order the benchmark prints
#: them.  ``_ms`` and ``_s`` times are per measured operation unless the
#: metric names a single call (open, put_many, checkpoint, bulk build, WAL
#: append, first query), which is averaged per call.
PER_LAYER = (
    ("obs.server.self_ms", "ms"),
    ("json.encode_ms", "ms"),
    ("json.encode_calls", "count"),
    ("resilience.service.self_ms", "ms"),
    ("query.parser.self_ms", "ms"),
    ("query.planner.self_ms", "ms"),
    ("query.planner.cache_hit_ratio", "ratio"),
    ("query.executor.self_ms", "ms"),
    ("query.executor.examined_per_returned", "ratio"),
    ("storage.store.index_ms", "ms"),
    ("storage.store.open_s", "s"),
    ("storage.store.scan_s", "s"),
    ("storage.store.put_many_ms", "ms"),
    ("storage.store.checkpoint_s", "s"),
    ("storage.store.first_query_ms", "ms"),
    ("storage.bufferpool.pin_ms", "ms"),
    ("storage.bufferpool.hit_ratio", "ratio"),
    ("storage.bufferpool.misses_per_request", "count"),
    ("storage.pages.decode_ms", "ms"),
    ("storage.pages.decodes_per_request", "count"),
    ("storage.pages.reads_per_request", "count"),
    ("storage.paged_store.record_decode_ms", "ms"),
    ("storage.paged_store.decoded_per_returned", "ratio"),
    ("storage.paged_btree.bulk_build_s", "s"),
    ("storage.wal.append_ms", "ms"),
    ("storage.faultfs.fsyncs_per_batch", "count"),
    ("storage.faultfs.write_bytes_per_user_byte", "ratio"),
    ("core.entry.decode_s", "s"),
    ("names.parser.calls_per_record", "ratio"),
    ("core.builder.self_s", "s"),
    ("core.collation.key_s", "s"),
    ("core.collation.keys_per_distinct_author", "ratio"),
    ("core.pagination.self_s", "s"),
    ("core.render.text_s", "s"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)

_SCALE = {"ms": 1e-6, "s": 1e-9}
_PUT_MANY = "storage.store.put_many"


def _merge(target: dict[str, list[int]], rows: dict[str, list[int]]) -> None:
    for name, values in rows.items():
        agg = target.setdefault(name, [0, 0, 0])
        for k in range(3):
            agg[k] += values[k]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    table: dict[Any, dict[str, list[int]]],
    plain: Any,
    traced: Any,
    *,
    rows_examined: int = 0,
    rows_returned: int = 0,
    distinct_authors: int = 0,
    written_bytes: int = 0,
    user_bytes: int = 0,
) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics and the layer split (ms per operation).

    ``table`` maps request ids to span aggregates; the measured operations
    have the ids ``"0"`` .. ``"n-1"``, where ``n`` is ``traced.count()``.
    ``plain`` and ``traced`` are the untraced and traced samples of the same
    operations.
    """
    n = traced.count()
    measured: dict[str, list[int]] = {}
    everywhere: dict[str, list[int]] = {}
    fsyncs = 0
    for rid, rows in table.items():
        _merge(everywhere, rows)
        if str(rid).isdigit() and int(rid) < n:
            _merge(measured, rows)
            if _PUT_MANY in rows:
                fsyncs += rows.get("storage.faultfs.fsync", [0])[0]

    def get(name: str, k: int, where: dict = measured) -> int:
        return where.get(name, [0, 0, 0])[k]

    def per_op(name: str, unit: str, k: int = 1) -> float:
        return get(name, k) * _SCALE[unit] / n

    def per_call(name: str, unit: str, where: dict = measured) -> float:
        return _ratio(get(name, 1, where) * _SCALE[unit], get(name, 0, where))

    e2e_ns = traced.busy_s() * 1e9
    split: dict[str, float] = {}
    for name, (_, _, self_ns) in measured.items():
        if not name.startswith("bench."):  # counts from note() carry no self time
            layer = name.rsplit(".", 1)[0]
            split[layer] = split.get(layer, 0.0) + self_ns * 1e-6 / n
    unattributed_ms = e2e_ns * 1e-6 / n - sum(split.values())
    split["unattributed"] = unattributed_ms
    split["end_to_end"] = e2e_ns * 1e-6 / n

    pins = get("storage.bufferpool.pin", 0)
    reads = get("storage.pages.read_page", 0)
    decoded = get("core.entry.from_store_dict", 0)
    values = {
        "obs.server.self_ms": per_op("obs.server.do_GET", "ms", 2),
        "json.encode_ms": per_op("json.dumps", "ms"),
        "json.encode_calls": get("json.dumps", 0) / n,
        "resilience.service.self_ms": per_op("resilience.service.execute_request", "ms", 2),
        "query.parser.self_ms": per_op("query.parser.parse_query", "ms", 2),
        "query.planner.self_ms": per_op("query.planner.get_or_plan", "ms", 2),
        "query.planner.cache_hit_ratio": _ratio(
            get("query.planner.cache_hit", 0), get("query.planner.get_or_plan", 0)
        ),
        "query.executor.self_ms": per_op("query.executor.run_plan", "ms", 2),
        "query.executor.examined_per_returned": _ratio(rows_examined, rows_returned),
        "storage.store.index_ms": per_op("storage.store.index", "ms", 2),
        "storage.store.open_s": per_call("storage.store.open", "s", everywhere),
        "storage.store.scan_s": per_op("storage.store.scan", "s"),
        "storage.store.put_many_ms": per_call(_PUT_MANY, "ms"),
        "storage.store.checkpoint_s": per_call("storage.store.checkpoint", "s"),
        "storage.store.first_query_ms": per_call(FIRST_QUERY, "ms", everywhere),
        "storage.bufferpool.pin_ms": per_op("storage.bufferpool.pin", "ms"),
        "storage.bufferpool.hit_ratio": _ratio(pins - reads, pins),
        "storage.bufferpool.misses_per_request": reads / n,
        "storage.pages.decode_ms": per_op("storage.pages.unpack", "ms"),
        "storage.pages.decodes_per_request": get("storage.pages.unpack", 0) / n,
        "storage.pages.reads_per_request": reads / n,
        "storage.paged_store.record_decode_ms": per_op("storage.paged_store.decode_record", "ms"),
        "storage.paged_store.decoded_per_returned": _ratio(
            get("storage.paged_store.decode_record", 0), rows_returned
        ),
        "storage.paged_btree.bulk_build_s": per_call("storage.paged_btree.bulk_build", "s"),
        "storage.wal.append_ms": per_call("storage.wal.append_many", "ms"),
        "storage.faultfs.fsyncs_per_batch": _ratio(fsyncs, get(_PUT_MANY, 0)),
        "storage.faultfs.write_bytes_per_user_byte": _ratio(written_bytes, user_bytes),
        "core.entry.decode_s": per_op("core.entry.from_store_dict", "s"),
        "names.parser.calls_per_record": _ratio(get("names.parser.parse_name", 0), decoded),
        "core.builder.self_s": per_op("core.builder.build", "s", 2),
        "core.collation.key_s": per_op("core.collation.collation_key", "s"),
        "core.collation.keys_per_distinct_author": _ratio(
            get("core.collation.collation_key", 0) / n, distinct_authors
        ),
        "core.pagination.self_s": per_op("core.pagination.paginate", "s", 2),
        "core.render.text_s": per_op("core.render.text", "s", 2),
        "unattributed_share": _ratio(unattributed_ms, split["end_to_end"]),
        "trace.overhead_share": _ratio(traced.busy_s(), plain.busy_s()) - 1.0,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}, split
