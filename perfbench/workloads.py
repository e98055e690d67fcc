"""The four workloads: ``artifact``, ``serve-memory``, ``serve-paged``, ``update``.

Each workload runs in one of two modes:

- untraced: set up ``SETUPS`` times (``setup_s`` is their median; removing
  the previous set-up is not timed), then run its operations for the given
  number of seconds and report the end-to-end metrics;
- traced: run a fixed number of operations untraced, then the same
  operations again with the timing wrappers of :mod:`perfbench.trace`
  installed, and report the per-layer split and the tracing overhead.

Every operation's output is checked; a wrong answer counts as failed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator
from urllib.parse import quote

from perfbench import corpus, oracle, trace
from perfbench.layers import layer_metrics

from repro.core.builder import AuthorIndexBuilder, build_index
from repro.core.diffing import diff_indexes
from repro.core.entry import PublicationRecord
from repro.core.render.text import TextRenderer
from repro.corpus.wvlr import PUBLICATION_SCHEMA, load_reference_records
from repro.query import QueryEngine
from repro.resilience import Deadline, Guard
from repro.storage import DEFAULT_POOL_PAGES, PAGE_SIZE, IndexKind, RecordStore

SETUPS = 5
#: The server's default per-query deadline; requests name none.
SERVER_DEADLINE_S = 5.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
CLIENT_TIMEOUT_S = 60.0
BENCH_DIR = Path(__file__).resolve().parent

# Sizes of each workload: (records, distinct authors).
ARTIFACT_SIZE = (10_000, 5_000)
SERVE_SIZE = (10_000, 5_000)
UPDATE_BASE = 10_000
UPDATE_BATCHES = 40
UPDATE_BATCH = 250
UPDATE_AUTHORS = 10_000
UPDATE_LOOKUPS = 5
UPDATE_CHECKPOINT_EVERY = 10


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)
    context: dict[str, Any] = field(default_factory=dict)

    def check(self, error: str | None, what: str) -> bool:
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {error}")
        return False


@dataclass
class Samples:
    """Latencies (seconds) of successful operations, by class."""

    by_class: dict[str, list[float]] = field(default_factory=dict)

    def add(self, kind: str, seconds: float) -> None:
        self.by_class.setdefault(kind, []).append(seconds)

    def count(self) -> int:
        return sum(len(v) for v in self.by_class.values())

    def busy_s(self) -> float:
        return sum(sum(v) for v in self.by_class.values())

    def mix_ms(self, weights: dict[str, float]) -> float:
        """Expected latency of one operation of the mix, from class medians."""
        total = sum(weights.values())
        return sum(
            w * statistics.median(self.by_class[k]) for k, w in weights.items()
        ) / total * 1e3

    def summary(self) -> dict[str, Any]:
        """Per class: count, p50 and, with 100+ samples, p90 (ms)."""
        out: dict[str, Any] = {}
        for kind, values in self.by_class.items():
            row: dict[str, Any] = {"n": len(values), "p50_ms": statistics.median(values) * 1e3}
            if len(values) >= 100:
                row["p90_ms"] = statistics.quantiles(values, n=10)[-1] * 1e3
            out[kind] = row
        return out


# -- host helpers ---------------------------------------------------------------


def _status_kib(pid: int | str, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{key} missing from /proc/{pid}/status")


def peak_rss_mb(pid: int | str = "self") -> float:
    return _status_kib(pid, "VmHWM") / 1024.0


def reset_peak_rss() -> float:
    """Restart the peak-RSS counter at the current RSS and return it (MiB).

    Called after input generation: the run's ``rss_mb`` is the peak above
    this figure, so the inputs the benchmark keeps alive do not count.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")
    return peak_rss_mb()


def io_wchar() -> int:
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("wchar missing from /proc/self/io")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def pages_file_bytes(directory: Path) -> int:
    """Size of the paged store's pages file (0 for a memory-format store)."""
    return sum(p.stat().st_size for p in directory.glob("*.pages.*"))


def fresh_dir(path: Path) -> None:
    """Make ``path`` an empty directory, removing what was there."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def create_indexes(store: RecordStore) -> None:
    """The secondary indexes ``repro serve-query`` declares."""
    store.create_index("surnames", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)
    store.create_index("volume", IndexKind.BTREE)


def load_store(directory: Path, rows: list[dict[str, Any]], data_format: str) -> None:
    """``put_many`` then checkpoint: the store every workload starts from."""
    store = RecordStore(PUBLICATION_SCHEMA, directory=directory, data_format=data_format)
    try:
        create_indexes(store)
        store.put_many(rows)
        store.checkpoint()
    finally:
        store.close()


def host_context(seed: int) -> dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
        "clients": 1,
    }


# -- artifact -------------------------------------------------------------------


def _build_from_store(directory: Path) -> str:
    """Reopen, scan, decode, build, paginate and render: one artifact build."""
    store = RecordStore(PUBLICATION_SCHEMA, directory=directory)
    try:
        records = [PublicationRecord.from_store_dict(row) for row in store.scan()]
    finally:
        store.close()
    index = AuthorIndexBuilder().add_records(records).build()
    return TextRenderer().render(index)


def _check_reference(out: Outcome) -> None:
    """The WVLR reference survives a store round trip: 343 rows, 257 groups."""
    records = load_reference_records()
    store = RecordStore(PUBLICATION_SCHEMA)
    store.put_many(r.to_store_dict() for r in records)
    rebuilt = build_index(PublicationRecord.from_store_dict(r) for r in store.scan())
    direct = build_index(records)
    error = None
    if (len(rebuilt), len(rebuilt.groups())) != (343, 257):
        error = f"{len(rebuilt)} rows, {len(rebuilt.groups())} groups"
    elif not diff_indexes(rebuilt, direct).is_identical:
        error = "store round trip changed the index"
    out.check(error, "wvlr reference")


def run_artifact(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    out = Outcome()
    n_records, n_authors = ARTIFACT_SIZE
    records = corpus.generate(n_records, n_authors, seed)
    rows = [r.to_store_dict() for r in records]
    reference = TextRenderer().render(build_index(records))
    _check_reference(out)
    out.context.update(
        records=n_records, authors=corpus.distinct_authors(records),
        store_format="memory", flush="sync=False", clients=0,
    )
    directory = workdir / "artifact"
    base_rss = reset_peak_rss()

    def setup() -> None:
        load_store(directory, rows, "memory")
        RecordStore(PUBLICATION_SCHEMA, directory=directory).close()

    def build(_: int) -> tuple[str, Callable[[], str | None]]:
        return "build", lambda: None if _build_from_store(directory) == reference else (
            "rendered text differs from build_index(records)"
        )

    if not traced:
        setups = [_timed_in(directory, setup) for _ in range(SETUPS)]
        samples = _closed_loop(out, build, seconds)
        out.metrics.update(_e2e(
            setups, samples, {"build": 1},
            peak_rss_mb() - base_rss, dir_bytes(directory) / corpus.canonical_bytes(rows),
        ))
        out.detail["classes"] = samples.summary()
        out.detail["build_s"] = statistics.median(samples.by_class["build"])
        out.detail["builds_per_s"] = samples.count() / samples.busy_s()
    else:
        fresh_dir(directory)
        setup()
        plain = _closed_loop(out, build, seconds / 2)
        rec = trace.Recorder()
        uninstall = trace.install(rec)
        try:
            traced_samples = _traced_ops(out, rec, build, plain.count())
        finally:
            uninstall()
        _report_layers(out, layer_metrics(
            rec.table(), plain, traced_samples,
            rows_returned=n_records * traced_samples.count(), distinct_authors=n_authors,
        ))
    return out


# -- serve ----------------------------------------------------------------------


class Server:
    """``repro serve-query`` in its own process, on an ephemeral loopback port."""

    def __init__(self, root: Path, store: Path, log: Path, spans: Path | None):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_server.py"), "--spans", str(spans)]
        argv += ["serve-query", "--port", "0", "--store", str(store)]
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.log_path = log
        self.address: tuple[str, int] | None = None

    def wait_listening(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        marker = b"listening on http://"
        while time.monotonic() < deadline:
            text = self.log_path.read_bytes()
            if marker in text:
                addr = text.split(marker, 1)[1].split()[0].decode()
                host, port = addr.rsplit(":", 1)
                self.address = (host, int(port))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start: {self.log_path.read_text(errors='replace')[-2000:]}")

    def query(self, text: str, rid: str) -> tuple[int, Any]:
        """One request on its own connection.

        A kept-alive connection would add about 40 ms to every reply: the
        server writes headers and body separately, and the client delays
        its ACK of the first write.  A new connection is acknowledged at once.
        """
        assert self.address is not None
        conn = http.client.HTTPConnection(*self.address, timeout=CLIENT_TIMEOUT_S)
        try:
            conn.request("GET", f"/query?q={quote(text)}&rid={rid}")
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        return response.status, json.loads(body)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _answer(tally: dict[str, int], oracle_: oracle.Oracle, kind: str, param: Any, status: int, body: Any) -> str | None:
    if status != 200:
        return f"HTTP {status}: {str(body)[:200]}"
    tally["examined"] += body["rows_examined"]
    tally["returned"] += body["row_count"]
    return oracle_.check(kind, param, body["rows"])


def run_serve(data_format: str, seed: int, seconds: float, traced: bool, workdir: Path, root: Path) -> Outcome:
    out = Outcome()
    n_records, n_authors = SERVE_SIZE
    records = corpus.generate(n_records, n_authors, seed)
    rows = [r.to_store_dict() for r in records]
    expected = oracle.Oracle(rows)
    out.context.update(
        records=n_records, authors=corpus.distinct_authors(records),
        store_format=data_format, flush="sync=False",
        request_mix={k: v / oracle.CYCLE for k, v in oracle.MIX.items()},
    )
    servers: list[Server] = []
    tally = {"examined": 0, "returned": 0}
    sequence: list[tuple[str, Any]] = []
    stream = oracle.requests(rows, seed)

    def request(i: int) -> tuple[str, Any]:
        while len(sequence) <= i:
            sequence.append(next(stream))
        return sequence[i]

    directory = workdir / "store"

    def stop_servers() -> None:
        for server in servers:
            server.stop()
        servers.clear()

    def setup(spans: Path | None = None) -> Server:
        load_store(directory, rows, data_format)
        server = Server(root, directory, workdir / "server.log", spans)
        servers.append(server)
        server.wait_listening()
        # Ready means the first 200 from /query; then one untimed request
        # of each class warms every path.
        for kind, param in _warmups(rows):
            status, body = server.query(oracle.query_text(kind, param), f"warm-{kind}")
            out.check(_answer(tally, expected, kind, param, status, body), f"warm-up {kind}")
        return server

    def op(i: int) -> tuple[str, Callable[[], str | None]]:
        kind, param = request(i)
        server = servers[-1]

        def run() -> str | None:
            status, body = server.query(oracle.query_text(kind, param), str(i))
            return _answer(tally, expected, kind, param, status, body)

        return kind, run

    try:
        if not traced:
            setups = []
            for _ in range(SETUPS):
                stop_servers()
                setups.append(_timed_in(directory, setup))
            tally.update(examined=0, returned=0)
            samples = _closed_loop(out, op, seconds, oracle.CYCLE)
            rss = servers[-1].peak_rss_mb()
            disk = dir_bytes(directory) / corpus.canonical_bytes(rows)
            out.metrics.update(_e2e(setups, samples, oracle.MIX, rss, disk))
            out.detail["classes"] = samples.summary()
            out.detail["query_qps"] = samples.count() / samples.busy_s()
            out.detail["examined_per_returned"] = tally["examined"] / max(tally["returned"], 1)
            out.context["pages_file_bytes"] = pages_file_bytes(directory)
        else:
            fresh_dir(directory)
            setup()
            plain = _closed_loop(out, op, seconds / 2, oracle.CYCLE)
            spans = workdir / "spans.json"
            stop_servers()
            fresh_dir(directory)
            setup(spans)
            tally.update(examined=0, returned=0)
            traced_samples = Samples()
            for i in range(plain.count()):
                kind, run = op(i)
                _timed_op(out, traced_samples, kind, run, f"request {i}")
            servers[-1].stop()
            _report_layers(out, layer_metrics(
                trace.load_table(str(spans)), plain, traced_samples,
                rows_examined=tally["examined"], rows_returned=tally["returned"],
            ))
    finally:
        stop_servers()
    out.context["pool_pages"] = DEFAULT_POOL_PAGES
    out.context["pool_bytes"] = DEFAULT_POOL_PAGES * PAGE_SIZE
    return out


def _warmups(rows: list[dict[str, Any]]) -> Iterator[tuple[str, Any]]:
    """One fixed request per class, independent of the measured sequence."""
    yield "lookup", rows[0]["surnames"][0]
    yield "pk", rows[-1]["id"]
    yield "range", rows[-1]["year"]
    yield "aggregate", rows[-1]["year"]


# -- update ---------------------------------------------------------------------


def run_update(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    out = Outcome()
    new = UPDATE_BATCHES * UPDATE_BATCH
    records = corpus.generate(UPDATE_BASE + new, UPDATE_AUTHORS, seed)
    rows = [r.to_store_dict() for r in records]
    base, fresh = rows[:UPDATE_BASE], rows[UPDATE_BASE:]
    user_bytes = corpus.canonical_bytes(rows)
    fresh_bytes = corpus.canonical_bytes(fresh)
    out.context.update(
        records=len(rows), base_records=UPDATE_BASE,
        authors=corpus.distinct_authors(records), store_format="paged",
        flush="sync=True", batches=UPDATE_BATCHES, batch_records=UPDATE_BATCH,
        pool_pages=DEFAULT_POOL_PAGES, pool_bytes=DEFAULT_POOL_PAGES * PAGE_SIZE,
    )
    directory = workdir / "store"
    base_rss = reset_peak_rss()
    rng_seed = seed ^ 0xBA7C4
    tally = {"examined": 0, "returned": 0}

    def setup() -> tuple[RecordStore, QueryEngine]:
        load_store(directory, base, "paged")
        store = RecordStore(PUBLICATION_SCHEMA, directory=directory, sync=True, data_format="paged")
        engine = QueryEngine(store)
        engine.execute(oracle.query_text("lookup", base[0]["surnames"][0]))
        return store, engine

    def round_ops(store: RecordStore, engine: QueryEngine) -> list[tuple[str, Callable[[], str | None]]]:
        """The fixed script of one round: batches, read-your-writes, checkpoints."""
        rng = random.Random(rng_seed)
        model = oracle.Oracle(base)
        ops: list[tuple[str, Callable[[], str | None]]] = []
        for b in range(UPDATE_BATCHES):
            batch = fresh[b * UPDATE_BATCH:(b + 1) * UPDATE_BATCH]

            def put(batch: list = batch) -> str | None:
                written = store.put_many(batch)
                model.add(batch)
                return None if written == len(batch) else f"put_many wrote {written}"

            ops.append(("put", put))
            for _ in range(UPDATE_LOOKUPS):
                surname = rng.choice(rng.choice(batch)["surnames"])

                def lookup(surname: str = surname) -> str | None:
                    guard = Guard(deadline=Deadline.after(SERVER_DEADLINE_S), max_rows=100_000)
                    got = engine.execute(oracle.query_text("lookup", surname), guard=guard)
                    tally["examined"] += guard.rows_examined
                    tally["returned"] += len(got)
                    return model.check_lookup(surname, got)

                ops.append(("lookup", lookup))
            if (b + 1) % UPDATE_CHECKPOINT_EVERY == 0:
                ops.append(("checkpoint", lambda: store.checkpoint()))
        return ops

    def verify_reopen(store: RecordStore) -> None:
        store.close()
        reopened = RecordStore(PUBLICATION_SCHEMA, directory=directory)
        try:
            got = {row["id"]: row for row in reopened.scan()}
        finally:
            reopened.close()
        want = {row["id"]: row for row in rows}
        out.check(None if got == want else f"{len(got)} records after reopen, {len(want)} written", "reopen")

    weights = {"put": UPDATE_BATCHES, "lookup": UPDATE_BATCHES * UPDATE_LOOKUPS,
               "checkpoint": UPDATE_BATCHES // UPDATE_CHECKPOINT_EVERY}
    if not traced:
        setups: list[tuple[float, Any]] = []
        samples = Samples()
        wchar = 0
        start = time.perf_counter()
        while not setups or time.perf_counter() - start < seconds:
            setups.append(_timed_in(directory, setup))
            store, engine = setups[-1][1]
            before = io_wchar()
            for i, (kind, run) in enumerate(round_ops(store, engine)):
                _timed_op(out, samples, kind, run, f"{kind} {i}")
            wchar = io_wchar() - before
            disk = dir_bytes(directory) / user_bytes
            out.context["pages_file_bytes"] = pages_file_bytes(directory)
            verify_reopen(store)
        while len(setups) < SETUPS:
            setups.append(_timed_in(directory, setup))
            setups[-1][1][0].close()
        out.metrics.update(_e2e(setups, samples, weights, peak_rss_mb() - base_rss, disk))
        out.detail["classes"] = samples.summary()
        out.detail["ops_per_s"] = samples.count() / samples.busy_s()
        put_s = sum(samples.by_class["put"])
        out.detail.update(
            ingest_rps=len(samples.by_class["put"]) * UPDATE_BATCH / put_s,
            checkpoint_s=statistics.median(samples.by_class["checkpoint"]),
            write_bytes_per_user_byte=wchar / fresh_bytes,
        )
    else:
        plain = Samples()
        fresh_dir(directory)
        store, engine = setup()
        for i, (kind, run) in enumerate(round_ops(store, engine)):
            _timed_op(out, plain, kind, run, f"{kind} {i}")
        verify_reopen(store)
        rec = trace.Recorder()
        uninstall = trace.install(rec)
        try:
            fresh_dir(directory)
            store, engine = setup()
            tally.update(examined=0, returned=0)
            before = io_wchar()
            traced_samples = _traced_ops(
                out, rec, lambda i, ops=round_ops(store, engine): ops[i], plain.count()
            )
            wchar = io_wchar() - before
            verify_reopen(store)
        finally:
            uninstall()
        _report_layers(out, layer_metrics(
            rec.table(), plain, traced_samples,
            rows_examined=tally["examined"], rows_returned=tally["returned"],
            written_bytes=wchar, user_bytes=fresh_bytes,
        ))
    return out


# -- shared loops -----------------------------------------------------------------


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _timed_in(directory: Path, setup: Callable[[], Any]) -> tuple[float, Any]:
    """Empty ``directory``, untimed, then time ``setup``, which fills it."""
    fresh_dir(directory)
    return _timed(setup)


def _timed_op(out: Outcome, samples: Samples, kind: str, run: Callable[[], str | None], what: str) -> None:
    start = time.perf_counter()
    try:
        error = run()
    except Exception as exc:  # a failed operation is counted, not fatal
        error = repr(exc)
    elapsed = time.perf_counter() - start
    if out.check(error, what):
        samples.add(kind, elapsed)


def _closed_loop(
    out: Outcome, op: Callable[[int], tuple[str, Callable[[], str | None]]], seconds: float, cycle: int = 1
) -> Samples:
    """Issue operations one after another until ``seconds`` have passed.

    The loop stops only after a whole number of ``cycle`` operations.
    """
    samples = Samples()
    start = time.perf_counter()
    i = 0
    while i == 0 or i % cycle or time.perf_counter() - start < seconds:
        kind, run = op(i)
        _timed_op(out, samples, kind, run, f"{kind} {i}")
        i += 1
    return samples


def _traced_ops(out: Outcome, rec: trace.Recorder, op: Callable[[int], tuple[str, Callable[[], str | None]]], count: int) -> Samples:
    """``count`` operations, each under its own request id and root span."""
    samples = Samples()
    for i in range(count):
        kind, run = op(i)
        rec.set_request(str(i))
        try:
            _timed_op(out, samples, kind, lambda: rec.call(f"bench.{kind}", run), f"{kind} {i}")
        finally:
            rec.set_request(None)
    return samples


def _report_layers(out: Outcome, result: tuple[dict[str, tuple[float, str]], dict[str, float]]) -> None:
    metrics, split = result
    out.metrics.update(metrics)
    out.detail["layer_split_ms"] = split


def _e2e(setups: list[tuple[float, Any]], samples: Samples, weights: dict[str, float], rss_mb: float, disk_ratio: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "op_ms": (samples.mix_ms(weights), "ms"),
        "rss_mb": (rss_mb, "MiB"),
        "disk_bytes_per_user_byte": (disk_ratio, "ratio"),
    }
