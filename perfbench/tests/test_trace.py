"""The span recorder and the traced run's wrappers."""

from __future__ import annotations

import time

from perfbench import corpus, oracle, trace
from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.workloads import Samples, create_indexes
from repro.corpus.wvlr import PUBLICATION_SCHEMA
from repro.query import QueryEngine
from repro.resilience import QueryService
from repro.storage import RecordStore


def test_self_times_add_up_to_the_root_span():
    rec = trace.Recorder()
    inner = rec.wrap("b.inner", lambda: time.sleep(0.002))

    def middle():
        inner()
        inner()
        time.sleep(0.001)

    outer = rec.wrap("a.outer", lambda: (rec.call("b.middle", middle), time.sleep(0.001)))
    rec.set_request("r1")
    outer()
    rows = rec.table()["r1"]
    assert rows["b.inner"][0] == 2
    assert sum(agg[2] for agg in rows.values()) == rows["a.outer"][1]
    assert rows["b.middle"][2] == rows["b.middle"][1] - rows["b.inner"][1]
    names = {span[0]: span[3] for span in rec.spans()}
    assert names == {"b.inner": "b.middle", "b.middle": "a.outer", "a.outer": None}


def test_generator_spans_cover_each_resumption():
    rec = trace.Recorder()

    def numbers():
        yield from range(3)

    wrapped = rec.wrap_generator("g.numbers", numbers)
    rec.set_request("r")
    assert rec.call("root.loop", lambda: list(wrapped())) == [0, 1, 2]
    rows = rec.table()["r"]
    assert rows["g.numbers"][0] == 5  # the call, three items, the stop
    assert rows["g.numbers"][1] + rows["root.loop"][2] == rows["root.loop"][1]


def test_layer_split_adds_up_to_end_to_end():
    table = {
        "0": {"bench.op": [1, 10_000_000, 1_000_000], "x.f": [1, 6_000_000, 4_000_000], "y.g": [2, 2_000_000, 2_000_000]},
        "1": {"bench.op": [1, 10_000_000, 10_000_000]},
        "None": {"x.f": [1, 50_000_000, 50_000_000]},
    }
    samples = Samples({"op": [0.011, 0.010]})
    metrics, split = layer_metrics(table, samples, samples)
    assert [name for name in metrics] == [name for name, _ in PER_LAYER]
    assert split["x"] == 2.0 and split["y"] == 1.0
    assert abs(sum(v for k, v in split.items() if k != "end_to_end") - split["end_to_end"]) < 1e-9
    assert metrics["trace.overhead_share"][0] == 0.0


def test_traced_queries_return_the_same_rows():
    """Installed wrappers change no answer: same rows, same counts, same checks."""
    rows = [r.to_store_dict() for r in corpus.generate(3_000, 1_500, seed=2)]
    expected = oracle.Oracle(rows)
    requests = oracle.requests(rows, seed=2)
    queries = [next(requests) for _ in range(2 * oracle.CYCLE)]

    def answers():
        store = RecordStore(PUBLICATION_SCHEMA)
        create_indexes(store)
        store.put_many(rows)
        service = QueryService(QueryEngine(store))
        out = []
        for kind, param in queries:
            body = service.execute_request(oracle.query_text(kind, param))
            assert expected.check(kind, param, body["rows"]) is None
            out.append((body["row_count"], body["rows_examined"]))
        return out

    plain = answers()
    rec = trace.Recorder()
    uninstall = trace.install(rec)
    try:
        rec.set_request("0")
        traced = answers()
    finally:
        uninstall()
    assert traced == plain
    recorded = rec.table()["0"]
    assert recorded["query.executor.run_plan"][0] == len(queries)
    assert recorded["json.dumps"][0] == len(queries)
    # Uninstalling restores the program: nothing more is recorded.
    before = rec.table()
    answers()
    assert rec.table() == before
