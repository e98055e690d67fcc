"""The benchmark's input generator and its oracle."""

from __future__ import annotations

import time

import pytest

from perfbench import corpus, oracle
from perfbench.workloads import create_indexes
from repro.corpus.wvlr import PUBLICATION_SCHEMA
from repro.names.parser import parse_name
from repro.query import QueryEngine
from repro.storage import RecordStore


def test_same_seed_same_records():
    assert corpus.generate(2_000, 700, seed=5) == corpus.generate(2_000, 700, seed=5)
    assert corpus.generate(2_000, 700, seed=5) != corpus.generate(2_000, 700, seed=6)


def test_fifty_thousand_records_generate_in_seconds():
    start = time.perf_counter()
    records = corpus.generate(50_000, 25_000, seed=1)
    assert time.perf_counter() - start < 10.0
    assert len(records) == 50_000


@pytest.mark.parametrize("records,authors", [(10, 10), (1_000, 1), (10_000, 5_000), (20_000, 10_000)])
def test_distinct_author_count_is_exact(records, authors):
    assert corpus.distinct_authors(corpus.generate(records, authors, seed=3)) == authors


def test_distributions_follow_the_artifact():
    records = corpus.generate(20_000, 10_000, seed=2)
    student = sum(r.is_student_work for r in records) / len(records)
    assert 0.44 < student < 0.50
    assert {len(r.authors) for r in records} <= {1, 2, 3, 4}
    assert max(len(r.authors) for r in records) > 1
    years = [r.citation.year - r.citation.volume for r in records]
    assert set(years) <= {corpus.FIRST_YEAR - corpus.FIRST_VOLUME + d for d in (0, 1)}
    volumes = [r.citation.volume for r in records]
    assert volumes == sorted(volumes)
    counts: dict = {}
    for r in records:
        for a in r.authors:
            counts[a.identity_key()] = counts.get(a.identity_key(), 0) + 1
    assert max(counts.values()) > 20 * (sum(counts.values()) / len(counts))


def test_names_survive_the_store_round_trip():
    for index in range(0, corpus.GRID_SIZE, 997):
        name = corpus.grid_name(index)
        parsed = parse_name(name.inverted())
        assert parsed.inverted() == name.inverted()
        assert parsed.identity_key() == name.identity_key()


@pytest.fixture(scope="module")
def served():
    rows = [r.to_store_dict() for r in corpus.generate(3_000, 1_500, seed=9)]
    store = RecordStore(PUBLICATION_SCHEMA)
    create_indexes(store)
    store.put_many(rows)
    return rows, QueryEngine(store)


def test_engine_answers_pass_the_oracle(served):
    rows, engine = served
    expected = oracle.Oracle(rows)
    stream = oracle.requests(rows, seed=4)
    kinds = set()
    for _ in range(3 * oracle.CYCLE):
        kind, param = next(stream)
        kinds.add(kind)
        got = engine.execute(oracle.query_text(kind, param))
        assert expected.check(kind, param, got) is None, (kind, param)
    assert kinds == set(oracle.MIX)


def test_request_cycles_hold_exact_shares(served):
    rows, _ = served
    stream = oracle.requests(rows, seed=1)
    for _ in range(4):
        kinds = [next(stream)[0] for _ in range(oracle.CYCLE)]
        assert {k: kinds.count(k) for k in oracle.MIX} == oracle.MIX


def test_oracle_rejects_wrong_answers(served):
    rows, engine = served
    expected = oracle.Oracle(rows)
    year = rows[-1]["year"]
    got = engine.execute(oracle.query_text("range", year))
    assert expected.check_range(year, got[:-1]) is not None
    if got[0]["page"] != got[-1]["page"]:
        assert expected.check_range(year, list(reversed(got))) is not None
    changed = [dict(got[0], title="changed")] + got[1:]
    assert expected.check_range(year, changed) is not None
    groups = engine.execute(oracle.query_text("aggregate", year))
    assert expected.check_aggregate(year, groups[1:]) is not None
    surname = rows[0]["surnames"][0]
    assert expected.check_lookup(surname, engine.execute(oracle.query_text("lookup", surname))[1:]) is not None
    assert expected.check_pk(rows[0]["id"], []) is not None


def test_range_check_is_tie_aware():
    rows = [
        {"id": i, "year": 2000, "page": page, "volume": 1, "surnames": ["X"]}
        for i, page in enumerate([1, 2, 2, 2, 3], start=1)
    ]
    expected = oracle.Oracle(rows)
    by_id = {r["id"]: r for r in rows}
    # Either of the tied page-2 rows may fill the last slot.
    assert expected.check_range(2000, [by_id[1], by_id[4]], limit=2) is None
    assert expected.check_range(2000, [by_id[1], by_id[2]], limit=2) is None
    assert expected.check_range(2000, [by_id[1], by_id[5]], limit=2) is not None
