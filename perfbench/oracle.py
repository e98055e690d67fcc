"""Seeded request mix and the plain-Python oracle that checks every answer.

The oracle holds the records a store should contain as plain dicts and
computes each query's answer without the program's code.  Checks return an
error message, or ``None`` when the answer is right.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Any, Iterable, Iterator, Sequence

#: Request classes and how many of each a cycle of 20 requests holds
#: (55% / 15% / 15% / 15%).  Each cycle is shuffled, so the shares are exact
#: over every whole cycle.
MIX = {"lookup": 11, "pk": 3, "range": 3, "aggregate": 3}
CYCLE = sum(MIX.values())
#: ``year >= Y`` thresholds cover the last this many distinct years: as many
#: as a cycle holds range (or aggregate) requests, so every cycle does the
#: same work.
RECENT_YEARS = 3


class Oracle:
    """The expected contents of a store, with per-query answers."""

    def __init__(self, rows: Iterable[dict[str, Any]]):
        self.by_id: dict[int, dict[str, Any]] = {}
        self.by_surname: dict[str, set[int]] = defaultdict(set)
        self.add(rows)

    def add(self, rows: Iterable[dict[str, Any]]) -> None:
        for row in rows:
            self.by_id[row["id"]] = row
            for surname in row["surnames"]:
                self.by_surname[surname].add(row["id"])

    # -- answers -------------------------------------------------------------

    def check_rows(self, got: Sequence[dict[str, Any]], ids: Iterable[int]) -> str | None:
        """``got`` holds exactly the records ``ids``, in any order."""
        want = set(ids)
        seen = [row.get("id") for row in got]
        if len(seen) != len(set(seen)) or set(seen) != want:
            return f"returned ids differ: {len(seen)} rows, {len(want)} expected"
        for row in got:
            if row != self.by_id[row["id"]]:
                return f"record {row['id']} differs from what was written"
        return None

    def check_lookup(self, surname: str, got: Sequence[dict[str, Any]]) -> str | None:
        return self.check_rows(got, self.by_surname.get(surname, ()))

    def check_pk(self, key: int, got: Sequence[dict[str, Any]]) -> str | None:
        return self.check_rows(got, [key] if key in self.by_id else [])

    def check_range(self, year: int, got: Sequence[dict[str, Any]], limit: int = 10) -> str | None:
        """``year >= Y ORDER BY page LIMIT n``, tie-aware on ``page``.

        Rows sharing the last returned page may come in any order and any
        subset, so the check compares page values and membership, not ids.
        """
        matching = [row for row in self.by_id.values() if row["year"] >= year]
        pages = sorted(row["page"] for row in matching)[:limit]
        if [row.get("page") for row in got] != pages:
            return f"pages {[row.get('page') for row in got]} != expected {pages}"
        ids = [row["id"] for row in got]
        if len(ids) != len(set(ids)):
            return "duplicate rows"
        for row in got:
            if row != self.by_id.get(row["id"]) or row["year"] < year:
                return f"record {row['id']} does not match year >= {year}"
        return None

    def check_aggregate(self, year: int, got: Sequence[dict[str, Any]]) -> str | None:
        """``year >= Y GROUP BY volume ORDER BY count DESC``, tie-aware on count."""
        want = Counter(row["volume"] for row in self.by_id.values() if row["year"] >= year)
        counts = [row.get("count") for row in got]
        if {row.get("volume"): row.get("count") for row in got} != dict(want) or len(got) != len(want):
            return f"group counts differ for year >= {year}"
        if counts != sorted(counts, reverse=True):
            return "groups not ordered by count descending"
        return None

    def check(self, kind: str, param: Any, got: Sequence[dict[str, Any]]) -> str | None:
        return _CHECKS[kind](self, param, got)


_CHECKS = {
    "lookup": Oracle.check_lookup,
    "pk": Oracle.check_pk,
    "range": Oracle.check_range,
    "aggregate": Oracle.check_aggregate,
}


def query_text(kind: str, param: Any) -> str:
    if kind == "lookup":
        return f'surnames:"{param}"'
    if kind == "pk":
        return f"id = {param}"
    if kind == "range":
        return f"year >= {param} ORDER BY page LIMIT 10"
    return f"year >= {param} GROUP BY volume ORDER BY count DESC"


def requests(rows: Sequence[dict[str, Any]], seed: int) -> Iterator[tuple[str, Any]]:
    """The seeded, endless request sequence: ``(class, parameter)`` pairs.

    Lookup surnames are drawn by author frequency (one byline slot at
    random), ids uniformly, and year thresholds from a shuffled deck of the
    last :data:`RECENT_YEARS` years, so every threshold recurs evenly.
    :data:`CYCLE` requests in a row always hold the mix's exact shares.
    """
    rng = random.Random(seed ^ 0x5EED)
    slots = [surname for row in rows for surname in row["surnames"]]
    ids = [row["id"] for row in rows]
    years = sorted({row["year"] for row in rows})[-RECENT_YEARS:]
    decks: dict[str, list[int]] = {"range": [], "aggregate": []}
    cycle = [kind for kind, count in MIX.items() for _ in range(count)]
    while True:
        rng.shuffle(cycle)
        for kind in cycle:
            if kind == "lookup":
                yield kind, rng.choice(slots)
            elif kind == "pk":
                yield kind, rng.choice(ids)
            else:
                deck = decks[kind]
                if not deck:
                    deck.extend(years)
                    rng.shuffle(deck)
                yield kind, deck.pop()
