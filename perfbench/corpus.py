"""Seeded O(n) publication-record generator for the benchmark.

The benchmark owns its inputs so that a change to the program cannot change
the workload it is judged on.  Records follow the artifact's distributions:

- a heavy-tailed author productivity curve (a few authors write many pieces);
- about 47% student material;
- 1-4 authors per record;
- volume and year advancing together as record ids grow.

Authors are distinct points of a surname x given name x initial x suffix
grid, drawn with ``random.sample`` so generation is linear and always
finishes.  Every author appears in at least one record, so the distinct-author
count of a corpus is exactly the one asked for.
"""

from __future__ import annotations

import json
import random
from typing import Any, Sequence

from repro.citation.model import Citation
from repro.core.entry import PublicationRecord
from repro.names.model import PersonName

_PREFIXES = ("", "Mc", "Van ")
_HEADS = (
    "Ash", "Bar", "Black", "Brad", "Brook", "Cal", "Car", "Cold", "Dun",
    "Earl", "Fair", "Fen", "Gar", "Glen", "Hal", "Hart", "Hol", "Kings",
    "Lang", "Lind", "Mar", "Mid", "Nor", "Oak", "Pem", "Ran", "Red",
    "Ross", "Stan", "Wood",
)
_TAILS = (
    "by", "den", "dale", "field", "ford", "ham", "ley", "mont", "more",
    "ridge", "stead", "ton", "wick", "well", "worth", "bury", "combe",
    "gate", "holt", "land",
)
SURNAMES = tuple(p + h + t for p in _PREFIXES for h in _HEADS for t in _TAILS)
GIVEN = (
    "Alice", "Amy", "Ann", "Arthur", "Barbara", "Bruce", "Carl", "Carol",
    "Claire", "Daniel", "Diana", "Donald", "Edward", "Elaine", "Emily",
    "Frank", "Grace", "Harold", "Helen", "Henry", "Irene", "James", "Jane",
    "Joan", "John", "Karen", "Keith", "Laura", "Linda", "Margaret", "Mark",
    "Nancy", "Paul", "Peter", "Rachel", "Ralph", "Ruth", "Samuel", "Susan",
    "Walter",
)
INITIALS = ("",) + tuple("ABCDEFGHJKLMNPRSTW")
SUFFIXES = ("", "Jr.", "Sr.", "II", "III")
GRID_SIZE = len(SURNAMES) * len(GIVEN) * len(INITIALS) * len(SUFFIXES)

_OPENERS = (
    "A Critique of", "A Survey of", "Rethinking", "The Law of",
    "Developments in", "Judicial Review of", "The Limits of", "Reforming",
)
_TOPICS = (
    "Surface Mining", "Workers' Compensation", "Coal Leasing",
    "Comparative Negligence", "Habeas Corpus", "Mineral Rights",
    "Labor Arbitration", "Products Liability", "Double Jeopardy",
    "Jury Selection", "Water Rights", "Intestate Succession",
)
_QUALIFIERS = (
    "in West Virginia", "Under the 1977 Act", "in the Federal Courts",
    "Revisited", ": A Case Study", ": An Overview", "", "",
)

STUDENT_SHARE = 0.47
COAUTHOR_RATE = 0.18
MAX_AUTHORS = 4
FIRST_VOLUME = 69
FIRST_YEAR = 1966
PAGES_PER_VOLUME = 1400
VOLUMES = 27


def grid_name(index: int) -> PersonName:
    """The author at ``index`` of the name grid (a bijection on its range)."""
    index, suffix = divmod(index, len(SUFFIXES))
    index, initial = divmod(index, len(INITIALS))
    surname, given = divmod(index, len(GIVEN))
    given_text = GIVEN[given]
    if INITIALS[initial]:
        given_text += f" {INITIALS[initial]}."
    return PersonName(surname=SURNAMES[surname], given=given_text, suffix=SUFFIXES[suffix])


def generate(records: int, authors: int, seed: int) -> list[PublicationRecord]:
    """``records`` publication records by exactly ``authors`` distinct authors.

    Record ids run from 1; volume (and with it year) grows with the id.
    """
    if not 1 <= authors <= records:
        raise ValueError(f"need 1 <= authors <= records, got {authors}, {records}")
    rng = random.Random(seed)
    pool = [grid_name(i) for i in rng.sample(range(GRID_SIZE), authors)]

    def heavy_tail() -> int:
        # Squaring a uniform biases toward low indexes: the pool's head
        # authors accumulate many articles.
        u = rng.random()
        return min(int(u * u * authors), authors - 1)

    # Every author leads at least one record; the remaining lead slots and
    # all co-author slots follow the productivity curve.
    leads = list(range(authors)) + [heavy_tail() for _ in range(records - authors)]
    rng.shuffle(leads)
    out: list[PublicationRecord] = []
    for i, lead in enumerate(leads):
        byline = [lead]
        while len(byline) < MAX_AUTHORS and rng.random() < COAUTHOR_RATE:
            candidate = heavy_tail()
            if candidate not in byline:
                byline.append(candidate)
        offset = i * VOLUMES // records
        year = FIRST_YEAR + offset + (1 if rng.random() < 0.25 else 0)
        title = " ".join(
            part
            for part in (rng.choice(_OPENERS), rng.choice(_TOPICS), rng.choice(_QUALIFIERS))
            if part
        ).replace(" :", ":")
        out.append(
            PublicationRecord(
                record_id=i + 1,
                title=title,
                authors=tuple(pool[a] for a in byline),
                citation=Citation(
                    volume=FIRST_VOLUME + offset,
                    page=1 + rng.randrange(PAGES_PER_VOLUME),
                    year=year,
                ),
                is_student_work=rng.random() < STUDENT_SHARE,
            )
        )
    return out


def distinct_authors(records: Sequence[PublicationRecord]) -> int:
    return len({a.identity_key() for r in records for a in r.authors})


def canonical_bytes(rows: Sequence[dict[str, Any]]) -> int:
    """Bytes of the records as canonical JSON: the user data a store holds."""
    return sum(
        len(json.dumps(row, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        for row in rows
    )
