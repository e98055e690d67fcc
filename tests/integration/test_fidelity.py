"""E1 — artifact fidelity: rebuild the WVLR author index and check it
against ground truth transcribed from the printed artifact."""

import hashlib

import pytest

from repro.core.builder import AuthorIndexBuilder, build_index
from repro.core.pagination import PageLayout, paginate
from repro.corpus.wvlr import load_reference_metadata


@pytest.fixture(scope="module")
def index(reference_records):
    return build_index(reference_records)


class TestRowUniverse:
    def test_entry_count(self, index):
        # 271 records explode to 343 rows (co-authors listed once each);
        # counted from the curated transcription.
        assert len(index) == 343

    def test_heading_count(self, index):
        assert len(index.groups()) == 257

    def test_no_duplicate_rows(self, index):
        keys = [e.row_key() for e in index]
        assert len(keys) == len(set(keys))


class TestPrintedOrdering:
    """Spot checks transcribed from the artifact's printed sequence."""

    @pytest.fixture(scope="class")
    def headings(self, reference_records):
        return [g.heading for g in build_index(reference_records).groups()]

    def _pos(self, headings, prefix: str) -> int:
        matches = [i for i, h in enumerate(headings) if h.startswith(prefix)]
        assert matches, f"no heading starts with {prefix!r}"
        return matches[0]

    def test_first_and_last(self, headings):
        assert headings[0].startswith("Abdalla, Tarek F.")
        assert headings[-1].startswith("Zlotnick, David")

    def test_mc_files_literally(self, headings):
        # Printed artifact: ... Maxwell, McAteer, McBride, ... Meadows ...
        assert (
            self._pos(headings, "McAteer")
            < self._pos(headings, "McCauley")
            < self._pos(headings, "McCune")
            < self._pos(headings, "McGinley")
            < self._pos(headings, "McLaughlin")
            < self._pos(headings, "McMahon")
            < self._pos(headings, "Mehalic")
        )

    def test_apostrophes_fold(self, headings):
        assert self._pos(headings, "O'Hanlon") < self._pos(headings, "Olson")

    def test_hyphenated_surnames(self, headings):
        assert (
            self._pos(headings, "Barnes")
            < self._pos(headings, "Bates-Smith")
            < self._pos(headings, "Batey")
        )

    def test_van_tol_sequence(self, headings):
        assert self._pos(headings, "Udall") < self._pos(headings, "Van Tol") < self._pos(
            headings, "vanEgmond"
        )

    def test_student_heading_separate(self, headings):
        # Bryant appears as article author (95:663) and student author
        # (79:610): two headings, non-student first.
        bryant = [h for h in headings if h.startswith("Bryant, S. Benjamin")]
        assert len(bryant) == 2

    def test_multi_article_author_grouped(self, index):
        cardi_groups = [
            g for g in index.groups() if g.author.surname == "Cardi"
        ]
        assert len(cardi_groups) == 1
        assert len(cardi_groups[0].entries) == 4
        volumes = [e.citation.volume for e in cardi_groups[0].entries]
        assert volumes == sorted(volumes)

    def test_coauthored_piece_under_each_author(self, index):
        rows = [e for e in index if e.title == "A Miner's Bill of Rights"]
        assert {e.author.surname for e in rows} == {"Galloway", "McAteer", "Webb"}


class TestStatisticsAgainstArtifact:
    def test_statistics_anchors(self, index):
        stats = index.statistics()
        assert stats.year_min == 1966  # artifact cites back to 69:63 (1966)
        assert stats.year_max == 1993
        assert stats.entries_by_volume[95] >= 10  # current volume well represented
        assert len(stats.entries_by_volume) == 27  # volumes 69-95

    def test_student_share_plausible(self, index):
        # The full artifact is roughly half student notes; the curated
        # subset keeps a substantial share.
        assert 0.15 < index.statistics().student_share < 0.6


class TestPagination:
    def test_pages_start_at_artifact_first_page(self, index):
        meta = load_reference_metadata()
        pages = paginate(index, PageLayout(first_page=meta["first_page"]))
        assert pages[0].number == 1365
        # 343 entries at 13/page = 27 pages; the full artifact runs
        # 1365-1443 (79 pages) for ~470 denser-packed entries.
        assert 20 <= len(pages) <= 35

    def test_renders_with_artifact_furniture(self, index):
        meta = load_reference_metadata()
        layout = PageLayout(
            first_page=meta["first_page"], volume=meta["volume"], year=meta["year"]
        )
        text = index.render("text", layout=layout)
        assert "1993]" in text
        assert "[Vol. 95:1365" in text
        assert "AUTHOR INDEX" in text
        assert "WEST VIRGINIA LAW REVIEW" in text


class TestGoldenFacsimile:
    """The rendered WVLR facsimile, pinned byte for byte.

    The other checks compare the program's output with itself or spot-check
    it; these digests catch any change to wrapping, collation or page
    furniture that stays self-consistent.  Update them only for a change
    that is meant to alter the printed text.
    """

    @pytest.mark.parametrize(
        "paginated, digest",
        [
            (True, "1d7ff16b5107acfab6d334991a44642fc303886b779eff744826f530bb810082"),
            (False, "62138ea23ae3ea697bbbb4d8ca7e960c06af4da94fd3862ebf809c7a02ed8af3"),
        ],
    )
    def test_text_render_digest(self, index, paginated, digest):
        text = index.render("text", paginated=paginated)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestResolutionOnArtifact:
    def test_known_ocr_variants_merge(self, reference_records):
        resolved = (
            AuthorIndexBuilder(resolve_variants=True)
            .add_records(reference_records)
            .build()
        )
        headings = {g.heading for g in resolved.groups()}
        # Damaged spellings absorbed...
        assert "Hemdon, Judith" not in headings
        assert "Johson, Edward P." not in headings
        assert "Cumutte, Scott A." not in headings
        # ...into their canonical forms.
        assert any(h.startswith("Herdon") or h.startswith("Herndon") for h in headings)
        assert "Johnson, Edward P." in headings

    def test_distinct_real_people_not_merged(self, reference_records):
        resolved = (
            AuthorIndexBuilder(resolve_variants=True)
            .add_records(reference_records)
            .build()
        )
        headings = {g.heading for g in resolved.groups()}
        # Same surname, different people — must stay separate.
        assert "Whisker, James B." in headings
        assert "White, James B." in headings
        assert "Johnson, Earl, Jr." in headings
        assert "Johnson, Ben" in headings
