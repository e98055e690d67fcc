"""Property tests: the artifact path's fast paths and caches agree with
the reference code they stand in front of."""

import textwrap
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.render.text import wrap
from repro.errors import NameParseError
from repro.names.model import NameForm
from repro.names.normalize import strip_diacritics
from repro.names.parser import _parse_name, parse_name

# -- text wrapping ---------------------------------------------------------------

# Half the texts are words joined by single spaces, the greedy fast path's
# input; the rest mix in the separators that send it to textwrap.  Both
# carry non-ASCII letters, over-long words and leading or trailing space.
short_words = st.text(alphabet="abcxyzéßЖ.,'", min_size=1, max_size=10)
long_words = st.text(alphabet="abcé", min_size=11, max_size=45)
words = st.one_of(short_words, short_words, short_words, long_words)
separators = st.sampled_from([" ", "  ", "-", " - ", "--", "\t", "\n", "\xa0"])
padding = st.sampled_from(["", "", "", " ", "  ", "\t"])


@st.composite
def wrap_texts(draw):
    plain = draw(st.booleans())
    text = ""
    for word in draw(st.lists(words, max_size=12)):
        if text:
            text += " " if plain else draw(separators)
        text += word
    return draw(padding) + text + draw(padding)


widths = st.integers(min_value=1, max_value=40)


@given(wrap_texts(), widths)
@settings(max_examples=400, deadline=None)
@example("aa bb cc", 5)  # a line that fills the width exactly
@example("aa  bb cc", 5)  # textwrap keeps a double space inside a line
@example("aa bb-cc", 6)  # textwrap breaks after a hyphen
@example(" aaaa bb", 4)  # a leading space that does not fit the first line
@example("abc ", 10)  # a trailing space that textwrap drops
def test_wrap_matches_textwrap(text, width):
    assert wrap(text, width) == textwrap.wrap(text, width)


@given(st.text(alphabet=" -\tab\xe9\u0301\n", max_size=60), widths)
@settings(max_examples=300, deadline=None)
def test_wrap_matches_textwrap_on_character_soup(text, width):
    assert wrap(text, width) == textwrap.wrap(text, width)


# -- diacritics --------------------------------------------------------------------


def _nfkd_strip(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_strip_diacritics_matches_nfkd(text):
    assert strip_diacritics(text) == _nfkd_strip(text)


# -- cached name parse -------------------------------------------------------------

surnames = st.sampled_from(["Smith", "O'Brien", "Van Tol", "Bates-Smith", "Müller", "McAteer"])
givens = st.sampled_from(["", "John", "Tarek F.", "Hon. Robert C.", "M. Katherine", "V"])
suffixes = st.sampled_from(["", ", Jr.", ", III", ", 1I", " II"])
markers = st.sampled_from(["", "*", " *"])


@st.composite
def raw_names(draw):
    surname, given = draw(surnames), draw(givens)
    if draw(st.booleans()):
        body = f"{surname}, {given}" if given else surname
    else:
        body = f"{given} {surname}".strip()
    return body + draw(suffixes) + draw(markers)


forms = st.sampled_from([None, NameForm.INVERTED, NameForm.DIRECT, NameForm.SURNAME_ONLY])


def _uncached(raw, form):
    try:
        return _parse_name.__wrapped__(raw, form)
    except NameParseError:
        return NameParseError


def _cached(raw, form):
    try:
        return parse_name(raw, form=form)
    except NameParseError:
        return NameParseError


@given(st.one_of(raw_names(), st.text(alphabet="ab ,.*|[]Ij", max_size=20)), forms, forms)
@settings(max_examples=300, deadline=None)
def test_cached_parse_matches_uncached(raw, first, second):
    # Two forms in a row on one string: a cache keyed on the string alone
    # would answer the second call with the first call's name.
    for form in (first, second, first):
        assert _cached(raw, form) == _uncached(raw, form)


@pytest.mark.parametrize("raw", ["", "   ", "*", " * ", "|", "[ ]", ", ,"])
def test_bad_input_raises_on_every_call(raw):
    for _ in range(3):
        with pytest.raises(NameParseError):
            parse_name(raw)


def test_form_is_part_of_the_cache_key():
    assert parse_name("John Smith").surname == "Smith"
    assert parse_name("John Smith", form=NameForm.SURNAME_ONLY).surname == "John Smith"
    assert parse_name("John Smith").surname == "Smith"
