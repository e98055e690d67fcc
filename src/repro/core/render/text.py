"""Plain-text facsimile renderer.

Reproduces the look of the printed artifact: paginated three-column layout
with running headers, wrapped titles, and the author printed once per row
group.  This is the renderer the fidelity experiment (E1) inspects.
"""

from __future__ import annotations

import textwrap
from typing import TYPE_CHECKING

from repro.core.entry import IndexEntry
from repro.core.pagination import PageLayout, paginate
from repro.core.render.base import Renderer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.builder import AuthorIndex

_AUTHOR_WIDTH = 26
_TITLE_WIDTH = 36
_CITE_WIDTH = 16


class TextRenderer(Renderer):
    """Facsimile text output (see module docstring)."""

    format_name = "text"

    def render(self, index: "AuthorIndex", **options: object) -> str:
        """Render.

        Options
        -------
        layout:
            A :class:`PageLayout`; defaults to the artifact's layout.
        paginated:
            When False (default True), emit one continuous table without
            page furniture — easier to diff and to feed to other tools.
        """
        self._reject_unknown(options, "layout", "paginated")
        layout = options.get("layout", PageLayout())
        if not isinstance(layout, PageLayout):
            raise TypeError("layout must be a PageLayout")
        paginated = bool(options.get("paginated", True))

        if not paginated:
            lines = [layout.column_head(), ""]
            for entry in index:
                lines.extend(_entry_lines(entry))
            return "\n".join(lines).rstrip() + "\n"

        blocks: list[str] = []
        for page in paginate(index, layout):
            lines = [page.header, "", page.column_head, ""]
            for entry in page.entries:
                lines.extend(_entry_lines(entry))
            blocks.append("\n".join(lines).rstrip())
        return "\n\n".join(blocks) + "\n"


def _entry_lines(entry: IndexEntry) -> list[str]:
    """Lay one entry out across as many lines as its columns need."""
    author_text = entry.author.inverted() + ("*" if entry.is_student_work else "")
    author_lines = wrap(author_text, _AUTHOR_WIDTH) or [""]
    title_lines = wrap(entry.title, _TITLE_WIDTH) or [""]
    cite_lines = [entry.citation.columnar()]

    height = max(len(author_lines), len(title_lines), len(cite_lines))
    author_lines += [""] * (height - len(author_lines))
    title_lines += [""] * (height - len(title_lines))
    cite_lines += [""] * (height - len(cite_lines))

    rows = []
    for a, t, c in zip(author_lines, title_lines, cite_lines):
        rows.append(f"{a:<{_AUTHOR_WIDTH}} {t:<{_TITLE_WIDTH}} {c:>{_CITE_WIDTH}}".rstrip())
    return rows


def wrap(text: str, width: int) -> list[str]:
    """``textwrap.wrap(text, width)``, with fast paths for plain text.

    Text that is printable (so its only whitespace is the ASCII space)
    and has no space at either end takes a fast path: it is one line when
    it fits, and otherwise, if it has no hyphen or double space and no
    word is wider than ``width``, it is filled greedily on single spaces,
    which is what ``textwrap`` does to such text.  Anything else goes to
    ``textwrap.wrap``.

    >>> wrap("Mineral Rights in West Virginia", 12)
    ['Mineral', 'Rights in', 'West', 'Virginia']
    """
    if text and text.isprintable() and text[0] != " " and text[-1] != " ":
        if len(text) <= width:
            return [text]
        if "-" not in text and "  " not in text:
            words = text.split(" ")
            if max(map(len, words)) <= width:
                lines = []
                line = words[0]
                for word in words[1:]:
                    if len(line) + 1 + len(word) <= width:
                        line += " " + word
                    else:
                        lines.append(line)
                        line = word
                lines.append(line)
                return lines
    return textwrap.wrap(text, width)
