"""Run ``repro serve-query`` with the traced run's timing wrappers installed.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_server.py --spans SPANS.json serve-query --port 0 ...

Everything after ``--spans FILE`` is passed to the CLI's ``main``, so the
traced server has the same process layout as the untraced one.  When the
server exits (on SIGINT) the spans are written to ``FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import trace  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        sys.exit(__doc__)
    spans, cli_args = argv[1], argv[2:]
    from repro import cli

    rec = trace.Recorder()
    uninstall = trace.install(rec)
    try:
        return cli.main(cli_args)
    finally:
        uninstall()
        rec.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
