"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-memory --seed 1 --seconds 20 --trace 0

The program under test is imported from the checkout's ``src/``.  Stdout ends
with one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it is a JSON object with the run's context
and details (per-class latencies, error ratio, the layer split).  The exit
code is 0 when the run completed, even if a check failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("artifact", "serve-memory", "serve-paged", "update")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _import_program()
    from perfbench import workloads

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    traced = bool(args.trace)
    try:
        if args.workload == "artifact":
            out = workloads.run_artifact(args.seed, args.seconds, traced, workdir)
        elif args.workload == "update":
            out = workloads.run_update(args.seed, args.seconds, traced, workdir)
        else:
            fmt = args.workload.split("-", 1)[1]
            out = workloads.run_serve(fmt, args.seed, args.seconds, traced, workdir, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    context = dict(workloads.host_context(args.seed), workload=args.workload, trace=args.trace)
    context.update(out.context)
    detail = dict(out.detail, error_ratio=out.failed / out.attempted, errors=out.errors)
    print(json.dumps({"context": context, "detail": detail}, sort_keys=True))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
