#!/usr/bin/env python3
"""Run one benchmark workload once and print its metrics.

Usage, from the repository root::

    python3 bench/run.py --workload fig14-oltp --seed 0 --seconds 20 --trace 0

The program under test is built from ``src/`` of the same checkout.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``, each as
``{"value", "unit"}``); the line before it is the full report (sample
counts, stats digest, Fig-14 gain table, host info, and with tracing
the per-layer self-time table).  ``--out DIR`` also writes the report,
and with tracing the spans and a Chrome trace-event file, into ``DIR``.

Exit status 2 without a result when ``src/`` is missing or any
``REPRO_*`` environment variable is set: the benchmark always measures
the program's default configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="fig14-oltp, attrib-oltp, steady-ff or "
                             "warm-replay")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; at least 3 repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced "
                             "repetitions")
    parser.add_argument("--out", type=Path,
                        help="directory for report.json (and trace files)")
    args = parser.parse_args(argv)
    overrides = sorted(name for name in os.environ
                       if name.startswith("REPRO_"))
    if overrides:
        print(f"refusing to run with {', '.join(overrides)} set: the "
              f"benchmark measures the default program", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import driver
    import tracer as tracing
    from grids import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    result, report, tracer = driver.run(workload, args.seed, args.seconds,
                                        bool(args.trace))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.json").write_text(json.dumps(report, indent=1))
        if tracer is not None:
            (args.out / "spans.json").write_text(
                json.dumps(tracing.to_jsonable(tracer)))
            (args.out / "trace.chrome.json").write_text(
                json.dumps(tracing.chrome_trace(tracer)))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
