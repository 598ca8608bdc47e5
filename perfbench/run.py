"""Phoenix benchmark: one command, four workloads.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload churn-100k --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric.  The last stdout line is the result object
(``correct``/``attempted``/``failed``/``metrics``); the line before it holds
the workload descriptors, sample counts and tail percentiles.  The exit
code is 1 when a correctness check fails and 2 when the benchmark cannot
run at all (for example outside a checkout, where ``src/repro`` is
missing).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a started server is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from common import END_TO_END_UNITS, PER_LAYER_UNITS, source_identity
    from replays import WORKLOADS
    from serve_mixed import ServeMixed

    workloads = dict(WORKLOADS)
    workloads[ServeMixed.name] = ServeMixed()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2

    from repro import obs

    started = time.perf_counter()
    outcome = workloads[args.workload].run(args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = set(END_TO_END_UNITS) - set(outcome.metrics) if not args.trace else set()
    if missing:
        print(f"perfbench: {args.workload} did not measure {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    descriptors = {
        "workload": args.workload,
        "trace": args.trace,
        **obs.host_block(),
        **outcome.descriptors,
        **source_identity(ROOT),
        "wall_s": time.perf_counter() - started,
    }
    print(json.dumps({"descriptors": descriptors, "checks": outcome.checks,
                      "detail": outcome.detail}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
