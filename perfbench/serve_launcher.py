"""Start ``repro serve`` in this process and report its rounds on exit.

    python3 perfbench/serve_launcher.py --stats OUT.json [--trace] -- serve ARGS...

The launcher runs the same CLI entry point as ``python -m repro serve``, so
the server is the ``ControlPlane`` the CLI builds.  Before that it wraps a
few public calls from outside ``src/``: always the plane's constructor,
start and shutdown (to find the plane and read its RSS) and
``WriteAheadLog.append_batch`` (to count each round's batch and stamp its
start with ``time.perf_counter``, the system-wide monotonic clock), and with
``--trace`` also ``WriteAheadLog.append_batch``, ``repro.serve.app.step_cells``
and the three ``FleetEngine`` spillover calls, timed as layers.  After the
server has drained it writes the round times and layer totals to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from benchmath import LayerTimer
    from common import process_rss_mb
    from patching import Patches
    from repro.cli.main import main as cli_main
    from repro.fleet.engine import FleetEngine
    from repro.serve import app as app_module
    from repro.serve.wal import WriteAheadLog

    planes = []
    rss: dict[str, float] = {}
    batches: list[int] = []
    starts: list[float] = []
    timer = LayerTimer()

    def captured(original):
        def init(plane, *a, **k):
            original(plane, *a, **k)
            planes.append(plane)

        return init

    def started(original):
        async def start(plane, *a, **k):
            address = await original(plane, *a, **k)
            rss["start"] = process_rss_mb("self")
            return address

        return start

    def stopping(original):
        async def shutdown(plane, *a, **k):
            rss["end"] = process_rss_mb("self")
            return await original(plane, *a, **k)

        return shutdown

    def counted(original):
        def append(wal, round_index, mutations):
            starts.append(time.perf_counter())
            mutations = list(mutations)
            batches.append(len(mutations))
            return original(wal, round_index, mutations)

        return append

    with Patches() as patches:
        patches.replace(app_module.ControlPlane, "__init__", captured)
        patches.replace(app_module.ControlPlane, "start", started)
        patches.replace(app_module.ControlPlane, "shutdown", stopping)
        patches.replace(WriteAheadLog, "append_batch", counted)
        if args.trace:
            patches.time(timer, WriteAheadLog, "append_batch", "serve.wal_append")
            patches.time(timer, app_module, "step_cells", "serve.step_cells")
            for name in ("plan_spillover", "apply_spillover", "commit_spillover"):
                patches.time(timer, FleetEngine, name, "serve.spillover")
        code = cli_main(cli)

    round_seconds = [s for plane in planes for s in plane.round_seconds]
    stats = {
        "exit": code,
        "round_seconds": round_seconds,
        "batch_sizes": batches,
        "round_starts": starts,
        "layers": dict(timer.seconds),
        "rss_start_mb": rss.get("start"),
        "rss_end_mb": rss.get("end"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(args.stats).write_text(json.dumps(stats), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
