"""serve-mixed: a ``repro serve --wal`` process under open-loop writes and
dashboard reads.

One writer connection sends batched ``POST /mutations`` open-loop: mutation
``i`` of a phase is due at ``start + i / rate`` and its latency runs from
that due time.  One reader connection polls ``GET /cells`` (the fleet
summary) twice for each ``GET /metrics``, at a fixed rate.  The first phase runs at the
nominal rate; then a fixed ladder of rates climbs until a rung misses the
admission bar.  The server is started through ``serve_launcher.py`` so its
round times (and, traced, its layers) come back when it exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from repro import obs
from repro.fleet import FleetReplayer
from repro.serve import build_fleet, fleet_digest
from repro.serve.http1 import HttpConnection
from repro.serve.wal import WriteAheadLog
from repro.traces.schema import Trace

from benchmath import (
    due_count,
    due_times,
    lateness,
    open_loop_latencies,
    overhead,
    percentile,
    split_windows,
)
from common import CheckFailed, Outcome, ms, process_rss_mb, remove_workdir

clock = time.perf_counter
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 3
CELLS = 3
NODES_PER_CELL = 30
APPS = 4
#: Nodes per cell the writer toggles; at most half are down at once.
POOL = 8
#: Every LOAD_EVERY-th mutation is a cluster-wide load change, to the next
#: of LOAD_MULTIPLIERS.
LOAD_EVERY = 50
LOAD_MULTIPLIERS = (1.25, 0.75, 1.5, 1.0, 0.5)
MAX_BATCH = 64
#: A quarter of the server's capacity or less: nearer the knee a slow spell
#: lengthens rounds, which grows batches, which lengthens rounds; and the
#: more of the time the server is busy, the more reads wait behind a round,
#: so the read p50 would fall between reads that waited and reads that did
#: not.
NOMINAL_RATE = 25.0
#: The nominal phase lasts the run's seconds, and at least this long: 500
#: rounds, 100 to a window.
NOMINAL_SECONDS = 20.0
#: Rates above the nominal one, climbed until a rung misses the bar.  The
#: knee moves between about 1800/s and 6000/s with the speed of a 2-core
#: shared host; a rung inside that range would pass in some runs and fail
#: in others, so the rate would jump by the rung spacing between runs.
LADDER = (1200.0, 9600.0)
RUNG_SECONDS = 1.5
ADMIT_BAR_S = 0.250
READ_HZ = 40.0
#: The nominal phase is cut into this many equal windows; each latency and
#: rate is taken per window and the median window counts.  The host's speed
#: swings by up to 1.5x for 5-15 s at a time, and the median window is one
#: the swing missed unless it lasted most of the phase.
WINDOWS = 5


def mutations(seed: int, cell_nodes: dict[str, list[str]], count: int) -> list[dict]:
    """``count`` deterministic mutations round-robin over the cells: each
    cell fails half its pool one node at a time and then recovers it, over
    and over, and every LOAD_EVERY-th mutation changes the cluster's load.

    The seed picks which nodes fail and recover, never how many or in what
    order of kinds, so every run makes the same mix of rounds.
    """
    rng = random.Random(seed)
    cells = sorted(cell_nodes)
    down = {cell: set() for cell in cells}
    turns = {cell: 0 for cell in cells}
    out = []
    for index in range(count):
        cell = cells[index % len(cells)]
        if index % LOAD_EVERY == LOAD_EVERY - 1:
            multiplier = LOAD_MULTIPLIERS[(index // LOAD_EVERY) % len(LOAD_MULTIPLIERS)]
            event = {"record": "event", "kind": "load_change",
                     "multiplier": multiplier, "app": None}
        else:
            failed = down[cell]
            pool = cell_nodes[cell]
            half = len(pool) // 2
            failing = (turns[cell] // half) % 2 == 0
            turns[cell] += 1
            if failing:
                node = rng.choice([n for n in pool if n not in failed])
                failed.add(node)
                event = {"record": "event", "kind": "node_failure", "nodes": [node]}
            else:
                node = rng.choice(sorted(failed))
                failed.discard(node)
                event = {"record": "event", "kind": "node_recovery", "nodes": [node]}
        out.append({"cell": cell, "event": event})
    return out


class Phase:
    """What one open-loop phase at one rate observed."""

    def __init__(self, rate: float, count: int) -> None:
        self.rate = rate
        self.count = count
        self.start = 0.0
        self.latencies: list[float] = []
        self.lags: list[float] = []
        self.statuses: dict[int, int] = {}
        self.errors = 0
        self.elapsed = 0.0
        self.last_latency = 0.0
        self.over_bar = 0
        self.sent = 0

    @property
    def admitted(self) -> int:
        return self.statuses.get(200, 0)

    def passes(self) -> bool:
        """The admission bar: p99 within 250 ms, nothing refused or lost,
        and the last mutation answered within the bar (no backlog left)."""
        if self.errors or self.admitted != self.count:
            return False
        return (percentile(self.latencies, 0.99, tail=0) <= ADMIT_BAR_S
                and self.last_latency <= ADMIT_BAR_S)


async def write_phase(connection: HttpConnection, batch: list[dict], rate: float) -> Phase:
    """Send ``batch`` open-loop at ``rate``; coalesce whatever is due."""
    phase = Phase(rate, len(batch))
    start = phase.start = clock() + 0.01
    sent = 0
    while sent < len(batch):
        due = due_count(start, rate, clock(), len(batch))
        if due <= sent:
            target = start + sent / rate
            await asyncio.sleep(max(0.0, target - clock()))
            phase.lags.append(lateness(target, clock()))
            continue
        group = batch[sent:min(due, sent + MAX_BATCH)]
        dues = due_times(start, rate, sent, len(group))
        try:
            status, _headers, _body = await connection.request(
                "POST", "/mutations", body=json.dumps({"mutations": group})
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            phase.errors += len(group)
            status = None
        if status is not None:
            phase.statuses[status] = phase.statuses.get(status, 0) + len(group)
            if status == 200:
                latencies = open_loop_latencies(dues, clock())
                phase.latencies.extend(latencies)
                phase.last_latency = latencies[-1]
                phase.over_bar += sum(1 for latency in latencies if latency > ADMIT_BAR_S)
        sent += len(group)
        phase.sent = sent
        if phase.over_bar > phase.count // 100:
            break  # more than 1% over the bar: p99 has missed it, stop the rung
    phase.elapsed = clock() - start
    return phase


async def read_loop(connection: HttpConnection, reads: list[tuple[float, float]],
                    stop: asyncio.Event, rng: random.Random) -> None:
    """Poll the summary and the metrics at READ_HZ on average until ``stop``;
    each read is recorded as (sent at, seconds).

    The gaps between reads are exponential: reads on a fixed period beat
    against the writer's fixed period, so the share of reads that land
    inside a round would depend on the phase between the two schedules,
    which changes from run to run.
    """
    due = clock()
    index = 0
    while not stop.is_set():
        due += rng.expovariate(READ_HZ)
        await asyncio.sleep(max(0.0, due - clock()))
        # Two summaries per metrics scrape.  The summary costs about 2 ms, the
        # metrics 0.15 ms: an even mix would put the p50 between the two.
        path = "/metrics" if index % 3 == 2 else "/cells"
        began = clock()
        await connection.get_json(path)
        reads.append((began, clock() - began))
        index += 1


class Server:
    """One launched ``repro serve --wal`` process."""

    def __init__(self, workdir: Path, tag: str, traced: bool) -> None:
        self.wal = workdir / f"{tag}.wal"
        self.stats_path = workdir / f"{tag}.stats.json"
        command = [
            sys.executable, str(HERE / "serve_launcher.py"), "--stats", str(self.stats_path),
            *(["--trace"] if traced else []), "--",
            "serve", "--wal", str(self.wal), "--port", "0", "--seed", "0",
            "--cells", str(CELLS), "--nodes-per-cell", str(NODES_PER_CELL), "--apps", str(APPS),
        ]
        started = clock()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = self.process.stdout.readline()
            self.boot_seconds = clock() - started
            info = json.loads(line)
            if info.get("event") != "Serving":
                raise CheckFailed(f"unexpected boot line {line!r}")
        except BaseException:
            self.kill()
            raise
        self.host, self.port = info["host"], info["port"]

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, return the launcher's stats."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise CheckFailed("server did not drain within 60 s") from None
        self.process.stdout.close()
        if code != 0:
            raise CheckFailed(f"server exited {code}")
        return json.loads(self.stats_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout:
            self.process.stdout.close()


class ServeMixed:
    name = "serve-mixed"

    def run(self, seed: int, seconds: float, traced: bool) -> Outcome:
        workdir = Path.cwd() / ".perfbench_tmp" / f"serve-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            if traced:
                return self._traced(seed, seconds, workdir)
            return self._timed(seed, seconds, workdir)
        finally:
            remove_workdir(workdir)

    def _boot(self, workdir: Path, traced: bool, repeats: int) -> tuple[Server, list[float]]:
        boots = []
        server = None
        for index in range(repeats):
            if server is not None:
                server.stop()
            server = Server(workdir, f"boot{index}", traced)
            boots.append(server.boot_seconds)
        return server, boots

    def _timed(self, seed: int, seconds: float, workdir: Path) -> Outcome:
        out = Outcome()
        marks = [clock()]
        server, boots = self._boot(workdir, False, SETUP_REPEATS)
        marks.append(clock())
        try:
            session = asyncio.run(self._session(server, seed, seconds, ladder=True))
            peak = process_rss_mb(server.process.pid, "VmHWM")
        except BaseException:
            server.kill()
            raise
        marks.append(clock())
        stats = server.stop()
        marks.append(clock())
        nominal = session["phases"][0]
        rounds = slice(session["rounds_before"], session["rounds_after"])
        round_seconds = stats["round_seconds"][rounds]
        round_starts = stats["round_starts"][rounds]
        if len(round_starts) != len(round_seconds):
            raise CheckFailed("the server timed a round it did not journal")
        steps = session["steps"][rounds]
        passed = [phase for phase in session["phases"] if phase.passes()]
        if not passed:
            raise CheckFailed("the nominal rate missed the admission bar")
        best = passed[-1]
        # Reads while the writer runs at the nominal rate; the ladder's
        # rungs saturate the server and end at a rung that varies.
        reads = session["reads"][:session["nominal_reads"]]
        span = (nominal.start, nominal.start + nominal.elapsed)
        dues = due_times(nominal.start, nominal.rate, 0, len(nominal.latencies))
        windows = {
            "recover": split_windows(round_starts, round_seconds, *span, WINDOWS),
            "admit": split_windows(dues, nominal.latencies, *span, WINDOWS),
            "read": split_windows([r[0] for r in reads], [r[1] for r in reads], *span, WINDOWS),
        }
        width = nominal.elapsed / WINDOWS

        def windowed(name: str) -> float:
            return ms(median(percentile(window, 0.50) for window in windows[name]))

        out.metrics.update(
            setup_s=median(boots),
            peak_rss_mb=peak,
            step_rate=median(len(window) / width for window in windows["recover"]),
            recover_p50_ms=windowed("recover"),
            recover_p90_ms=ms(percentile(round_seconds, 0.90)),
            critical_availability_mean=sum(s["availability"] for s in steps) / len(steps),
            revenue_mean=sum(s["revenue"] for s in steps) / len(steps),
            admit_p50_ms=windowed("admit"),
            sustained_rate=best.admitted / best.elapsed,
            read_p50_ms=windowed("read"),
        )
        out.tails({"recover": round_seconds, "admit": nominal.latencies,
                   "read": [r[1] for r in reads]})
        out.detail["window_samples"] = {
            name: [len(window) for window in found] for name, found in windows.items()
        }
        out.detail["setup_s_all"] = boots
        out.detail["ladder"] = [
            {"rate": p.rate, "admitted": p.admitted, "elapsed_s": p.elapsed,
             "p99_ms": ms(percentile(p.latencies, 0.99, tail=0)) if p.latencies else None,
             "passes": p.passes()}
            for p in session["phases"]
        ]
        self._account(out, session)
        self._verify(out, session, server)
        marks.append(clock())
        out.descriptors = self._descriptors(seed, session, stats)
        marks.append(clock())
        out.detail["stage_s"] = dict(zip(
            ("boot", "load", "drain", "verify", "describe"),
            (b - a for a, b in zip(marks, marks[1:])),
        ))
        return out

    def _traced(self, seed: int, seconds: float, workdir: Path) -> Outcome:
        """The nominal phase twice: plain launcher, then traced launcher."""
        out = Outcome()
        plain_server, _ = self._boot(workdir, False, 1)
        try:
            plain = asyncio.run(self._session(plain_server, seed, seconds, ladder=False))
        except BaseException:
            plain_server.kill()
            raise
        plain_stats = plain_server.stop()
        self._verify(out, plain, plain_server)

        server = Server(workdir, "traced", True)
        try:
            session = asyncio.run(self._session(server, seed, seconds, ladder=False))
        except BaseException:
            server.kill()
            raise
        stats = server.stop()
        self._verify(out, session, server)
        self._account(out, plain)
        self._account(out, session)

        rounds = len(stats["round_seconds"])
        total = sum(stats["round_seconds"])
        layers = stats["layers"]
        named = {
            "serve.wal_append_ms": layers.get("serve.wal_append", 0.0),
            "serve.step_cells_ms": layers.get("serve.step_cells", 0.0),
            "serve.spillover_ms": layers.get("serve.spillover", 0.0),
        }
        for metric, layer_seconds in named.items():
            out.metrics[metric] = ms(layer_seconds) / rounds
        out.metrics["serve.round_ms"] = ms(total) / rounds
        out.metrics["serve.other_ms"] = ms(total - sum(named.values())) / rounds
        out.metrics["step_ms"] = out.metrics["serve.round_ms"]
        out.metrics["serve.batch_size"] = sum(stats["batch_sizes"]) / len(stats["batch_sizes"])
        out.metrics["serve.rss_growth_mb"] = stats["rss_end_mb"] - stats["rss_start_mb"]
        lags = session["phases"][0].lags
        out.metrics["serve.gen_lag_ms"] = ms(sum(lags) / len(lags)) if lags else 0.0
        plain_rounds = plain_stats["round_seconds"]
        out.metrics["trace.overhead_pct"] = overhead(
            total / rounds, sum(plain_rounds) / len(plain_rounds)
        )
        out.check("layers_within_round", sum(named.values()) <= total)
        out.descriptors = self._descriptors(seed, session, stats)
        return out

    async def _session(self, server: Server, seed: int, seconds: float, ladder: bool) -> dict:
        host, port = server.host, server.port
        probe = HttpConnection(host, port)
        config = await probe.get_json("/config")
        cell_nodes = {}
        for cell in config["cells"]:
            listing = await probe.get_json(f"/cells/{cell}/nodes")
            cell_nodes[cell] = [entry["node"] for entry in listing["nodes"]][:POOL]
        rounds_before = (await probe.get_json("/metrics"))["rounds"]
        cells_before = (await probe.get_json("/cells"))["cells"]

        plan = [(NOMINAL_RATE, max(NOMINAL_SECONDS, seconds) if ladder else seconds / 2)]
        if ladder:
            plan += [(rate, RUNG_SECONDS) for rate in LADDER]
        total = sum(int(rate * length) for rate, length in plan)
        stream = mutations(seed, cell_nodes, total)
        writer = HttpConnection(host, port)
        reader = HttpConnection(host, port)
        reads: list[tuple[float, float]] = []
        stop = asyncio.Event()
        reading = asyncio.create_task(read_loop(reader, reads, stop, random.Random(seed)))
        phases = []
        offset = 0
        rounds_after = None
        nominal_reads = 0
        try:
            for rate, length in plan:
                count = int(rate * length)
                phase = await write_phase(writer, stream[offset:offset + count], rate)
                offset += count
                phases.append(phase)
                if rounds_after is None:
                    rounds_after = (await probe.get_json("/metrics"))["rounds"]
                    nominal_reads = len(reads)
                if not phase.passes():
                    break
        finally:
            stop.set()
            await reading
            await writer.close()
            await reader.close()
        session = {
            "config": config,
            "phases": phases,
            "reads": reads,
            "nominal_reads": nominal_reads,
            "rounds_before": rounds_before,
            "cells_before": cells_before,
            "rounds_after": rounds_after,
            "steps": (await probe.get_json("/steps"))["steps"],
            "trace": await probe.get_json("/trace"),
            "digest": (await probe.get_json("/digest"))["digest"],
        }
        await probe.close()
        return session

    def _account(self, out: Outcome, session: dict) -> None:
        for phase in session["phases"]:
            out.attempted += phase.sent
            out.failed += phase.sent - phase.admitted
        out.attempted += len(session["reads"])

    def _verify(self, out: Outcome, session: dict, server: Server) -> None:
        """Offline replay of the served trace must reproduce the digest and
        the step records; the journal must read back whole."""
        config = session["config"]
        scenario = {cell: Trace.loads(text) for cell, text in session["trace"]["cells"].items()}
        fleet = build_fleet(**config["fleet"])
        try:
            steps = FleetReplayer(fleet, seed=config["seed"], workers=1).run(scenario)
            out.check("digest_matches_offline_replay", fleet_digest(fleet) == session["digest"])
        finally:
            fleet.close()
        out.check(
            "steps_match_offline_replay",
            [step.to_record() for step in steps] == session["steps"],
        )
        _header, batches = WriteAheadLog.read(server.wal)
        journaled = sum(len(batch["mutations"]) for batch in batches)
        admitted = sum(phase.admitted for phase in session["phases"])
        out.check("wal_reads_back", len(batches) == session["trace"]["rounds"]
                  and journaled == admitted)

    def _descriptors(self, seed: int, session: dict, stats: dict) -> dict:
        cells = session["cells_before"]
        steps = session["steps"]
        return {
            "seed": seed,
            "nodes": CELLS * NODES_PER_CELL,
            "cells": CELLS,
            "apps": APPS,
            "pre_failure_utilization": (
                sum(c["used_cpu"] for c in cells) / sum(c["capacity_cpu"] for c in cells)
            ),
            "min_available_fraction": min(s["available_fraction"] for s in steps),
            "rounds": len(steps),
            "triggered_rounds": sum(s["triggered"] for s in steps),
            "crunch_steps": sum(1 for s in steps if s["availability"] < 1.0),
            "mean_batch": sum(stats["batch_sizes"]) / max(1, len(stats["batch_sizes"])),
            "nominal_rate": NOMINAL_RATE,
            "ladder": list(LADDER),
            **obs.host_block(),
        }
