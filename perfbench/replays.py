"""The three replay workloads: churn-100k, crunch-1k and fleet-outage.

Each run builds its inputs from the seed, sets up several times (the median
is ``setup_s``), measures for at least the requested seconds, then checks
the outputs outside the timed region.  ``--trace 1`` runs the same work
twice, untraced and then with every layer wrapped, and reports per-layer
self time plus the overhead of the wrapping.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from pathlib import Path
from statistics import median

import repro.api as api
from repro import obs
from repro.adaptlab import build_environment
from repro.adaptlab import metrics as metrics_module
from repro.adaptlab.metrics import potential_revenue
from repro.api.engine import PhoenixEngine, StagePipeline
from repro.chaos.invariants import check_invariants
from repro.core.controller import StateBackend
from repro.fleet import FleetEngine, FleetReplayer
from repro.fleet import pool as pool_module
from repro.fleet.pool import ShardPool
from repro.serve import build_fleet
from repro.traces import fleet_scenario, generators
from repro.traces import replayer as replayer_module
from repro.traces.replayer import ReplayMetrics, ReplayStep, TraceReplayer
from repro.traces.schema import LoadChange, Trace, merge_traces

from benchmath import LayerTimer, overhead, percentile
from common import CheckFailed, Outcome, ms, peak_rss_mb, remove_workdir
from patching import Patches

clock = time.perf_counter

ENV_SEED = 2025


# -- single-cluster replay -----------------------------------------------------


class EngineReplay:
    """A trace replayed step by step through ``PhoenixEngine.reconcile``.

    The per-step work is :class:`~repro.traces.replayer.TraceReplayer`'s:
    apply the step's events, reconcile, evaluate, record a ``ReplayStep``.
    Stepping by hand lets the run stop on the clock; the correctness check
    replays the same prefix through ``TraceReplayer`` itself and compares
    the JSONL byte for byte.
    """

    def __init__(self, env, trace: Trace, seed: int, *, incremental: bool = True) -> None:
        self.reference = env.state
        self.reference_revenue = potential_revenue(env.state)
        self.state = env.fresh_state()
        self.engine = api.engine("revenue", incremental=incremental)
        self.trace = trace
        self.seed = seed
        self.steps = list(trace.steps())
        self.position = 0
        self.load = 1.0
        self.metrics = ReplayMetrics(
            metadata={
                "driver": self.engine.name,
                "mode": "reconcile",
                "seed": seed,
                "trace": dict(trace.metadata),
            }
        )

    @property
    def done(self) -> bool:
        return self.position >= len(self.steps)

    def step(self):
        """One trace step; returns (report, reconcile seconds)."""
        time_point, events = self.steps[self.position]
        state = self.state
        for event in events:
            replayer_module.apply_trace_event(state, event, seed=self.seed)
            if isinstance(event, LoadChange) and event.app is None:
                self.load = event.multiplier
        started = clock()
        report = self.engine.reconcile(state)
        reconcile_seconds = clock() - started
        evaluated = metrics_module.evaluate_state(
            state, reference=self.reference, planning_seconds=report.planning_seconds
        )
        total = state.total_capacity(healthy_only=False).cpu
        self.metrics.steps.append(
            ReplayStep(
                time=time_point,
                events=tuple(e.kind for e in events),
                failed_nodes=state.failed_count,
                available_fraction=state.total_capacity().cpu / total if total > 0 else 0.0,
                load_multiplier=self.load,
                availability=evaluated.critical_service_availability,
                revenue=evaluated.normalized_revenue,
                utilization=evaluated.utilization,
                requests_served=evaluated.requests_served_fraction,
                triggered=report.triggered,
                actions=report.actions_executed,
                planning_seconds=report.planning_seconds,
            )
        )
        self.position += 1
        return report, reconcile_seconds

    def read(self) -> float:
        """One dashboard read of the cluster summary; returns its seconds."""
        started = clock()
        self.engine.summary(self.state, reference_revenue=self.reference_revenue)
        return clock() - started

    def prefix(self, steps: int) -> Trace:
        events = [event for _, group in self.steps[:steps] for event in group]
        return Trace(events=events, metadata=dict(self.trace.metadata))


class Samples:
    """Timing samples of one measured stretch of a replay."""

    def __init__(self) -> None:
        self.recover: list[float] = []
        self.step: list[float] = []
        self.read: list[float] = []
        self.events = 0
        self.actions: list[int] = []
        self.unplaced: list[int] = []


def drive(replay: EngineReplay, samples: Samples, *, seconds: float, min_steps: int,
          read_every: int, max_steps: int | None = None, per_step=None,
          block: int = 1) -> None:
    """Step ``replay`` until ``seconds`` have been spent stepping and at
    least ``min_steps`` steps are done (or ``max_steps``, or the trace ends).
    The steps are taken in whole ``block``s, so every run measures the same
    mix of rounds.

    Reads run between steps and are not part of step time.
    """
    gc.collect()
    spent = 0.0
    first = replay.position
    while not replay.done:
        if max_steps is not None and replay.position >= max_steps:
            break
        if (max_steps is None and spent >= seconds and replay.position >= min_steps
                and (replay.position - first) % block == 0):
            break
        events = len(replay.steps[replay.position][1])
        started = clock()
        if per_step is None:
            report, reconcile_seconds = replay.step()
        else:
            report, reconcile_seconds = per_step(replay)
        elapsed = clock() - started
        spent += elapsed
        samples.step.append(elapsed)
        samples.events += events
        if report.triggered:
            samples.recover.append(reconcile_seconds)
            samples.actions.append(report.actions_executed)
            samples.unplaced.append(len(report.schedule.unplaced) if report.schedule else 0)
        if read_every and replay.position % read_every == 0:
            samples.read.append(replay.read())


def _quality(metrics: ReplayMetrics, window: int) -> dict[str, float]:
    steps = metrics.steps[:window]
    if len(steps) < window:
        raise CheckFailed(f"quality window needs {window} steps, the run made {len(steps)}")
    return {
        "critical_availability_mean": sum(s.availability for s in steps) / window,
        "revenue_mean": sum(s.revenue for s in steps) / window,
    }


def _utilization(*states) -> float:
    """Total demand over total capacity, failed nodes included."""
    demand = sum(
        app.total_demand().cpu for state in states for app in state.applications.values()
    )
    return demand / sum(state.total_capacity(healthy_only=False).cpu for state in states)


class EngineWorkload:
    """A single-cluster workload: an environment, a trace and its run sizes."""

    name = ""
    nodes = 0
    apps = 8
    #: Steps whose quality (availability, revenue) is averaged; every run
    #: makes at least this many so the means are the same for one seed.
    quality_steps = 0
    #: Leading steps replayed again with ``incremental=False``.
    identity_steps: int | None = None
    read_every = 10
    #: Measured steps come in whole blocks of this many.
    block = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3

    def trace(self, seed: int) -> Trace:
        raise NotImplementedError

    def setup(self, seed: int) -> tuple[EngineReplay, float, object]:
        """Environment + trace + the first convergence round, timed."""
        started = clock()
        env = build_environment(node_count=self.nodes, n_apps=self.apps, seed=ENV_SEED)
        replay = EngineReplay(env, self.trace(seed), seed)
        replay.step()
        return replay, clock() - started, env

    def more_setups(self, seed: int) -> list[float]:
        """Set-up times of the repeats after the measured one; they run last
        so the measured replay works on an unfragmented heap."""
        times = []
        for _ in range(self.setup_repeats - 1):
            gc.collect()
            times.append(self.setup(seed)[1])
        return times

    def run(self, seed: int, seconds: float, traced: bool) -> Outcome:
        return self.run_traced(seed, seconds) if traced else self.run_timed(seed, seconds)

    def run_timed(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        replay, first_setup, env = self.setup(seed)
        samples = Samples()
        drive(replay, samples, seconds=seconds, min_steps=self.quality_steps,
              read_every=self.read_every, block=self.block)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        stepped = sum(samples.step)
        out.metrics.update(
            step_rate=len(samples.step) / stepped,
            recover_p50_ms=ms(percentile(samples.recover, 0.50)),
            recover_p90_ms=ms(percentile(samples.recover, 0.90)),
            admit_p50_ms=ms(percentile(samples.step, 0.50)),
            sustained_rate=samples.events / stepped,
            read_p50_ms=ms(percentile(samples.read, 0.50)),
            **_quality(replay.metrics, self.quality_steps),
        )
        out.attempted += replay.position + len(samples.read)
        out.tails({"recover": samples.recover, "admit": samples.step, "read": samples.read})
        out.descriptors = self.descriptors(seed, replay)
        self.verify(out, replay, env)
        del replay, env
        setup_times = [first_setup, *self.more_setups(seed)]
        out.metrics["setup_s"] = median(setup_times)
        out.detail["setup_s_all"] = setup_times
        return out

    def descriptors(self, seed: int, replay: EngineReplay) -> dict:
        steps = replay.metrics.steps
        inc = replay.engine.pipeline.incremental
        return {
            "seed": seed,
            "nodes": self.nodes,
            "cells": 1,
            "apps": self.apps,
            "pre_failure_utilization": _utilization(replay.reference),
            "min_available_fraction": min(s.available_fraction for s in steps),
            "steps": len(steps),
            "trace_events": len(replay.trace.events),
            "triggered_rounds": sum(1 for s in steps if s.triggered),
            "crunch_steps": sum(1 for s in steps if s.availability < 1.0),
            "fast_rounds": inc.fast_rounds if inc else 0,
            "full_rounds": inc.full_rounds if inc else 0,
        }

    def verify(self, out: Outcome, replay: EngineReplay, env) -> None:
        violations = check_invariants(replay.state)
        out.check("invariants", not violations)
        if violations:
            out.detail["invariant_violations"] = [str(v) for v in violations[:5]]
        steps = min(replay.position, self.identity_steps or replay.position)
        twin = TraceReplayer(api.engine("revenue", incremental=False), seed=replay.seed)
        expected = twin.run(env.state, replay.prefix(steps)).to_jsonl()
        served = ReplayMetrics(steps=replay.metrics.steps[:steps], metadata=replay.metrics.metadata)
        out.check("identity_vs_full_recompute", served.to_jsonl() == expected)
        out.detail["identity_steps"] = steps

    # -- traced run ------------------------------------------------------------

    def run_traced(self, seed: int, seconds: float) -> Outcome:
        """Untraced pass, then a traced pass over the same steps."""
        out = Outcome()
        replay, _setup, env = self.setup(seed)
        plain = Samples()
        drive(replay, plain, seconds=seconds / 2, min_steps=0, read_every=0)
        steps = replay.position
        plain_jsonl = replay.metrics.to_jsonl()
        del replay
        gc.collect()

        traced_replay, _setup, _ = self.setup(seed)
        inc = traced_replay.engine.pipeline.incremental
        fast_before = inc.fast_rounds if inc else 0
        timer = LayerTimer()
        traced = Samples()
        with Patches() as patches:
            patches.time(timer, replayer_module, "apply_trace_event", "traces.apply")
            patches.time(timer, PhoenixEngine, "reconcile", "api.detect")
            patches.time(timer, StagePipeline, "plan", "core.rank")
            patches.time(timer, StagePipeline, "schedule", "core.schedule")
            patches.time(timer, StateBackend, "execute", "core.execute")
            patches.time(timer, metrics_module, "evaluate_state", "metrics.evaluate")
            root = timer.wrap(lambda r: r.step(), "replay.other")
            drive(traced_replay, traced, seconds=0.0, min_steps=0, read_every=0,
                  max_steps=steps, per_step=root)
        count = len(traced.step)
        triggered = len(traced.recover)
        fast = (inc.fast_rounds if inc else 0) - fast_before
        layers = {
            "traces.apply": "traces.apply_ms",
            "api.detect": "api.detect_ms",
            "core.rank": "core.rank_ms",
            "core.schedule": "core.schedule_ms",
            "core.execute": "core.execute_ms",
            "metrics.evaluate": "metrics.evaluate_ms",
            "replay.other": "replay.other_ms",
        }
        for layer, metric in layers.items():
            out.metrics[metric] = ms(timer.seconds[layer]) / count
        out.metrics["step_ms"] = ms(timer.total()) / count
        out.metrics["core.actions"] = sum(traced.actions) / max(1, triggered)
        out.metrics["core.unplaced"] = sum(traced.unplaced) / max(1, triggered)
        out.metrics["core.fast_round_ratio"] = fast / max(1, triggered)
        out.metrics["trace.overhead_pct"] = overhead(
            sum(traced.step) / count, sum(plain.step[: count]) / count
        )
        out.attempted += count + len(plain.step)
        out.check("layers_add_up", _adds_up(out.metrics, list(layers.values()), "step_ms"))
        out.check("traced_matches_untraced", traced_replay.metrics.to_jsonl() == plain_jsonl)
        out.descriptors = self.descriptors(seed, traced_replay)
        out.detail["traced_steps"] = count
        self.verify(out, traced_replay, env)
        return out


def _adds_up(metrics: dict, parts: list[str], whole: str) -> bool:
    total = sum(metrics[name] for name in parts)
    return abs(total - metrics[whole]) <= 1e-9 * max(1.0, abs(metrics[whole]))


class Churn100k(EngineWorkload):
    """100k nodes about 1% utilized; Poisson single-node failures with repair."""

    name = "churn-100k"
    nodes = 100_000
    #: 1000 measured rounds put 10 samples beyond p99.
    quality_steps = 1011
    identity_steps = 16
    #: Poisson events in the trace: enough for fast hosts to stay busy.
    events = 5000

    def trace(self, seed: int) -> Trace:
        horizon = 3600.0
        # Each failure usually brings its repair: events ~ 2 * failures.
        mtbf = self.nodes * horizon / (self.events / 2)
        return generators.poisson_failures(
            self.nodes, horizon=horizon, mtbf=mtbf, mttr=300.0, seed=seed
        )


class Crunch1k(EngineWorkload):
    """1k nodes at 0.70 utilization; a chain of storms removing 30-70%."""

    name = "crunch-1k"
    nodes = 1000
    #: Storm depths, cycled; the seed picks the victims, not the depths.
    fractions = (0.3, 0.5, 0.7, 0.4, 0.6, 0.35, 0.65, 0.45)
    storms = 60
    cycle_seconds = 300.0
    #: 5 failure waves and 2 recovery stages per storm.  The first wave and
    #: the last stage are cheap rounds, the other five mostly expensive, so
    #: the p50 sits inside the expensive ones rather than on the boundary
    #: between the two kinds, where it would jump between them from seed to
    #: seed.
    burst_waves = 5
    recovery_steps = 2
    #: One storm of every depth in the cycle: a run measures whole cycles,
    #: so every run times the same mix of depths and storm phases.
    block = len(fractions) * (burst_waves + recovery_steps)
    #: Two cycles, 112 rounds, so p90 has 10 samples beyond it.
    quality_steps = 2 * block
    setup_repeats = 5
    #: One cycle, a storm of every depth: a whole-run twin would double the
    #: run (full recompute costs about what these rounds cost).
    identity_steps = block
    read_every = 1

    def trace(self, seed: int) -> Trace:
        parts = []
        for index in range(self.storms):
            parts.append(
                generators.failure_storm(
                    self.nodes,
                    at=index * self.cycle_seconds,
                    fraction=self.fractions[index % len(self.fractions)],
                    burst_seconds=30.0,
                    burst_waves=self.burst_waves,
                    recovery_after=120.0,
                    recovery_steps=self.recovery_steps,
                    recovery_step_seconds=60.0,
                    seed=seed * 7919 + index,
                )
            )
        return merge_traces(
            parts,
            metadata={"generator": "storm_chain", "storms": self.storms, "seed": seed},
        )


# -- fleet ---------------------------------------------------------------------


class FleetOutage:
    """4 cells x 2000 nodes through ``FleetReplayer(workers=2)``."""

    name = "fleet-outage"
    cells = 4
    nodes_per_cell = 2000
    apps = 6
    workers = 2
    horizon = 3600.0
    #: Per-cell Poisson MTBF: about 300 fleet steps per replay.
    mtbf = 200_000.0
    storm_cells = 2
    storm_fraction = 0.3

    def scenario(self, seed: int):
        """Poisson churn per cell, a correlated storm on the first two cells
        and an outage of the last one.  The storm always hits the same
        cells, so the seed changes which nodes fail, not how much work the
        storm makes."""
        scenario = fleet_scenario(
            self.cells,
            self.nodes_per_cell,
            horizon=self.horizon,
            mtbf=self.mtbf,
            mttr=300.0,
            outage_cell=self.cells - 1,
            outage_at=self.horizon * 0.5,
            outage_recovery_after=self.horizon * 0.25,
            seed=seed,
        )
        for index, cell in enumerate(sorted(scenario)[: self.storm_cells]):
            storm = generators.failure_storm(
                self.nodes_per_cell,
                at=self.horizon * 0.25,
                fraction=self.storm_fraction,
                seed=seed * 1_000_003 + index,
            )
            trace = scenario[cell]
            scenario[cell] = merge_traces(
                [trace, storm], metadata={**trace.metadata, "storm": True}
            ).validate()
        return scenario

    def setup(self, seed: int):
        """The converged fleet (the serve CLI's construction) and the scenario."""
        started = clock()
        fleet = build_fleet(
            cells=self.cells, nodes_per_cell=self.nodes_per_cell, apps=self.apps, env_seed=ENV_SEED
        )
        scenario = self.scenario(seed)
        return fleet, scenario, clock() - started

    def run(self, seed: int, seconds: float, traced: bool) -> Outcome:
        """At least two timed replays (untraced, then traced with --trace 1),
        each on a freshly built fleet; the serial twin's build is the third
        set-up sample."""
        out = Outcome()
        workdir = Path.cwd() / ".perfbench_tmp" / f"fleet-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            hooks = _FleetHooks(workdir)
            hooks.reading = not traced
            replays: list[dict] = []
            with Patches() as patches:
                hooks.install(patches)
                while len(replays) < 2 or (
                    not traced and sum(r["seconds"] for r in replays) < seconds
                ):
                    layered = traced and len(replays) == 1
                    replays.append(self.replay(seed, hooks, layered))
            recover = hooks.recover
        finally:
            remove_workdir(workdir)
        first = replays[0]
        setup_times = [r["setup_s"] for r in replays]
        setup_times.append(self.verify(out, seed, first["jsonl"]))
        out.check("repeats_identical", all(r["jsonl"] == first["jsonl"] for r in replays))
        out.attempted += sum(r["steps"] for r in replays) + len(hooks.reads)
        view = FleetReplayStepView(first["jsonl"])
        if traced:
            out.metrics.update(replays[1]["layers"])
            out.metrics["trace.overhead_pct"] = overhead(replays[1]["seconds"], first["seconds"])
            parts = ["fleet.pool_wait_ms", "fleet.wire_encode_ms", "fleet.wire_decode_ms",
                     "fleet.spillover_ms", "fleet.other_ms"]
            out.check("layers_add_up", _adds_up(out.metrics, parts, "step_ms"))
        else:
            out.metrics.update(
                setup_s=median(setup_times),
                peak_rss_mb=peak_rss_mb(),
                step_rate=median([r["steps"] / r["seconds"] for r in replays]),
                recover_p50_ms=ms(percentile(recover, 0.50)),
                recover_p90_ms=ms(percentile(recover, 0.90)),
                critical_availability_mean=view.mean("availability"),
                revenue_mean=view.mean("revenue"),
                admit_p50_ms=ms(percentile(hooks.admit, 0.50)),
                sustained_rate=median([r["events"] / r["seconds"] for r in replays]),
                read_p50_ms=ms(percentile(hooks.reads, 0.50)),
            )
            out.tails({"recover": recover, "admit": hooks.admit, "read": hooks.reads})
            out.detail["setup_s_all"] = setup_times
            out.detail["replay_s_all"] = [r["seconds"] for r in replays]
        out.descriptors = {
            "seed": seed,
            "nodes": self.cells * self.nodes_per_cell,
            "cells": self.cells,
            "apps": self.apps,
            "workers": self.workers,
            "pre_failure_utilization": first["utilization"],
            "min_available_fraction": view.min("available_fraction"),
            "steps": len(view.records),
            "replays": len(replays),
            "triggered_rounds": sum(r["triggered"] for r in view.records),
            "crunch_steps": sum(1 for r in view.records if r["availability"] < 1.0),
            "spillovers_planned": sum(r["spillovers_planned"] for r in view.records),
            **obs.host_block(workers=self.workers),
        }
        return out

    def replay(self, seed: int, hooks: "_FleetHooks", layered: bool) -> dict:
        """Set up, then one timed replay; reads during it are not replay time."""
        gc.collect()
        fleet, scenario, setup_seconds = self.setup(seed)
        try:
            utilization = _utilization(*(cell.state for cell in fleet.cells))
            read_before = hooks.read_seconds
            replayer = FleetReplayer(fleet, seed=seed, workers=self.workers)
            run = replayer.run
            timer = LayerTimer()
            stats = _FleetLayerStats()
            hooks.begin_replay()
            with Patches() as patches:
                if layered:
                    stats.install(patches, timer)
                    run = timer.wrap(run, "fleet.other")
                started = clock()
                metrics = run(scenario)
                elapsed = clock() - started - (hooks.read_seconds - read_before)
            hooks.end_replay()
        finally:
            fleet.close()
        result = {
            "setup_s": setup_seconds,
            "seconds": elapsed,
            "steps": len(metrics),
            "events": sum(len(trace.events) for trace in scenario.values()),
            "jsonl": metrics.to_jsonl(),
            "utilization": utilization,
        }
        if layered:
            stats.phases(replayer)
            result["layers"] = stats.metrics(timer, len(metrics))
        return result

    def verify(self, out: Outcome, seed: int, sharded_jsonl: str) -> float:
        """Serial twin: same JSONL as the sharded replay, invariants on its
        end state.  Returns the twin's set-up seconds."""
        fleet, scenario, setup_seconds = self.setup(seed)
        try:
            serial = FleetReplayer(fleet, seed=seed, workers=1).run(scenario)
            out.check("identity_vs_serial", serial.to_jsonl() == sharded_jsonl)
            violations = check_invariants(fleet)
            out.check("invariants", not violations)
            if violations:
                out.detail["invariant_violations"] = [str(v) for v in violations[:5]]
        finally:
            fleet.close()
        return setup_seconds


class FleetReplayStepView:
    """Read-only view of fleet replay JSONL step records."""

    def __init__(self, jsonl: str) -> None:
        self.records = [json.loads(line) for line in jsonl.splitlines()[1:]]

    def mean(self, key: str) -> float:
        return sum(r[key] for r in self.records) / len(self.records)

    def min(self, key: str) -> float:
        return min(r[key] for r in self.records)


class _FleetHooks:
    """Per-step latency of a fleet replay.

    ``recover``: each triggered ``PhoenixEngine.reconcile`` the shard
    workers run.  The wrapper is installed before the pool forks its
    workers, so they inherit it; each worker appends its samples to a file
    of its own, flushed per sample because workers leave through
    ``os._exit``.  Reconciles in the parent (set-up convergence, the serial
    twin) are not sampled.  ``admit``: closed loop, a step is due when the
    previous one committed (the first when the replay starts), so the
    sample is the gap between consecutive spillover commits.  ``reads``:
    every ``read_every`` commits, one ``FleetEngine.summary()`` of the
    parent's cell states (the shard workers own the live ones during the
    replay), timed outside the commit gaps; ``read_seconds`` lets the
    caller take them out of the replay's wall time.
    """

    read_every = 10

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.admit: list[float] = []
        self.reads: list[float] = []
        self.read_seconds = 0.0
        #: Off in traced runs, so the traced and untraced replays do the same work.
        self.reading = True
        self.active = False
        self._commits = 0
        self._parent = os.getpid()
        self._pid = None
        self._file = None
        self._last_commit = 0.0

    def install(self, patches: Patches) -> None:
        hooks = self

        def timed(original):
            def reconcile(engine, *args, **kwargs):
                started = clock()
                report = original(engine, *args, **kwargs)
                if report.triggered and os.getpid() != hooks._parent:
                    hooks._record(clock() - started)
                return report

            return reconcile

        patches.replace(PhoenixEngine, "reconcile", timed)

        def commit(original):
            def call(fleet, *args, **kwargs):
                result = original(fleet, *args, **kwargs)
                if hooks.active:  # not the set-up convergence round
                    now = clock()
                    hooks.admit.append(now - hooks._last_commit)
                    hooks._commits += 1
                    if hooks.reading and hooks._commits % hooks.read_every == 0:
                        fleet.summary()
                        read = clock() - now
                        hooks.reads.append(read)
                        hooks.read_seconds += read
                    hooks._last_commit = clock()
                return result

            return call

        patches.replace(FleetEngine, "commit_spillover", commit)

    def _record(self, seconds: float) -> None:
        if self._pid != os.getpid():  # first sample in this worker
            self._pid = os.getpid()
            self._file = open(self.directory / f"reconcile-{self._pid}.txt", "a", encoding="ascii")
        self._file.write(f"{seconds!r}\n")
        self._file.flush()

    @property
    def recover(self) -> list[float]:
        return [
            float(line)
            for path in sorted(self.directory.glob("reconcile-*.txt"))
            for line in path.read_text(encoding="ascii").split()
        ]

    def begin_replay(self) -> None:
        self.active = True
        self._last_commit = clock()

    def end_replay(self) -> None:
        self.active = False


class _FleetLayerStats:
    """Parent-side layers of a sharded fleet replay."""

    def __init__(self) -> None:
        self.bytes = 0
        self.trips = 0
        self.batched_steps = 0
        self.rewinds = 0
        self.pools: list[ShardPool] = []
        self.phase = {"ship": 0.0, "compute": 0.0, "fold": 0.0, "wait": 0.0}

    def install(self, patches: Patches, timer: LayerTimer) -> None:
        stats = self
        parent = os.getpid()

        def codec(original):
            def resolve(name):
                dumps, loads = original(name)
                if os.getpid() != parent:  # forked shard workers keep the plain codec
                    return dumps, loads
                timed_dumps = timer.wrap(dumps, "fleet.wire_encode")
                timed_loads = timer.wrap(loads, "fleet.wire_decode")

                def counted_dumps(message):
                    frame = timed_dumps(message)
                    stats.bytes += len(frame)
                    return frame

                def counted_loads(frame):
                    stats.bytes += len(frame)
                    return timed_loads(frame)

                return counted_dumps, counted_loads

            return resolve

        patches.replace(pool_module, "resolve_codec", codec)

        def created(original):
            def init(pool, *args, **kwargs):
                original(pool, *args, **kwargs)
                stats.pools.append(pool)

            return init

        patches.replace(ShardPool, "__init__", created)

        def counted(original, steps):
            def call(pool, *args, **kwargs):
                stats.trips += 1
                stats.batched_steps += steps(args)
                return original(pool, *args, **kwargs)

            return call

        patches.replace(ShardPool, "step", lambda o: counted(o, lambda args: 1))
        patches.replace(ShardPool, "step_batch", lambda o: counted(o, lambda args: len(args[0])))

        def rewound(original):
            def call(pool, *args, **kwargs):
                stats.rewinds += 1
                return original(pool, *args, **kwargs)

            return call

        patches.replace(ShardPool, "rewind", rewound)
        for name in ("step", "step_batch", "adjust", "rewind"):
            patches.time(timer, ShardPool, name, "fleet.pool_wait")
        for name in ("plan_spillover", "apply_spillover", "commit_spillover"):
            patches.time(timer, FleetEngine, name, "fleet.spillover")

    def phases(self, replayer: FleetReplayer) -> None:
        for key in ("ship", "compute", "fold"):
            self.phase[key] = replayer.phase_seconds[key]
        self.phase["wait"] = sum(pool.phase_seconds["wait"] for pool in self.pools)

    def metrics(self, timer: LayerTimer, steps: int) -> dict[str, float]:
        per_step = {
            "fleet.pool_wait_ms": "fleet.pool_wait",
            "fleet.wire_encode_ms": "fleet.wire_encode",
            "fleet.wire_decode_ms": "fleet.wire_decode",
            "fleet.spillover_ms": "fleet.spillover",
            "fleet.other_ms": "fleet.other",
        }
        out = {metric: ms(timer.seconds[layer]) / steps for metric, layer in per_step.items()}
        out["step_ms"] = ms(timer.total()) / steps
        out["fleet.wire_bytes"] = self.bytes / steps
        out["fleet.batch_steps"] = self.batched_steps / max(1, self.trips)
        out["fleet.rewinds"] = float(self.rewinds)
        for key, seconds in self.phase.items():
            out[f"fleet.phase.{key}_s"] = seconds
        return out


WORKLOADS = {w.name: w for w in (Churn100k(), Crunch1k(), FleetOutage())}
