"""Pieces every workload shares: the outcome record, metric names and host
descriptors."""

from __future__ import annotations

import hashlib
import resource
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from benchmath import PercentileRefused, percentile

#: End-to-end metrics: every workload reports every one (see README.md for
#: what each means on each workload).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step_rate": "1/s",
    "recover_p50_ms": "ms",
    "recover_p90_ms": "ms",
    "critical_availability_mean": "ratio",
    "revenue_mean": "ratio",
    "admit_p50_ms": "ms",
    "sustained_rate": "1/s",
    "read_p50_ms": "ms",
}

#: Per-layer metrics of the traced run; a layer a workload never enters
#: reads 0.
PER_LAYER_UNITS = {
    "step_ms": "ms",
    "traces.apply_ms": "ms",
    "api.detect_ms": "ms",
    "core.rank_ms": "ms",
    "core.schedule_ms": "ms",
    "core.execute_ms": "ms",
    "core.actions": "count",
    "core.unplaced": "count",
    "core.fast_round_ratio": "ratio",
    "metrics.evaluate_ms": "ms",
    "replay.other_ms": "ms",
    "fleet.pool_wait_ms": "ms",
    "fleet.wire_encode_ms": "ms",
    "fleet.wire_decode_ms": "ms",
    "fleet.wire_bytes": "bytes",
    "fleet.batch_steps": "count",
    "fleet.rewinds": "count",
    "fleet.spillover_ms": "ms",
    "fleet.phase.ship_s": "s",
    "fleet.phase.compute_s": "s",
    "fleet.phase.fold_s": "s",
    "fleet.phase.wait_s": "s",
    "fleet.other_ms": "ms",
    "serve.batch_size": "count",
    "serve.round_ms": "ms",
    "serve.wal_append_ms": "ms",
    "serve.step_cells_ms": "ms",
    "serve.spillover_ms": "ms",
    "serve.other_ms": "ms",
    "serve.rss_growth_mb": "MB",
    "serve.gen_lag_ms": "ms",
    "trace.overhead_pct": "%",
}

class CheckFailed(Exception):
    """A correctness check of the benchmark's outputs failed."""


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    descriptors: dict[str, object] = field(default_factory=dict)
    detail: dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        """Record one correctness check; a failed check is a failed operation."""
        self.checks[name] = bool(passed)
        self.attempted += 1
        if not passed:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def tails(self, series: dict[str, list[float]]) -> None:
        """Sample counts, and p99 of each ``name -> seconds`` series when at
        least 10 samples lie beyond it, for the detail line.  A p99 needs
        about 1000 samples, which not every workload makes in a run, so it
        is reported but not gated."""
        counts = self.detail.setdefault("samples", {})
        for name, samples in series.items():
            counts[name] = len(samples)
            try:
                self.detail[f"{name}_p99_ms"] = percentile(samples, 0.99) * 1e3
            except PercentileRefused:
                pass


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_rss_mb(pid: int | str, field_name: str = "VmRSS") -> float:
    """Resident (``VmRSS``) or peak resident (``VmHWM``) MiB of ``pid``
    (``"self"`` for this process)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"/proc/{pid}/status has no {field_name}")


def source_identity(root: Path) -> dict[str, object]:
    """The commit when the tree is a git checkout, and a digest of ``src``
    either way, so a change to the code under test shows in every run."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def remove_workdir(workdir: Path) -> None:
    """Remove a run's directory under ``.perfbench_tmp``, and that too once
    no other run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass


def ms(seconds: float) -> float:
    return seconds * 1e3
