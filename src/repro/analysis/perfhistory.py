"""Continuous performance history: the shared harness behind ``benchmarks/``.

Every ``benchmarks/bench_*.py`` script used to hand-roll the same four jobs:
argparse scaffolding, a ``BENCH_*.json`` snapshot that the next run silently
overwrote, ad-hoc ``--check-*`` threshold flags, and per-script environment
hacks ("auto-skip the speedup gate at 1 CPU").  This module owns all of it,
modeled on perun-style "performance version systems": per-commit profiles
plus degradation detection against history instead of fixed thresholds.

The pieces
----------

* :class:`EnvFingerprint` — where a measurement ran: CPU count, Python /
  NumPy / BLAS versions, machine, git commit.  Two fingerprints are
  *compatible* when everything but the commit matches, so a 1-CPU container
  run can never be compared against a 4-CPU CI run.
* :class:`BenchRecord` — one benchmark run: flat ``metrics`` (floats and
  bools), ``units``, the fingerprint, a timestamp.
* :class:`HistoryStore` — the append-only per-commit store
  (``BENCH_history.jsonl``, one record per line).  Each ``BENCH_<name>.json``
  snapshot is the latest run's record in the same shape, plus an optional
  ``details`` blob of script-specific tables (see :func:`write_snapshot`).
* :class:`GateSpec` / :func:`evaluate_gates` — the degradation detector.
  ``identity``/``positive`` gates are unconditional hard failures;
  ``speedup`` gates compare against the median of a baseline window of
  prior runs from a compatible environment (± tolerance), keep the CI
  floor as an absolute minimum, and *skip* (rather than silently pass)
  when the environment cannot express the measurement — the one documented
  skip policy, see ``docs/benchmarks.md``.
* :data:`BENCHMARKS` — the registry of all eight benchmarks and their
  gates; ``repro.cli perf {report,check,list}`` renders trends and
  evaluates gates from it.

Scripts call :func:`add_harness_arguments` and :func:`finish_run`; CI calls
``python -m repro.cli perf check``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

MetricValue = Union[float, int, bool]

#: current on-disk schema version of history entries and snapshot stamps.
SCHEMA_VERSION = 1

#: default file the append-only history lives in (one JSON object per line).
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: baseline window: how many prior compatible runs feed the median.
DEFAULT_WINDOW = 5

#: tolerated fractional drop below the baseline-window median before a
#: speedup gate fails (shared-runner wall clocks are noisy).
DEFAULT_TOLERANCE = 0.25


def _blas_name() -> str:
    """Best-effort name of the BLAS NumPy was built against.

    Returns the build-dependency name from ``numpy.show_config`` when the
    introspection API exists (NumPy >= 1.26), else ``"unknown"``.
    """
    try:
        import numpy as np

        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except Exception:
        return "unknown"


def _git_commit() -> str:
    """Short commit hash of the working tree, or a CI/unknown fallback.

    Returns ``git rev-parse --short=12 HEAD`` when a repository is
    reachable from the current directory, else ``$GITHUB_SHA`` (truncated),
    else ``"unknown"``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    sha = os.environ.get("GITHUB_SHA", "")
    return sha[:12] if sha else "unknown"


@dataclass(frozen=True)
class EnvFingerprint:
    """Environment a benchmark ran in, for trajectory and compatibility.

    ``cpu_count``, ``python``, ``numpy``, ``blas`` and ``machine`` define
    *compatibility* (measurements are only comparable across runs where all
    five match; ``python`` matches at major.minor); ``git_commit`` stamps
    the trajectory but never affects compatibility.
    """

    cpu_count: int
    python: str
    numpy: str
    blas: str
    machine: str
    git_commit: str

    @classmethod
    def capture(cls) -> "EnvFingerprint":
        """Capture the current process environment as a fingerprint and return it."""
        import numpy as np

        return cls(cpu_count=os.cpu_count() or 1,
                   python=platform.python_version(),
                   numpy=np.__version__,
                   blas=_blas_name(),
                   machine=platform.machine(),
                   git_commit=_git_commit())

    def _python_minor(self) -> str:
        return ".".join(self.python.split(".")[:2])

    def compatible_with(self, other: "EnvFingerprint") -> bool:
        """Return whether measurements from ``other`` are comparable to ours.

        Everything except ``git_commit`` must match; Python versions are
        compared at major.minor granularity.
        """
        return (self.cpu_count == other.cpu_count
                and self._python_minor() == other._python_minor()
                and self.numpy == other.numpy
                and self.blas == other.blas
                and self.machine == other.machine)

    def to_dict(self) -> Dict[str, object]:
        """Return the fingerprint as a JSON-ready dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EnvFingerprint":
        """Rebuild a fingerprint from :meth:`to_dict` output ``data`` and return it."""
        return cls(cpu_count=int(data.get("cpu_count", 0)),
                   python=str(data.get("python", "")),
                   numpy=str(data.get("numpy", "")),
                   blas=str(data.get("blas", "unknown")),
                   machine=str(data.get("machine", "")),
                   git_commit=str(data.get("git_commit", "unknown")))


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run: named metrics, their units, and the environment.

    ``benchmark`` is the registry key (e.g. ``"injection"``), ``metrics`` a
    flat mapping of metric name to float/int/bool, ``units`` an optional
    metric-name → unit-label mapping, ``env`` the fingerprint and
    ``timestamp`` an ISO-8601 UTC stamp.
    """

    benchmark: str
    metrics: Dict[str, MetricValue]
    units: Dict[str, str] = field(default_factory=dict)
    env: EnvFingerprint = field(default_factory=EnvFingerprint.capture)
    timestamp: str = ""

    @classmethod
    def create(cls, benchmark: str, metrics: Mapping[str, MetricValue],
               units: Optional[Mapping[str, str]] = None,
               env: Optional[EnvFingerprint] = None) -> "BenchRecord":
        """Build a record for ``benchmark`` with a fresh timestamp and return it.

        ``metrics`` and ``units`` are copied; ``env`` defaults to
        :meth:`EnvFingerprint.capture`.
        """
        return cls(benchmark=benchmark, metrics=dict(metrics),
                   units=dict(units or {}),
                   env=env if env is not None else EnvFingerprint.capture(),
                   timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))

    def to_dict(self) -> Dict[str, object]:
        """Return the record as a JSON-ready dict (the history-line shape)."""
        return {"schema": SCHEMA_VERSION,
                "benchmark": self.benchmark,
                "timestamp": self.timestamp,
                "env": self.env.to_dict(),
                "metrics": dict(self.metrics),
                "units": dict(self.units)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchRecord":
        """Rebuild a record from a parsed history line ``data`` and return it."""
        return cls(benchmark=str(data.get("benchmark", "")),
                   metrics=dict(data.get("metrics", {})),  # type: ignore[arg-type]
                   units=dict(data.get("units", {})),      # type: ignore[arg-type]
                   env=EnvFingerprint.from_dict(data.get("env", {})),  # type: ignore[arg-type]
                   timestamp=str(data.get("timestamp", "")))


class HistoryStore:
    """Append-only per-commit benchmark history (``BENCH_history.jsonl``).

    One JSON object per line, oldest first; :meth:`append` only ever adds a
    line, so prior entries are immutable — the degradation detector's
    baseline windows are read from here.  ``path`` is the history file
    location (created on first append).
    """

    def __init__(self, path: Union[str, Path] = DEFAULT_HISTORY) -> None:
        self.path = Path(path)

    def load(self) -> List[BenchRecord]:
        """Return every parseable record in the history, oldest first.

        A missing file is an empty history; unparseable lines are skipped
        rather than poisoning every future gate evaluation.
        """
        if not self.path.exists():
            return []
        records: List[BenchRecord] = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(BenchRecord.from_dict(json.loads(line)))
            except (ValueError, TypeError):
                continue
        return records

    def append(self, record: BenchRecord) -> None:
        """Append ``record`` as one new line; existing lines are never touched."""
        with self.path.open("a") as handle:
            handle.write(json.dumps(record.to_dict()) + "\n")

    def entries_for(self, benchmark: str) -> List[BenchRecord]:
        """Return the history entries of ``benchmark`` only, oldest first."""
        return [r for r in self.load() if r.benchmark == benchmark]


def baseline_window(prior: Sequence[BenchRecord], record: BenchRecord,
                    metric: str, window: int = DEFAULT_WINDOW) -> List[float]:
    """Baseline values for ``metric`` of ``record`` from prior runs.

    Filters ``prior`` down to entries of the same benchmark whose
    environment is compatible with ``record.env`` and that carry a finite
    ``metric``, then returns the most recent ``window`` values (oldest
    first).  A NaN that reached the history never skews a later median.
    """
    values = [float(entry.metrics[metric]) for entry in prior
              if entry.benchmark == record.benchmark
              and metric in entry.metrics
              and entry.env.compatible_with(record.env)]
    return [value for value in values if math.isfinite(value)][-window:]


@dataclass(frozen=True)
class GateSpec:
    """Declarative regression gate over one metric of one benchmark.

    ``kind`` selects the semantics: ``"identity"`` (metric must be truthy —
    bit-identity style, unconditional hard failure), ``"positive"`` (metric
    must be ``> 0`` — e.g. a burst must shed, also hard), or ``"speedup"``
    (higher-is-better: must clear the absolute ``floor`` when set, and must
    not drop more than ``tolerance`` below the median of the last ``window``
    compatible history entries).  ``name`` labels the gate in reports,
    ``metric`` names the gated metric, and ``min_cpus`` (speedup gates only)
    skips the gate outright on machines with fewer visible CPUs — the
    environment-aware replacement for the old per-script auto-skip hacks.
    """

    name: str
    metric: str
    kind: str = "speedup"
    floor: Optional[float] = None
    min_cpus: Optional[int] = None
    window: int = DEFAULT_WINDOW
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def hard(self) -> bool:
        """Whether this gate is an unconditional hard failure when violated."""
        return self.kind in ("identity", "positive")


@dataclass(frozen=True)
class GateResult:
    """Outcome of evaluating one :class:`GateSpec` against one record.

    ``status`` is ``"pass"``, ``"fail"`` or ``"skip"``; ``reason`` is the
    human-readable explanation; ``value`` the measured metric (``None`` when
    missing); ``baseline`` the window median and ``threshold`` the effective
    pass bar, when a baseline existed.  ``gate`` is the spec evaluated.
    """

    gate: GateSpec
    status: str
    reason: str
    value: Optional[float] = None
    baseline: Optional[float] = None
    threshold: Optional[float] = None

    @property
    def failed(self) -> bool:
        """Whether the gate failed."""
        return self.status == "fail"


def _evaluate_gate(gate: GateSpec, record: BenchRecord,
                   prior: Sequence[BenchRecord]) -> GateResult:
    value = record.metrics.get(gate.metric)
    if value is None:
        return GateResult(gate, "fail",
                          f"metric {gate.metric!r} missing from record")
    if gate.kind == "identity":
        if bool(value):
            return GateResult(gate, "pass", "bit-identity holds", float(bool(value)))
        return GateResult(gate, "fail", "bit-identity violated", 0.0)
    if gate.kind == "positive":
        if float(value) > 0:
            return GateResult(gate, "pass", f"{gate.metric} > 0", float(value))
        return GateResult(gate, "fail", f"{gate.metric} must be > 0",
                          float(value))

    # speedup: environment arming first, then finiteness, floor, and the
    # baseline window (NaN compares False against every bar).
    value = float(value)
    if gate.min_cpus is not None and record.env.cpu_count < gate.min_cpus:
        return GateResult(
            gate, "skip",
            f"needs >= {gate.min_cpus} CPUs, {record.env.cpu_count} visible",
            value)
    if not math.isfinite(value):
        return GateResult(gate, "fail", f"{gate.metric} is not finite", value)
    if gate.floor is not None and value < gate.floor:
        return GateResult(gate, "fail",
                          f"below absolute floor {gate.floor:g}x", value,
                          threshold=gate.floor)
    baseline = baseline_window(prior, record, gate.metric, gate.window)
    if not baseline:
        return GateResult(gate, "pass",
                          "no compatible baseline - this run seeds it", value)
    median = statistics.median(baseline)
    threshold = median * (1.0 - gate.tolerance)
    if value >= threshold:
        return GateResult(gate, "pass",
                          f"within {gate.tolerance:.0%} of window median",
                          value, baseline=median, threshold=threshold)
    return GateResult(
        gate, "fail",
        f"degraded: below window median {median:.3g} by more than "
        f"{gate.tolerance:.0%} (n={len(baseline)})",
        value, baseline=median, threshold=threshold)


def evaluate_gates(spec: "BenchmarkSpec", record: BenchRecord,
                   prior: Sequence[BenchRecord]) -> List[GateResult]:
    """Evaluate every gate of ``spec`` against ``record`` and return the results.

    ``prior`` is the history *before* ``record`` was appended (the baseline
    pool); incompatible-environment entries are filtered per gate.
    """
    return [_evaluate_gate(gate, record, prior) for gate in spec.gates]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry for one benchmark script.

    ``name`` is the registry key, ``script`` the generating script under
    ``benchmarks/``, ``title`` a human-readable one-liner and ``gates`` the
    regression gates evaluated by scripts and ``repro.cli perf check``.
    """

    name: str
    script: str
    title: str
    gates: Tuple[GateSpec, ...] = ()

    @property
    def snapshot(self) -> str:
        """Default latest-run snapshot file, ``BENCH_<name>.json``."""
        return f"BENCH_{self.name}.json"


#: all eight benchmarks and every CI gate decision, in one place.  Floors
#: mirror the historical ``--check-*`` thresholds; the skip policy for
#: ``min_cpus`` gates is documented in ``docs/benchmarks.md``.
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec for spec in (
        BenchmarkSpec(
            "injection", "bench_injection_throughput.py",
            "packed injection engine vs boolean reference",
            gates=(GateSpec("packed_vs_reference_identity", "bit_identical",
                            kind="identity"),
                   GateSpec("headline_cold_speedup", "headline_speedup",
                            floor=3.0))),
        BenchmarkSpec(
            "inference", "bench_inference_throughput.py",
            "static-store vs per-read characterization sweep",
            gates=(GateSpec("sweep_speedup", "sweep_speedup", floor=3.0),)),
        BenchmarkSpec(
            "serving", "bench_serving.py",
            "micro-batched gateway vs batch-1 serial",
            gates=(GateSpec("microbatch_bit_identity", "bit_identical",
                            kind="identity"),
                   GateSpec("microbatch_speedup", "microbatch_speedup",
                            floor=2.0))),
        BenchmarkSpec(
            "quantized", "bench_quantized.py",
            "fused integer-GEMM plan vs FP32 static store",
            gates=(GateSpec("quantized_speedup", "speedup", floor=2.0),)),
        BenchmarkSpec(
            "parallel", "bench_parallel.py",
            "shared-memory executor vs serial sweeps",
            gates=(GateSpec("characterization_sweep_identity",
                            "characterization_sweep_identical",
                            kind="identity"),
                   GateSpec("device_sweep_identity", "device_sweep_identical",
                            kind="identity"),
                   GateSpec("coarse_characterization_identity",
                            "coarse_characterization_identical",
                            kind="identity"),
                   GateSpec("serving_identity", "serving_identical",
                            kind="identity"),
                   GateSpec("characterization_sweep_speedup",
                            "characterization_sweep_speedup",
                            floor=2.0, min_cpus=4))),
        BenchmarkSpec(
            "server", "bench_server.py",
            "HTTP front end under generated load",
            gates=(GateSpec("steady_bit_identity", "bit_identical",
                            kind="identity"),
                   GateSpec("burst_sheds", "burst_shed", kind="positive"),
                   GateSpec("burst_admitted_correct", "burst_admitted_correct",
                            kind="identity"))),
        BenchmarkSpec(
            "router", "bench_router.py",
            "multi-replica router tier scale-out",
            gates=(GateSpec("router_bit_identity", "bit_identical",
                            kind="identity"),
                   GateSpec("scaleout_speedup", "scaleout_speedup",
                            floor=2.0, min_cpus=4))),
        BenchmarkSpec(
            "ecc", "bench_ecc.py",
            "ECC-corrected weight store vs raw burst corruption",
            gates=(GateSpec("corrected_store_identity", "store_bit_identical",
                            kind="identity"),
                   GateSpec("corrected_accounting", "corrected_symbols",
                            kind="positive"))),
    )
}


def write_snapshot(path: Union[str, Path], record: BenchRecord,
                   details: Optional[Mapping[str, object]] = None) -> None:
    """Write ``record`` to ``path`` as the latest-run snapshot.

    The snapshot is :meth:`BenchRecord.to_dict` — the same shape as a
    history line — plus, when ``details`` is given, a ``details`` key with
    the script's non-metric tables (sweep grids, per-config rows, serving
    telemetry).
    """
    snapshot = record.to_dict()
    if details is not None:
        snapshot["details"] = dict(details)
    Path(path).write_text(json.dumps(snapshot, indent=2) + "\n")


def add_harness_arguments(parser, spec: BenchmarkSpec) -> None:
    """Install the shared ``--output`` / ``--history`` options on ``parser``.

    ``spec`` provides the default snapshot filename; ``--history`` defaults
    to :data:`DEFAULT_HISTORY`.
    """
    parser.add_argument("--output", default=spec.snapshot,
                        help="where to write the latest-run JSON snapshot")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="append-only perf history file (JSONL)")


def format_gate_results(benchmark: str,
                        results: Sequence[GateResult]) -> str:
    """Render gate ``results`` for ``benchmark`` as an aligned text table and return it."""
    from repro.analysis.reporting import format_table

    rows = []
    for result in results:
        value = "-" if result.value is None else f"{result.value:.4g}"
        bar = ""
        if result.threshold is not None:
            bar = f">= {result.threshold:.3g}"
            if result.baseline is not None:
                bar += f" (median {result.baseline:.3g})"
        rows.append((result.gate.name, result.gate.kind, value, bar,
                     result.status.upper(), result.reason))
    return format_table(
        ["gate", "kind", "value", "bar", "status", "reason"], rows,
        title=f"perf gates: {benchmark}")


def finish_run(spec: BenchmarkSpec, args, metrics: Mapping[str, MetricValue],
               units: Optional[Mapping[str, str]] = None,
               details: Optional[Mapping[str, object]] = None) -> int:
    """Record a benchmark run and evaluate its gates; returns the exit code.

    The one epilogue every ``bench_*.py`` script shares: captures the
    environment fingerprint, builds the :class:`BenchRecord` from
    ``metrics``/``units``, writes it (plus ``details``) as the
    ``args.output`` snapshot, appends it to the ``args.history`` store,
    evaluates ``spec``'s gates against the pre-append baseline and prints
    the gate table.  Only hard (identity/positive) gate failures are fatal;
    speedup gates are printed as warnings here and enforced by the shared
    ``repro.cli perf check`` step.
    """
    record = BenchRecord.create(spec.name, metrics, units)
    store = HistoryStore(args.history)
    prior = store.load()
    write_snapshot(args.output, record, details)
    store.append(record)
    results = evaluate_gates(spec, record, prior)

    print()
    print(format_gate_results(spec.name, results))
    print(f"\nwrote {args.output}; appended run #"
          f"{len([r for r in prior if r.benchmark == spec.name]) + 1} "
          f"to {store.path} (commit {record.env.git_commit}, "
          f"{record.env.cpu_count} CPU(s))")

    failed = [r for r in results if r.failed]
    for result in failed:
        if result.gate.hard:
            print(f"FAIL: {spec.name}/{result.gate.name}: {result.reason}",
                  file=sys.stderr)
        else:
            print(f"WARN: {spec.name}/{result.gate.name}: {result.reason} "
                  "(enforced by `repro.cli perf check`)", file=sys.stderr)
    return 1 if any(r.gate.hard for r in failed) else 0


def check_benchmarks(history: Union[str, Path] = DEFAULT_HISTORY,
                     benchmarks: Optional[Sequence[str]] = None,
                     ) -> Tuple[Dict[str, List[GateResult]], int]:
    """Evaluate every gate of the selected benchmarks' latest history runs.

    ``history`` locates the store; ``benchmarks`` restricts the set (default:
    every registered benchmark that has at least one history entry — naming a
    benchmark explicitly makes a missing record a failure).  Returns
    ``(results_by_benchmark, exit_code)`` where the exit code is non-zero on
    any failed gate of any kind — this is the single CI gate step.
    """
    store = HistoryStore(history)
    entries = store.load()
    explicit = benchmarks is not None
    names = list(benchmarks) if explicit else list(BENCHMARKS)

    all_results: Dict[str, List[GateResult]] = {}
    exit_code = 0
    for name in names:
        spec = BENCHMARKS.get(name)
        if spec is None:
            print(f"FAIL: unknown benchmark {name!r} "
                  f"(known: {', '.join(sorted(BENCHMARKS))})", file=sys.stderr)
            exit_code = 1
            continue
        last_index = max((i for i, r in enumerate(entries)
                          if r.benchmark == name), default=None)
        if last_index is None:
            if explicit:
                print(f"FAIL: no history entry for {name!r} in {store.path}",
                      file=sys.stderr)
                exit_code = 1
            continue
        latest, prior = entries[last_index], entries[:last_index]
        results = evaluate_gates(spec, latest, prior)
        all_results[name] = results
        if any(r.failed for r in results):
            exit_code = 1
    return all_results, exit_code
