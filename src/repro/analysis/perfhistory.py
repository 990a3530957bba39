"""Benchmark records and regression gates: the shared harness behind ``benchmarks/``.

Every ``benchmarks/bench_*.py`` script used to hand-roll the same jobs:
argparse scaffolding, a bespoke ``BENCH_*.json`` payload, ad-hoc
``--check-*`` threshold flags, and per-script environment hacks
("auto-skip the speedup gate at 1 CPU").  This module owns all of it.

The pieces
----------

* :class:`EnvFingerprint` — where a measurement ran: the CPUs visible to
  the process, Python / NumPy / BLAS versions, machine, git commit.  It
  stamps every record, and its CPU count arms ``min_cpus`` gates.
* :class:`BenchRecord` — one benchmark run: flat ``metrics`` (floats and
  bools), ``units``, the fingerprint, a timestamp.  Each
  ``BENCH_<name>.json`` snapshot is the run's record plus an optional
  ``details`` blob of script-specific tables (see :func:`write_snapshot`).
* :class:`GateSpec` / :func:`evaluate_gates` — the regression gates, read
  from the gated record alone.  ``identity``/``positive`` gates are
  unconditional hard failures; ``speedup`` gates must be finite and clear
  an absolute floor, and *skip* (rather than silently pass) when the
  environment cannot express the measurement — the one documented skip
  policy, see ``docs/benchmarks.md``.  Comparing a change against its
  parent commit is ``perfbench/``'s job: it runs both back to back on one
  machine.
* :data:`BENCHMARKS` — the registry of all eight benchmarks and their
  gates; ``repro.cli perf check`` evaluates them over the snapshots in the
  working directory.

Scripts call :func:`add_harness_arguments` and :func:`finish_run`; CI calls
``python -m repro.cli perf check``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

MetricValue = Union[float, int, bool]

#: current on-disk schema version of benchmark records.
SCHEMA_VERSION = 1


def visible_cpu_count() -> int:
    """Return how many CPUs this process may run on.

    ``os.sched_getaffinity`` honours ``taskset`` and cpuset limits, which
    ``os.cpu_count()`` (the whole machine) ignores; platforms without it
    fall back to ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    """Environment a benchmark ran in, stamped on every record.

    ``cpu_count`` is the number of CPUs visible to the process (see
    :func:`visible_cpu_count`) and arms ``min_cpus`` gates; ``python``,
    ``numpy``, ``blas``, ``machine`` and ``git_commit`` say where and on
    what code the measurement ran.
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

        return cls(cpu_count=visible_cpu_count(),
                   python=platform.python_version(),
                   numpy=np.__version__,
                   blas=_blas_name(),
                   machine=platform.machine(),
                   git_commit=_git_commit())

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
        """Return the record as a JSON-ready dict (the snapshot shape)."""
        return {"schema": SCHEMA_VERSION,
                "benchmark": self.benchmark,
                "timestamp": self.timestamp,
                "env": self.env.to_dict(),
                "metrics": dict(self.metrics),
                "units": dict(self.units)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchRecord":
        """Rebuild a record from a parsed snapshot ``data`` and return it.

        Keys outside the record shape (a snapshot's ``details``) are ignored.
        """
        return cls(benchmark=str(data.get("benchmark", "")),
                   metrics=dict(data.get("metrics", {})),  # type: ignore[arg-type]
                   units=dict(data.get("units", {})),      # type: ignore[arg-type]
                   env=EnvFingerprint.from_dict(data.get("env", {})),  # type: ignore[arg-type]
                   timestamp=str(data.get("timestamp", "")))


@dataclass(frozen=True)
class GateSpec:
    """Declarative regression gate over one metric of one benchmark.

    ``kind`` selects the semantics: ``"identity"`` (metric must be truthy —
    bit-identity style, unconditional hard failure), ``"positive"`` (metric
    must be ``> 0`` — e.g. a burst must shed, also hard), or ``"speedup"``
    (higher-is-better: must be finite and clear the absolute ``floor`` when
    set).  ``name`` labels the gate in reports,
    ``metric`` names the gated metric, and ``min_cpus`` (speedup gates only)
    skips the gate outright on machines with fewer visible CPUs — the
    environment-aware replacement for the old per-script auto-skip hacks.
    """

    name: str
    metric: str
    kind: str = "speedup"
    floor: Optional[float] = None
    min_cpus: Optional[int] = None

    @property
    def hard(self) -> bool:
        """Whether this gate is an unconditional hard failure when violated."""
        return self.kind in ("identity", "positive")


@dataclass(frozen=True)
class GateResult:
    """Outcome of evaluating one :class:`GateSpec` against one record.

    ``status`` is ``"pass"``, ``"fail"`` or ``"skip"``; ``reason`` is the
    human-readable explanation; ``value`` the measured metric (``None`` when
    missing); ``threshold`` the floor a speedup gate is held to, when it
    has one.  ``gate`` is the spec evaluated.
    """

    gate: GateSpec
    status: str
    reason: str
    value: Optional[float] = None
    threshold: Optional[float] = None

    @property
    def failed(self) -> bool:
        """Whether the gate failed."""
        return self.status == "fail"


def _evaluate_gate(gate: GateSpec, record: BenchRecord) -> GateResult:
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

    # speedup: environment arming first, then finiteness (NaN compares
    # False against every bar), then the floor.
    value = float(value)
    if gate.min_cpus is not None and record.env.cpu_count < gate.min_cpus:
        return GateResult(
            gate, "skip",
            f"needs >= {gate.min_cpus} CPUs, {record.env.cpu_count} visible",
            value)
    if not math.isfinite(value):
        return GateResult(gate, "fail", f"{gate.metric} is not finite", value)
    if gate.floor is None:
        return GateResult(gate, "pass", "finite", value)
    if value < gate.floor:
        return GateResult(gate, "fail",
                          f"below absolute floor {gate.floor:g}x", value,
                          threshold=gate.floor)
    return GateResult(gate, "pass", f"clears floor {gate.floor:g}x", value,
                      threshold=gate.floor)


def evaluate_gates(spec: "BenchmarkSpec",
                   record: BenchRecord) -> List[GateResult]:
    """Evaluate every gate of ``spec`` against ``record`` alone; return the results."""
    return [_evaluate_gate(gate, record) for gate in spec.gates]


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

    The snapshot is :meth:`BenchRecord.to_dict` plus, when ``details`` is
    given, a ``details`` key with the script's non-metric tables (sweep
    grids, per-config rows, serving telemetry).
    """
    snapshot = record.to_dict()
    if details is not None:
        snapshot["details"] = dict(details)
    Path(path).write_text(json.dumps(snapshot, indent=2) + "\n")


def add_harness_arguments(parser, spec: BenchmarkSpec) -> None:
    """Install the shared ``--output`` option on ``parser``.

    ``spec`` provides the default snapshot filename.
    """
    parser.add_argument("--output", default=spec.snapshot,
                        help="where to write the latest-run JSON snapshot")


def format_gate_results(benchmark: str,
                        results: Sequence[GateResult]) -> str:
    """Render gate ``results`` for ``benchmark`` as an aligned text table and return it."""
    from repro.analysis.reporting import format_table

    rows = []
    for result in results:
        value = "-" if result.value is None else f"{result.value:.4g}"
        bar = "" if result.threshold is None else f">= {result.threshold:.3g}"
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
    ``args.output`` snapshot, evaluates ``spec``'s gates on that record and
    prints the gate table.  Only hard (identity/positive) gate failures are
    fatal; speedup gates are printed as warnings here and enforced by the
    shared ``repro.cli perf check`` step.
    """
    record = BenchRecord.create(spec.name, metrics, units)
    write_snapshot(args.output, record, details)
    results = evaluate_gates(spec, record)

    print()
    print(format_gate_results(spec.name, results))
    print(f"\nwrote {args.output} (commit {record.env.git_commit}, "
          f"{record.env.cpu_count} CPU(s) visible)")

    failed = [r for r in results if r.failed]
    for result in failed:
        if result.gate.hard:
            print(f"FAIL: {spec.name}/{result.gate.name}: {result.reason}",
                  file=sys.stderr)
        else:
            print(f"WARN: {spec.name}/{result.gate.name}: {result.reason} "
                  "(enforced by `repro.cli perf check`)", file=sys.stderr)
    return 1 if any(r.gate.hard for r in failed) else 0


def check_benchmarks(benchmarks: Optional[Sequence[str]] = None,
                     ) -> Tuple[Dict[str, List[GateResult]], int]:
    """Evaluate every gate of the selected benchmarks' snapshots.

    Each benchmark's record is read from its ``BENCH_<name>.json`` snapshot
    in the working directory.  ``benchmarks`` restricts the set (default:
    every registered benchmark with a snapshot — naming a benchmark
    explicitly makes a missing snapshot a failure).  Returns
    ``(results_by_benchmark, exit_code)`` where the exit code is non-zero on
    any failed gate of any kind — this is the single CI gate step.
    """
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
        path = Path(spec.snapshot)
        if not path.exists():
            if explicit:
                print(f"FAIL: no snapshot {path} for {name!r}", file=sys.stderr)
                exit_code = 1
            continue
        record = BenchRecord.from_dict(json.loads(path.read_text()))
        results = evaluate_gates(spec, record)
        all_results[name] = results
        if any(r.failed for r in results):
            exit_code = 1
    return all_results, exit_code
