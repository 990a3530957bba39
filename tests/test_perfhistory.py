"""Tests for the perf-history harness (repro.analysis.perfhistory).

Covers the record schema and environment fingerprint, the append-only
history store, the snapshot shape (committed ``BENCH_<name>.json`` files
included), the degradation detector (empty history seeds the baseline,
single-entry baselines, environment-mismatch exclusion, exact threshold
boundaries, non-finite values), the hard/advisory enforcement split of
``finish_run``, the CI wiring of every registered benchmark, and a
synthetic injected regression that must fail ``repro.cli perf check``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from repro.analysis import perfhistory as ph
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
RECORD_KEYS = {"schema", "benchmark", "timestamp", "env", "metrics", "units"}


def make_env(**overrides) -> ph.EnvFingerprint:
    base = dict(cpu_count=4, python="3.12.1", numpy="2.4.6",
                blas="scipy-openblas", machine="x86_64", git_commit="abc123")
    base.update(overrides)
    return ph.EnvFingerprint(**base)


def make_record(benchmark="injection", metrics=None, env=None):
    return ph.BenchRecord.create(
        benchmark, metrics if metrics is not None else {"headline_speedup": 8.0},
        env=env if env is not None else make_env())


def seeded_history(path, benchmark, metric, values, env=None):
    store = ph.HistoryStore(path)
    for value in values:
        store.append(make_record(benchmark, {metric: value}, env=env))
    return store


class TestEnvFingerprint:
    def test_capture_populates_every_field(self):
        env = ph.EnvFingerprint.capture()
        assert env.cpu_count >= 1
        assert env.python.count(".") == 2
        assert env.numpy
        assert env.machine
        assert env.blas
        assert env.git_commit    # short hash in a git checkout

    def test_commit_never_affects_compatibility(self):
        assert make_env(git_commit="aaa").compatible_with(
            make_env(git_commit="bbb"))

    def test_python_patch_version_is_compatible(self):
        assert make_env(python="3.12.1").compatible_with(
            make_env(python="3.12.9"))
        assert not make_env(python="3.12.1").compatible_with(
            make_env(python="3.11.7"))

    @pytest.mark.parametrize("field,value", [
        ("cpu_count", 1), ("numpy", "1.26.0"), ("blas", "mkl"),
        ("machine", "arm64")])
    def test_any_other_field_mismatch_is_incompatible(self, field, value):
        assert not make_env().compatible_with(make_env(**{field: value}))

    def test_dict_roundtrip(self):
        env = make_env()
        assert ph.EnvFingerprint.from_dict(env.to_dict()) == env


class TestHistoryStore:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert ph.HistoryStore(tmp_path / "none.jsonl").load() == []

    def test_append_only_across_consecutive_runs(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        store = ph.HistoryStore(path)
        store.append(make_record(metrics={"m": 1.0}))
        first_bytes = path.read_bytes()
        store.append(make_record(metrics={"m": 2.0}))
        # The second run only ever adds a line; run 1 stays byte-identical.
        assert path.read_bytes().startswith(first_bytes)
        assert len(store.load()) == 2

    def test_roundtrip_preserves_record(self, tmp_path):
        store = ph.HistoryStore(tmp_path / "hist.jsonl")
        record = ph.BenchRecord.create("serving",
                                       {"bit_identical": True, "speedup": 4.5},
                                       units={"speedup": "x"}, env=make_env())
        store.append(record)
        loaded = store.load()[0]
        assert loaded == record

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        store = ph.HistoryStore(path)
        store.append(make_record())
        with path.open("a") as handle:
            handle.write("{not json\n\n")
        store.append(make_record())
        assert len(store.load()) == 2

    def test_entries_for_filters_benchmark(self, tmp_path):
        store = ph.HistoryStore(tmp_path / "hist.jsonl")
        store.append(make_record("injection"))
        store.append(make_record("serving", {"bit_identical": True}))
        assert [r.benchmark for r in store.entries_for("serving")] == ["serving"]


class TestSnapshot:
    def test_snapshot_is_the_record_plus_details(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record = make_record(metrics={"speedup": 3.0})
        ph.write_snapshot(path, record, {"sweep": {"0.001": 0.9}})
        data = json.loads(path.read_text())
        assert set(data) == RECORD_KEYS | {"details"}
        assert data["details"] == {"sweep": {"0.001": 0.9}}
        del data["details"]
        assert data == record.to_dict()
        assert data["schema"] == ph.SCHEMA_VERSION
        ph.write_snapshot(path, record)          # no details: a history line
        assert json.loads(path.read_text()) == record.to_dict()

    @pytest.mark.parametrize("name", sorted(ph.BENCHMARKS))
    def test_committed_snapshot_is_latest_history_record(self, name):
        assert ph.BENCHMARKS[name].snapshot == f"BENCH_{name}.json"
        data = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
        assert set(data) - {"details"} == RECORD_KEYS
        data.pop("details", None)
        lines = (REPO_ROOT / ph.DEFAULT_HISTORY).read_text().splitlines()
        history = [json.loads(line) for line in lines if line.strip()]
        assert data == [h for h in history if h["benchmark"] == name][-1]


SPEEDUP_GATE = ph.GateSpec("g", "speedup", floor=2.0, tolerance=0.25)
TOY_SPEC = ph.BenchmarkSpec("toy", "bench_toy.py", "toy",
                            gates=(SPEEDUP_GATE,))


def one_gate(record, prior, gate=SPEEDUP_GATE):
    spec = dataclasses.replace(TOY_SPEC, gates=(gate,))
    results = ph.evaluate_gates(spec, record, prior)
    assert len(results) == 1
    return results[0]


class TestDegradationDetector:
    def test_empty_history_passes_and_seeds(self):
        result = one_gate(make_record("toy", {"speedup": 2.5}), prior=[])
        assert result.status == "pass"
        assert "seeds" in result.reason
        assert result.baseline is None

    def test_single_entry_baseline(self):
        prior = [make_record("toy", {"speedup": 8.0})]
        ok = one_gate(make_record("toy", {"speedup": 6.5}), prior)
        assert ok.status == "pass" and ok.baseline == 8.0
        bad = one_gate(make_record("toy", {"speedup": 5.9}), prior)
        assert bad.failed and "degraded" in bad.reason

    def test_environment_mismatch_excluded_from_window(self):
        # Ten glorious 4-CPU runs must not set the bar for a 1-CPU record.
        prior = [make_record("toy", {"speedup": 50.0}, env=make_env())
                 for _ in range(10)]
        record = make_record("toy", {"speedup": 2.1},
                             env=make_env(cpu_count=1))
        result = one_gate(record, prior)
        assert result.status == "pass"
        assert "seeds" in result.reason      # nothing comparable existed
        # And a compatible entry joins the window regardless of its commit.
        prior.append(make_record("toy", {"speedup": 2.2},
                                 env=make_env(cpu_count=1, git_commit="zzz")))
        result = one_gate(record, prior)
        assert result.baseline == 2.2

    def test_window_takes_most_recent_entries(self):
        values = [10.0, 10.0, 10.0, 4.0, 4.0, 4.0, 4.0, 4.0]
        prior = [make_record("toy", {"speedup": v}) for v in values]
        result = one_gate(make_record("toy", {"speedup": 3.2}), prior)
        # window=5 -> the three old 10.0 runs age out; median is 4.0.
        assert result.baseline == 4.0
        assert result.status == "pass"

    def test_exact_threshold_boundary(self):
        prior = [make_record("toy", {"speedup": 8.0})]
        at_threshold = one_gate(make_record("toy", {"speedup": 6.0}), prior)
        assert at_threshold.threshold == pytest.approx(6.0)
        assert at_threshold.status == "pass"     # value == threshold passes
        below = one_gate(make_record("toy", {"speedup": 5.999}), prior)
        assert below.failed

    def test_absolute_floor_applies_before_baseline(self):
        prior = [make_record("toy", {"speedup": 2.1})]
        result = one_gate(make_record("toy", {"speedup": 1.9}), prior)
        assert result.failed and "floor" in result.reason

    def test_exact_floor_boundary_passes(self):
        result = one_gate(make_record("toy", {"speedup": 2.0}), prior=[])
        assert result.status == "pass"

    def test_min_cpus_skips_not_passes(self):
        gate = dataclasses.replace(SPEEDUP_GATE, min_cpus=4)
        record = make_record("toy", {"speedup": 0.8},
                             env=make_env(cpu_count=1))
        result = one_gate(record, [], gate)
        assert result.status == "skip"
        assert "CPUs" in result.reason
        # With enough CPUs the same gate arms and the floor fails it.
        armed = one_gate(make_record("toy", {"speedup": 0.8}), [], gate)
        assert armed.failed

    def test_identity_gate_is_unconditional(self):
        gate = ph.GateSpec("ident", "bit_identical", kind="identity")
        good = one_gate(make_record("toy", {"bit_identical": True}), [], gate)
        assert good.status == "pass" and gate.hard
        bad = one_gate(make_record("toy", {"bit_identical": False}), [], gate)
        assert bad.failed

    def test_positive_gate(self):
        gate = ph.GateSpec("shed", "burst_shed", kind="positive")
        assert one_gate(make_record("toy", {"burst_shed": 17}), [],
                        gate).status == "pass"
        assert one_gate(make_record("toy", {"burst_shed": 0}), [],
                        gate).failed

    def test_missing_metric_fails(self):
        result = one_gate(make_record("toy", {"other": 1.0}), [])
        assert result.failed and "missing" in result.reason

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_speedup_fails(self, value):
        # NaN slips past `value < floor`; with no baseline it used to PASS.
        router = ph.BENCHMARKS["router"]
        record = make_record("router", {"bit_identical": True,
                                        "scaleout_speedup": value})
        by_name = {r.gate.name: r
                   for r in ph.evaluate_gates(router, record, [])}
        assert by_name["scaleout_speedup"].failed
        assert "not finite" in by_name["scaleout_speedup"].reason

    def test_non_finite_prior_values_leave_the_window(self):
        prior = [make_record("toy", {"speedup": v})
                 for v in (8.0, math.nan, math.inf, 9.0)]
        record = make_record("toy", {"speedup": 8.4})
        assert ph.baseline_window(prior, record, "speedup") == [8.0, 9.0]
        assert one_gate(record, prior).baseline == pytest.approx(8.5)


class TestRegistry:
    def test_all_eight_benchmarks_registered(self):
        assert set(ph.BENCHMARKS) == {"injection", "inference", "serving",
                                      "quantized", "parallel", "server",
                                      "router", "ecc"}

    def test_every_script_exists_and_uses_the_harness(self):
        for spec in ph.BENCHMARKS.values():
            script = BENCH_DIR / spec.script
            assert script.is_file(), spec.script
            source = script.read_text()
            assert "finish_run" in source, spec.script
            assert f'BENCHMARKS["{spec.name}"]' in source, spec.script

    @staticmethod
    def ci_jobs():
        """Map each CI job name to its raw lines (jobs sit at indent 2)."""
        jobs, current = {}, None
        body = CI_WORKFLOW.read_text().split("\njobs:\n", 1)[1]
        for line in body.splitlines():
            header = re.match(r"^  ([\w-]+):\s*$", line)
            if header:
                current = jobs.setdefault(header.group(1), [])
            elif current is not None:
                current.append(line.strip())
        return jobs

    @staticmethod
    def uploaded_paths(lines):
        """Return the file names listed under every ``path: |`` block."""
        paths, in_block = set(), False
        for line in lines:
            if line == "path: |":
                in_block = True
            elif in_block and re.fullmatch(r"[\w./-]+", line):
                paths.add(line)
            else:
                in_block = False
        return paths

    def test_every_benchmark_is_wired_into_ci(self):
        jobs = self.ci_jobs()
        for name, spec in ph.BENCHMARKS.items():
            runs = re.compile(rf"run: python benchmarks/{re.escape(spec.script)}\b")
            owners = [job for job, lines in jobs.items()
                      if any(runs.match(line) for line in lines)]
            assert len(owners) == 1, (spec.script, owners)
            lines = jobs[owners[0]]
            checked = [line.split("--benchmark", 1)[1].split()
                       for line in lines if "perf check --benchmark" in line]
            assert any(name in names for names in checked), (name, owners)
            uploads = self.uploaded_paths(lines)
            assert {spec.snapshot, ph.DEFAULT_HISTORY} <= uploads, name

    def test_identity_gates_are_hard_and_floors_match_ci_history(self):
        floors = {name: {g.metric: g.floor for g in spec.gates
                         if g.kind == "speedup"}
                  for name, spec in ph.BENCHMARKS.items()}
        assert floors["injection"]["headline_speedup"] == 3.0
        assert floors["inference"]["sweep_speedup"] == 3.0
        assert floors["serving"]["microbatch_speedup"] == 2.0
        assert floors["quantized"]["speedup"] == 2.0
        assert floors["parallel"]["characterization_sweep_speedup"] == 2.0
        assert floors["router"]["scaleout_speedup"] == 2.0
        for name in ("parallel", "router"):
            speedups = [g for g in ph.BENCHMARKS[name].gates
                        if g.kind == "speedup"]
            assert all(g.min_cpus == 4 for g in speedups), name
        for spec in ph.BENCHMARKS.values():
            for gate in spec.gates:
                assert gate.hard == (gate.kind in ("identity", "positive"))


class TestBenchScripts:
    @staticmethod
    def load_script(name: str):
        spec = importlib.util.spec_from_file_location(name,
                                                      BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_bench_serving_records_bit_identical_run(self, tmp_path, capsys):
        script = self.load_script("bench_serving")
        output = tmp_path / "BENCH_serving.json"
        history = tmp_path / "history.jsonl"
        assert script.main(["--requests", "48", "--max-batch", "8",
                            "--output", str(output),
                            "--history", str(history)]) == 0
        snapshot = json.loads(output.read_text())
        assert snapshot["metrics"]["bit_identical"] is True
        assert "telemetry" in snapshot["details"]
        entries = ph.HistoryStore(history).entries_for("serving")
        assert len(entries) == 1
        del snapshot["details"]
        assert snapshot == entries[0].to_dict()
        assert "perf gates: serving" in capsys.readouterr().out


class TestFinishRun:
    def run(self, tmp_path, metrics, spec, details=None):
        args = argparse.Namespace(output=str(tmp_path / "snap.json"),
                                  history=str(tmp_path / "hist.jsonl"))
        code = ph.finish_run(spec, args, metrics, details=details)
        return code, args

    def test_writes_snapshot_and_appends_history(self, tmp_path, capsys):
        code, args = self.run(tmp_path, {"speedup": 9.0}, TOY_SPEC,
                              details={"rows": [1, 2]})
        assert code == 0
        snapshot = json.loads(Path(args.output).read_text())
        assert snapshot["metrics"] == {"speedup": 9.0}
        assert snapshot["details"] == {"rows": [1, 2]}
        assert len(ph.HistoryStore(args.history).entries_for("toy")) == 1
        assert "perf gates: toy" in capsys.readouterr().out

    def test_hard_failure_is_fatal(self, tmp_path, capsys):
        spec = dataclasses.replace(TOY_SPEC, gates=(
            ph.GateSpec("ident", "bit_identical", kind="identity"),))
        code, _ = self.run(tmp_path, {"bit_identical": False}, spec)
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_speedup_failure_is_advisory_for_scripts(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, {"speedup": 1.0}, TOY_SPEC)
        assert code == 0      # scripts only die on hard gates
        assert "WARN" in capsys.readouterr().err

    def test_failed_run_is_still_recorded(self, tmp_path):
        spec = dataclasses.replace(TOY_SPEC, gates=(
            ph.GateSpec("ident", "bit_identical", kind="identity"),))
        code, args = self.run(tmp_path, {"bit_identical": False}, spec)
        assert code == 1
        assert len(ph.HistoryStore(args.history).load()) == 1


class TestPerfCheck:
    def test_synthetic_regression_fails_perf_check(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()      # compatible with "now"
        seeded_history(hist, "quantized", "speedup",
                       [2.6, 2.5, 2.6], env=env)
        assert cli_main(["perf", "check", "--history", str(hist)]) == 0
        # Inject a regression that breaches the absolute CI floor.
        ph.HistoryStore(hist).append(
            ph.BenchRecord.create("quantized", {"speedup": 1.8}, env=env))
        code = cli_main(["perf", "check", "--history", str(hist)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_regression_below_window_but_above_floor_fails(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()
        seeded_history(hist, "quantized", "speedup",
                       [4.0, 4.0, 4.0, 2.4], env=env)
        # 2.4 clears the 2.0 floor but is 40% below the median: degradation.
        results, code = ph.check_benchmarks(hist, ["quantized"])
        assert code == 1
        assert results["quantized"][0].failed

    def test_named_benchmark_without_record_fails(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        assert cli_main(["perf", "check", "--history", str(hist),
                         "--benchmark", "router"]) == 1
        assert "no history entry" in capsys.readouterr().err

    def test_unknown_benchmark_fails(self, tmp_path):
        results, code = ph.check_benchmarks(tmp_path / "h.jsonl", ["bogus"])
        assert code == 1 and not results

    def test_check_uses_latest_entry_per_benchmark(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()
        store = seeded_history(hist, "injection",
                               "headline_speedup", [9.0, 9.1], env=env)
        store.append(ph.BenchRecord.create(
            "injection", {"bit_identical": True, "headline_speedup": 8.8},
            env=env))
        results, code = ph.check_benchmarks(hist)
        assert code == 0
        by_name = {r.gate.name: r for r in results["injection"]}
        assert by_name["headline_cold_speedup"].value == pytest.approx(8.8)
        assert by_name["headline_cold_speedup"].baseline == pytest.approx(9.05)

    def test_report_median_matches_gate_baseline(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()
        seeded_history(hist, "injection", "headline_speedup",
                       [9.0, 9.1, 8.8], env=env)
        results, _ = ph.check_benchmarks(hist, ["injection"])
        gate = {r.gate.name: r for r in results["injection"]}
        baseline = gate["headline_cold_speedup"].baseline
        assert baseline == pytest.approx(9.05)     # even window: true median
        assert cli_main(["perf", "report", "--history", str(hist)]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if "headline_speedup" in line)
        assert f"{(8.8 - baseline) / baseline:+.1%}" in row

    def test_cli_report_and_list(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()
        seeded_history(hist, "quantized", "speedup", [2.5, 2.6], env=env)
        assert cli_main(["perf", "report", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "quantized" in out and "2.6" in out and "->" in out
        assert cli_main(["perf", "list", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "quantized" in out and env.git_commit in out
