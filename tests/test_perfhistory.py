"""Tests for the benchmark harness (repro.analysis.perfhistory).

Covers the record schema and environment fingerprint (including the
process-visible CPU count), the snapshot shape (committed
``BENCH_<name>.json`` files included), the gates evaluated on one record
(floors and their boundaries, ``min_cpus`` skips, non-finite values,
identity/positive gates), the hard/advisory enforcement split of
``finish_run``, the CI wiring of every registered benchmark, ``perf
check`` over the committed snapshots, and a synthetic injected regression
that must fail ``repro.cli perf check``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import math
import os
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


class TestEnvFingerprint:
    def test_capture_populates_every_field(self):
        env = ph.EnvFingerprint.capture()
        assert env.cpu_count >= 1
        assert env.python.count(".") == 2
        assert env.numpy
        assert env.machine
        assert env.blas
        assert env.git_commit    # short hash in a git checkout

    def test_dict_roundtrip(self):
        env = make_env()
        assert ph.EnvFingerprint.from_dict(env.to_dict()) == env

    def test_capture_counts_cpus_visible_to_the_process(self, monkeypatch):
        # Pinned to one CPU (taskset -c 0) on an 8-CPU machine: the
        # min_cpus speedup gates must not arm.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        env = ph.EnvFingerprint.capture()
        assert env.cpu_count == 1
        record = make_record(
            "parallel", {"characterization_sweep_speedup": 1.0}, env=env)
        speedup = ph.evaluate_gates(ph.BENCHMARKS["parallel"], record)[-1]
        assert speedup.gate.metric == "characterization_sweep_speedup"
        assert speedup.status == "skip"

    def test_cpu_count_falls_back_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert ph.visible_cpu_count() == 3

    def test_from_dict_fills_defaults_for_missing_fields(self):
        env = ph.EnvFingerprint.from_dict({"cpu_count": "2"})
        assert env.cpu_count == 2
        assert env.blas == "unknown" and env.git_commit == "unknown"
        assert env.python == "" and env.numpy == "" and env.machine == ""


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
        ph.write_snapshot(path, record)          # no details: the bare record
        assert json.loads(path.read_text()) == record.to_dict()

    @pytest.mark.parametrize("name", sorted(ph.BENCHMARKS))
    def test_committed_snapshot_is_latest_history_record(self, name):
        # The snapshot is the latest run's record: nothing else is kept.
        assert ph.BENCHMARKS[name].snapshot == f"BENCH_{name}.json"
        data = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
        assert set(data) - {"details"} == RECORD_KEYS
        assert data["schema"] == ph.SCHEMA_VERSION
        assert data["benchmark"] == name
        assert data["metrics"] and set(data["units"]) <= set(data["metrics"])
        data.pop("details", None)
        assert ph.BenchRecord.from_dict(data).to_dict() == data

    @pytest.mark.parametrize("name", sorted(ph.BENCHMARKS))
    def test_committed_snapshot_carries_every_gated_metric(self, name):
        # A gate whose metric is missing from the record fails, so every
        # registered gate must find its metric in the committed snapshot.
        data = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
        for gate in ph.BENCHMARKS[name].gates:
            assert gate.metric in data["metrics"], (name, gate.metric)

    def test_from_dict_ignores_details(self):
        record = make_record(metrics={"speedup": 3.0})
        data = dict(record.to_dict(), details={"rows": [1, 2]})
        assert ph.BenchRecord.from_dict(data) == record


SPEEDUP_GATE = ph.GateSpec("g", "speedup", floor=2.0)
TOY_SPEC = ph.BenchmarkSpec("toy", "bench_toy.py", "toy",
                            gates=(SPEEDUP_GATE,))


def one_gate(record, gate=SPEEDUP_GATE):
    spec = dataclasses.replace(TOY_SPEC, gates=(gate,))
    results = ph.evaluate_gates(spec, record)
    assert len(results) == 1
    return results[0]


class TestDegradationDetector:
    def test_absolute_floor_applies_before_baseline(self):
        # The floor is the only bar: no baseline from earlier runs exists.
        result = one_gate(make_record("toy", {"speedup": 1.9}))
        assert result.failed and "floor" in result.reason
        assert result.threshold == 2.0

    def test_exact_floor_boundary_passes(self):
        result = one_gate(make_record("toy", {"speedup": 2.0}))
        assert result.status == "pass" and result.threshold == 2.0

    def test_speedup_without_floor_passes_when_finite(self):
        gate = dataclasses.replace(SPEEDUP_GATE, floor=None)
        result = one_gate(make_record("toy", {"speedup": 0.5}), gate)
        assert result.status == "pass" and result.threshold is None

    def test_min_cpus_skips_not_passes(self):
        gate = dataclasses.replace(SPEEDUP_GATE, min_cpus=4)
        record = make_record("toy", {"speedup": 0.8},
                             env=make_env(cpu_count=1))
        result = one_gate(record, gate)
        assert result.status == "skip"
        assert "CPUs" in result.reason
        # With enough CPUs the same gate arms and the floor fails it.
        armed = one_gate(make_record("toy", {"speedup": 0.8}), gate)
        assert armed.failed

    def test_identity_gate_is_unconditional(self):
        gate = ph.GateSpec("ident", "bit_identical", kind="identity")
        good = one_gate(make_record("toy", {"bit_identical": True}), gate)
        assert good.status == "pass" and gate.hard
        bad = one_gate(make_record("toy", {"bit_identical": False}), gate)
        assert bad.failed

    def test_positive_gate(self):
        gate = ph.GateSpec("shed", "burst_shed", kind="positive")
        assert one_gate(make_record("toy", {"burst_shed": 17}),
                        gate).status == "pass"
        assert one_gate(make_record("toy", {"burst_shed": 0}), gate).failed

    def test_missing_metric_fails(self):
        result = one_gate(make_record("toy", {"other": 1.0}))
        assert result.failed and "missing" in result.reason

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_speedup_fails(self, value):
        # NaN slips past `value < floor`; it used to PASS.
        router = ph.BENCHMARKS["router"]
        record = make_record("router", {"bit_identical": True,
                                        "scaleout_speedup": value})
        by_name = {r.gate.name: r for r in ph.evaluate_gates(router, record)}
        assert by_name["scaleout_speedup"].failed
        assert "not finite" in by_name["scaleout_speedup"].reason

class TestGateTable:
    def test_floor_gate_shows_its_bar(self):
        result = one_gate(make_record("toy", {"speedup": 2.5}))
        table = ph.format_gate_results("toy", [result])
        assert "perf gates: toy" in table
        assert ">= 2" in table and "PASS" in table
        assert "median" not in table

    def test_identity_and_skipped_gates_show_no_bar(self):
        ident = ph.GateSpec("ident", "bit_identical", kind="identity")
        gated = dataclasses.replace(SPEEDUP_GATE, min_cpus=4)
        record = make_record("toy", {"bit_identical": True, "speedup": 0.5},
                             env=make_env(cpu_count=1))
        spec = dataclasses.replace(TOY_SPEC, gates=(ident, gated))
        results = ph.evaluate_gates(spec, record)
        assert [r.status for r in results] == ["pass", "skip"]
        assert all(r.threshold is None for r in results)
        table = ph.format_gate_results("toy", results)
        assert ">= 2" not in table and "SKIP" in table


class TestHarnessArguments:
    def parser(self):
        parser = argparse.ArgumentParser()
        ph.add_harness_arguments(parser, ph.BENCHMARKS["ecc"])
        return parser

    def test_output_defaults_to_the_snapshot(self):
        args = self.parser().parse_args([])
        assert args.output == "BENCH_ecc.json"
        assert vars(args) == {"output": "BENCH_ecc.json"}

    def test_history_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.parser().parse_args(["--history", "h.jsonl"])
        assert excinfo.value.code == 2
        assert "--history" in capsys.readouterr().err


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
            assert spec.snapshot in uploads, name

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
        assert script.main(["--requests", "48", "--max-batch", "8",
                            "--output", str(output)]) == 0
        snapshot = json.loads(output.read_text())
        assert snapshot["metrics"]["bit_identical"] is True
        assert "telemetry" in snapshot["details"]
        del snapshot["details"]
        assert ph.BenchRecord.from_dict(snapshot).to_dict() == snapshot
        assert snapshot["benchmark"] == "serving"
        assert "perf gates: serving" in capsys.readouterr().out


class TestFinishRun:
    def run(self, tmp_path, metrics, spec, details=None):
        args = argparse.Namespace(output=str(tmp_path / "snap.json"))
        code = ph.finish_run(spec, args, metrics, details=details)
        return code, args

    def test_writes_snapshot_and_prints_gates(self, tmp_path, capsys):
        code, args = self.run(tmp_path, {"speedup": 9.0}, TOY_SPEC,
                              details={"rows": [1, 2]})
        assert code == 0
        snapshot = json.loads(Path(args.output).read_text())
        assert snapshot["metrics"] == {"speedup": 9.0}
        assert snapshot["details"] == {"rows": [1, 2]}
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
        snapshot = json.loads(Path(args.output).read_text())
        assert snapshot["metrics"] == {"bit_identical": False}


class TestPerfCheck:
    def test_committed_snapshots_pass_perf_check(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["perf", "check"]) == 0
        assert "perf check: OK" in capsys.readouterr().out
        results, code = ph.check_benchmarks()
        assert code == 0 and set(results) == set(ph.BENCHMARKS)
        # The committed records come from a 1-CPU run: the scale-out
        # speedups cannot be expressed there, so their gates skip.
        for name, gate in (("parallel", "characterization_sweep_speedup"),
                           ("router", "scaleout_speedup")):
            by_name = {r.gate.name: r for r in results[name]}
            assert by_name[gate].status == "skip", name

    def test_synthetic_regression_fails_perf_check(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        snapshot = tmp_path / ph.BENCHMARKS["quantized"].snapshot
        ph.write_snapshot(snapshot, make_record("quantized", {"speedup": 2.6}))
        assert cli_main(["perf", "check"]) == 0
        # Inject a regression that breaches the absolute CI floor.
        ph.write_snapshot(snapshot, make_record("quantized", {"speedup": 1.8}))
        code = cli_main(["perf", "check"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_named_benchmark_without_record_fails(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["perf", "check"]) == 0      # nothing named, none found
        assert cli_main(["perf", "check", "--benchmark", "router"]) == 1
        assert "no snapshot BENCH_router.json" in capsys.readouterr().err

    def test_unknown_benchmark_fails(self):
        results, code = ph.check_benchmarks(["bogus"])
        assert code == 1 and not results

    @pytest.mark.parametrize("name", sorted(ph.BENCHMARKS))
    def test_ci_check_line_passes_on_committed_snapshot(self, name,
                                                        monkeypatch, capsys):
        # The form CI uses after each script: one named benchmark.
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["perf", "check", "--benchmark", name]) == 0
        out = capsys.readouterr().out
        assert f"perf gates: {name}" in out and "perf check: OK" in out

    def test_unknown_name_fails_but_known_ones_are_still_checked(
            self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        results, code = ph.check_benchmarks(["ecc", "bogus"])
        assert code == 1
        assert set(results) == {"ecc"}
        assert not any(r.failed for r in results["ecc"])

    def test_skipped_gate_does_not_fail_the_check(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        metrics = {"bit_identical": True, "scaleout_speedup": 0.9}
        ph.write_snapshot(tmp_path / "BENCH_router.json",
                          make_record("router", metrics,
                                      env=make_env(cpu_count=1)))
        results, code = ph.check_benchmarks(["router"])
        assert code == 0
        assert [r.status for r in results["router"]] == ["pass", "skip"]
        # The same record from a 4-CPU machine arms the floor and fails.
        ph.write_snapshot(tmp_path / "BENCH_router.json",
                          make_record("router", metrics))
        assert ph.check_benchmarks(["router"])[1] == 1
