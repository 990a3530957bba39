"""Benchmark runner for the EDEN reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``BENCHMARK.json`` for why
each was chosen):

``ecc_sweep``, ``weight_sweep``
    BER sweeps on ``resnet101`` (:mod:`workloads`), run in this process.
``serve_http``
    The int8 ``lenet`` endpoint of ``repro.cli serve`` in a child process,
    driven over HTTP by :mod:`serving`.

The seed picks the inputs: the injection seeds of the sweep operations, and
the request bodies and arrival times of the serving phases.  The source tree
is byte-compiled first, so no run pays for a cold ``.pyc`` cache.  The host
and BLAS environment are left as users run them, and recorded on a line
before the result.

``--trace 0`` measures the end-to-end metrics, the same names on every
workload.  ``setup_s`` is the median of :data:`SETUP_PROBES` fresh child
processes timed from spawn to ready: imports, model build and warm-up for a
sweep; the whole ``repro.cli serve`` start-up until it listens for
``serve_http``.  ``peak_rss_mb`` is this process's peak RSS for a sweep and
the server child's for ``serve_http``.  ``images_per_s`` is images scored
per second at the median operation's speed for a sweep, and completed
single-image requests per second in the closed-loop phase (the capacity) for
``serve_http``.  The ``low``/``high`` latencies are those of a request at
the low and high Poisson rate for ``serve_http``, and those of one grid
point at the lowest and highest BER of the grid for a sweep.

A sweep starts whole operations (one grid sweep each) until the timed total
reaches ``--seconds``; the last one runs to its end.  One ``ecc_sweep``
operation takes about 18-21 s on 2 vCPUs, so at ``--seconds 30`` it runs
two and measures about 36-42 s.

``--trace 1`` repeats each unit of work with and without the wrappers of
:mod:`tracing` (in the server child for ``serve_http``).  A sweep alternates
untraced and traced operations by the same rule, counting a pair as one
unit: ``ecc_sweep``'s traced run measures one pair, about 37-42 s at
``--seconds 30``.  The server runs untraced for half
of ``--seconds`` and then traced.  Traced outputs
must equal the untraced ones byte for byte.  ``trace.overhead_pct`` is the
traced time over the untraced time, minus one.  The spans are written to
``.perfbench/<workload>.trace.json`` at exit.  Per-layer counts and seconds
are per operation: one grid sweep for a sweep, one completed request for
``serve_http``.  Metrics of a layer the workload never calls read 0.
``trace.attributed_pct`` is the share of a sweep's timed wall clock spent in
the leaf layers (:data:`LEAF_LAYERS`, self time), so time that only the
``ExperimentRunner`` and ``evaluate`` wrappers cover counts as unattributed.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  An operation fails when its output differs from the expected
one (``digests.json`` for a sweep's grid points, in-process
``session.predict`` for served rows) or a request is not answered with 200.
A sweep operation that raises ends the run without a result.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ecc_sweep", "weight_sweep", "serve_http")
SETUP_PROBES = 7
#: the layers whose self time a sweep's timed wall clock is attributed to.
LEAF_LAYERS = ("dram.inject", "ecc.decode", "nn.forward", "engine.materialize")


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was measured."""
    return part / whole if whole else 0.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def environment() -> Dict[str, object]:
    """What the numbers depend on besides the code: host, Python, BLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {key: os.environ[key] for key in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
               if key in os.environ}
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads_env": threads}


def setup_seconds(child_args: List[str]) -> float:
    """Median spawn-to-ready time of fresh ``launcher.py`` children."""
    from child import Child

    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        with Child(child_args) as child:
            child.wait_event("ready")
            samples.append(time.monotonic() - start)
            if child_args[0] == "setup":
                child.proc.wait(timeout=60)     # it exits on its own
    return statistics.median(samples)


def write_trace(workload: str, seed: int, spans) -> None:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"{workload}.trace.json").write_text(json.dumps(
        {"workload": workload, "seed": seed,
         "fields": ["name", "start", "end", "parent", "extra"],
         "spans": spans}))


# -- sweeps -----------------------------------------------------------------------
def timed_op(workload, pool_seed: int):
    """Run one operation; return its rows, the timed window of each grid
    point, and the seconds those windows took."""
    rows, windows = workload.run_op(pool_seed)
    return rows, windows, sum(window.seconds for window in windows)


def ops_for(workload, seed: int, seconds: float):
    """Operations until their timed total reaches ``seconds``.

    Returns the pool seeds run and the rows and grid-point seconds of each
    operation.
    """
    from workloads import POOL

    seeds, rows, points, elapsed = [], [], [], 0.0
    while elapsed < seconds:
        seeds.append((seed + len(seeds)) % POOL)
        op_rows, windows, op_s = timed_op(workload, seeds[-1])
        rows.append(op_rows)
        points.append([window.seconds for window in windows])
        elapsed += op_s
    return seeds, rows, points


def same(a, b) -> bool:
    """Byte-for-byte equality of two rows (NaN equals NaN)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def run_sweep(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import GRID, SweepWorkload, rows_match

    expected = json.loads((HERE / "digests.json").read_text())
    if expected["grid"] != list(GRID):
        raise RuntimeError("digests.json was written for another BER grid")
    expected = expected[name]

    def failures(seeds, rows) -> int:
        return sum(not rows_match(got, want)
                   for pool_seed, op in zip(seeds, rows)
                   for got, want in zip(op, expected[pool_seed]))

    setup_s = setup_seconds(["setup", name])
    workload = SweepWorkload(name)
    try:
        if not trace:
            seeds, rows, points = ops_for(workload, seed, seconds)
            low = [op[0] * 1e3 for op in points]
            high = [op[-1] * 1e3 for op in points]
            return {
                "attempted": len(seeds) * len(GRID),
                "failed": failures(seeds, rows),
                "metrics": {
                    "setup_s": setup_s,
                    "images_per_s": workload.images_per_op / statistics.median(
                        sum(op) for op in points),
                    "peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "p50_ms.low": percentile(low, 50),
                    "p50_ms.high": percentile(high, 50),
                }}

        from tracing import Tracer, in_window, layer_totals
        from workloads import POOL

        # Each operation runs untraced and then traced, so both sides see
        # the same drift of a shared host.
        tracer = Tracer()
        seeds, rows, traced_rows, traced_windows = [], [], [], []
        untraced_s = traced_s = 0.0
        while untraced_s + traced_s < seconds:
            seeds.append((seed + len(seeds)) % POOL)
            op_rows, _, op_s = timed_op(workload, seeds[-1])
            rows.append(op_rows)
            untraced_s += op_s
            with tracer:
                op_rows, windows, op_s = timed_op(workload, seeds[-1])
            traced_rows.append(op_rows)
            traced_windows.extend(windows)
            traced_s += op_s
    finally:
        workload.close()

    spans = tracer.spans
    write_trace(name, seed, spans)
    # Only spans inside the timed windows count: the output rows computed
    # after each window are traced too, but not timed.
    totals = layer_totals(spans, [i for window in traced_windows
                                  for i in in_window(spans, window.start,
                                                     window.end)])
    ops = len(seeds)
    layers = {}
    for layer, calls_key, time_key, time_field in (
            ("dram.inject", "dram.inject.calls", "dram.inject.self_s", "self_s"),
            ("ecc.decode", "ecc.decode.calls", "ecc.decode.s", "s"),
            ("nn.forward", "nn.forward.calls", "nn.forward.self_s", "self_s"),
            ("engine.materialize", "engine.materialize.calls",
             "engine.materialize.s", "s")):
        entry = totals.get(layer, {"calls": 0, time_field: 0.0})
        layers[calls_key] = entry["calls"] / ops
        layers[time_key] = entry[time_field] / ops
    layers.update({
        "ecc.decode.codewords": totals.get("ecc.decode", {"extra": 0})["extra"]
        / ops,
        "process.cpu_s": sum(window.cpu_s for window in traced_windows) / ops,
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        "trace.attributed_pct": sum(totals[layer]["self_s"] for layer
                                    in LEAF_LAYERS if layer in totals)
        / traced_s * 100.0,
        "trace.window_s": traced_s,
    })
    # A traced point fails if it differs from its digest or from the same
    # point of the untraced run.
    traced_failed = sum(not rows_match(got, want) or not same(got, untraced)
                        for pool_seed, op, untraced_op
                        in zip(seeds, traced_rows, rows)
                        for got, want, untraced
                        in zip(op, expected[pool_seed], untraced_op))
    return {"attempted": 2 * ops * len(GRID),
            "failed": failures(seeds, rows) + traced_failed,
            "metrics": layers}


# -- serving ----------------------------------------------------------------------
def serve_once(bodies, seed: int, seconds: float, traced: bool):
    """Start a server child, run every phase against it, stop it.

    Returns the phases, the child's exit event, and the child's CPU seconds
    across the timed phases (traced runs only).
    """
    import numpy as np

    import serving
    from child import Child

    cpu: Dict[str, float] = {}
    with Child(["serve", "--trace"] if traced else ["serve"]) as child:
        port = child.wait_event("ready")["port"]

        def on_window(which: str) -> None:
            if traced:
                cpu[which] = child.cpu_seconds()
        phases = serving.run_phases(port, bodies, np.random.default_rng(seed),
                                    seconds, on_window)
    if child.exit_event is None:
        raise RuntimeError("server child ended without its exit report")
    return phases, child.exit_event, cpu.get("end", 0.0) - cpu.get("start", 0.0)


def _ok(records):
    return [record for record in records if record[4] == 200]


def _records(phase):
    """Every record of a phase's chunks."""
    return [record for chunk in phase for record in chunk["records"]]


def _in_phase(spans, phase) -> List[int]:
    """Indices of the spans inside any of the phase's chunks."""
    from tracing import in_window

    return [i for chunk in phase
            for i in in_window(spans, chunk["start"], chunk["end"])]


def capacity(phase) -> float:
    """Median over the phase's chunks of completed requests per second.

    A chunk's rate is taken between its first and last completion, which,
    unlike a count over the chunk's length, is not quantized.
    """
    rates = []
    for chunk in phase:
        done = sorted(record[3] for record in _ok(chunk["records"]))
        rates.append(ratio(len(done) - 1, done[-1] - done[0]) if done else 0.0)
    return statistics.median(rates)


def windowed_percentile(phase, q: float) -> float:
    """Median over the phase's chunks of the ``q``-th percentile of latency
    from due time, in milliseconds."""
    return statistics.median(
        percentile([(r[3] - r[1]) * 1e3 for r in _ok(chunk["records"])], q)
        for chunk in phase)


def latencies_ms(phase, since: int = 1) -> List[float]:
    """Completion minus due (``since=1``) or minus sent (``since=2``)."""
    return [(record[3] - record[since]) * 1e3
            for record in _ok(_records(phase))]


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    import serving

    setup_s = setup_seconds(["serve"])
    samples = serving.request_samples(seed)
    bodies = serving.encode_bodies(samples)
    if not trace:
        phases, exit_event, _ = serve_once(bodies, seed, seconds, traced=False)
        runs = [phases]
    else:
        phases, _, _ = serve_once(bodies, seed, seconds / 2, traced=False)
        traced, exit_event, cpu_s = serve_once(bodies, seed, seconds / 2,
                                               traced=True)
        runs = [phases, traced]

    # Outputs are decoded and checked only now, after every timed window.
    expected = serving.reference_rows(samples)
    served: List[Dict[int, bytes]] = []
    attempted = failed = 0
    for run in runs:
        served.append({})
        for phase in run.values():
            records = _records(phase)
            attempted += len(records)
            failed += serving.check_records(records, expected, served[-1])
    if not trace:
        return {"attempted": attempted, "failed": failed, "metrics": {
            "setup_s": setup_s,
            "images_per_s": capacity(phases["closed"]),
            "p50_ms.low": windowed_percentile(phases["low"], 50),
            "p50_ms.high": windowed_percentile(phases["high"], 50),
            "peak_rss_mb": exit_event["maxrss_kb"] / 1024,
        }}

    # Traced rows must match the untraced run's rows for the same bodies.
    failed += sum(row != served[0][pick] for pick, row in served[1].items()
                  if pick in served[0])
    spans = [tuple(span) if span else None for span in exit_event["spans"]]
    write_trace("serve_http", seed, spans)
    return {"attempted": attempted, "failed": failed,
            "metrics": serve_layers(traced, spans, cpu_s,
                                    capacity(phases["closed"]))}


def serve_layers(phases, spans, cpu_s: float, untraced_capacity: float
                 ) -> Dict[str, float]:
    """Per-layer serving metrics from the traced run's spans and records.

    Latency splits come from the ``low`` phase, predict counts from the
    ``closed`` phase, and work per request from all phases together.
    """
    from tracing import durations_ms, in_window, layer_totals

    low, closed = phases["low"], phases["closed"]
    in_low = _in_phase(spans, low)
    gateway = durations_ms(spans, in_low, "gateway.submit")
    encode = durations_ms(spans, in_low, "server.encode")

    # A request's batcher wait is its gateway time minus the predict call
    # that answered it: the last one to end before its future completed
    # (one batcher thread runs predict calls one after another).
    predicts = sorted((span for span in spans
                       if span and span[0] == "engine.predict"),
                      key=lambda span: span[2])
    predict_ends = [span[2] for span in predicts]
    waits = []
    for i in in_low:
        name, start, end = spans[i][:3]
        k = bisect.bisect_right(predict_ends, end) - 1
        if name == "gateway.submit" and k >= 0:
            predict = predicts[k][2] - predicts[k][1]
            waits.append((end - start - predict) * 1e3)

    in_closed = _in_phase(spans, closed)
    predict_ms = durations_ms(spans, in_closed, "engine.predict")
    closed_totals = layer_totals(spans, in_closed).get(
        "engine.predict", {"calls": 0, "extra": 0})
    closed_requests = len(_ok(_records(closed)))

    chunks = [chunk for phase in phases.values() for chunk in phase]
    start = min(chunk["start"] for chunk in chunks)
    end = max(chunk["end"] for chunk in chunks)
    totals = layer_totals(spans, in_window(spans, start, end))
    requests = sum(len(_ok(chunk["records"])) for chunk in chunks)

    def per_request(layer: str, field: str) -> float:
        return ratio(totals.get(layer, {field: 0})[field], requests)

    client = latencies_ms(low, since=2)
    late = [(record[2] - record[1]) * 1e3 for name in ("low", "high")
            for record in _records(phases[name])]
    return {
        "dram.inject.calls": per_request("dram.inject", "calls"),
        "dram.inject.self_s": per_request("dram.inject", "self_s"),
        "ecc.decode.calls": per_request("ecc.decode", "calls"),
        "ecc.decode.s": per_request("ecc.decode", "s"),
        "ecc.decode.codewords": per_request("ecc.decode", "extra"),
        "nn.forward.calls": per_request("nn.forward", "calls"),
        "nn.forward.self_s": per_request("nn.forward", "self_s"),
        "engine.materialize.calls": per_request("engine.materialize", "calls"),
        "engine.materialize.s": per_request("engine.materialize", "s"),
        "process.cpu_s": ratio(cpu_s, requests),
        "gateway.submit_ms.p50": percentile(gateway, 50),
        "batcher.wait_ms.p50": percentile(waits, 50),
        "engine.predict.calls": ratio(closed_totals["calls"], closed_requests),
        "engine.predict_ms.p50": percentile(predict_ms, 50),
        "batcher.rows_per_predict": ratio(closed_totals["extra"],
                                          closed_totals["calls"]),
        "server.encode_ms.p50": percentile(encode, 50),
        "http.wire_ms.p50": (percentile(client, 50) - percentile(gateway, 50)
                             - percentile(encode, 50)),
        "gen.late_ms.p99": percentile(late, 99),
        "client.p90_ms.low": windowed_percentile(low, 90),
        "client.p90_ms.high": windowed_percentile(phases["high"], 90),
        "client.p99_ms.low": percentile(latencies_ms(low), 99),
        "client.p99_ms.high": percentile(latencies_ms(phases["high"]), 99),
        "trace.overhead_pct": (ratio(untraced_capacity, capacity(closed))
                               - 1.0) * 100.0,
        "trace.attributed_pct": ratio(percentile(gateway, 50)
                                      + percentile(encode, 50),
                                      percentile(client, 50)) * 100.0,
        "trace.window_s": end - start,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no repro package under {src}: run from the repository root",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(src), quiet=1):
        print("byte-compiling the package failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    print("environment " + json.dumps(environment()), flush=True)

    if args.workload == "serve_http":
        result = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_sweep(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    # Names and units come from BENCHMARK.json, so the result cannot drift
    # from the metrics it declares.  A layer the workload never calls
    # reads 0; an end-to-end metric must have been measured.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = result["metrics"]
    metrics = {}
    for metric in declared["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        if not args.trace and name not in values:
            raise RuntimeError(f"end-to-end metric {name!r} was not measured")
        metrics[name] = {"value": float(values.get(name, 0.0)),
                         "unit": metric["unit"]}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
