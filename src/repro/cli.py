"""Command-line interface to the EDEN reproduction.

Run with ``python -m repro.cli <command>`` (or the ``eden-repro`` console
script).  Every command wraps a public library entry point with small default
budgets so a laptop-class CPU finishes in seconds to a couple of minutes; the
benchmark harness under ``benchmarks/`` regenerates the paper's tables and
figures with the full settings, and its ``bench_*.py`` scripts are the
performance benchmarks whose ``BENCH_<name>.json`` snapshots ``perf`` gates.

Commands
--------
list-models        the model zoo and its footprints (paper Table 1)
profile-dram       sweep VDD / tRCD on a simulated module and report BERs (Fig. 5)
fit-error-model    profile a device and fit/select EDEN's error models (Sec. 4)
characterize       coarse-grained max tolerable BER of one model (Table 3)
boost              run the full EDEN pipeline on one model (Sec. 3)
evaluate-cpu       DRAM energy savings / speedup on the CPU platform (Figs. 13-14)
evaluate-accel     DRAM energy savings on Eyeriss / TPU (Sec. 7.2)
memsys             cycle-level memory-controller run at nominal vs reduced tRCD/VDD
serve              HTTP/JSON inference server with admission control (Ctrl-C drains)
route              multi-replica router over shared-plan server processes
loadgen            deterministic traffic scenarios against a serve URL (or self-hosted)
ecc-sweep          raw vs ECC-corrected accuracy over a BER grid, with decode counts
perf               CI gate check over the benchmarks' BENCH_<name>.json snapshots
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.reporting import format_table


# ---------------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------------

def cmd_list_models(args: argparse.Namespace) -> int:
    from repro.analysis.tables import table1_model_zoo

    rows = table1_model_zoo()
    headers = list(rows[0].keys()) if rows else []
    print(format_table(headers, [[row[h] for h in headers] for row in rows],
                       title="Model zoo (paper Table 1 analogues)"))
    return 0


def cmd_profile_dram(args: argparse.Namespace) -> int:
    from repro.dram.device import ApproximateDram
    from repro.dram.profiler import SoftMCProfiler

    device = ApproximateDram(vendor=args.vendor, seed=args.seed)
    profiler = SoftMCProfiler(device, rows_to_profile=args.rows, trials=args.trials,
                              seed=args.seed)
    voltages = [round(device.nominal_vdd - 0.05 * step, 3) for step in range(args.points)]
    trcds = [round(device.nominal_timing.trcd_ns - 1.5 * step, 2)
             for step in range(args.points) if device.nominal_timing.trcd_ns - 1.5 * step > 1.0]
    voltage_rows = [(vdd, profile.overall_ber())
                    for vdd, profile in profiler.sweep_voltage(voltages).items()]
    trcd_rows = [(trcd, profile.overall_ber())
                 for trcd, profile in profiler.sweep_trcd(trcds).items()]
    print(format_table(["VDD (V)", "BER"], voltage_rows,
                       title=f"Vendor {args.vendor}: BER vs supply voltage",
                       float_format="{:.3e}"))
    print()
    print(format_table(["tRCD (ns)", "BER"], trcd_rows,
                       title=f"Vendor {args.vendor}: BER vs tRCD",
                       float_format="{:.3e}"))
    return 0


def cmd_fit_error_model(args: argparse.Namespace) -> int:
    from repro.dram.device import ApproximateDram, DramOperatingPoint
    from repro.dram.fitting import fit_error_models, select_error_model
    from repro.dram.profiler import SoftMCProfiler

    device = ApproximateDram(vendor=args.vendor, seed=args.seed)
    op_point = DramOperatingPoint.from_reductions(
        delta_vdd=args.delta_vdd, delta_trcd_ns=args.delta_trcd,
        nominal_vdd=device.nominal_vdd, nominal_timing=device.nominal_timing)
    profile = SoftMCProfiler(device, rows_to_profile=args.rows, trials=args.trials,
                             seed=args.seed).profile(op_point)
    fitted = fit_error_models(profile, seed=args.seed)
    selected = select_error_model(profile, seed=args.seed)
    rows = [(f.model_id, type(f.model).__name__, f.log_likelihood) for f in fitted]
    print(format_table(["Error model", "Class", "Log-likelihood"], rows,
                       title=f"Vendor {args.vendor} at {op_point.describe()}",
                       float_format="{:.1f}"))
    print(f"\nSelected: Error Model {selected.model_id} "
          f"({type(selected.model).__name__}), observed BER {profile.overall_ber():.2e}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.tables import table3_coarse_characterization

    rows = table3_coarse_characterization(models=[args.model], epochs=args.epochs,
                                          processes=args.processes)
    headers = list(rows[0].keys()) if rows else []
    print(format_table(headers, [[row[h] for h in headers] for row in rows],
                       title="Coarse-grained characterization (paper Table 3)"))
    return 0


def cmd_boost(args: argparse.Namespace) -> int:
    from repro.core.config import AccuracyTarget, EdenConfig
    from repro.core.pipeline import Eden
    from repro.dram.device import ApproximateDram, DramOperatingPoint
    from repro.nn.models import build_model_with_dataset
    from repro.nn.training import Trainer

    network, dataset, spec = build_model_with_dataset(args.model, seed=args.seed)
    Trainer(network, dataset, spec.training_config(epochs=args.epochs)).fit()
    device = ApproximateDram(vendor=args.vendor, seed=args.seed)
    op_point = DramOperatingPoint.from_reductions(
        delta_vdd=args.delta_vdd, delta_trcd_ns=args.delta_trcd,
        nominal_vdd=device.nominal_vdd, nominal_timing=device.nominal_timing)
    target = (AccuracyTarget.no_degradation() if args.no_degradation
              else AccuracyTarget.within_one_percent())
    eden = Eden(accuracy_target=target,
                config=EdenConfig(retrain_epochs=args.epochs, seed=args.seed))
    result = eden.run(network, dataset, device, op_point=op_point)
    print(result.summary())
    return 0


def cmd_evaluate_cpu(args: argparse.Namespace) -> int:
    from repro.analysis.figures import fig13_fig14_cpu

    results = fig13_fig14_cpu(precisions=tuple(args.precisions))
    rows = []
    for model, per_precision in results.items():
        for bits, metrics in per_precision.items():
            rows.append((model, f"int{bits}" if bits != 32 else "FP32",
                         f"{metrics['energy_reduction'] * 100:.1f}%",
                         f"{metrics['speedup']:.3f}",
                         f"{metrics['ideal_trcd_speedup']:.3f}"))
    print(format_table(
        ["Model", "Precision", "DRAM energy reduction", "Speedup", "Ideal (tRCD=0)"],
        rows, title="CPU platform (paper Figures 13-14)"))
    return 0


def cmd_evaluate_accel(args: argparse.Namespace) -> int:
    from repro.analysis.figures import sec72_accelerators

    results = sec72_accelerators()
    rows = []
    for accelerator, per_memory in results.items():
        for memory_type, per_model in per_memory.items():
            for model, metrics in per_model.items():
                rows.append((accelerator, memory_type, model,
                             f"{metrics['energy_reduction'] * 100:.1f}%",
                             f"{metrics['speedup']:.3f}"))
    print(format_table(
        ["Accelerator", "Memory", "Model", "DRAM energy reduction", "Speedup"],
        rows, title="Accelerator platforms (paper Section 7.2)"))
    return 0


def cmd_memsys(args: argparse.Namespace) -> int:
    from repro.arch.traffic import workload_for
    from repro.memsys import (
        CacheHierarchy, CommandEnergyModel, ControllerConfig, MemoryRequest,
        run_trace, trace_from_workload,
    )

    workload = workload_for(args.model, bits=args.bits)
    accesses = trace_from_workload(workload, max_accesses=args.max_accesses, seed=args.seed)
    hierarchy = CacheHierarchy(cycles_per_access=4.0)
    filtered = hierarchy.filter_trace(accesses)

    config = ControllerConfig()
    nominal = run_trace([MemoryRequest(r.address, r.type, r.arrival_cycle)
                         for r in filtered.dram_requests], config)
    reduced_config = config.with_timing(config.timing.with_reduced_trcd(args.delta_trcd))
    reduced = run_trace([MemoryRequest(r.address, r.type, r.arrival_cycle)
                         for r in filtered.dram_requests], reduced_config)

    energy = CommandEnergyModel("DDR4-2133")
    nominal_energy = energy.energy_of_run(nominal).total_nj
    reduced_energy = energy.energy_of_run(reduced, vdd=1.35 - args.delta_vdd).total_nj
    rows = [
        ("requests", nominal.stats.requests, reduced.stats.requests),
        ("row-buffer hit rate", f"{nominal.stats.row_hit_rate:.3f}",
         f"{reduced.stats.row_hit_rate:.3f}"),
        ("avg read latency (cycles)", f"{nominal.stats.average_read_latency:.1f}",
         f"{reduced.stats.average_read_latency:.1f}"),
        ("total cycles", nominal.total_cycles, reduced.total_cycles),
        ("DRAM energy (uJ)", f"{nominal_energy / 1e3:.2f}", f"{reduced_energy / 1e3:.2f}"),
    ]
    print(format_table(["metric", "nominal", "reduced"], rows,
                       title=(f"{workload.name} ({args.bits}-bit): cycle-level memory system, "
                              f"dVDD={args.delta_vdd}V dtRCD={args.delta_trcd}ns")))
    return 0


def cmd_ecc_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.runner import ExperimentRunner
    from repro.dram.error_models import make_error_model
    from repro.engine.session import ReadSemantics
    from repro.nn.models import build_model_with_dataset
    from repro.nn.training import Trainer

    network, dataset, spec = build_model_with_dataset(args.model, seed=args.seed)
    Trainer(network, dataset, spec.training_config(epochs=args.epochs)).fit()
    bers = sorted(args.bers)
    error_model = make_error_model(args.error_model, bers[0], seed=args.seed)
    with ExperimentRunner(network, dataset, metric=spec.metric, seed=args.seed,
                          semantics=ReadSemantics.STATIC_STORE) as runner:
        sweep = runner.ecc_sweep(error_model, bers, bits=args.bits,
                                 correction=args.correction)
    rows = [(f"{ber:.1e}", f"{point['raw']:.3f}", f"{point['corrected']:.3f}",
             int(point["corrected_codewords"]),
             int(point["uncorrectable_codewords"]))
            for ber, point in sweep.items()]
    print(format_table(
        ["BER", "raw", "corrected", "corrected cw", "uncorrectable cw"],
        rows,
        title=(f"{args.model}: Error Model {args.error_model} on weight and "
               f"IFM loads, {args.correction} correction in the loop")))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.bench import build_serving_gateway
    from repro.serve.server import InferenceServer, ServerConfig

    gateway, _session, _dataset = build_serving_gateway(
        args.model, ber=args.ber, seed=args.seed, epochs=args.epochs,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        dtype=args.dtype)
    server = InferenceServer(gateway, ServerConfig(
        host=args.host, port=args.port, max_queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms))

    async def main() -> None:
        await server.start()
        print(f"serving {args.model!r} on {server.base_url} "
              f"(queue depth {args.queue_depth}, Ctrl-C drains)")
        print(f"  curl {server.base_url}/healthz")
        print(f"  curl {server.base_url}/metrics")
        print(f"  curl -X POST {server.base_url}/v1/models/{args.model}:predict"
              f" -d '{{\"sample\": ...}}'")
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\ndrained and stopped")
    finally:
        gateway.close()
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.bench import build_serving_gateway
    from repro.serve.gateway import ServeConfig
    from repro.serve.replica import ReplicaManager
    from repro.serve.router import RouterConfig, RouterServer
    from repro.serve.server import ServerConfig

    gateway, session, _dataset = build_serving_gateway(
        args.model, ber=args.ber, seed=args.seed, epochs=args.epochs,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        dtype=args.dtype)
    manager = ReplicaManager(
        {args.model: session},
        serve_config=ServeConfig(max_batch=args.max_batch,
                                 max_wait_ms=args.max_wait_ms),
        server_config=ServerConfig(max_queue_depth=args.queue_depth,
                                   default_deadline_ms=args.deadline_ms))
    try:
        replicas = manager.spawn_many(args.replicas)
    except RuntimeError as error:
        print(f"failed to spawn replicas: {error}", file=sys.stderr)
        manager.close()
        gateway.close()
        return 1
    router = RouterServer(list(replicas) + list(args.replica_url or []),
                          manager,
                          RouterConfig(host=args.host, port=args.port))

    async def main() -> None:
        await router.start()
        print(f"routing {args.model!r} on {router.base_url} across "
              f"{len(replicas)} local replica(s)"
              + (f" + {len(args.replica_url)} remote"
                 if args.replica_url else "")
              + " (Ctrl-C drains)")
        for replica in replicas:
            print(f"  {replica.name}: {replica.url}")
        print(f"  curl {router.base_url}/healthz")
        print(f"  curl {router.base_url}/metrics")
        print(f"  curl -X POST {router.base_url}/v1/models/{args.model}:predict"
              f" -d '{{\"sample\": ...}}'")
        try:
            await asyncio.Event().wait()
        finally:
            await router.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\ndrained and stopped")
    finally:
        manager.close()
        gateway.close()
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serve import loadgen
    from repro.serve.bench import build_serving_gateway, request_set

    handle = None
    gateway = session = None
    if args.url:
        base_url, endpoint = args.url, (args.endpoint or args.model)
    else:
        from repro.serve.server import ServerConfig, serve_in_thread

        gateway, session, dataset = build_serving_gateway(
            args.model, ber=args.ber, seed=args.seed,
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms)
        handle = serve_in_thread(gateway, ServerConfig(
            max_queue_depth=args.queue_depth))
        base_url, endpoint = handle.base_url, args.model

    target = loadgen.HttpTarget(base_url)
    try:
        if handle is not None:
            samples = request_set(dataset, args.requests)
        else:
            # Remote server: seeded random inputs at the advertised shape.
            advertised = target.models().get("models", {})
            if endpoint not in advertised:
                print(f"no endpoint {endpoint!r} on {base_url}; server "
                      f"offers: {sorted(advertised)}", file=sys.stderr)
                return 1
            shape = advertised[endpoint]["input_shape"]
            samples = np.random.default_rng(args.seed).standard_normal(
                (args.requests, *shape)).astype(np.float32)
        if args.scenario == "steady":
            result = loadgen.run_steady(target, endpoint, samples,
                                        concurrency=args.concurrency,
                                        deadline_ms=args.deadline_ms)
        elif args.scenario == "burst":
            result = loadgen.run_burst(target, endpoint, samples,
                                       deadline_ms=args.deadline_ms)
        elif args.scenario == "ramp":
            result = loadgen.run_ramp(target, endpoint, samples,
                                      start_rps=args.rate / 4,
                                      end_rps=args.rate, seed=args.seed,
                                      deadline_ms=args.deadline_ms)
        else:
            result = loadgen.run_open_loop(target, endpoint, samples,
                                           rate_rps=args.rate,
                                           seed=args.seed,
                                           deadline_ms=args.deadline_ms)
        record = result.to_record()
        print(format_table(
            ["metric", "value"],
            [("scenario", record["scenario"]),
             ("requests", record["sent"]),
             ("ok", record["ok"]), ("shed", record["shed"]),
             ("expired", record["expired"]), ("errors", record["errors"]),
             ("achieved req/s", f"{record['achieved_rps']:.0f}"),
             ("p50 ms", f"{record['latency_ms']['p50']:.2f}"),
             ("p99 ms", f"{record['latency_ms']['p99']:.2f}")],
            title=f"loadgen {args.scenario} against {base_url}"))
        bit_identical = None
        if session is not None and record["ok"] == record["sent"]:
            reference = session.predict(samples, pad_to=args.max_batch)
            bit_identical = (result.stacked_rows().tobytes()
                             == reference.tobytes())
            print(f"\nbit-identical to in-process predict: {bit_identical}")
        if handle is not None:
            print()
            print(gateway.report())
        return 0 if record["errors"] == 0 and bit_identical in (None, True) \
            else 1
    finally:
        target.close()
        if handle is not None:
            handle.stop()
        if gateway is not None:
            gateway.close()


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.analysis import perfhistory

    results, code = perfhistory.check_benchmarks(args.benchmark)
    for name, gate_results in results.items():
        print(perfhistory.format_gate_results(name, gate_results))
        print()
    if not results:
        print("no BENCH_<name>.json snapshots found in the working directory")
    print(f"perf check: {'FAIL' if code else 'OK'}")
    return code


# ---------------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------------

def _add_common_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="lenet", help="model zoo entry to use")
    parser.add_argument("--epochs", type=int, default=3, help="training epochs")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _add_device_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vendor", default="A", choices=("A", "B", "C"),
                        help="simulated DRAM vendor profile")
    parser.add_argument("--delta-vdd", type=float, default=0.25,
                        help="supply-voltage reduction in volts")
    parser.add_argument("--delta-trcd", type=float, default=5.5,
                        help="tRCD reduction in nanoseconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eden-repro",
        description="Reproduction of EDEN (MICRO 2019): DNN inference on approximate DRAM.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-models", help="print the model zoo (Table 1)"
                          ).set_defaults(handler=cmd_list_models)

    profile = subparsers.add_parser("profile-dram",
                                    help="BER vs VDD/tRCD sweeps on a simulated module")
    profile.add_argument("--vendor", default="A", choices=("A", "B", "C"))
    profile.add_argument("--rows", type=int, default=2)
    profile.add_argument("--trials", type=int, default=4)
    profile.add_argument("--points", type=int, default=6)
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(handler=cmd_profile_dram)

    fit = subparsers.add_parser("fit-error-model",
                                help="fit and select EDEN's error models for a device")
    _add_device_arguments(fit)
    fit.add_argument("--rows", type=int, default=2)
    fit.add_argument("--trials", type=int, default=4)
    fit.add_argument("--seed", type=int, default=0)
    fit.set_defaults(handler=cmd_fit_error_model)

    characterize = subparsers.add_parser(
        "characterize", help="coarse-grained DNN characterization (Table 3)")
    _add_common_model_arguments(characterize)
    characterize.add_argument("--processes", type=int, default=0,
                              help="worker processes for the BER grid "
                                   "(bit-identical to serial)")
    characterize.set_defaults(handler=cmd_characterize)

    boost = subparsers.add_parser("boost", help="run the full EDEN pipeline on one model")
    _add_common_model_arguments(boost)
    _add_device_arguments(boost)
    boost.add_argument("--no-degradation", action="store_true",
                       help="target the original accuracy instead of within-1%%")
    boost.set_defaults(handler=cmd_boost)

    cpu = subparsers.add_parser("evaluate-cpu", help="CPU energy/speedup (Figures 13-14)")
    cpu.add_argument("--precisions", nargs="+", type=int, default=[32, 8],
                     choices=[4, 8, 16, 32])
    cpu.set_defaults(handler=cmd_evaluate_cpu)

    accel = subparsers.add_parser("evaluate-accel",
                                  help="Eyeriss/TPU energy reductions (Section 7.2)")
    accel.set_defaults(handler=cmd_evaluate_accel)

    memsys = subparsers.add_parser(
        "memsys", help="cycle-level memory controller run at nominal vs reduced parameters")
    memsys.add_argument("--model", default="yolo-tiny")
    memsys.add_argument("--bits", type=int, default=32, choices=[4, 8, 16, 32])
    memsys.add_argument("--max-accesses", type=int, default=4000)
    memsys.add_argument("--delta-vdd", type=float, default=0.30)
    memsys.add_argument("--delta-trcd", type=float, default=5.5)
    memsys.add_argument("--seed", type=int, default=0)
    memsys.set_defaults(handler=cmd_memsys)

    ecc = subparsers.add_parser(
        "ecc-sweep",
        help="raw vs ECC-corrected accuracy over a BER grid (decode counts)")
    _add_common_model_arguments(ecc)
    ecc.add_argument("--bers", nargs="+", type=float,
                     default=[1e-4, 1e-3, 1e-2],
                     help="weight-store bit error rates to sweep")
    ecc.add_argument("--error-model", type=int, default=4,
                     choices=[0, 1, 2, 3, 4],
                     help="EDEN error model id (4 = burst mixture)")
    ecc.add_argument("--bits", type=int, default=32, choices=[4, 8, 16, 32],
                     help="stored precision in bits")
    ecc.add_argument("--correction", default="rs72_64",
                     help="registered ECC codec name")
    ecc.set_defaults(handler=cmd_ecc_sweep)

    serve = subparsers.add_parser(
        "serve",
        help="HTTP/JSON inference server with admission control (Ctrl-C drains)")
    serve.add_argument("--model", default="lenet", help="model zoo entry to serve")
    serve.add_argument("--ber", type=float, default=1e-3,
                       help="weight-store bit error rate")
    serve.add_argument("--epochs", type=int, default=0,
                       help="training epochs before serving (0 = untrained)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listening port (0 = ephemeral)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batcher coalescing bound")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batcher straggler wait")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission control: max in-flight requests before 429")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline (504 past it)")
    serve.add_argument("--dtype", default="fp32",
                       choices=("fp32", "int8", "int4"),
                       help="stored precision: integer dtypes serve through "
                            "the fused integer-GEMM plan")
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(handler=cmd_serve)

    route = subparsers.add_parser(
        "route",
        help="multi-replica router: N server processes sharing one plan "
             "export behind a balancing front end (Ctrl-C drains)")
    route.add_argument("--model", default="lenet",
                       help="model zoo entry to serve")
    route.add_argument("--replicas", type=int, default=2,
                       help="local replica processes to spawn")
    route.add_argument("--replica-url", action="append", default=None,
                       help="additional remote replica base URL (repeatable)")
    route.add_argument("--ber", type=float, default=1e-3,
                       help="weight-store bit error rate")
    route.add_argument("--epochs", type=int, default=0,
                       help="training epochs before serving (0 = untrained)")
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=8080,
                       help="router listening port (0 = ephemeral)")
    route.add_argument("--max-batch", type=int, default=32,
                       help="per-replica micro-batcher coalescing bound")
    route.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="per-replica micro-batcher straggler wait")
    route.add_argument("--queue-depth", type=int, default=64,
                       help="per-replica admission bound (the router spills "
                            "around full queues)")
    route.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline (504 past it)")
    route.add_argument("--dtype", default="fp32",
                       choices=("fp32", "int8", "int4"),
                       help="stored precision: integer dtypes serve through "
                            "the fused integer-GEMM plan")
    route.add_argument("--seed", type=int, default=0)
    route.set_defaults(handler=cmd_route)

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="deterministic traffic scenarios against a serve URL (or self-hosted)")
    loadgen_parser.add_argument("--scenario", default="steady",
                                choices=("steady", "burst", "open-loop", "ramp"),
                                help="traffic pattern to generate")
    loadgen_parser.add_argument("--url", default=None,
                                help="server base URL; omitted = stand one up in-process")
    loadgen_parser.add_argument("--endpoint", default=None,
                                help="endpoint name on a --url server (default: --model)")
    loadgen_parser.add_argument("--model", default="lenet",
                                help="model zoo entry for the self-hosted server")
    loadgen_parser.add_argument("--ber", type=float, default=1e-3,
                                help="weight-store bit error rate (self-hosted)")
    loadgen_parser.add_argument("--requests", type=int, default=96,
                                help="number of requests to generate")
    loadgen_parser.add_argument("--concurrency", type=int, default=4,
                                help="closed-loop worker count (steady)")
    loadgen_parser.add_argument("--rate", type=float, default=200.0,
                                help="arrival rate for open-loop/ramp (req/s)")
    loadgen_parser.add_argument("--queue-depth", type=int, default=64,
                                help="admission bound of the self-hosted server")
    loadgen_parser.add_argument("--max-batch", type=int, default=8,
                                help="self-hosted micro-batcher bound")
    loadgen_parser.add_argument("--max-wait-ms", type=float, default=2.0,
                                help="self-hosted straggler wait")
    loadgen_parser.add_argument("--deadline-ms", type=float, default=None,
                                help="per-request deadline")
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.set_defaults(handler=cmd_loadgen)

    perf = subparsers.add_parser(
        "perf", help="CI gate check over the benchmark snapshots")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_check = perf_sub.add_parser(
        "check", help="evaluate every regression gate on the BENCH_<name>.json "
                      "snapshots in the working directory (the CI gate step; "
                      "exits non-zero on failure)")
    perf_check.add_argument("--benchmark", nargs="+", default=None,
                            help="restrict to these benchmarks (default: all "
                                 "with a snapshot)")
    perf_check.set_defaults(handler=cmd_perf)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":      # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
