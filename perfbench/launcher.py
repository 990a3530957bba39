"""Child process of the benchmark: a set-up probe or the ``serve_http`` server.

    python3 perfbench/launcher.py setup <ecc_sweep|weight_sweep>
    python3 perfbench/launcher.py serve [--trace]

``setup`` builds a sweep workload exactly as the timed run does, reports
``ready`` and exits; the parent times it from spawn to ``ready``.

``serve`` runs ``repro.cli serve`` with :data:`serving.SERVE_ARGV` and
reports ``ready`` with the port once the server listens.  It stops on
SIGINT, as the CLI does, and also when its stdin reaches end of file, so it
ends even if the parent is killed without a chance to signal it.  On the way
out it reports its peak RSS and, with ``--trace``, every span recorded by the
wrappers of :mod:`tracing`, which are installed before the CLI runs.

Events are single stdout lines of the form ``perfbench {json}``; everything
else on stdout is the CLI's own output.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import threading
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PREFIX = "perfbench "
EXIT_GRACE_S = 30.0


def emit(event: str, **fields) -> None:
    """Write one protocol event line to stdout."""
    print(PREFIX + json.dumps({"event": event, **fields}), flush=True)


def _watch_stdin() -> None:
    """Interrupt the main thread when stdin reaches end of file.

    A shutdown that has not finished :data:`EXIT_GRACE_S` after the
    interrupt ends the process outright.
    """
    sys.stdin.read()
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(EXIT_GRACE_S)
    os._exit(1)


def serve(trace: bool) -> int:
    """Run ``repro.cli serve`` until interrupted; return its exit status."""
    from repro import cli
    from repro.serve.server import InferenceServer
    from serving import SERVE_ARGV
    from tracing import Tracer

    tracer = Tracer().install() if trace else None
    start = InferenceServer.start

    async def announce(server) -> None:
        await start(server)
        emit("ready", port=server.port)

    InferenceServer.start = announce
    threading.Thread(target=_watch_stdin, name="stdin-watch",
                     daemon=True).start()
    try:
        status = cli.main(SERVE_ARGV)
    finally:
        InferenceServer.start = start
        emit("exit", maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             spans=tracer.spans if tracer else [])
    return status


def main(argv) -> int:
    # A parent started from a background job may hand down SIGINT ignored;
    # stopping relies on it, as it does for the CLI in a terminal.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    if argv[:1] == ["setup"] and len(argv) == 2:
        from workloads import SweepWorkload

        SweepWorkload(argv[1]).close()
        emit("ready")
        return 0
    if argv[:1] == ["serve"] and argv[1:] in ([], ["--trace"]):
        return serve(trace=argv[1:] == ["--trace"])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
