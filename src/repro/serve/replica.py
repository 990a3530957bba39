"""Local serving replicas: server processes adopting one shared plan export.

The router tier (:mod:`repro.serve.router`) scales one stored model across
N :class:`~repro.serve.server.InferenceServer` processes.  Spinning a
replica up must *not* recompile or re-materialize the corrupted weight
store — EDEN's premise is one DNN written into approximate DRAM once, read
by many consumers — so replicas are forked processes that attach the owning
session's shared-memory plan export
(:func:`repro.parallel.plan.export_session_plan`) and serve it through
:func:`repro.parallel.session_from_plan`.  All replicas of one endpoint
therefore execute the *same* bits: combined with the gateway's static batch
shapes, a request's response is bit-identical no matter which replica the
router picked.

:class:`ReplicaManager` owns the exported plans (retaining adopted
exports, so respawning outlives the original exporter — see
:class:`repro.parallel.plan.ExportedPlan`), spawns
:class:`LocalReplica` processes over the ``fork`` context, collects each
replica's ephemeral port through a pipe, and stops them gracefully
(``SIGTERM`` → the child drains in-flight requests, then exits).  The
router uses :meth:`ReplicaManager.spawn` again to replace a replica its
health checks evicted.
"""

from __future__ import annotations

import signal
import threading
from typing import Dict, List, Optional, Union

from repro.engine.session import InferenceSession
from repro.parallel.dispatch import session_from_plan
from repro.parallel.plan import ExportedPlan, PlanHandle, export_session_plan
from repro.parallel.shm import fork_context
from repro.serve.gateway import ServeConfig, ServingGateway
from repro.serve.server import ServerConfig, serve_in_thread


def _replica_main(handles: Dict[str, PlanHandle], batch_size: int,
                  serve_config: ServeConfig, server_config: ServerConfig,
                  conn) -> None:
    """Child-process entry point: serve the exported plans until told to stop.

    ``handles`` maps endpoint names to the plan exports to attach
    (zero-copy; the parent keeps the segments alive), ``batch_size`` sets
    each rebuilt session's chunking default, ``serve_config`` /
    ``server_config`` configure the gateway and HTTP front end, and
    ``conn`` is the pipe the bound port is reported through.  Runs until
    ``SIGTERM`` arrives or the parent closes the pipe, then drains the
    server (in-flight requests are answered) and exits.  Returns nothing.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # A terminal Ctrl-C signals the whole process group; shutdown is the
    # parent's call (SIGTERM or pipe EOF), so the child must not die — or
    # spray KeyboardInterrupt tracebacks — on a foreground interrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gateway = ServingGateway(serve_config)
    try:
        for name, handle in sorted(handles.items()):
            gateway.register(name,
                             session=session_from_plan(handle, batch_size))
        running = serve_in_thread(gateway, server_config)
    except Exception as error:
        conn.send(("error", repr(error)))
        return
    conn.send(("port", running.port))
    try:
        while not stop.is_set():
            # The pipe doubles as a parent-death watchdog: EOF means the
            # manager is gone and the replica must not outlive it.
            if conn.poll(0.1):
                try:
                    conn.recv()
                except EOFError:
                    pass
                break
    finally:
        running.stop()
        gateway.close()


class LocalReplica:
    """One spawned replica process and its address.

    ``name`` labels the replica (stable across respawns of the same slot),
    ``process`` is the forked server process, ``conn`` the parent end of
    its pipe and ``port`` the HTTP port the child reported after binding.
    Produced by :meth:`ReplicaManager.spawn`.
    """

    __slots__ = ("name", "process", "conn", "port")

    def __init__(self, name: str, process, conn, port: int):
        self.name = name
        self.process = process
        self.conn = conn
        self.port = int(port)

    @property
    def url(self) -> str:
        """The replica's base URL on the loopback interface."""
        return f"http://127.0.0.1:{self.port}"

    def alive(self) -> bool:
        """Return ``True`` while the replica process is still running."""
        return self.process.is_alive()

    def kill(self) -> None:
        """Kill the replica process immediately (``SIGKILL``, no drain).

        The failure-injection hook for tests and benchmarks: the process
        dies mid-request, exactly like a crashed box, and the router's
        health loop must notice.
        """
        self.process.kill()
        self.process.join(timeout=10.0)

    def stop(self, timeout: float = 15.0) -> None:
        """Stop the replica gracefully, waiting up to ``timeout`` seconds.

        Sends ``SIGTERM`` so the child drains in-flight requests before
        exiting; escalates to ``SIGKILL`` if it outlives ``timeout``.
        """
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
            if self.process.is_alive():       # pragma: no cover - stuck child
                self.process.kill()
                self.process.join(timeout=5.0)
        self.conn.close()


class ReplicaManager:
    """Spawns and replaces local replica processes over shared plan exports.

    Parameters
    ----------
    endpoints:
        Maps endpoint name to what each replica serves: an
        :class:`~repro.engine.session.InferenceSession` (exported here; the
        manager owns the export) or an already-exported
        :class:`~repro.parallel.plan.ExportedPlan` (retained, so the
        segments survive the original owner's close while replicas may
        still respawn from them).
    batch_size:
        Chunking default of each replica's rebuilt sessions.
    serve_config:
        Gateway config every replica runs; defaults apply when omitted.
        For FP32 endpoints ``max_batch`` must match the reference
        session's ``pad_to`` for the bit-identity guarantee (integer plans
        are exact at any batch shape).  ``ifm_errors=True`` ships each
        exported session's injector so replicas inject IFMs like
        ``predict(..., ifm_errors=True)``.
    server_config:
        HTTP config every replica runs; the port is forced ephemeral so
        replicas never collide.  Defaults apply when omitted.
    """

    def __init__(self, endpoints: Dict[str, Union[InferenceSession,
                                                  ExportedPlan]], *,
                 batch_size: int = 64,
                 serve_config: Optional[ServeConfig] = None,
                 server_config: Optional[ServerConfig] = None):
        if not endpoints:
            raise ValueError("ReplicaManager needs at least one endpoint")
        self.batch_size = int(batch_size)
        self.serve_config = serve_config or ServeConfig()
        base = server_config or ServerConfig()
        self.server_config = ServerConfig(
            host="127.0.0.1", port=0,
            max_queue_depth=base.max_queue_depth,
            default_deadline_ms=base.default_deadline_ms,
            drain_timeout_s=base.drain_timeout_s,
            max_body_bytes=base.max_body_bytes)
        self._plans: Dict[str, ExportedPlan] = {}
        for name, source in endpoints.items():
            if isinstance(source, ExportedPlan):
                self._plans[name] = source.retain()
            else:
                self._plans[name] = export_session_plan(
                    source, include_injector=self.serve_config.ifm_errors)
        self._replicas: List[LocalReplica] = []
        self._spawned = 0
        self._closed = False

    @property
    def replicas(self) -> List[LocalReplica]:
        """The live replicas this manager has spawned (stopped ones pruned)."""
        self._replicas = [r for r in self._replicas if r.alive()]
        return list(self._replicas)

    def spawn(self, timeout: float = 60.0) -> LocalReplica:
        """Fork one replica process and wait for it to bind.

        ``timeout`` bounds the wait for the child's port report.  The child
        attaches every exported plan, registers the endpoints on a private
        gateway and serves them on an ephemeral port.  Returns the
        :class:`LocalReplica` once its HTTP socket is accepting.
        """
        if self._closed:
            raise RuntimeError("ReplicaManager is closed")
        context = fork_context()
        parent_conn, child_conn = context.Pipe()
        name = f"replica-{self._spawned}"
        self._spawned += 1
        handles = {label: plan.handle for label, plan in self._plans.items()}
        process = context.Process(
            target=_replica_main,
            args=(handles, self.batch_size, self.serve_config,
                  self.server_config, child_conn),
            name=f"repro-{name}", daemon=True)
        process.start()
        child_conn.close()
        if not parent_conn.poll(timeout):
            process.kill()
            raise RuntimeError(f"{name} did not report a port in {timeout} s")
        kind, value = parent_conn.recv()
        if kind != "port":
            process.join(timeout=5.0)
            raise RuntimeError(f"{name} failed to start: {value}")
        replica = LocalReplica(name, process, parent_conn, value)
        self._replicas.append(replica)
        return replica

    def spawn_many(self, count: int) -> List[LocalReplica]:
        """Spawn ``count`` replicas; returns them once all are serving."""
        return [self.spawn() for _ in range(int(count))]

    def stop_replica(self, replica: LocalReplica,
                     timeout: float = 15.0) -> None:
        """Gracefully stop ``replica`` (drain, then exit) within ``timeout``."""
        replica.stop(timeout=timeout)
        self._replicas = [r for r in self._replicas if r is not replica]

    def close(self) -> None:
        """Stop every replica and release the plan exports."""
        if self._closed:
            return
        self._closed = True
        for replica in list(self._replicas):
            replica.stop()
        self._replicas = []
        for plan in self._plans.values():
            plan.release()
        self._plans = {}

    def __enter__(self) -> "ReplicaManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
