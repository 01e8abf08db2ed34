"""The multi-process cluster runtime: one OS process per address space.

The thread runtime (:mod:`repro.runtime.cluster`) hosts every address space
in one Python process, so CPU-bound Stampede threads serialize on the GIL.
This module is the third runtime driver: :class:`ProcCluster` spawns each
address space as a **separate OS process** — real protection domains, as in
the paper — wired together by :class:`~repro.transport.sockets
.SocketEndpoint` over real media: within a node, a Unix-domain socket
per pair carrying RPC bodies inline and a shared-memory ring per direction
carrying frames; between nodes, TCP.  The same
:class:`~repro.runtime.address_space.AddressSpace` code runs in every
process; only the transport underneath differs, so STM semantics cannot
diverge between runtimes.

Topology of one ``ProcCluster(n_spaces=k)``:

* the **parent** process hosts space 0, which is also the registry space
  and the GC coordinator (the daemon's scatter/gather RPCs reach children
  over the wire like any other traffic);
* **children** host spaces 1..k-1.  Each child is started with the
  ``spawn`` method — no forked locks, no inherited threads — and runs a
  plain dispatcher loop until a ``ShutdownMsg`` arrives or its transport
  fails.

Bootstrap: the parent creates the shared-memory rings and a
:class:`~repro.runtime.nameservice.NameService`, spawns the children, and
every process (parent included) binds its listeners, registers its TCP
port (0 when no other node dials it: same-node peers dial an address
derived from the session and the space id) and blocks for the directory;
then everyone meshes up.  The rendezvous is a barrier, so no process
serves traffic before all can.  A child that exits before the mesh is up
(say, its re-import of the main module failed) fails the constructor at
once, naming the space and its exit code; a live but slow one has until
``mesh_timeout``.

Supervision: children heartbeat the parent over their control connection.
The parent's supervisor thread watches process liveness and heartbeat ages;
a dead or wedged child **fails the parent endpoint**, which unwinds every
outstanding RPC with :class:`~repro.errors.TransportClosedError` instead of
hanging — and a killed child's connection, which the kernel closes with its
process (end-of-file on a Unix socket, a reset on TCP), usually beats the
heartbeat timeout.  ``shutdown()`` broadcasts ``ShutdownMsg``, joins the
children, escalates to ``terminate``/``kill`` for stragglers, and unlinks
every shared-memory segment: no orphan processes, no leaked segments.  The
Unix sockets live in the abstract namespace and vanish with the processes
that hold them; nothing on disk needs removing.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis import sanitizer
from repro.errors import StampedeError, TransportClosedError, TransportError
from repro.obs import events as _obs_events
from repro.runtime.address_space import AddressSpace
from repro.runtime.cluster import _SpaceHost
from repro.runtime.messages import (
    ClockProbeReq,
    EndpointStatsReq,
    ShutdownMsg,
    TelemetryHarvestReq,
)
from repro.runtime.nameservice import NameService, register
from repro.runtime.sync import factories_installed
from repro.transport.clf import ClusterTopology
from repro.transport.serialization import encode_message_sg, frame_stats
from repro.transport.shm_ring import DEFAULT_RING_BYTES, ShmRing
from repro.transport.sockets import SocketEndpoint, ring_name

if TYPE_CHECKING:
    from repro.obs.collect import ClusterTelemetry

__all__ = ["ProcCluster"]


@dataclass(frozen=True)
class _ChildSpec:
    """Everything a child process needs to join the cluster (picklable)."""

    space: int
    n_spaces: int
    spaces_per_node: int
    registry_space: int
    session: str
    ns_port: int
    heartbeat_interval: float
    #: ring capacity to arm the child's tracer with; None = tracing off.
    obs_capacity: int | None = None
    #: "" (off), "1" (sanitizer), or "race" (sanitizer + race detector).
    san_mode: str = ""


def _space_main(spec: _ChildSpec) -> None:
    """Entry point of a child process: host one address space until told to stop."""
    # Arm instrumentation from the parent's *config*, not the environ: under
    # the spawn start method a child re-imports everything, so programmatic
    # arming in the parent — events.enable(), the trace() context manager,
    # sanitizer.enable() from a test — has no environment variable for the
    # child to inherit and would be silently lost.
    # The spec is authoritative in both directions: a child of a *disarmed*
    # cluster must run dark even if an inherited STMOBS armed it at import.
    if spec.obs_capacity is not None:
        _obs_events.enable(capacity=spec.obs_capacity)
    else:
        _obs_events.disable()
    sanitizer.arm(spec.san_mode)
    topology = ClusterTopology(spec.n_spaces, spec.spaces_per_node)
    endpoint = SocketEndpoint(
        spec.space,
        topology,
        session=spec.session,
        heartbeat_to=spec.registry_space,
        heartbeat_interval=spec.heartbeat_interval,
    )
    space: AddressSpace | None = None
    try:
        directory = register(spec.ns_port, spec.space, endpoint.port)
        endpoint.connect_mesh(directory)
        host = _SpaceHost(spec.n_spaces, spec.registry_space)
        space = AddressSpace(host, spec.space, endpoint)
        space.start()
        dispatcher = space._dispatcher
        # The dispatcher exits on ShutdownMsg from the parent, or when the
        # transport fails (parent gone -> reader thread fails the endpoint).
        # Either way this process then leaves; the parent joins it.
        while dispatcher.is_alive():
            dispatcher.join(timeout=0.5)
    finally:
        if space is not None:
            space.stop()
        endpoint.close()


class ProcCluster(_SpaceHost):
    """A running Stampede cluster of address-space *processes*.

    Drop-in for the thread runtime's :class:`~repro.runtime.cluster.Cluster`
    for programs that drive the cluster from space 0::

        with ProcCluster(n_spaces=4) as cluster:
            stm = STM(cluster.space(0))
            h = stm.space.create_channel("frames", home=2)   # homed remotely
            cluster.spawn(worker_fn, (h,), on_space=2)       # module-level fn
            ...

    Differences from the thread runtime, all consequences of real process
    isolation: only space 0 is addressable in-process (``space(i>0)``
    raises — operate on remote spaces through handles and
    ``spawn(on_space=...)``), and every function or payload that crosses a
    space boundary must pickle cleanly under the ``spawn`` start method.

    Parameters mirror :class:`Cluster` where they can; ``spaces_per_node``
    defaults to *all on one node* (pure shared-memory data plane), and
    ``heartbeat_interval`` / ``heartbeat_timeout`` bound how fast a wedged
    child is detected (a crashed one is detected when its connection
    closes, typically much sooner).
    """

    def __init__(
        self,
        n_spaces: int = 1,
        spaces_per_node: int | None = None,
        gc_period: float | None = 0.05,
        ring_bytes: int = DEFAULT_RING_BYTES,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        mesh_timeout: float = 30.0,
    ):
        if n_spaces < 1:
            raise ValueError(f"n_spaces must be >= 1, got {n_spaces}")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval})"
            )
        if factories_installed():
            raise StampedeError(
                "cannot start ProcCluster while model-checker sync factories "
                "are installed: cooperative locks do not cross processes"
            )
        super().__init__(n_spaces, registry_space=0)
        self.heartbeat_timeout = heartbeat_timeout
        self.session = f"{os.getpid():x}{os.urandom(3).hex()}"
        self.topology = ClusterTopology(
            n_spaces,
            n_spaces if spaces_per_node is None else spaces_per_node,
        )
        self.failure: BaseException | None = None
        #: filled by the shutdown harvest when tracing was armed (also
        #: available any time via :meth:`harvest_telemetry`).
        self.telemetry: ClusterTelemetry | None = None
        self._failed = threading.Event()
        self._failed_lock = threading.Lock()
        self._shut_down = False
        # Rings first: attach (in connect_mesh, everywhere) requires the
        # segment to exist, and creating them before any process runs is the
        # simplest ordering that guarantees it.
        self._rings: list[ShmRing] = []
        self._procs: dict[int, multiprocessing.Process] = {}
        self._ns: NameService | None = None
        self.endpoint: SocketEndpoint | None = None
        #: set by the start-up watch when a child exits before the mesh is up
        self._start_failure: TransportError | None = None
        watch: threading.Thread | None = None
        wake_r, wake_w = os.pipe()
        try:
            for src in range(n_spaces):
                for dst in range(n_spaces):
                    if src != dst and self.topology.medium(src, dst).intra_node:
                        self._rings.append(
                            ShmRing.create(
                                ring_name(self.session, src, dst), ring_bytes
                            )
                        )
            self._ns = NameService(n_spaces)
            ctx = multiprocessing.get_context("spawn")
            rec = _obs_events.recorder
            obs_capacity = rec.capacity if rec is not None else None
            san_mode = sanitizer.mode()
            for space in range(1, n_spaces):
                spec = _ChildSpec(
                    space=space,
                    n_spaces=n_spaces,
                    spaces_per_node=self.topology.spaces_per_node,
                    registry_space=self.registry_space,
                    session=self.session,
                    ns_port=self._ns.port,
                    heartbeat_interval=heartbeat_interval,
                    obs_capacity=obs_capacity,
                    san_mode=san_mode,
                )
                proc = ctx.Process(
                    target=_space_main,
                    args=(spec,),
                    name=f"stm-space-{space}",
                    daemon=True,  # backstop: die with the parent
                )
                proc.start()
                self._procs[space] = proc
            watch = threading.Thread(
                target=self._watch_start, args=(wake_r,),
                name="stm-start-watch", daemon=True,
            )
            watch.start()
            self.endpoint = SocketEndpoint(
                self.registry_space, self.topology, session=self.session
            )
            self.endpoint.on_peer_lost = self._peer_lost
            directory = register(
                self._ns.port, self.registry_space, self.endpoint.port,
                timeout=mesh_timeout,
            )
            self.endpoint.connect_mesh(directory, timeout=mesh_timeout)
        except BaseException as exc:
            self._end_start_watch(watch, wake_r, wake_w)
            self._emergency_teardown()
            if self._start_failure is not None:
                raise self._start_failure from exc
            raise
        self._end_start_watch(watch, wake_r, wake_w)
        if self._start_failure is not None:  # exited as the mesh completed
            self._emergency_teardown()
            raise self._start_failure
        self._space = AddressSpace(self, self.registry_space, self.endpoint)
        self._space.start()
        self._start_gc(gc_period)
        self._supervisor_started = time.monotonic()
        self._supervisor = threading.Thread(
            target=self._supervise, name="stm-supervisor", daemon=True
        )
        self._supervisor.start()

    # ==================================================================
    # cluster-like surface (AddressSpace + GcDaemon contract)
    # ==================================================================
    def space(self, space_id: int) -> AddressSpace:
        if space_id != self.registry_space:
            raise StampedeError(
                f"space {space_id} runs in another process; only space "
                f"{self.registry_space} is addressable here — use channel "
                f"handles and spawn(on_space=...) for remote work"
            )
        return self._space

    # ==================================================================
    # conveniences
    # ==================================================================
    def spawn(self, fn, args=(), kwargs=None, *, on_space: int,
              name: str | None = None, virtual_time=None):
        """Spawn a Stampede thread on any space (``fn`` must pickle)."""
        return self._space.spawn(
            fn, args, kwargs, name=name, virtual_time=virtual_time,
            on_space=on_space,
        )

    def endpoint_stats(self, space_id: int, reset_frames: bool = False) -> dict:
        """Transport counters of any space (children answered over RPC)."""
        if space_id == self.registry_space:
            snap = {
                "clf": self.endpoint.stats.snapshot(),
                "frames": frame_stats.snapshot(),
            }
            if reset_frames:
                frame_stats.reset()
            return snap
        return self._space.call(
            space_id, EndpointStatsReq(reset_frames=reset_frames), timeout=10.0
        )

    def harvest_telemetry(self, disarm: bool = False) -> ClusterTelemetry:
        """Drain every process's recorder rings + metrics into one harvest.

        Each child answers a ``TelemetryHarvestReq`` control RPC; the
        request/response midpoint against the child's reported clock gives
        its offset onto this process's monotonic clock, so
        ``ClusterTelemetry.chrome_trace()`` lands all spans on one
        timeline.  Usable mid-run (a live snapshot) or at shutdown
        (``disarm=True`` also disarms the children's tracers).
        """
        from repro.obs.collect import (
            ClusterTelemetry,
            estimate_clock_offset,
            snapshot_local,
        )

        processes = [snapshot_local(space=self.registry_space)]
        for space in sorted(self._procs):
            offset = self._probe_clock_offset(space)
            t_req = time.perf_counter_ns()
            telemetry = self._space.call(
                space, TelemetryHarvestReq(disarm=disarm), timeout=10.0
            )
            t_resp = time.perf_counter_ns()
            if offset is None:
                # Probe-less fallback: the harvest RPC itself (pickling
                # every ring) bounds the error, so this is coarser.
                offset = estimate_clock_offset(
                    t_req, t_resp, telemetry.clock_ns
                )
            telemetry.clock_offset_ns = offset
            processes.append(telemetry)
        return ClusterTelemetry(processes)

    def _probe_clock_offset(
        self, space: int, n_probes: int = 3
    ) -> int | None:
        """Clock offset of ``space`` from the lowest-RTT of a few probes.

        The midpoint estimate's error is bounded by half the round trip,
        so among several cheap probes the fastest one wins (NTP's trick);
        a loaded dispatcher queue then costs accuracy on the slow probes
        without poisoning the estimate.  None if every probe failed.
        """
        from repro.obs.collect import estimate_clock_offset

        best_rtt: int | None = None
        best_offset: int | None = None
        for _ in range(n_probes):
            t_req = time.perf_counter_ns()
            try:
                remote = self._space.call(space, ClockProbeReq(), timeout=10.0)
            except (StampedeError, TransportError, TransportClosedError):
                break
            t_resp = time.perf_counter_ns()
            rtt = t_resp - t_req
            if best_rtt is None or rtt < best_rtt:
                best_rtt = rtt
                best_offset = estimate_clock_offset(t_req, t_resp, remote)
        return best_offset

    def check_failure(self) -> None:
        """Raise the recorded cluster failure, if any."""
        if self.failure is not None:
            raise self.failure

    def wait_failed(self, timeout: float | None = None) -> bool:
        """Block until a space failure is detected (tests); True if one was."""
        return self._failed.wait(timeout)

    # ==================================================================
    # supervision
    # ==================================================================
    def _watch_start(self, wake: int) -> None:
        """Until start-up ends (``wake`` turns readable), fail it the moment a
        child exits: the rendezvous and the mesh would wait for that child
        until ``mesh_timeout``."""
        from multiprocessing.connection import wait  # a child never needs it

        sentinels = {proc.sentinel: space for space, proc in self._procs.items()}
        ready = wait([wake, *sentinels])
        if wake in ready:
            return
        space = sentinels[ready[0]]
        proc = self._procs[space]
        proc.join(timeout=1.0)  # the sentinel turns readable just before exit
        self._start_failure = TransportError(
            f"address space {space} process exited with code {proc.exitcode} "
            "during start-up"
        )
        # A closed name service fails register(), a failed endpoint fails
        # connect_mesh(): whichever the constructor is in returns now.
        self._ns.close()
        endpoint = self.endpoint
        if endpoint is not None:
            endpoint.fail(self._start_failure)

    @staticmethod
    def _end_start_watch(
        watch: threading.Thread | None, wake_r: int, wake_w: int
    ) -> None:
        os.write(wake_w, b"x")
        if watch is not None:
            watch.join()
        os.close(wake_r)
        os.close(wake_w)

    def _peer_lost(self, space: int, exc: BaseException) -> None:
        self._on_space_failure(space, exc)

    def _on_space_failure(self, space: int, exc: BaseException) -> None:
        if self._shut_down:
            return
        with self._failed_lock:
            if self.failure is not None:
                return  # first failure wins; the rest are fallout
            if not isinstance(exc, TransportClosedError):
                exc = TransportClosedError(
                    f"address space {space} failed: {exc}"
                )
            self.failure = exc
        self._failed.set()
        # Failing the endpoint unwinds every outstanding RPC with a
        # TransportClosedError and stops the dispatcher: no caller hangs on
        # a space that no longer exists.
        self.endpoint.fail(exc)

    def _supervise(self) -> None:
        poll = max(0.05, self.heartbeat_timeout / 4)
        while not self._shut_down and self.failure is None:
            now = time.monotonic()
            for space, proc in self._procs.items():
                if not proc.is_alive():
                    self._on_space_failure(
                        space,
                        TransportClosedError(
                            f"address space {space} process exited with "
                            f"code {proc.exitcode}"
                        ),
                    )
                    return
                age = self.endpoint.heartbeat_age(space)
                if age is None:
                    age = now - self._supervisor_started
                if age > self.heartbeat_timeout:
                    self._on_space_failure(
                        space,
                        TransportClosedError(
                            f"address space {space} missed heartbeats for "
                            f"{age:.2f}s (timeout {self.heartbeat_timeout}s)"
                        ),
                    )
                    return
            time.sleep(poll)

    # ==================================================================
    # teardown
    # ==================================================================
    def shutdown(self) -> None:
        """Stop everything; guarantees no orphan processes or shm segments."""
        if self._shut_down:
            return
        self._shut_down = True
        # Final harvest: children's rings and registries die with their
        # processes, so a traced run's telemetry must be pulled out *before*
        # the ShutdownMsg broadcast.  Best-effort — a cluster that is being
        # torn down because it failed still shuts down cleanly.
        if (
            _obs_events.recorder is not None
            and self.failure is None
            and self.telemetry is None
            and self.endpoint is not None
            and not self.endpoint.closed
        ):
            try:
                self.telemetry = self.harvest_telemetry(disarm=True)
            except (StampedeError, TransportError, TransportClosedError):
                pass
        if self.gc_daemon is not None:
            self.gc_daemon.stop()
        if self.endpoint is not None and not self.endpoint.closed:
            for space in self._procs:
                try:
                    self.endpoint.send(
                        space, encode_message_sg(ShutdownMsg("cluster shutdown"))
                    )
                except (TransportError, TransportClosedError):
                    pass  # already unreachable; escalation below handles it
        deadline = time.monotonic() + 5.0
        for proc in self._procs.values():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=2.0)
        if getattr(self, "_space", None) is not None:
            self._space.stop()  # closes the endpoint, joins the dispatcher
        if self._ns is not None:
            self._ns.close()
        for ring in self._rings:
            ring.close()
            ring.unlink()
        for proc in self._procs.values():
            if not proc.is_alive():
                proc.close()

    def _emergency_teardown(self) -> None:
        """Constructor failed partway: reclaim whatever exists."""
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=2.0)
        if self.endpoint is not None:
            self.endpoint.close()
        if self._ns is not None:
            self._ns.close()
        for ring in self._rings:
            ring.close()
            ring.unlink()

    def __enter__(self) -> "ProcCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ProcCluster n_spaces={self.n_spaces} session={self.session} "
            f"children={sorted(self._procs)}>"
        )
