"""The Stampede cluster: address spaces wired together over CLF.

A :class:`Cluster` owns the CLF interconnect, the address spaces, the name
registry placement, and the GC daemon.  The paper's deployment — several
AlphaServer SMPs on Memory Channel, one Stampede address space each — maps
to ``Cluster(n_spaces=k, spaces_per_node=1, inter_node=MEMORY_CHANNEL)``.

Typical usage (also see ``examples/``)::

    with Cluster(n_spaces=2) as cluster:
        stm = STM(cluster.space(0))          # facade from repro.stm
        ...

The cluster can also be used single-space (``n_spaces=1``): every operation
then takes the shared-memory fast path, which is the paper's "STM is useful
even on an SMP" configuration.
"""

from __future__ import annotations

import threading

from repro.runtime.address_space import AddressSpace, ChannelHandle
from repro.runtime.gc_daemon import GcDaemon
from repro.transport.clf import ClfNetwork, ClusterTopology
from repro.transport.media import CLF_MTU, MEMORY_CHANNEL, Medium

__all__ = ["Cluster"]


class _SpaceHost:
    """What an address space asks of its cluster: ``n_spaces``,
    ``registry_space`` and the named-handle cache, all a process cluster's
    child hosts its space with.  The clusters add the GC (:meth:`_start_gc`).
    """

    def __init__(self, n_spaces: int, registry_space: int):
        self.n_spaces = n_spaces
        self.registry_space = registry_space
        self._named_handles: dict[str, ChannelHandle] = {}
        self._named_lock = threading.Lock()

    def _note_named_handle(self, handle: ChannelHandle) -> None:
        if handle.name is None:
            return
        with self._named_lock:
            self._named_handles[handle.name] = handle

    def _named_handle(self, name: str) -> ChannelHandle | None:
        with self._named_lock:
            return self._named_handles.get(name)

    def _start_gc(self, gc_period: float | None) -> None:
        """Start the periodic GC daemon, unless ``gc_period`` is None.
        :meth:`gc_once` runs its rounds on it, or on one daemon kept for
        them: a daemon's rounds take turns, a fresh daemon's would not."""
        self.gc_daemon: GcDaemon | None = None
        if gc_period is not None:
            self.gc_daemon = GcDaemon(self, period=gc_period)
            self.gc_daemon.start()
        self._gc_rounds = self.gc_daemon or GcDaemon(self, period=1.0)

    def gc_once(self):
        """Run one synchronous GC round (mainly for tests and examples)."""
        return self._gc_rounds.run_once()


class Cluster(_SpaceHost):
    """A running Stampede cluster of address spaces.

    Parameters
    ----------
    n_spaces:
        Number of address spaces.
    spaces_per_node:
        Address spaces per (simulated) SMP node; spaces on one node talk
        over shared memory.
    inter_node:
        Medium between nodes (Memory Channel by default, as in the paper).
    gc_period:
        Interval of the distributed GC daemon in seconds; ``None`` disables
        the daemon (tests then drive :meth:`gc_once` explicitly).
    registry_space:
        Which space hosts the channel name registry (default 0).
    dispatchers:
        Start the per-space dispatcher threads (default True).  A
        single-space cluster serves every operation inline on the calling
        thread, so the model checker runs with ``dispatchers=False`` to
        keep the thread set fully under its control.  An asyncio cluster's
        spaces start no thread either way: they serve on the loop.
    """

    #: address-space class this cluster instantiates — the seam the asyncio
    #: runtime (:mod:`repro.runtime.aio`) uses to substitute its own space
    #: type while reusing the interconnect/registry/GC wiring unchanged.
    space_factory = AddressSpace

    def __init__(
        self,
        n_spaces: int = 1,
        spaces_per_node: int = 1,
        inter_node: Medium = MEMORY_CHANNEL,
        gc_period: float | None = 0.05,
        registry_space: int = 0,
        mtu: int = CLF_MTU,
        dispatchers: bool = True,
    ):
        if not 0 <= registry_space < n_spaces:
            raise ValueError(
                f"registry_space {registry_space} out of range [0, {n_spaces})"
            )
        super().__init__(n_spaces, registry_space)
        self.network = ClfNetwork(
            ClusterTopology(n_spaces, spaces_per_node, inter_node), mtu
        )
        self._spaces = [
            self.space_factory(self, i, self.network.endpoint(i))
            for i in range(n_spaces)
        ]
        if dispatchers:
            for space in self._spaces:
                space.start()
        self._start_gc(gc_period)
        self._shut_down = False

    # ------------------------------------------------------------------
    def space(self, space_id: int) -> AddressSpace:
        return self._spaces[space_id]

    @property
    def spaces(self) -> list[AddressSpace]:
        return list(self._spaces)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the GC daemon, dispatchers, and the interconnect."""
        if self._shut_down:
            return
        self._shut_down = True
        if self.gc_daemon is not None:
            self.gc_daemon.stop()
        for space in self._spaces:
            space.stop()
        self.network.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster n_spaces={self.n_spaces} "
            f"inter_node={self.network.topology.inter_node.name!r}>"
        )
