"""repro: a full reproduction of *Space-Time Memory: A Parallel Programming
Abstraction for Interactive Multimedia Applications* (Ramachandran, Nikhil,
Harel, Rehg, Knobe — PPoPP 1999).

Package map
-----------
``repro.core``
    The STM semantic kernel: channels × timestamps, per-connection item
    states, visibility rules, GC minimum arithmetic.  Pure and
    runtime-agnostic.
``repro.stm``
    The public API: :class:`~repro.stm.STM`, channels, connections — plus
    the paper-faithful ``spd_*`` layer in :mod:`repro.stm.spd`.
``repro.runtime``
    The Stampede runtime: address spaces, cluster-wide threads, the
    distributed GC daemon, real-time pacing.
``repro.transport``
    CLF: reliable ordered packet transport and the calibrated medium models
    (shared memory / Memory Channel / UDP-LAN).
``repro.sim``
    Deterministic discrete-event simulation of the cluster, used to
    regenerate the paper's performance tables with 1998-hardware shape.
``repro.kiosk`` / ``repro.ibr``
    The two Stampede applications: the Smart Kiosk vision pipeline and
    image-based rendering.
``repro.bench``
    Drivers that regenerate every table (Figs. 8-11) and the ablations.
``repro.obs``
    Observability: low-overhead event tracing (``STMOBS=1`` or
    ``obs.trace(...)``), the metrics registry, and Chrome-trace /
    lag-report exporters — ``python -m repro.obs`` for the CLI.

Quickstart
----------
>>> from repro import Cluster, STM, STM_LATEST_UNSEEN
>>> with Cluster(n_spaces=1) as cluster:
...     space = cluster.space(0)
...     me = space.adopt_current_thread()
...     stm = STM(space)
...     chan = stm.create_channel("frames")
...     out = chan.attach_output()
...     inp = chan.attach_input()
...     out.put(0, b"frame-0")
...     item = inp.get(STM_LATEST_UNSEEN)
...     inp.consume(item.timestamp)
...     me.exit()  # release the adopted thread's GC claims
...     item.value
b'frame-0'
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": (
        "INFINITY",
        "STM_LATEST",
        "STM_LATEST_UNSEEN",
        "STM_OLDEST",
        "STM_OLDEST_UNSEEN",
        "UNKNOWN_REFCOUNT",
        "CopyPolicy",
        "GetWildcard",
    ),
    "repro.errors": ("StampedeError", "STMError"),
    "repro.runtime": ("Cluster", "Pacer", "ProcCluster", "StampedeThread", "current_thread"),
    "repro.stm": ("STM", "Channel", "InputConnection", "Item", "OutputConnection"),
    "repro.transport": ("MEMORY_CHANNEL", "SHARED_MEMORY", "UDP_LAN"),
})

__version__ = "1.0.0"

__all__ = [
    "Channel",
    "Cluster",
    "CopyPolicy",
    "GetWildcard",
    "INFINITY",
    "InputConnection",
    "Item",
    "MEMORY_CHANNEL",
    "OutputConnection",
    "Pacer",
    "ProcCluster",
    "SHARED_MEMORY",
    "STM",
    "STMError",
    "STM_LATEST",
    "STM_LATEST_UNSEEN",
    "STM_OLDEST",
    "STM_OLDEST_UNSEEN",
    "StampedeError",
    "StampedeThread",
    "UDP_LAN",
    "UNKNOWN_REFCOUNT",
    "current_thread",
    "__version__",
]
