"""Stampede runtime: address spaces, cluster-wide threads, GC daemon, pacing."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.address_space": ("AddressSpace", "ChannelHandle", "LocalChannel"),
    "repro.runtime.aio": ("AioAddressSpace", "AioCluster", "AioEvent"),
    "repro.runtime.cluster": ("Cluster",),
    "repro.runtime.gc_daemon": ("GcDaemon", "GcStats"),
    "repro.runtime.procs": ("ProcCluster",),
    "repro.runtime.placement": (
        "KIOSK_PIPELINE",
        "PipelineModel",
        "PlacementPrediction",
        "Stage",
        "optimal_placement",
        "predict",
    ),
    "repro.runtime.realtime": ("Pacer", "TickReport", "TickStatus"),
    "repro.runtime.threads": (
        "StampedeThread",
        "current_thread",
        "require_current_thread",
    ),
})

__all__ = [
    "AddressSpace",
    "AioAddressSpace",
    "AioCluster",
    "AioEvent",
    "ChannelHandle",
    "Cluster",
    "GcDaemon",
    "GcStats",
    "KIOSK_PIPELINE",
    "PipelineModel",
    "PlacementPrediction",
    "Stage",
    "LocalChannel",
    "Pacer",
    "ProcCluster",
    "StampedeThread",
    "TickReport",
    "TickStatus",
    "current_thread",
    "optimal_placement",
    "predict",
    "require_current_thread",
]
