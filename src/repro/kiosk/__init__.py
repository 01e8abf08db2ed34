"""The Smart Kiosk application (paper §2): synthetic multi-modal pipeline on STM.

The kiosk is the stages of :mod:`repro.kiosk.procfleet`, run by
:func:`run_fleet` (threads or processes), :mod:`repro.kiosk.aiofleet` or
:mod:`repro.kiosk.simfleet`; the other modules are the analyses they run.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kiosk.audio": ("SpeechDetector", "SyntheticMicrophone"),
    "repro.kiosk.blob_tracker": ("BlobTracker",),
    "repro.kiosk.color_tracker": ("ColorTracker",),
    "repro.kiosk.decision": ("DecisionModule", "GuiModule"),
    "repro.kiosk.gesture": ("GestureRecognizer",),
    "repro.kiosk.frames": ("Actor", "SyntheticScene"),
    "repro.kiosk.hifi_tracker": ("HifiTracker",),
    "repro.kiosk.procfleet": ("FleetConfig", "FleetResult", "run_fleet"),
    "repro.kiosk.records": ("TrackRecord", "VideoFrame"),
})

__all__ = [
    "Actor",
    "BlobTracker",
    "ColorTracker",
    "DecisionModule",
    "FleetConfig",
    "FleetResult",
    "GestureRecognizer",
    "GuiModule",
    "HifiTracker",
    "SpeechDetector",
    "SyntheticMicrophone",
    "SyntheticScene",
    "TrackRecord",
    "VideoFrame",
    "run_fleet",
]
