"""Discrete-event simulation of the Stampede cluster (hardware substitute).

The simulator regenerates the paper's performance tables with the cost
structure of the 1998 AlphaServer/Memory Channel platform; see
:mod:`repro.sim.engine` for the task model and :mod:`repro.sim.sim_stampede`
for the simulated runtime.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.costs": ("DEFAULT_COSTS", "SimCosts"),
    "repro.sim.engine": ("SimEngine", "SimEvent", "SimTaskHandle"),
    "repro.sim.sim_stampede": ("SimChannel", "SimGcReport", "SimStampede", "SimThread"),
    "repro.sim.trace": ("SimTrace", "SpanRecord"),
})

__all__ = [
    "DEFAULT_COSTS",
    "SimChannel",
    "SimCosts",
    "SimEngine",
    "SimEvent",
    "SimGcReport",
    "SimStampede",
    "SimTaskHandle",
    "SimThread",
    "SimTrace",
    "SpanRecord",
]
