"""Space-Time Memory: the user-facing API (Pythonic and spd_* C-style)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stm.aio": (
        "AioChannel",
        "AioInputConnection",
        "AioOutputConnection",
        "AioSTM",
    ),
    "repro.stm.api": ("Channel", "InputConnection", "Item", "OutputConnection", "STM"),
    "repro.stm.dataparallel": ("DataParallelResult", "run_data_parallel"),
    "repro.stm.monitor": ("ChannelProbe", "ChannelSnapshot", "SpaceTimeView"),
    "repro.stm.ticker": ("Ticker",),
})

__all__ = [
    "AioChannel",
    "AioInputConnection",
    "AioOutputConnection",
    "AioSTM",
    "Channel",
    "ChannelProbe",
    "ChannelSnapshot",
    "DataParallelResult",
    "InputConnection",
    "Item",
    "OutputConnection",
    "STM",
    "SpaceTimeView",
    "Ticker",
    "run_data_parallel",
]
