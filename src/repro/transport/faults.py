"""Fault injection for the CLF transport (test instrumentation).

CLF promises *reliable, ordered* delivery (§8.1); the layers above it are
entitled to assume that and must fail **loudly**, not silently, if the
promise is broken.  :class:`FaultyNetwork` wraps a :class:`ClfNetwork` and
corrupts traffic on selected (src, dst) links — dropping, duplicating,
reordering, or bit-flipping packets — so tests can verify that:

* the reassembler detects every violation (CRC mismatch, fragment-stream
  violations) and raises :class:`~repro.errors.TransportError` once per
  message lost, then resynchronises on the next message;
* the runtime survives corrupt traffic (the receiving space counts and
  drops it and keeps serving) rather than dying, and the sender of the
  corrupted bytes sees nothing.

This is deliberately not reachable from production paths: nothing in
``repro.runtime`` imports it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.transport.clf import ClfEndpoint, ClfNetwork

__all__ = ["FaultPlan", "FaultyNetwork"]


@dataclass
class FaultPlan:
    """Per-link fault probabilities (independent per packet)."""

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    #: hold a packet back and release it after the next one (pairwise swap).
    reorder: float = 0.0
    seed: int = 0
    #: positions of packets on the link (0-based, in crossing order) that
    #: are dropped outright, whatever ``drop`` says.
    drop_at: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("drop", "duplicate", "corrupt", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


class FaultyNetwork:
    """A ClfNetwork whose selected links misbehave deterministically.

    Wraps :meth:`ClfEndpoint._accept`, the one way a packet enters an
    endpoint, so a packet crossing a faulted link passes through the fault
    plan on the very path the runtime uses: the real ``send`` fragments,
    holds the stream lock and counts; the destination's reassembler, sink or
    ``recv`` see whatever the plan lets through.
    """

    def __init__(self, network: ClfNetwork):
        self.network = network
        self._plans: dict[tuple[int, int], FaultPlan] = {}
        self._rngs: dict[tuple[int, int], random.Random] = {}
        self._held: dict[tuple[int, int], bytes | None] = {}
        self._crossed: dict[tuple[int, int], int] = {}
        self.injected = {"dropped": 0, "duplicated": 0, "corrupted": 0,
                         "reordered": 0}
        self._original_accept = ClfEndpoint._accept
        original_accept = self._original_accept

        def faulty_accept(endpoint: ClfEndpoint, src: int, packet) -> None:
            key = (src, endpoint.space)
            plan = self._plans.get(key)
            if plan is None or endpoint._network is not self.network:
                return original_accept(endpoint, src, packet)
            for survivor in self._apply(key, plan, packet):
                original_accept(endpoint, src, survivor)

        ClfEndpoint._accept = faulty_accept  # type: ignore[method-assign]

    def fault_link(self, src: int, dst: int, plan: FaultPlan) -> None:
        self._plans[(src, dst)] = plan
        self._rngs[(src, dst)] = random.Random(plan.seed)
        self._held[(src, dst)] = None
        self._crossed[(src, dst)] = 0

    def _apply(self, key, plan: FaultPlan, packet) -> list:
        """What reaches the destination in place of ``packet``, in order.

        Runs under the link's stream lock (``send`` holds it), so the
        per-link state needs none of its own.  A packet held back for
        reordering is released behind the next one to cross the link.
        """
        rng = self._rngs[key]
        position = self._crossed[key]
        self._crossed[key] = position + 1
        if position in plan.drop_at or rng.random() < plan.drop:
            self.injected["dropped"] += 1
            return []
        if rng.random() < plan.corrupt:
            self.injected["corrupted"] += 1
            packet = bytearray(packet)
            packet[rng.randrange(len(packet))] ^= 0xFF
        held = self._held[key]
        if rng.random() < plan.reorder and held is None:
            self.injected["reordered"] += 1
            self._held[key] = packet
            return []
        out = [packet]
        if held is not None:
            out.append(held)
            self._held[key] = None
        if rng.random() < plan.duplicate:
            self.injected["duplicated"] += 1
            out.append(packet)
        return out

    def uninstall(self) -> None:
        """Restore the pristine ClfEndpoint._accept (idempotent)."""
        if self._original_accept is not None:
            ClfEndpoint._accept = self._original_accept  # type: ignore[method-assign]
            self._original_accept = None

    def __enter__(self) -> "FaultyNetwork":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()
