"""Live asyncio-UDP backend for the sans-io MHRP engines
(``repro.live``).

Every node interface becomes a real UDP socket on loopback; media are a
port directory; timers ride the asyncio event loop through a
speed-scaled virtual clock.  The protocol code is byte-for-byte the
:mod:`repro.wire` engines the deterministic driver runs — only the
transport and the clock differ.
"""

from repro.live.backend import LiveRun, VirtualClock

__all__ = ["LiveRun", "VirtualClock"]
