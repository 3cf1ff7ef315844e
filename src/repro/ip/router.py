"""Routers: IP nodes with forwarding enabled."""

from __future__ import annotations

from repro.ip.node import IPNode
from repro.netsim.simulator import Simulator


class Router(IPNode):
    """A packet-forwarding node.

    Backbone routers in the reproduced topologies are plain
    :class:`Router` instances — the paper requires "no changes to
    backbone routers", and the benches verify MHRP works with exactly
    this class in the core.  Agents (home/foreign/cache) are built *on*
    routers by registering dataplane stage hooks and protocol handlers.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name, forwarding=True)
