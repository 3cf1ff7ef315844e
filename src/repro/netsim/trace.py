"""Structured event tracing.

The tracer records ``(time, category, node, detail)`` tuples.  Tests and
benchmarks use it to assert on protocol behaviour (e.g. "exactly one
location update was sent to S") without reaching into component internals.
Categories are free-form strings; the conventional ones are listed in
:data:`CATEGORIES`.

Recording is the hot path and reading is rare, so entries are cheap
immutable snapshots: a packet is stored as a :class:`TraceLabel` (a
tuple of the numbers its ``repr`` prints, taken at record time) and
turned into text only when an entry's ``detail`` is read.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Any, Callable, Iterator, MutableSequence, Optional

#: Conventional trace categories emitted by the library.
CATEGORIES = (
    "link.tx",        # frame transmitted on a link
    "link.rx",        # frame received by an interface
    "link.drop",      # frame lost (range, loss model, no receiver)
    "ip.send",        # packet originated by a node
    "ip.forward",     # packet forwarded by a router
    "ip.deliver",     # packet delivered to a local protocol handler
    "ip.drop",        # packet dropped (TTL, no route, ...)
    "icmp.error",     # ICMP error generated
    "arp",            # ARP traffic
    "mhrp.tunnel",    # packet entered/changed an MHRP tunnel
    "mhrp.update",    # location update sent or received
    "mhrp.register",  # mobile host registration traffic
    "mhrp.loop",      # routing loop detected / dissolved
    "baseline",       # baseline-protocol events
)


class TraceLabel(tuple):
    """A record-time snapshot stored as a detail value, shown as text.

    Subclasses hold the numbers a label prints and define ``__str__``;
    :attr:`TraceEntry.detail` replaces each label by its ``str``, so
    readers only ever see text.
    """

    __slots__ = ()


class TraceEntry(tuple):
    """One traced occurrence: ``time``, ``category``, ``node``, ``detail``.

    An immutable record; build it with keywords (``TraceEntry(time=...,
    category=..., node=..., detail=...)``) or positionally.  ``detail``
    reads as a dict of the recorded values with every
    :class:`TraceLabel` formatted to its text.  Entries are immutable
    once recorded (nothing may mutate ``detail`` after the fact), so
    deep copies (session snapshots) share rather than duplicate them —
    copying the full history would dominate fork cost.
    """

    __slots__ = ()

    def __new__(
        cls,
        time: float,
        category: str,
        node: str,
        detail: Optional[dict[str, Any]] = None,
    ) -> "TraceEntry":
        return _new_entry(cls, (time, category, node, {} if detail is None else detail))

    time = property(itemgetter(0), doc="Simulation time of the occurrence.")
    category = property(itemgetter(1), doc="Trace category, e.g. ``ip.forward``.")
    node = property(itemgetter(2), doc="Name of the node it happened at.")

    @property
    def detail(self) -> dict[str, Any]:
        """The recorded key/value detail, labels formatted to text."""
        detail = self[3]
        for value in detail.values():
            if isinstance(value, TraceLabel):
                return {
                    k: str(v) if isinstance(v, TraceLabel) else v
                    for k, v in detail.items()
                }
        return detail

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self[3].items())
        return f"[{self[0]:10.6f}] {self[1]:<14} {self[2]:<12} {parts}"

    def __repr__(self) -> str:
        return (
            f"TraceEntry(time={self[0]!r}, category={self[1]!r}, "
            f"node={self[2]!r}, detail={self.detail!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEntry):
            return NotImplemented
        return self[:3] == other[:3] and self.detail == other.detail

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None  # type: ignore[assignment]  # detail is a dict

    def __deepcopy__(self, memo: dict) -> "TraceEntry":
        return self

    def __reduce__(self):
        return (TraceEntry, tuple(self))


_new_entry = tuple.__new__


class Tracer:
    """Collects :class:`TraceEntry` records during a simulation run.

    Tracing is enabled by default but can be restricted to a set of
    categories to keep memory bounded in large runs::

        sim.tracer.restrict({"mhrp.update", "mhrp.loop"})

    For sweeps whose event volume is unbounded (millions of packets),
    ``max_entries`` turns storage into a ring buffer holding only the
    newest entries; :attr:`dropped` counts what fell off the front.
    Listeners still see every entry, so streaming consumers (wire-size
    trackers, journey builders) are unaffected by the bound.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.entries: MutableSequence[TraceEntry] = []
        self.enabled = True
        self.dropped = 0
        self._max_entries: Optional[int] = None
        self._allowed: Optional[set[str]] = None
        #: ``(listener, categories or None)`` in subscription order.
        self._listeners: list[tuple[Callable[[TraceEntry], None], Optional[frozenset]]] = []
        #: category -> the listeners it is dispatched to (derived from
        #: ``_listeners``, rebuilt on demand after any change).
        self._routes: dict[str, tuple] = {}
        #: Listeners owed every entry but not fed yet (see :meth:`defer`).
        self._deferred: list[Callable[[TraceEntry], None]] = []
        if max_entries is not None:
            self.limit(max_entries)

    @property
    def max_entries(self) -> Optional[int]:
        """The ring-buffer bound (``None`` = unbounded list storage)."""
        return self._max_entries

    def limit(self, max_entries: Optional[int]) -> None:
        """Switch to ring-buffer mode bounded at ``max_entries`` (or back
        to unbounded with ``None``), keeping the newest entries."""
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_entries == self._max_entries:
            return
        if max_entries is None:
            self.entries = list(self.entries)
        else:
            self.catch_up()  # a ring discards entries a replay would need
            self.dropped += max(len(self.entries) - max_entries, 0)
            self.entries = deque(self.entries, maxlen=max_entries)
        self._max_entries = max_entries

    def restrict(self, categories: Optional[set[str]]) -> None:
        """Record only the given categories (``None`` = record everything)."""
        self._allowed = set(categories) if categories is not None else None

    def subscribe(
        self,
        listener: Callable[[TraceEntry], None],
        categories: Optional[set[str]] = None,
    ) -> None:
        """Invoke ``listener`` for every recorded entry (after filtering),
        or only for entries whose category is in ``categories``."""
        self._listeners.append(
            (listener, frozenset(categories) if categories is not None else None)
        )
        self._routes = {}

    def unsubscribe(self, listener: Callable[[TraceEntry], None]) -> bool:
        """Remove a listener previously passed to :meth:`subscribe` (or
        :meth:`defer`, which first feeds it what it is owed).

        Returns ``True`` if it was found.  Matching is by equality, which
        for bound methods means "same method of the same object" — so an
        instrument can unsubscribe the bound listener it subscribed with.
        """
        self.catch_up(listener)
        for i, (subscribed, _) in enumerate(self._listeners):
            if subscribed == listener:
                del self._listeners[i]
                self._routes = {}
                return True
        return False

    def defer(self, listener: Callable[[TraceEntry], None]) -> None:
        """Subscribe ``listener`` to every entry — those already retained
        and each later one — but feed it only when :meth:`catch_up` is
        called, by replaying the retained entries.

        A consumer that is rarely read (the health hub's journey index)
        then costs nothing per entry until it is.  Replay equals
        streaming only while no retained entry is discarded, so the
        tracer catches deferred listeners up itself before :meth:`clear`
        or a switch to a ring bound, and a ring-bounded tracer catches a
        new one up at once.
        """
        self._deferred.append(listener)
        if self._max_entries is not None:
            self.catch_up(listener)

    def catch_up(self, listener: Optional[Callable[[TraceEntry], None]] = None) -> None:
        """Feed a deferred ``listener`` (every one, with ``None``) the
        retained entries, then subscribe it to later ones.  A listener
        that is not deferred is left alone."""
        if listener is None:
            pending, self._deferred = self._deferred, []
        elif listener in self._deferred:
            self._deferred.remove(listener)
            pending = [listener]
        else:
            return
        for owed in pending:
            for entry in list(self.entries):
                owed(entry)
            self.subscribe(owed)

    def listeners(self) -> list[Callable[[TraceEntry], None]]:
        """Every subscribed listener, deferred ones included."""
        return [listener for listener, _ in self._listeners] + self._deferred

    def active(self, category: str) -> bool:
        """Whether a :meth:`record` call for ``category`` would store an
        entry right now.

        Hot-path callers guard with this *before* building the ``detail``
        kwargs (a packet label, a frame's size), so a disabled or
        restricted tracer costs nothing per packet::

            if sim.trace_active("ip.forward"):
                sim.trace("ip.forward", name, packet=packet.trace_label(), ...)

        The condition mirrors :meth:`record` exactly, including listener
        visibility (listeners only ever see entries that pass the
        enabled/category filter).
        """
        if not self.enabled:
            return False
        allowed = self._allowed
        return allowed is None or category in allowed

    def record(
        self,
        time: float,
        category: str,
        node: str,
        fields: Optional[dict[str, Any]] = None,
        /,
        **detail: Any,
    ) -> None:
        """Record one entry if tracing is enabled and the category allowed.

        The detail comes as keywords, or as a ready-built ``fields`` dict
        that the entry then owns (:meth:`Simulator.trace
        <repro.netsim.simulator.Simulator.trace>` passes its own kwargs
        this way instead of packing them a second time).
        """
        if not self.enabled:
            return
        allowed = self._allowed
        if allowed is not None and category not in allowed:
            return
        entry = _new_entry(
            TraceEntry, (time, category, node, detail if fields is None else fields)
        )
        entries = self.entries
        if self._max_entries is not None and len(entries) == self._max_entries:
            self.dropped += 1
        entries.append(entry)
        listeners = self._routes.get(category)
        if listeners is None:
            listeners = self._route(category)
        for listener in listeners:
            listener(entry)

    def _route(self, category: str) -> tuple:
        listeners = tuple(
            listener
            for listener, categories in self._listeners
            if categories is None or category in categories
        )
        self._routes[category] = listeners
        return listeners

    def _matching(
        self,
        category: Optional[str],
        node: Optional[str],
        where: Optional[Callable[[dict[str, Any]], bool]],
    ) -> Iterator[TraceEntry]:
        for e in self.entries:
            if category is not None and e.category != category:
                continue
            if node is not None and e.node != node:
                continue
            if where is not None and not where(e.detail):
                continue
            yield e

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        where: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> list[TraceEntry]:
        """Return entries matching the given category and/or node.

        ``where`` optionally filters on the entry's detail dict, e.g.
        ``tracer.select("mhrp.tunnel", where=lambda d: d.get("uid") == 7)``.
        """
        return list(self._matching(category, node, where))

    def count(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        where: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> int:
        """Number of entries matching the filter (no list materialized)."""
        return sum(1 for _ in self._matching(category, node, where))

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def clear(self) -> None:
        self.catch_up()  # deferred listeners are owed what is cleared
        self.entries.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able configuration + counters (entries excluded: they are
        carried by the session snapshot's deepcopy, and diff tests compare
        them separately as serialized traces)."""
        return {
            "enabled": self.enabled,
            "dropped": self.dropped,
            "max_entries": self._max_entries,
            "allowed": sorted(self._allowed) if self._allowed is not None else None,
            "n_entries": len(self.entries),
            "n_listeners": len(self._listeners) + len(self._deferred),
        }

    def load_state(self, state: dict) -> None:
        """Restore configuration and counters from :meth:`state_dict`."""
        self.enabled = bool(state["enabled"])
        self.dropped = int(state["dropped"])
        self.limit(state["max_entries"])
        allowed = state["allowed"]
        self.restrict(set(allowed) if allowed is not None else None)
