"""Timing spans recorded around calls into the program's layers.

:class:`SpanRecorder` patches chosen functions (class attributes or
module-level functions) with wrappers that record one span per call:
its layer, the span open when it started (its parent), and its start
and end time.  Spans stay in memory, in flat arrays, until the run
ends; :func:`self_times` then charges each layer its spans' durations
minus the time their child spans cover.

Wrappers must be installed *before* set-up: roles hand their hooks to
the dataplane and health instruments hand their listeners to the tracer
as bound methods while the world is built, and a bound method made
before the patch calls the original.  :meth:`SpanRecorder.uninstall`
puts every original back, so later untraced runs execute the program
unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Marks a function as one of this module's wrappers.
WRAPPED_ATTR = "__perfbench_original__"


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.module:Class.attr"`` or ``"pkg.module:func"`` -> (owner,
    attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def self_times(
    layers: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    n_layers: int,
) -> List[float]:
    """Per-layer self time: every span's duration is charged to its own
    layer and subtracted from its parent's layer."""
    out = [0.0] * n_layers
    for layer, parent, start, end in zip(layers, parents, starts, ends):
        duration = end - start
        out[layer] += duration
        if parent >= 0:
            out[layers[parent]] -= duration
    return out


class SpanRecorder:
    """Install span wrappers, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.layer_names: List[str] = []
        self.layer: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        #: Named counts kept by ``observe`` callbacks (see :meth:`patch`).
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _layer_id(self, name: str) -> int:
        """The id of layer ``name``, registering it on first use."""
        if name not in self.layer_names:
            self.layer_names.append(name)
        return self.layer_names.index(name)

    def _wrap(
        self,
        fn: Callable,
        layer_id: int,
        observe: Optional[Callable[[Dict[str, int], tuple, object], None]],
    ) -> Callable:
        stack = self._stack
        layer_add = self.layer.append
        parent_add = self.parent.append
        start_add = self.start.append
        end = self.end
        end_add = end.append
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(end)
            layer_add(layer_id)
            parent_add(stack[-1] if stack else -1)
            end_add(0.0)
            stack.append(index)
            start_add(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(span, WRAPPED_ATTR, fn)
        return span

    def patch(
        self,
        target: str,
        layer: str,
        observe: Optional[Callable[[Dict[str, int], tuple, object], None]] = None,
    ) -> None:
        """Wrap ``target`` as a span of ``layer``.

        A class attribute is patched on its class.  A module-level
        function is patched in every loaded module that holds it, since
        ``from m import f`` copies the reference.  ``observe(counts,
        args, result)`` runs after each call, outside the span.
        """
        owner, attr = resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrap(original, self._layer_id(layer), observe)
        self._originals[id(wrapper)] = original
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def _set(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, then sweep the
        loaded modules for wrappers copied by imports made meanwhile."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                if id(value) in self._originals and hasattr(value, WRAPPED_ATTR):
                    setattr(module, name, self._originals[id(value)])
        self._originals.clear()

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def calls(self) -> Dict[str, int]:
        """Spans recorded per layer."""
        out = {name: 0 for name in self.layer_names}
        for layer in self.layer:
            out[self.layer_names[layer]] += 1
        return out

    def self_times(self) -> Dict[str, float]:
        values = self_times(
            self.layer, self.parent, self.start, self.end, len(self.layer_names)
        )
        return dict(zip(self.layer_names, values))

    def write(self, path: str) -> None:
        """Write the spans as tab-separated ``layer parent start end``."""
        with open(path, "w") as out:
            out.write("layer\tparent\tstart\tend\n")
            for layer, parent, start, end in zip(
                self.layer, self.parent, self.start, self.end
            ):
                out.write(f"{self.layer_names[layer]}\t{parent}\t{start!r}\t{end!r}\n")
