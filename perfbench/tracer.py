"""Outside-in span tracing: wraps each layer's public functions.

The program carries no tracing of its own here.  :func:`install` replaces
the public entry points of each layer — module functions and class
methods — with wrappers that record one span per call: name, start, end
and the span that was open when it began (its parent).  Every wrapped
function is synchronous, so on the single-threaded event loop spans nest
exactly; a layer's *self* time is its span time minus the time its child
spans cover.

Spans live in four flat arrays (24 bytes a span) and are written out
once, at the end, by :meth:`Tracer.save`.  Some wrappers also note counts
taken from the call's arguments or result (requests scheduled, routing
hops, frames per batch) into :attr:`Tracer.counters`, so ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counters: Dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording a span per call; ``observe(counters, result,
        args)`` then runs outside the span."""
        nid = self.name_id(name)
        opener, closer, counters = self._open, self._close, self.counters

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(index)
            if observe is not None:
                observe(counters, result, args)
            return result

        return traced

    # ------------------------------------------------------------- analysis
    def mark(self) -> int:
        """Index of the next span (spans from here on are "after" it)."""
        return len(self.start)

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        return start, end, parent, name_of

    def layer_times(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``, counting
        only spans from index ``first`` on (and their children)."""
        start, end, parent, name_of = self._arrays()
        duration = end - start
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(start)
        )
        self_time = duration - child_time
        sel = slice(first, None)
        width = len(self.names)
        calls = np.bincount(name_of[sel], minlength=width)
        own = np.bincount(name_of[sel], weights=self_time[sel], minlength=width)
        return {
            name: {"calls": int(calls[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def root_check(self, first: int) -> Dict[str, float]:
        """Root spans from ``first`` on: their summed duration and the
        worst overlap between consecutive ones (0 for well-nested spans)."""
        start, end, parent, _ = self._arrays()
        roots = np.flatnonzero(parent[first:] < 0) + first
        overlap = (
            float(np.max(end[roots[:-1]] - start[roots[1:]], initial=0.0))
            if len(roots) > 1
            else 0.0
        )
        return {
            "root_s": float(np.sum(end[roots] - start[roots])),
            "max_overlap_s": max(0.0, overlap),
        }

    def save(self, path: Path) -> None:
        """Write every span (name index, parent, start, end) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        start, end, parent, name_of = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=name_of,
            parent=parent,
            start=start,
            end=end,
        )


# ---------------------------------------------------------------- observers
def _requests(counters, result, args) -> None:
    counters["core.schedule.requests"] += len(result)


def _prediction(counters, result, args) -> None:
    if result.miss_count > 0:
        counters["core.predict.triggered"] += 1


def _settled(counters, result, args) -> None:
    overdue, repeated = result
    counters["core.ondemand.wasted"] += overdue + repeated


def _prefetch(counters, result, args) -> None:
    counters["core.ondemand.prefetches"] += 1


def _route(counters, result, args) -> None:
    counters["dht.route.hops"] += result.hops
    counters["dht.route.succeeded"] += bool(result.success)


def _batch(counters, result, args) -> None:
    counters["runtime.wire.batch_frames_in"] += len(args[0])
    counters["runtime.wire.batch_frames_out"] += len(result)


#: ``(span name, module, attribute path, observer)`` for every wrapped
#: entry point.  Spans without a per-layer metric of their own still
#: count towards the self-time accounting.
LAYER_HOOKS = (
    ("sim.step", "repro.sim.engine", "Simulator.step", None),
    ("core.schedule", "repro.core.scheduler", "DataScheduler.schedule", _requests),
    ("core.candidates", "repro.core.node", "StreamingNode.build_candidates", None),
    ("core.predict", "repro.core.continu", "ContinuStreamingNode.predict_missed", _prediction),
    ("core.ondemand.retrieve", "repro.core.ondemand", "OnDemandRetriever.retrieve", None),
    ("core.ondemand.settle", "repro.core.continu", "ContinuStreamingNode.settle_prefetches", _settled),
    ("core.ondemand.record", "repro.core.continu", "ContinuStreamingNode.record_prefetch", _prefetch),
    ("dht.route", "repro.dht.routing", "GreedyRouter.route", _route),
    ("membership.overhear", "repro.membership.overhearing", "OverhearingService.overhear_path", None),
    ("core.overlay.repair", "repro.core.overlay", "OverlayManager.repair_neighbors", None),
    ("runtime.wire.encode", "repro.runtime.wire", "encode", None),
    ("runtime.wire.encode_batch", "repro.runtime.wire", "encode_batch", _batch),
    ("runtime.wire.decode", "repro.runtime.wire", "decode", None),
    ("runtime.transport.inbox_put", "repro.runtime.transport", "BoundedInbox.put", None),
    ("runtime.links.send", "repro.runtime.cluster.links", "LoopbackLink.send", None),
    ("runtime.slim.step", "repro.runtime.slim", "SlimTier.step", None),
)


def install(tracer: Tracer) -> list:
    """Wrap every hook in :data:`LAYER_HOOKS`; returns the names of hooks
    whose target no longer exists (reported, never silently zero)."""
    missing = []
    for name, module_name, path, observe in LAYER_HOOKS:
        try:
            owner: Any = importlib.import_module(module_name)
        except ModuleNotFoundError:
            owner = None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        target = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
        if not callable(target):
            missing.append(name)
            print(f"perfbench: cannot trace {name}: {module_name}.{path} not found",
                  file=sys.stderr)
            continue
        setattr(owner, attr, tracer.wrap(name, target, observe))
    return missing
