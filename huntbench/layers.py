"""Per-layer measurement: class-level timing wrappers and span arithmetic.

The traced run attaches the program's own :class:`~repro.obs.Tracer` and
:class:`~repro.obs.MetricsRegistry` to ``hunt()``; they give the
``generate``, ``prune:<algo>``, ``replay`` and ``fault-compile`` spans and
the exploration counters.  Layers the program does not trace are timed by
:class:`LayerProbe`, which wraps public methods **on their classes** (never
on instances: an instance attribute named ``candidates`` would switch off
``ERPiExplorer.sharded_candidates``' fast path and change what is measured)
and records each call as a span in the same tracer, so the span tree covers
every layer.

A layer's *busy* time is the self time of its spans: span time minus the
time covered by child spans.  ``*_s`` metrics of one operation (restore,
sync, digest, ...) are inclusive span time, counted once where such calls
nest.

Process workers ship no spans, so on process workloads the worker-side
layers (generate, prune, replay, rdl, net, assert) report their counters
only; the ``procpool.*`` metrics come from ``result.worker_stats``,
``getrusage`` and the wrapped ``prestart``.
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Span name -> layer whose busy time it counts towards.
SPAN_LAYERS = {
    "generate": "generate",
    "prune:dpor": "semantic",
    "prune:state_memo": "semantic",
    "replay": "replay",
    "replay:fresh": "replay",
    "assert": "assert",
}


def span_layer(name: str) -> Optional[str]:
    layer = SPAN_LAYERS.get(name)
    if layer is None and name.startswith("prune:"):
        return "prune"
    return layer


def self_times(spans: Iterable[Any]) -> Dict[int, float]:
    """span_id -> the span's duration minus its direct children's.

    Spans nest per thread, so a child lies inside its parent and the
    children of one parent do not overlap.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent_id:
            covered[span.parent_id] = covered.get(span.parent_id, 0.0) + span.duration_s
    return {
        span.span_id: span.duration_s - covered.get(span.span_id, 0.0)
        for span in spans
    }


def busy_by_layer(spans: Iterable[Any]) -> Dict[str, float]:
    """Layer -> summed self time of the spans that belong to it."""
    spans = list(spans)
    own = self_times(spans)
    busy: Dict[str, float] = {}
    for span in spans:
        layer = span_layer(span.name)
        if layer is not None:
            busy[layer] = busy.get(layer, 0.0) + own[span.span_id]
    return busy


def inclusive_by_name(spans: Iterable[Any]) -> Dict[str, Tuple[int, float]]:
    """Span name -> (count, summed duration of the outermost spans).

    A span nested, at any depth, inside a span of the same name counts
    towards the call count but not the time, which it would count twice.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    out: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        count, total = out.get(span.name, (0, 0.0))
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            total += span.duration_s
        out[span.name] = (count + 1, total)
    return out


class _TimedAssertion:
    """An assertion that records each call as an ``assert`` span."""

    __slots__ = ("_probe", "_inner")

    def __init__(self, probe: "LayerProbe", inner: Callable) -> None:
        self._probe = probe
        self._inner = inner

    def __call__(self, outcome: Any) -> Any:
        tracer = self._probe.tracer
        span = tracer.begin("assert")
        try:
            return self._inner(outcome)
        finally:
            tracer.end(span)


class LayerProbe:
    """Class-level wrappers that time untraced layers into ``self.tracer``.

    Use as ``with probe.installed(): ...``; every original is restored on
    exit.  ``tracer`` may be swapped between hunts; ``fast_copy_calls``
    counts every :func:`repro.fastcopy.fast_copy` call, recursion included.
    """

    def __init__(self) -> None:
        self.tracer: Any = None
        self.fast_copy_calls = 0
        self._recording: Dict[int, Any] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        # Pool workers forked while the wrappers are installed would time
        # into a copy of the tracer nobody reads; they run unwrapped code.
        os.register_at_fork(after_in_child=self._restore)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _timed(self, name: str, original: Callable) -> Callable:
        probe = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = probe.tracer
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerProbe"]:
        from repro import fastcopy
        from repro.bugs.registry import BugScenario
        from repro.core.procpool import ProcessParallelExplorer
        from repro.net.cluster import Cluster
        from repro.proxy.recorder import EventRecorder
        from repro.rdl.base import RDLReplica

        def patch(owner: Any, attr: str, replacement: Any) -> None:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        try:
            # Cluster.sync is send_sync + execute_sync; wrap the phases only,
            # which replays call directly.
            patch(Cluster, "send_sync", self._timed("net.sync", Cluster.send_sync))
            patch(Cluster, "execute_sync", self._timed("net.sync", Cluster.execute_sync))
            for attr in ("state_digest", "replica_state_digest", "transport_digest"):
                patch(Cluster, attr, self._timed("net.digest", Cluster.__dict__[attr]))
            patch(Cluster, "restore", self._timed("replay.restore", Cluster.restore))
            patch(
                Cluster, "restore_snapshot",
                self._timed("replay.restore", Cluster.restore_snapshot),
            )
            patch(
                ProcessParallelExplorer, "prestart",
                self._timed("procpool.prestart", ProcessParallelExplorer.prestart),
            )
            for cls in _subclasses(RDLReplica):
                for attr in ("checkpoint", "restore", "adopt", "state_view"):
                    if attr in cls.__dict__:
                        patch(cls, attr, self._timed("rdl.materialize", cls.__dict__[attr]))
            for cls in _subclasses(BugScenario):
                if "make_assertions" in cls.__dict__:
                    patch(cls, "make_assertions", self._assertions(cls.make_assertions))
            patch(EventRecorder, "start", self._record_start(EventRecorder.start))
            patch(EventRecorder, "stop", self._record_stop(EventRecorder.stop))
            self._patch_fast_copy(fastcopy, patch)
            yield self
        finally:
            self._restore()

    def _assertions(self, original: Callable) -> Callable:
        probe = self

        def make_assertions(scenario_self: Any) -> List[Any]:
            return [_TimedAssertion(probe, check) for check in original(scenario_self)]

        return make_assertions

    def _record_start(self, original: Callable) -> Callable:
        probe = self

        def start(recorder: Any) -> None:
            probe._recording[id(recorder)] = probe.tracer.begin("proxy.record")
            original(recorder)

        return start

    def _record_stop(self, original: Callable) -> Callable:
        probe = self

        def stop(recorder: Any) -> Any:
            events = original(recorder)
            span = probe._recording.pop(id(recorder), None)
            if span is not None:
                probe.tracer.end(span, events=len(events))
            return events

        return stop

    def _patch_fast_copy(self, fastcopy: Any, patch: Callable) -> None:
        original = fastcopy.fast_copy
        probe = self

        def fast_copy(obj: Any, memo: Optional[Dict[int, Any]] = None) -> Any:
            probe.fast_copy_calls += 1
            return original(obj, memo)

        # Modules that imported the function by name hold their own binding.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "fast_copy", None) is original:
                patch(module, "fast_copy", fast_copy)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


# ------------------------------------------------------------ per-hunt sums

def hunt_sums(
    spans: List[Any],
    metrics: Any,
    result: Any,
    *,
    fast_copy_calls: int = 0,
) -> Dict[str, Any]:
    """The additive per-layer quantities of one traced hunt."""
    busy = busy_by_layer(spans)
    named = inclusive_by_name(spans)
    counter = metrics.counter

    def inclusive(name: str) -> float:
        return named.get(name, (0, 0.0))[1]

    gauges = metrics.gauges
    charged = sum(
        value for key, value in gauges.items() if key.startswith("resource.bytes.")
    )
    fault_events = sum(
        (span.attrs or {}).get("fault_events", 0)
        for span in spans
        if span.name == "fault-compile"
    )
    return {
        "proxy.record_s": inclusive("proxy.record"),
        "proxy.events": sum(
            (span.attrs or {}).get("events", 0)
            for span in spans
            if span.name == "proxy.record"
        ),
        "faults.compile_s": inclusive("fault-compile"),
        "faults.events": fault_events,
        "faults.quarantined": len(result.quarantined),
        "generate.busy_s": busy.get("generate", 0.0),
        "generate.candidates": counter("interleavings.generated"),
        "generate.invalid": counter("interleavings.invalid"),
        "prune.busy_s": busy.get("prune", 0.0),
        "prune.pruned": counter("interleavings.pruned"),
        "replayed": counter("interleavings.replayed"),
        "semantic.busy_s": busy.get("semantic", 0.0),
        "semantic.dpor_pruned": counter("pruned.dpor"),
        "semantic.memo_pruned": counter("pruned.state_memo"),
        "digest.hits": counter("digest.cache_hits"),
        "digest.misses": counter("digest.cache_misses"),
        "replay.busy_s": busy.get("replay", 0.0),
        "replay.us": [
            span.duration_s * 1e6 for span in spans if span.name == "replay"
        ],
        "replay.restore_s": inclusive("replay.restore"),
        "replay.cache_hits": counter("replay.cache_hits"),
        "replay.cache_misses": counter("replay.cache_misses"),
        "replay.cache_retained_bytes": gauges.get("cache.retained_bytes", 0),
        "rdl.fast_copy_calls": fast_copy_calls,
        "rdl.materialize_s": inclusive("rdl.materialize"),
        "net.sync_s": inclusive("net.sync"),
        "net.messages_sent": counter("messages.sent"),
        "net.messages_suppressed": counter("messages.suppressed"),
        "net.digest_s": inclusive("net.digest"),
        "assert.busy_s": busy.get("assert", 0.0),
        "assert.calls": named.get("assert", (0, 0.0))[0],
        "procpool.startup_s": inclusive("procpool.prestart"),
        "resources.charged_bytes": charged,
    }
