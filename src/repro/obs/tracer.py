"""Structured span tracing for the exploration pipeline.

A :class:`Tracer` records *spans* — named, nested, wall-clock-timed slices
of work — from every stage of an ER-pi run: ``explore`` (the root of one
hunt), ``generate`` (pulling the next candidate out of the enumerator),
``prune:<algorithm>`` (one pruner's verdict on one candidate), ``replay``
and ``replay:fresh`` (one interleaving executed against the cluster),
``sanitize`` (the differential class sweep), ``quarantine`` (capturing a
blown-up replay) and ``fault-compile`` (compiling a FaultPlan into the
schedule).  Spans nest through a per-thread stack, so a ``replay`` emitted
inside an ``explore`` records that parent automatically, and a span from
another thread opens its own stack.  A process-backed hunt
(:class:`~repro.core.procpool.ProcessParallelExplorer`) records the
parent's spans only — ``explore`` plus the coordinator's ``respawn`` and
``checkpoint`` spans; its worker processes run untraced.

Zero dependencies, and cheap enough to leave on: the hot path is
:meth:`Tracer.begin` / :meth:`Tracer.end` (no generator-based context
manager, one lock acquisition per finished span).  Call sites guard on
:attr:`Tracer.enabled` so a disabled run (the shared :data:`NULL_TRACER`)
pays one attribute load per stage.

Export targets:

* :meth:`Tracer.write_jsonl` — one span per line, each a Chrome
  trace-event-viewer compatible ``"ph": "X"`` complete event;
* :meth:`Tracer.persist` — ``span(id, parent, kind, duration_us)`` facts
  into an :class:`~repro.datalog.store.InterleavingStore`, so "where did
  the hunt spend its budget" becomes a Datalog query.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, IO, Iterator, List, Optional


class Span:
    """One finished (or in-flight) slice of pipeline work."""

    __slots__ = ("span_id", "parent_id", "name", "start_s", "duration_s", "thread", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        start_s: float,
        duration_s: float = 0.0,
        thread: int = 0,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.duration_s = duration_s
        self.thread = thread
        self.attrs = attrs

    @property
    def kind(self) -> str:
        """The span's base kind: ``"prune:replica_specific"`` -> ``"prune"``."""
        name = self.name
        colon = name.find(":")
        return name if colon < 0 else name[:colon]

    def to_trace_event(self) -> Dict[str, Any]:
        """A Chrome trace-event-viewer ``"X"`` (complete) event."""
        args: Dict[str, Any] = {"span_id": self.span_id, "parent_id": self.parent_id}
        if self.attrs:
            args.update(self.attrs)
        return {
            "name": self.name,
            "ph": "X",
            "ts": round(self.start_s * 1e6, 3),
            "dur": round(self.duration_s * 1e6, 3),
            "pid": 0,
            "tid": self.thread,
            "args": args,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return (
            f"<Span #{self.span_id} {self.name} {self.duration_s * 1e6:.1f}us"
            f" parent={self.parent_id}>"
        )


class Tracer:
    """Collects spans; thread-safe; one instance per observed run."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        self._persisted_upto = 0

    # ------------------------------------------------------------- recording

    def _stack(self) -> List[Span]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.tid = threading.get_ident() & 0xFFFF
        return stack

    def begin(self, name: str) -> Span:
        """Open a span; its parent is the innermost open span on this thread."""
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1].span_id if stack else 0,
            name,
            self._clock(),
            thread=self._local.tid,
        )
        stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close ``span``, attaching ``attrs``, and commit it to the trace."""
        span.duration_s = self._clock() - span.start_s
        if attrs:
            if span.attrs:
                span.attrs.update(attrs)
            else:
                span.attrs = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order end: tolerate rather than corrupt the stack
            try:
                stack.remove(span)
            except ValueError:
                pass
        # list.append is atomic under the GIL, so committing a finished span
        # needs no lock; readers (spans/persist/clear) still lock to get a
        # consistent snapshot against concurrent appends.
        self._spans.append(span)
        return span

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """Context-manager sugar over :meth:`begin`/:meth:`end`."""
        return _SpanContext(self, name, attrs)

    # --------------------------------------------------------------- reading

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def counts(self) -> Dict[str, int]:
        """Span name -> how many spans of that name were recorded."""
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def kinds(self) -> Dict[str, int]:
        """Like :meth:`counts` but aggregated by base kind (before ``:``)."""
        out: Dict[str, int] = {}
        for span in self.spans:
            kind = span.kind
            out[kind] = out.get(kind, 0) + 1
        return out

    # --------------------------------------------------------------- exports

    def iter_jsonl(self) -> Iterator[str]:
        for span in self.spans:
            yield json.dumps(span.to_trace_event(), default=repr, sort_keys=True)

    def write_jsonl(self, target) -> int:
        """Write the trace, one Chrome trace event per line.

        ``target`` is a path or a writable file object; returns the number
        of spans written.
        """
        count = 0
        if hasattr(target, "write"):
            for line in self.iter_jsonl():
                target.write(line + "\n")
                count += 1
            return count
        with open(target, "w") as handle:
            for line in self.iter_jsonl():
                handle.write(line + "\n")
                count += 1
        return count

    def persist(self, store) -> int:
        """Mirror spans not yet persisted as ``span(...)`` Datalog facts.

        Incremental: a session calling this at every ``end()`` only adds
        the new spans.  Returns how many facts were added this call.
        """
        with self._lock:
            fresh = self._spans[self._persisted_upto :]
            self._persisted_upto = len(self._spans)
        for span in fresh:
            store.persist_span(
                span.span_id,
                span.parent_id,
                span.name,
                int(span.duration_s * 1e6),
            )
        return len(fresh)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._persisted_upto = 0


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer.begin(self._name)
        if self._attrs:
            self._span.attrs = dict(self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        if span is not None:
            if exc_type is not None:
                self._tracer.end(span, error=exc_type.__name__)
            else:
                self._tracer.end(span)


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()
_NULL_SPAN = Span(0, 0, "null", 0.0)


class NullTracer:
    """A disabled tracer: every operation is a cheap no-op.

    Shared as :data:`NULL_TRACER` so call sites can hold an always-valid
    tracer and guard hot paths with one ``tracer.enabled`` check.
    """

    enabled = False

    def begin(self, name: str) -> Span:
        return _NULL_SPAN

    def end(self, span: Span, **attrs: Any) -> Span:
        return span

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    @property
    def spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def counts(self) -> Dict[str, int]:
        return {}

    def kinds(self) -> Dict[str, int]:
        return {}

    def write_jsonl(self, target) -> int:
        return 0

    def persist(self, store) -> int:
        return 0

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()


def parse_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into event dicts (the smoke check's loader).

    Raises ``ValueError`` on any malformed line.
    """
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(event, dict) or "name" not in event or "ph" not in event:
            raise ValueError(f"trace line {lineno} is not a trace event: {line!r}")
        events.append(event)
    return events
