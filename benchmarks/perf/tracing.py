"""Outside-in tracing: spans around the calls *into* each layer.

Nothing under ``src/`` is edited.  The traced pass wraps, from the
benchmark's side of each boundary,

* every resume of a protocol generator and every evaluation of the wait
  conditions and background handlers it hands the kernel
  (``core.step`` / ``baselines.step``),
* ``ctx.vrf`` / ``ctx.sign`` (``crypto.prove_sign``) and ``ctx.send`` /
  ``ctx.broadcast`` (``sim.submit``) on each process context,
* the scheduler's ``choose`` / ``drain`` / ``on_submit`` / ``on_delivered``
  (``sim.sched``) through a dynamic subclass, so the kernel's
  ``type(scheduler).on_submit is Scheduler.on_submit`` fast-path test
  and ``wants_view`` see exactly what they saw untraced,
* each observer's ``on_event`` and ``finalize`` / ``snapshot``
  (``observe.<observer>``),
* ``pki.vrf_verify`` / ``pki.signature_verify`` with a bare call counter
  (no span: they are the one boundary crossed too often to time).

A span has a name, a start, an end and the span that caused it.  A
name's *self time* is its spans' duration minus the part their child
spans cover; whatever a ``run`` span does not hand to a child is the
kernel's own time.  Totals are accumulated for every span; the span
list itself is kept in memory up to ``keep`` spans (the first ones, plus
every top-level span) and written once when the process ends.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "self_times", "trace_observers", "trace_op"]

Span = tuple[int, str, float, float, int]  # id, name, start, end, parent id (-1: none)


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per span name: duration minus what direct children cover."""
    spans = list(spans)
    covered: dict[int, float] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    for span_id, name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) - covered.get(span_id, 0.0)
    return totals


class Tracer:
    """In-memory span recorder with running per-name totals."""

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.spans: list[Span] = []
        self.dropped = 0
        # name -> [count, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        # Open spans, innermost last: [child seconds, span id or -1].  The
        # sentinel keeps `stack[-1]` valid after the outermost pop.
        self._stack: list[list[float]] = [[0.0, -1]]
        self._next_id = 0

    # -- recording --------------------------------------------------------------

    def _accumulator(self, name: str) -> list[float]:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, call: Callable[..., Any], always: bool = False):
        """``call`` with a span named ``name`` around every invocation.

        ``always`` keeps the span in the written list even past ``keep``
        (used for the few top-level spans a reader navigates from).
        """
        stack = self._stack
        spans = self.spans
        totals = self._accumulator(name)
        perf = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if always or len(spans) < tracer.keep:
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
            else:
                span_id = -1
            frame = [0.0, span_id]
            parent_id = stack[-1][1]
            stack.append(frame)
            start = perf()
            try:
                return call(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if span_id >= 0:
                    spans.append((span_id, name, start, end, parent_id))
                else:
                    tracer.dropped += 1

        traced.perf_traced = True  # type: ignore[attr-defined]
        return traced

    def span(self, name: str, call: Callable[[], Any]) -> Any:
        """Run ``call()`` inside one always-kept span named ``name``."""
        return self.wrap(name, call, always=True)()

    # -- reading ----------------------------------------------------------------

    def count(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id"],
            "totals": {
                name: {"count": int(count), "total_s": total, "self_s": self_s}
                for name, (count, total, self_s) in sorted(self.totals.items())
            },
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "spans": self.spans,
        }


# -- wrapping one op ---------------------------------------------------------------


class _TracedProtocol:
    """A protocol generator whose resumes, and whose yielded wait
    conditions, run inside ``<layer>.step`` spans."""

    __slots__ = ("_next", "send")

    def __init__(self, generator: Any, tracer: Tracer, step: str) -> None:
        def adopt(wait: Any) -> Any:
            if not getattr(wait.condition, "perf_traced", False):
                wait.condition = tracer.wrap(step, wait.condition)
            return wait

        resume_next = generator.__next__
        resume_send = generator.send
        self._next = tracer.wrap(step, lambda: adopt(resume_next()))
        self.send = tracer.wrap(step, lambda value: adopt(resume_send(value)))

    def __next__(self) -> Any:
        return self._next()


def _traced_scheduler_class(cls: type, tracer: Tracer) -> type:
    """A subclass of ``cls`` with spans around the kernel-facing calls.

    A hook ``cls`` inherits unchanged from the base ``Scheduler`` is left
    alone: the kernel decides from ``type(scheduler).on_submit`` whether
    to call it at all, and a wrapper there would turn a skipped call into
    a made one.
    """
    from repro.sim.adversary import Scheduler

    namespace: dict[str, Any] = {}
    for hook in ("choose", "drain", "on_submit", "on_submit_range", "on_delivered"):
        implementation = getattr(cls, hook, None)
        if implementation is None or implementation is getattr(Scheduler, hook, None):
            continue
        namespace[hook] = tracer.wrap("sim.sched", implementation)
    return type(f"Traced{cls.__name__}", (cls,), namespace)


def _count_verifies(pki: Any) -> list[int]:
    """Count the calls that really reach ``pki.vrf_verify`` /
    ``signature_verify``: ``[vrf, signature]``.

    The run's own verification counters also include the calls a compound
    validation memo *replays* without making them (``PKI.replay_cached``),
    which is most of them; only the calls made cost time.  Too frequent
    for a span, so the wrapper only counts."""
    counts = [0, 0]
    vrf_verify = pki.vrf_verify
    signature_verify = pki.signature_verify

    def counted_vrf_verify(process_id: int, alpha: bytes, output: Any) -> bool:
        counts[0] += 1
        return vrf_verify(process_id, alpha, output)

    def counted_signature_verify(process_id: int, message: bytes, signature: Any) -> bool:
        counts[1] += 1
        return signature_verify(process_id, message, signature)

    pki.vrf_verify = counted_vrf_verify
    pki.signature_verify = counted_signature_verify
    return counts


def trace_op(op: Any, tracer: Tracer) -> None:
    """Rewire one built op so its run produces spans (same inputs, same run)."""
    step = f"{op.workload.layer}.step"
    factory = op.factory

    def traced_factory(ctx: Any) -> Any:
        ctx.vrf = tracer.wrap("crypto.prove_sign", ctx.vrf)
        ctx.sign = tracer.wrap("crypto.prove_sign", ctx.sign)
        ctx.send = tracer.wrap("sim.submit", ctx.send)
        ctx.broadcast = tracer.wrap("sim.submit", ctx.broadcast)
        register = ctx.add_background_handler
        ctx.add_background_handler = lambda handler: register(tracer.wrap(step, handler))
        return _TracedProtocol(factory(ctx), tracer, step)

    op.factory = traced_factory
    op.direct_verifies = _count_verifies(op.pki)
    op.scheduler.__class__ = _traced_scheduler_class(type(op.scheduler), tracer)
    if op.observers is not None:
        trace_observers(op.observers, tracer)


def trace_observers(observers: Any, tracer: Tracer) -> None:
    for name, observer in observers.named():
        observer.on_event = tracer.wrap(f"observe.{name}", observer.on_event)
        for hook in ("finalize", "snapshot", "report"):
            if hasattr(observer, hook):
                setattr(observer, hook, tracer.wrap("observe.finalize", getattr(observer, hook)))
