"""The reference kernels the equivalence tests hold the kernel against.

The kernel has one delivery loop.  Its shortcuts are dispatch (a drained
batch, or a pick by pool position) and wait gating (instance
subscriptions and ``min_count`` floors).  Each shim below switches one
family off from the outside, so the same loop runs the reference:

* ``OneChoose(scheduler)`` hides ``drain`` and ``choose_index``, so the
  loop asks ``choose(pool)`` once per delivery and keeps its seq index;
* ``unsubscribed(factory)`` strips every ``Wait`` of its subscription and
  floor, so every pending condition is re-evaluated after every delivery
  to its process.

A ``PKI`` built with ``verify_cache=False`` is the third reference, for
the verification memo.  Parametrised tests name the ``OneChoose`` arm
``classic`` and the plain arm ``batched``.
"""

from __future__ import annotations

from repro.sim.adversary import Scheduler
from repro.sim.process import Wait


class OneChoose(Scheduler):
    """``inner``, asked through ``choose`` for every delivery."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.content_aware = inner.content_aware

    def on_submit(self, start, stop, pool):
        self.inner.on_submit(start, stop, pool)

    def on_delivered(self, seq):
        self.inner.on_delivered(seq)

    def choose(self, pool):
        return self.inner.choose(pool)


def unsubscribed(factory):
    """``factory``'s protocol, with each ``Wait`` re-yielded unsubscribed."""

    def protocol(ctx):
        generator = factory(ctx)
        try:
            wait = next(generator)
            while True:
                wait = generator.send((yield Wait(wait.condition, wait.description)))
        except StopIteration as stop:
            return stop.value

    return protocol


def dispatched(scheduler: Scheduler, mode: str) -> Scheduler:
    """``scheduler`` as one arm of a twin asks it: ``"classic"`` wraps it."""
    return OneChoose(scheduler) if mode == "classic" else scheduler
