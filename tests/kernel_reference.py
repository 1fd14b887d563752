"""The reference kernels the equivalence tests hold the kernel against.

The kernel has one delivery loop.  Its shortcuts are dispatch (a drained
batch, or a pick by pool position) and wait gating (instance
subscriptions and ``Wait.need`` wake-up floors).  Each shim below
switches one family off from the outside, so the same loop runs the
reference:

* ``OneChoose(scheduler)`` hides ``drain`` and ``choose_index``, so the
  loop asks ``choose(pool)`` once per delivery and keeps its seq index;
* ``unsubscribed(factory)`` strips every ``Wait`` of its subscription and
  floor, so every pending condition is re-evaluated after every delivery
  to its process.

``floor_audited(factory)`` runs the ``unsubscribed`` reference and holds
every floor the protocol declares to account (a soundness check, not a
twin).  A ``PKI`` built with ``verify_cache=False`` is the third
reference, for the verification memo.  Parametrised tests name the
``OneChoose`` arm ``classic`` and the plain arm ``batched``.
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


def floor_audited(factory, declared: list | None = None):
    """``factory``'s protocol, re-yielded unsubscribed, auditing its floors.

    Each wait is evaluated on every delivery to its process, and the shim
    remembers the ``need`` the condition declares whenever it returns
    ``None``: until that many further deliveries of the wait's subscribed
    instances have arrived, the condition must keep returning ``None`` and
    the process must not send, decide or annotate.  A breach raises
    ``AssertionError``.  Every declared floor is appended to ``declared``
    when given, so a test can tell an engaged floor from a vacuous one.
    """

    def protocol(ctx):
        acts = [0]
        for name in ("send", "broadcast", "decide", "annotate"):

            def counted(*args, _method=getattr(ctx, name), **kwargs):
                acts[0] += 1
                return _method(*args, **kwargs)

            setattr(ctx, name, counted)

        def audit(wait):
            instances = wait.instances
            if instances is None:
                return wait.condition
            allowed_at = 0  # subscribed deliveries before which nothing may act

            def condition(mailbox):
                nonlocal allowed_at
                seen = sum(len(mailbox.stream(instance)) for instance in instances)
                before = acts[0]
                result = wait.condition(mailbox)
                if seen < allowed_at and (result is not None or acts[0] != before):
                    raise AssertionError(
                        f"process {ctx.pid}: {wait.description!r} acted after "
                        f"{seen} subscribed deliveries; its floor promised "
                        f"nothing before {allowed_at}"
                    )
                if result is None:
                    allowed_at = max(allowed_at, seen + wait.need)
                    if declared is not None:
                        declared.append(wait.need)
                return result

            return condition

        generator = factory(ctx)
        try:
            wait = next(generator)
            while True:
                wait = generator.send(
                    (yield Wait(audit(wait), wait.description))
                )
        except StopIteration as stop:
            return stop.value

    return protocol


def dispatched(scheduler: Scheduler, mode: str) -> Scheduler:
    """``scheduler`` as one arm of a twin asks it: ``"classic"`` wraps it."""
    return OneChoose(scheduler) if mode == "classic" else scheduler
