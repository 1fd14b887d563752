"""Process runtime: contexts, wait-conditions and the protocol coroutine type.

A protocol is a generator function ``protocol(ctx)`` that performs sends
through ``ctx``, then ``yield``s :class:`Wait` objects whose condition
closures implement the protocol's ``upon receiving ...`` handlers.  The
kernel re-evaluates the pending condition after each delivery to the
process that could change it (see :class:`Wait`'s ``instances`` and
``need``); when the condition returns non-``None`` the generator resumes
with that value.  Sub-protocols (the approver inside Byzantine Agreement,
for instance) compose with ``yield from`` and simply return their result.

Condition closures are allowed to send messages through the captured
context -- that is exactly how reactive handlers such as "upon receiving
ECHO(v) from W processes, broadcast OK(v)" are expressed while the main
body blocks on the final return condition.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Hashable, Iterable

from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRFOutput
from repro.sim.events import DecideEvent, PhaseEvent
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message

if TYPE_CHECKING:
    from repro.sim.network import Simulation

__all__ = ["ProcessContext", "Protocol", "ProtocolFactory", "Wait"]

# A protocol coroutine yields Wait objects and returns its final result.
Protocol = Generator["Wait", Any, Any]
ProtocolFactory = Callable[["ProcessContext"], Protocol]


@dataclass
class Wait:
    """A blocking point: resume when ``condition(mailbox)`` is non-``None``.

    The same ``Wait`` object is re-evaluated repeatedly, so conditions may
    keep incremental state (cursors, partial tallies) in their closure.

    ``instances`` is the wakeup subscription: the set of mailbox instances
    the condition reads.  When given, the kernel re-evaluates the pending
    condition only after a delivery for one of those instances -- a
    delivery for any other instance provably cannot change the condition's
    result, so skipping the evaluation is observationally identical (the
    hot-path contract: a subscribed condition must be a pure function of
    its subscribed streams plus its own closure state).  It may also read
    state that only the background handlers of its subscribed instances
    mutate: the kernel calls those only on deliveries of their instance,
    before it evaluates the condition.  ``None`` keeps the
    pre-subscription behaviour: re-evaluate after every delivery.  Leave it
    ``None`` whenever the condition reads state mutated elsewhere.

    ``need`` is the wake-up floor: the number of *further* subscribed
    deliveries before the condition can return non-``None`` or perform a
    kernel-visible side effect (a send, a decide, an annotation).  The
    condition restates it each time it returns ``None`` -- a protocol
    binds its own ``Wait`` (``wait = Wait(step, ...)``; ``result = yield
    wait``) and ``step`` writes ``wait.need`` -- and the kernel reads it
    after every evaluation that returns ``None``, then skips the next
    ``need - 1`` subscribed deliveries: the skipped evaluations are
    no-ops by the promise, so skipping them is observationally
    identical.  A threshold rule ("upon receiving X from q processes")
    whose every delivery adds at most one to one tally states the
    smallest distance from any tally to its trigger.  ``0`` (the
    default) evaluates on every subscribed delivery; ``need`` is only
    honoured with ``instances``.  The equivalence tests' reference
    re-yields every ``Wait`` without either
    (``tests/kernel_reference.py``), so each pending condition is
    re-evaluated after every delivery to its process.
    """

    condition: Callable[[Mailbox], Any]
    description: str = ""
    instances: Iterable[Hashable] | None = None
    need: int = 0

    def __post_init__(self) -> None:
        if self.instances is not None and not isinstance(self.instances, frozenset):
            self.instances = frozenset(self.instances)


class ProcessContext:
    """Everything one process may legitimately touch.

    Holds the process's *own* private keys only; Byzantine behaviours get
    the same interface after corruption, which models the adversary
    learning the corrupted process's private state -- and nothing more.
    """

    def __init__(self, pid: int, simulation: "Simulation") -> None:
        self.pid = pid
        self._simulation = simulation
        self.mailbox = Mailbox()
        self._rng: random.Random | None = None
        self.depth = 0
        self.decision: Any = None
        self.decided = False
        self.decision_depth: int | None = None
        # Forever-active "upon receiving ..." handlers (e.g. MMR's
        # BV-broadcast relay rule, which must keep relaying even after the
        # process moved on to later rounds), keyed by the one instance
        # whose stream each reads.  The kernel calls a handler only on
        # deliveries of its own instance.
        self.background_handlers: dict[Hashable, Callable[[Mailbox], Hashable]] = {}
        # Free-form per-process facts recorded by protocols (e.g. the round
        # a decision happened in); snapshotted into RunResult.notes.
        self.notes: dict[str, Any] = {}

    # -- static environment --------------------------------------------------

    @property
    def n(self) -> int:
        return self._simulation.n

    @property
    def pki(self) -> PKI:
        return self._simulation.pki

    @property
    def rng(self) -> random.Random:
        """Deterministic per-process randomness, independent across pids.

        Seeded on first use from the run seed and the pid: only the
        randomised baselines draw from it, so the other protocols never
        pay for n Mersenne Twisters.
        """
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(
                derive_seed(self._simulation.seed, "process", self.pid)
            )
        return rng

    @property
    def params(self) -> Any:
        """Protocol parameter object installed by the runner (if any)."""
        return self._simulation.params

    # -- communication --------------------------------------------------------

    def send(self, dest: int, message: Message) -> None:
        """Send ``message`` to process ``dest`` over the reliable link."""
        self._simulation.submit(self.pid, dest, message)

    def broadcast(self, message: Message) -> None:
        """Send ``message`` to every process, including ourselves.

        Self-delivery goes through the network like any other message; the
        adversary may reorder it, which only weakens the correct processes
        and therefore preserves the paper's guarantees.
        """
        self._simulation.submit_broadcast(self.pid, message)

    def add_background_handler(self, handler: Callable[[Mailbox], Hashable]) -> None:
        """Register a side-effect-only handler for one instance's deliveries.

        The handler is invoked once immediately so it can catch up on
        already-buffered messages, and returns the instance whose stream
        it reads; from then on the kernel calls it after each delivery of
        that instance, and of no other, *before* the pending
        wait-condition is evaluated.  Handlers keep their own cursors, so
        each call costs O(new messages).  One handler per instance.  The
        key comes back from the handler rather than as a second argument,
        so a wrapper that forwards the one handler (a tracing span, say)
        is keyed like the handler it wraps.
        """
        instance = handler(self.mailbox)
        if instance in self.background_handlers:
            raise ValueError(f"instance {instance!r} already has a background handler")
        self.background_handlers[instance] = handler

    def retire(self, instance: Hashable) -> None:
        """Declare ``instance`` finished: its late messages are dropped, not
        buffered.  Only when no wait or handler will read it again.  Once
        every correct process has retired it, the PKI drops the
        instance's validation memo."""
        self.mailbox.retire(instance)
        self._simulation.note_retired(self.pid, instance)

    # -- observability -----------------------------------------------------------

    def annotate(self, kind: str, **facts: Any) -> None:
        """Append one structured protocol fact to the run's record log.

        The paper's per-round quantities (round outcomes, coin
        invocations, observed committee sizes, approver grades) flow
        through here; :meth:`repro.sim.metrics.MetricsRecorder.protocol_summary`
        rolls them up.  Always on -- recording a run must not change it,
        so the facts exist whether or not anything subscribes to the
        event bus.  Keep ``facts`` values JSON-friendly.
        """
        simulation = self._simulation
        simulation.metrics.record(simulation.deliveries, self.pid, kind, facts)

    @contextmanager
    def span(self, phase: str, instance: Hashable = None):
        """Mark a protocol phase: emits enter/exit events, times it if profiling.

        Safe around ``yield from`` inside protocol generators -- the span
        closes when the generator passes the block's end.  Wall-clock
        accumulates under ``span.<phase>`` in ``metrics.phase_timings``
        when the simulation profiles; note that a generator span's
        wall-clock includes time the process spent blocked, which is
        exactly the flight-recorder view of latency.

        A span abandoned mid-flight -- the harness stopped the run while
        this process was inside it, so its generator is torn down later,
        at garbage-collection time -- emits no exit event and records no
        timing: the run is already snapshotted by then, and appending to
        a recorder post-run would corrupt the recording.
        """
        simulation = self._simulation
        if simulation.events.subscribers:
            simulation.events.emit(
                PhaseEvent(
                    step=simulation.deliveries,
                    pid=self.pid,
                    phase=phase,
                    instance=instance,
                    action="enter",
                )
            )
        start = time.perf_counter() if simulation.profile else None
        yield
        if start is not None:
            simulation.metrics.add_timing(
                f"span.{phase}", time.perf_counter() - start
            )
        if simulation.events.subscribers:
            simulation.events.emit(
                PhaseEvent(
                    step=simulation.deliveries,
                    pid=self.pid,
                    phase=phase,
                    instance=instance,
                    action="exit",
                )
            )

    # -- decisions -------------------------------------------------------------

    def decide(self, value: Any) -> None:
        """Record an irrevocable decision (at most once)."""
        if self.decided:
            if value != self.decision:
                raise RuntimeError(
                    f"process {self.pid} tried to change its decision "
                    f"from {self.decision!r} to {value!r}"
                )
            return
        self.decided = True
        self.decision = value
        self.decision_depth = self.depth
        simulation = self._simulation
        simulation.note_decision(self.pid)
        if simulation.events.subscribers:
            simulation.events.emit(
                DecideEvent(
                    step=simulation.deliveries,
                    pid=self.pid,
                    value=value,
                    depth=self.depth,
                )
            )

    # -- cryptography (own keys only) -------------------------------------------

    def vrf(self, alpha: bytes) -> VRFOutput:
        """Evaluate our own VRF on ``alpha``."""
        return self.pki.vrf_scheme.prove(self.pki.vrf_private(self.pid), alpha)

    def sign(self, message: bytes) -> Any:
        """Sign ``message`` with our own signing key."""
        return self.pki.signature_scheme.sign(
            self.pki.signature_private(self.pid), message
        )

    def verify_vrf(self, sender: int, alpha: bytes, output: VRFOutput) -> bool:
        return self.pki.vrf_verify(sender, alpha, output)

    def verify_signature(self, sender: int, message: bytes, signature: Any) -> bool:
        return self.pki.signature_verify(sender, message, signature)
