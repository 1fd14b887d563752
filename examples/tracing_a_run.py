#!/usr/bin/env python3
"""Auditing a run through the kernel event bus.

Subscribes a :class:`~repro.sim.FlightRecorder` to a WHP-coin run under
adaptive *committee-hunting* corruption — the adversary corrupts every
committee member the moment its message appears — and then uses the
typed event log to verify the paper's process-replaceability argument
event by event: each hunted member had already broadcast before it was
corrupted, so the corruption changed nothing.

The recorder sees every kernel event (sends, deliveries, corruptions,
decisions, wait blocking, protocol phases).  A hand-built simulation
attaches observers with ``sim.events.attach``, as done here;
``run_protocol(..., observers=[recorder])`` is the same seam.  A
recording can also be persisted and rendered: see ``python -m repro
record`` / ``python -m repro report``.

Run:  python examples/tracing_a_run.py
"""

from __future__ import annotations

import random

from repro.core.params import ProtocolParams
from repro.core.whp_coin import whp_coin
from repro.crypto.pki import PKI
from repro.sim import (
    Adversary,
    CommitteeTargetingCorruption,
    FlightRecorder,
    PhaseEvent,
    RandomScheduler,
    Simulation,
)


def main() -> None:
    n, f = 60, 4
    params = ProtocolParams.simulation_scale(n=n, f=f, lam=45)
    pki = PKI.create(n, rng=random.Random(11))
    sim = Simulation(
        n=n, f=f, pki=pki,
        adversary=Adversary(
            scheduler=RandomScheduler(random.Random(11)),
            corruption=CommitteeTargetingCorruption(),
        ),
        seed=11, params=params,
    )
    recorder = sim.events.attach(FlightRecorder())
    sim.set_protocol_all(lambda ctx: whp_coin(ctx, 0))
    sim.run()

    events = recorder.events
    sends = recorder.of_kind("send")
    delivers = recorder.of_kind("deliver")
    outputs = {sim.returns[pid] for pid in sim.correct_pids if pid in sim.returns}
    print(f"coin outputs of correct processes: {outputs}")
    print(f"events recorded: {len(events)}  "
          f"(sends {len(sends)}, deliveries {len(delivers)})")

    spans = [e for e in events if isinstance(e, PhaseEvent)]
    opened = sum(e.action == "enter" for e in spans)
    closed = sum(e.action == "exit" for e in spans)
    print(f"whp_coin spans: {opened} opened, {closed} closed "
          f"(processes corrupted mid-span never close theirs)")

    print("\nfirst 8 deliveries:")
    for event in delivers[:8]:
        print(f"  [{event.step:5d}] {event.sender} -> {event.dest} "
              f"{event.message_kind} ({event.summary.words} words, "
              f"depth {event.depth})")

    corruptions = recorder.of_kind("corrupt")
    print(f"\nadaptive corruptions: {[e.pid for e in corruptions]}")
    for event in corruptions:
        first_send = recorder.sends_by(event.pid)[0]
        verdict = (
            "TOO LATE (replaceability)"
            if first_send.step <= event.step
            else "early?!"
        )
        print(
            f"  p{event.pid}: first broadcast at step {first_send.step}, "
            f"corrupted at step {event.step} -> {verdict}"
        )
    print(
        "\nEvery corruption landed after its victim's message was already "
        "in flight: committee-hunting is futile, as Section 6.1 argues."
    )


if __name__ == "__main__":
    main()
