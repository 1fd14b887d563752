"""Type confusion: a Byzantine process re-sends what it receives with one
field swapped for an equal value of another type.

``1 == True == 1.0`` and ``b"x" == bytearray(b"x")`` in Python, so a
receiver that keys or compares on a field by ``==`` alone may merge a
Byzantine ``True`` with a correct ``1``.  Each such variant leaves the
protocols' value domain, so the kernel admits none of them
(:func:`repro.sim.messages.admit`) and a run with the confuser must be
the run without it, event for event.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.messages import OkMsg
from repro.crypto.vrf import VRFOutput
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, resolve_run
from repro.sim.byzantine import ScriptedBehavior, SilentBehavior
from repro.sim.flightrecorder import FlightRecorder, stream_digest
from repro.sim.messages import admit
from repro.sim.monitors import MonitorSuite

SEEDS = range(20)


def twins(value):
    """Every value equal to ``value`` with one part of another type."""
    kind = type(value)
    if kind is int:
        if value in (0, 1):
            yield bool(value)
        if abs(value) < 1 << 53:
            yield float(value)
    elif kind is bytes:
        yield bytearray(value)
    elif kind is tuple:
        for index, item in enumerate(value):
            for twin in twins(item):
                yield value[:index] + (twin,) + value[index + 1:]
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            for twin in twins(getattr(value, field.name)):
                yield dataclasses.replace(value, **{field.name: twin})


def type_confusion(inner=None):
    """A behaviour factory: ``inner``'s behaviour (silent by default),
    and every delivered message re-broadcast once per confused field."""

    def factory(pid):
        behavior = inner(pid) if inner is not None else SilentBehavior()

        def on_deliver(ctx, envelope):
            behavior.on_deliver(ctx, envelope)
            for variant in twins(envelope.payload):
                assert variant == envelope.payload
                ctx.broadcast(variant)

        return ScriptedBehavior(
            on_start=behavior.on_start,
            on_corrupt=behavior.on_corrupt,
            on_deliver=on_deliver,
        )

    return factory


class TestTwins:
    def test_every_twin_is_equal_and_inadmissible(self):
        proof = VRFOutput(value=1, proof=b"p")
        msg = OkMsg(("ba", 0, "est"), value=1, membership=proof,
                    justification=((1, proof, b"s"),))
        variants = list(twins(msg))
        assert admit(msg, 4)
        # instance 0 -> False, 0.0; value 1 -> True, 1.0; membership value
        # 1 -> True, 1.0 and proof -> bytearray; the justification's sender,
        # its proof (3) and its signature.
        assert len(variants) == 2 + 2 + 3 + 2 + 3 + 1
        for variant in variants:
            assert variant == msg
            assert not admit(variant, 4)


@pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
def test_a_confused_run_is_the_plain_run(name):
    """Over every name ``repro list`` prints: no exception, the monitors
    as green as without the confuser (``byz_split`` breaks Agreement by
    design), and the same events -- so the same decisions."""
    for seed in SEEDS:
        spec = resolve_run(name, 16, seed=seed)
        plain, confused = FlightRecorder(), FlightRecorder()
        suite = MonitorSuite()
        base = spec.run(observers=[plain])
        result = dataclasses.replace(
            spec, behavior_factory=type_confusion(spec.behavior_factory)
        ).run(observers=[confused, suite])
        assert result.decisions == base.decisions, (name, seed)
        assert stream_digest(confused.events) == stream_digest(plain.events)
        assert suite.ok or name == "byz_split", (name, seed, suite.report())
