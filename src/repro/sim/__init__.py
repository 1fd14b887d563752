"""Discrete-event asynchronous distributed-system simulator.

Asynchrony is modelled exactly as in the paper: the adversary schedules
every message.  The simulator therefore funnels *all* nondeterminism
through one :class:`~repro.sim.adversary.Adversary` object whose view of
in-flight messages is capability-restricted -- content-oblivious schedulers
mechanically satisfy the paper's *delayed-adaptive* constraint (they are in
fact strictly weaker than the definition allows, which preserves every
theorem), while the content-aware scheduler used in the E6 ablation
deliberately violates it.

Protocols are written as Python generators that ``yield`` a single
reactive :class:`~repro.sim.process.Wait` condition; sub-protocols compose
with ``yield from``, so Algorithm 4's body reads like the paper's
pseudocode.
"""

from repro.sim.adversary import (
    AdaptiveFirstSpeakersCorruption,
    CommitteeTargetingCorruption,
    Adversary,
    ContentAwareMinWithholdScheduler,
    FIFOScheduler,
    PartitionScheduler,
    RandomScheduler,
    ReplayScheduler,
    Scheduler,
    ScriptedScheduler,
    StaticCorruption,
    TargetedDelayScheduler,
)
from repro.sim.events import (
    CorruptEvent,
    DecideEvent,
    DeliverEvent,
    EventBus,
    KernelEvent,
    PayloadSummary,
    PhaseEvent,
    SendEvent,
    WaitBlockEvent,
    WaitWakeEvent,
    event_from_record,
    event_to_record,
)
from repro.sim.byzantine import (
    ByzantineBehavior,
    CrashBehavior,
    ScriptedBehavior,
    SilentBehavior,
)
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Envelope, Message
from repro.sim.flightrecorder import (
    EventLog,
    FlightRecorder,
    critical_path,
    load_recording,
    save_recording,
)
from repro.sim.metrics import MetricsRecorder, ProtocolRecord, histogram
from repro.sim.monitors import (
    ApproverMonitor,
    CoinMonitor,
    CommitteeMonitor,
    Monitor,
    MonitorSuite,
    SafetyMonitor,
    ViolationReport,
    default_monitors,
)
from repro.sim.network import Simulation
from repro.sim.process import ProcessContext, Wait
from repro.sim.telemetry import TelemetryProbe, telemetry_from_events
from repro.sim.traceexport import (
    chrome_trace_events,
    export_chrome_trace,
    save_chrome_trace,
)
from repro.sim.runner import (
    RunResult,
    run_protocol,
    stop_when_all_decided,
    stop_when_all_returned,
)

__all__ = [
    "AdaptiveFirstSpeakersCorruption",
    "CommitteeTargetingCorruption",
    "Adversary",
    "ApproverMonitor",
    "ByzantineBehavior",
    "CoinMonitor",
    "CommitteeMonitor",
    "ContentAwareMinWithholdScheduler",
    "CorruptEvent",
    "CrashBehavior",
    "DecideEvent",
    "DeliverEvent",
    "Envelope",
    "EventBus",
    "EventLog",
    "FIFOScheduler",
    "FlightRecorder",
    "KernelEvent",
    "Mailbox",
    "Monitor",
    "MonitorSuite",
    "PartitionScheduler",
    "Message",
    "MetricsRecorder",
    "PayloadSummary",
    "PhaseEvent",
    "ProcessContext",
    "ProtocolRecord",
    "RandomScheduler",
    "ReplayScheduler",
    "RunResult",
    "SafetyMonitor",
    "Scheduler",
    "SendEvent",
    "ScriptedBehavior",
    "ScriptedScheduler",
    "SilentBehavior",
    "Simulation",
    "StaticCorruption",
    "TargetedDelayScheduler",
    "TelemetryProbe",
    "ViolationReport",
    "Wait",
    "WaitBlockEvent",
    "WaitWakeEvent",
    "chrome_trace_events",
    "critical_path",
    "default_monitors",
    "event_from_record",
    "event_to_record",
    "export_chrome_trace",
    "histogram",
    "load_recording",
    "run_protocol",
    "save_chrome_trace",
    "save_recording",
    "telemetry_from_events",
    "stop_when_all_decided",
    "stop_when_all_returned",
]
