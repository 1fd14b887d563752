"""The hostile-scenario zoo: reconstructible named runs for forensics.

``make_runner`` (:mod:`repro.experiments.protocols`) builds the *correct*
protocols by name.  This registry is its dark twin: runs under a
deliberately hostile network or adversary, deterministic in a known way,
so the observability tooling has named red (or stressed) checks it can
record, replay, fuzz-seed and sweep:

``byz_split``
    The canonical Agreement violation -- a scripted Byzantine nudge makes
    a broken decider split by pid parity (two-delivery minimal schedule).
``lossy_uniform``
    Real ``whp_ba`` under a uniform lossy-link mix (drop-heavy, with some
    duplication and reordering), the degradation sweep's default axis.
``targeted_committee_drop``
    Real ``whp_ba`` where loss is aimed at the paper's weak point: every
    link *out of* the round-0 WHP-coin committee members (computed from
    the trusted setup via :func:`repro.core.committees.sample_committee`)
    drops at the scenario rate.  Uniform loss wastes most of its budget
    on non-committee traffic; this starves the coin directly.
``coin_partition``
    Real ``whp_ba`` under a :class:`~repro.sim.adversary.PartitionScheduler`
    that splits the network in half until a rate-scaled number of
    intra-partition deliveries has happened -- the adversary the coin's
    ρ-bound argument has to survive.
``dup_storm``
    Real ``whp_ba`` under heavy duplication: nothing is lost, but the
    network amplifies traffic (delivered ≫ sent words).
``reorder_heavy``
    Real ``whp_ba`` under heavy bounded reordering (large hold window) --
    adversarial asynchrony beyond what the random scheduler produces.

Scenarios are deterministic given ``(n, seed, rate)``: the corruption
set, Byzantine scripts, lossy config and scheduler are all derived from
the spec, and lossy fates are functions of (seed, seq), so a seq-exact
replay reproduces a recorded scenario bit for bit.  A scenario name may
carry an explicit rate suffix (``lossy_uniform@0.1``); recordings written
by the degradation sweep use this form so ``repro explain`` can rebuild
the exact swept cell from the recording header alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.sim.adversary import (
    Adversary,
    CorruptionStrategy,
    PartitionScheduler,
    RandomScheduler,
    Scheduler,
    StaticCorruption,
)
from repro.sim.byzantine import ByzantineBehavior, ScriptedBehavior
from repro.sim.messages import Message
from repro.sim.lossy import LossyLinkConfig
from repro.sim.process import ProcessContext, Protocol, Wait
from repro.sim.runner import stop_when_all_decided

__all__ = [
    "SCENARIOS",
    "Nudge",
    "ScenarioSpec",
    "describe_scenarios",
    "is_scenario",
    "make_scenario",
    "parse_scenario_name",
    "scenario_adversary",
    "scenario_descriptions",
    "split_decider",
]


@dataclass
class Nudge(Message):
    """The byz_split trigger message (one word, instance ``"nudge"``)."""

    payload: int = 0


def split_decider(ctx: ProcessContext) -> Protocol:
    """Broken BA: decides pid parity after hearing one Byzantine nudge.

    The canonical Agreement violation from the monitor tests: every
    correct process that receives a nudge decides its own parity, so the
    first two nudge deliveries to opposite-parity processes split the
    decision -- a failure whose minimal schedule is exactly two
    deliveries.
    """
    yield Wait(
        lambda mailbox: mailbox.stream("nudge")[0]
        if mailbox.stream("nudge")
        else None
    )
    ctx.decide(ctx.pid % 2)
    return ctx.decision


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to (re)build one named scenario run.

    ``corruption`` and ``behavior_factory`` plug into
    :class:`~repro.sim.adversary.Adversary` alongside any scheduler --
    the recorder uses :func:`scenario_adversary` (the spec's scheduler,
    or the seeded random one), the forensics replay a
    :class:`~repro.sim.adversary.ReplayScheduler`.  ``lossy`` is the
    scenario's link-fault config (``None`` for the reliable model) and
    must be passed to ``run_protocol`` on record *and* replay: fates are
    deterministic in (seed, seq), so the same config reproduces the same
    faults under a seq-exact schedule.  ``rate`` is the hostility knob
    the degradation sweep turns; ``name`` embeds it (``name@rate``) when
    it differs from the scenario default, so a recording header alone
    rebuilds the exact cell.
    """

    name: str
    factory: Callable[[ProcessContext], Protocol]
    params: Any
    f: int
    corruption: CorruptionStrategy
    behavior_factory: Callable[[int], ByzantineBehavior] | None
    stop_condition: Callable
    description: str = ""
    rate: float = 0.0
    lossy: LossyLinkConfig | None = None
    scheduler_factory: Callable[[int], Scheduler] | None = field(
        default=None, compare=False
    )

    def describe(self) -> str:
        """One line for listings: ``name  description``."""
        return f"{self.name}: {self.description}"


def _whp_runner(n: int, f: int | None, seed: int):
    """The real protocol under test (imported lazily: no import cycle)."""
    from repro.experiments.protocols import make_runner

    return make_runner("whp_ba", n, f=f, seed=seed)


def _setup_pki(n: int, seed: int) -> PKI:
    """The same trusted setup ``run_protocol`` will build for this run."""
    return PKI.create(n, rng=random.Random(derive_seed(seed, "setup")))


def _byz_split(n: int, f: int | None, seed: int, rate: float) -> ScenarioSpec:
    if n < 3:
        raise ValueError("byz_split needs n >= 3 (two correct parities + 1 Byzantine)")
    byzantine = n - 1
    # rate > 0 layers uniform drop on top of the scripted violation, so
    # even the broken scenario has a degradation axis.
    lossy = LossyLinkConfig(drop_rate=rate) if rate > 0.0 else None
    return ScenarioSpec(
        name=_spec_name("byz_split", rate, default=0.0),
        factory=split_decider,
        params=None,
        f=f if f is not None else 1,
        corruption=StaticCorruption({byzantine}),
        behavior_factory=lambda pid: ScriptedBehavior(
            on_start=lambda ctx: ctx.broadcast(Nudge("nudge"))
        ),
        stop_condition=stop_when_all_decided,
        description=_DESCRIPTIONS["byz_split"],
        rate=rate,
        lossy=lossy,
    )


def _lossy_uniform(n: int, f: int | None, seed: int, rate: float) -> ScenarioSpec:
    factory, params, eff_f = _whp_runner(n, f, seed)
    lossy = (
        LossyLinkConfig(
            drop_rate=0.6 * rate,
            duplicate_rate=0.2 * rate,
            reorder_rate=0.2 * rate,
        )
        if rate > 0.0
        else None
    )
    return ScenarioSpec(
        name=_spec_name("lossy_uniform", rate, default=0.05),
        factory=factory,
        params=params,
        f=eff_f,
        corruption=StaticCorruption(set(range(eff_f))),
        behavior_factory=None,
        stop_condition=stop_when_all_decided,
        description=_DESCRIPTIONS["lossy_uniform"],
        rate=rate,
        lossy=lossy,
    )


def _targeted_committee_drop(
    n: int, f: int | None, seed: int, rate: float
) -> ScenarioSpec:
    from repro.core.committees import sample_committee

    factory, params, eff_f = _whp_runner(n, f, seed)
    lossy = None
    if rate > 0.0:
        pki = _setup_pki(n, seed)
        # The round-0 WHP-coin committees ("first" holds the value
        # candidates, "second" the minimum-takers -- whp_coin.py).  The
        # agreement tag is "ba" (byzantine_agreement's default), so the
        # coin instance for round 0 is ("whp_coin", ("ba", 0)).
        instance = ("whp_coin", ("ba", 0))
        members = sample_committee(pki, instance, "first", params) | (
            sample_committee(pki, instance, "second", params)
        )
        lossy = LossyLinkConfig.targeted(n, senders=members, drop_rate=rate)
    return ScenarioSpec(
        name=_spec_name("targeted_committee_drop", rate, default=0.4),
        factory=factory,
        params=params,
        f=eff_f,
        corruption=StaticCorruption(set(range(eff_f))),
        behavior_factory=None,
        stop_condition=stop_when_all_decided,
        description=_DESCRIPTIONS["targeted_committee_drop"],
        rate=rate,
        lossy=lossy,
    )


def _coin_partition(n: int, f: int | None, seed: int, rate: float) -> ScenarioSpec:
    factory, params, eff_f = _whp_runner(n, f, seed)
    # rate scales how long the cut lasts, in intra-partition deliveries:
    # rate=1 holds the partition for ~8 broadcast rounds' worth of
    # traffic (8·n²); rate=0 never installs the cut.
    heal_after = int(rate * 8 * n * n)
    group_a = frozenset(range(n // 2))

    def scheduler_factory(run_seed: int) -> Scheduler:
        rng = random.Random(derive_seed(run_seed, "sched"))
        if heal_after <= 0:
            return RandomScheduler(rng)
        return PartitionScheduler(group_a, heal_after, rng=rng)

    return ScenarioSpec(
        name=_spec_name("coin_partition", rate, default=0.5),
        factory=factory,
        params=params,
        f=eff_f,
        corruption=StaticCorruption(set(range(eff_f))),
        behavior_factory=None,
        stop_condition=stop_when_all_decided,
        description=_DESCRIPTIONS["coin_partition"],
        rate=rate,
        scheduler_factory=scheduler_factory,
    )


def _dup_storm(n: int, f: int | None, seed: int, rate: float) -> ScenarioSpec:
    factory, params, eff_f = _whp_runner(n, f, seed)
    lossy = LossyLinkConfig(duplicate_rate=rate) if rate > 0.0 else None
    return ScenarioSpec(
        name=_spec_name("dup_storm", rate, default=0.35),
        factory=factory,
        params=params,
        f=eff_f,
        corruption=StaticCorruption(set(range(eff_f))),
        behavior_factory=None,
        stop_condition=stop_when_all_decided,
        description=_DESCRIPTIONS["dup_storm"],
        rate=rate,
        lossy=lossy,
    )


def _reorder_heavy(n: int, f: int | None, seed: int, rate: float) -> ScenarioSpec:
    factory, params, eff_f = _whp_runner(n, f, seed)
    lossy = (
        LossyLinkConfig(reorder_rate=rate, reorder_hold=64)
        if rate > 0.0
        else None
    )
    return ScenarioSpec(
        name=_spec_name("reorder_heavy", rate, default=0.5),
        factory=factory,
        params=params,
        f=eff_f,
        corruption=StaticCorruption(set(range(eff_f))),
        behavior_factory=None,
        stop_condition=stop_when_all_decided,
        description=_DESCRIPTIONS["reorder_heavy"],
        rate=rate,
        lossy=lossy,
    )


_DESCRIPTIONS: dict[str, str] = {
    "byz_split": (
        "broken decider + scripted Byzantine nudge; the canonical "
        "Agreement violation (rate adds uniform drop)"
    ),
    "lossy_uniform": (
        "whp_ba under a uniform lossy mix (60% drop / 20% duplicate / "
        "20% reorder of the rate)"
    ),
    "targeted_committee_drop": (
        "whp_ba with drops aimed at the round-0 coin committee's "
        "outbound links (per-link overrides)"
    ),
    "coin_partition": (
        "whp_ba under a half/half partition scheduler; rate scales the "
        "cut's duration before healing"
    ),
    "dup_storm": "whp_ba under heavy duplication (network pays, nothing lost)",
    "reorder_heavy": (
        "whp_ba under heavy bounded reordering (hold window 64 deliveries)"
    ),
}

# name -> (builder, default_rate).  The default rate is what
# `repro record --protocol <name>` uses; the degradation sweep overrides
# it per point (and embeds the override in the recorded name).
_BUILDERS: dict[
    str, tuple[Callable[[int, int | None, int, float], ScenarioSpec], float]
] = {
    "byz_split": (_byz_split, 0.0),
    "lossy_uniform": (_lossy_uniform, 0.05),
    "targeted_committee_drop": (_targeted_committee_drop, 0.4),
    "coin_partition": (_coin_partition, 0.5),
    "dup_storm": (_dup_storm, 0.35),
    "reorder_heavy": (_reorder_heavy, 0.5),
}

SCENARIOS = tuple(_BUILDERS)


def _spec_name(base: str, rate: float, default: float) -> str:
    """The canonical spec/recording name: rate-suffixed when non-default."""
    if rate == default:
        return base
    return f"{base}@{rate:g}"


def parse_scenario_name(name: str) -> tuple[str, float | None]:
    """Split ``"lossy_uniform@0.1"`` into ``("lossy_uniform", 0.1)``.

    Plain names parse to ``(name, None)`` (meaning: the scenario's
    default rate).  A malformed rate suffix raises ``ValueError`` with
    the usual unknown-scenario listing, so every caller degrades the
    same way.
    """
    base, sep, suffix = name.partition("@")
    if not sep:
        return name, None
    try:
        rate = float(suffix)
    except ValueError:
        raise ValueError(
            f"bad rate suffix in scenario name {name!r} "
            f"(expected e.g. {base}@0.1)"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"scenario rate must be in [0, 1], got {rate!r}")
    return base, rate


def is_scenario(name: str) -> bool:
    """True when ``name`` (with or without a rate suffix) names a scenario."""
    base, _, _ = name.partition("@")
    return base in _BUILDERS


def scenario_descriptions() -> dict[str, str]:
    """Registry name -> one-line description (the self-describing view)."""
    return dict(_DESCRIPTIONS)


def describe_scenarios() -> str:
    """Multi-line listing used by error messages and the CLI."""
    width = max(len(name) for name in _BUILDERS)
    return "\n".join(
        f"  {name:<{width}}  {_DESCRIPTIONS[name]}" for name in _BUILDERS
    )


def make_scenario(
    name: str,
    n: int,
    f: int | None = None,
    seed: int = 0,
    rate: float | None = None,
) -> ScenarioSpec:
    """Build the named scenario spec for an ``n``-process run.

    ``rate`` (or a ``name@rate`` suffix -- the explicit argument wins)
    overrides the scenario's default hostility rate; the returned spec's
    ``name`` carries the suffix whenever the effective rate is not the
    default, so recordings of swept cells replay at the right rate.
    """
    base, suffix_rate = parse_scenario_name(name)
    entry = _BUILDERS.get(base)
    if entry is None:
        raise ValueError(
            f"unknown scenario {name!r}; available scenarios:\n"
            + describe_scenarios()
        )
    builder, default_rate = entry
    effective = rate if rate is not None else (
        suffix_rate if suffix_rate is not None else default_rate
    )
    return builder(n, f, seed, effective)


def scenario_adversary(spec: ScenarioSpec, seed: int) -> Adversary:
    """The adversary a fresh (non-replay) run of ``spec`` should face.

    The spec's scheduler when it has one (e.g. the partition), otherwise
    the seeded random scheduler every recorder uses -- same derivation as
    ``run_protocol``'s default, so a scenario run with and without an
    explicit adversary sees the same schedule.
    """
    if spec.scheduler_factory is not None:
        scheduler = spec.scheduler_factory(seed)
    else:
        scheduler = RandomScheduler(random.Random(derive_seed(seed, "sched")))
    return Adversary(
        scheduler=scheduler,
        corruption=spec.corruption,
        behavior_factory=spec.behavior_factory,
    )
