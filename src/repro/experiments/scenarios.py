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

A zoo entry is one perturbation of the *benign* run of a Table 1
protocol, and both are the same :class:`RunSpec`: :func:`resolve_run`
turns any name ``repro record --protocol`` accepts into one, and
:meth:`RunSpec.run` is the one place the tool family (``record``,
``explain``, ``fuzz``, ``degrade``, ``check``) builds an adversary and
calls the kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.core.committees import sample_committee
from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.experiments.protocols import PROTOCOLS, make_runner
from repro.sim.adversary import (
    Adversary,
    CorruptionStrategy,
    PartitionScheduler,
    RandomScheduler,
    Scheduler,
    StaticCorruption,
)
from repro.sim.byzantine import ByzantineBehavior, ScriptedBehavior
from repro.sim.messages import Message, integer
from repro.sim.lossy import LossyLinkConfig
from repro.sim.process import ProcessContext, Protocol, Wait
from repro.sim.network import DEFAULT_MAX_DELIVERIES
from repro.sim.runner import RunResult, run_protocol, stop_when_all_decided

__all__ = [
    "SCENARIOS",
    "Nudge",
    "RunSpec",
    "describe_runs",
    "parse_scenario_name",
    "resolve_run",
    "split_decider",
]


@dataclass
class Nudge(Message):
    """The byz_split trigger message (one word, instance ``"nudge"``)."""

    payload: int = 0
    field_kinds = {"payload": integer}


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
class RunSpec:
    """One run of the paper's model, fully determined: protocol, n, f,
    trusted set-up (``seed``), adversary and link model.

    :func:`resolve_run` builds one from a name; ``dataclasses.replace``
    perturbs one (the zoo entries, a fuzz candidate's ``lossy`` and
    ``corruption``, a replay's recorded corruption set).  ``scheduler``
    makes the run's own scheduler from its seeded generator; ``lossy``
    is the link-fault config (``None`` for the reliable model), whose
    fates are deterministic in (seed, seq), so the same spec under a
    seq-exact schedule reproduces the same faults.  ``rate`` is the
    hostility knob the degradation sweep turns; ``name`` embeds it
    (``name@rate``) when it differs from the scenario default, so a
    recording header alone rebuilds the exact cell.
    """

    name: str
    n: int
    f: int
    seed: int
    factory: Callable[[ProcessContext], Protocol]
    params: Any
    corruption: CorruptionStrategy
    behavior_factory: Callable[[int], ByzantineBehavior] | None = None
    rate: float = 0.0
    lossy: LossyLinkConfig | None = None
    scheduler: Callable[[random.Random], Scheduler] = RandomScheduler

    def run(
        self,
        scheduler: Scheduler | None = None,
        observers: Sequence[Any] = (),
        max_deliveries: int = DEFAULT_MAX_DELIVERIES,
        profile: bool = False,
    ) -> RunResult:
        """Execute the run until every correct process has decided,
        under ``scheduler`` (a replay, an explorer) or, by default, the
        spec's own: seeded exactly as ``run_protocol`` seeds its default,
        so a benign spec is the run ``run_protocol(n, f, factory,
        corrupt=set(range(f)))`` makes."""
        if scheduler is None:
            scheduler = self.scheduler(random.Random(derive_seed(self.seed, "sched")))
        return run_protocol(
            self.n,
            self.f,
            self.factory,
            adversary=Adversary(scheduler, self.corruption, self.behavior_factory),
            seed=self.seed,
            params=self.params,
            stop_condition=stop_when_all_decided,
            max_deliveries=max_deliveries,
            profile=profile,
            lossy=self.lossy,
            observers=observers,
        )


def _benign(protocol: str, n: int, f: int | None, seed: int) -> RunSpec:
    """A Table 1 protocol as every experiment runs it: the first ``f``
    processes statically corrupted and silent, reliable links, the
    seeded random scheduler, stop when every correct process decided."""
    factory, params, f = make_runner(protocol, n, f=f, seed=seed)
    return RunSpec(protocol, n, f, seed, factory, params, StaticCorruption(range(f)))


# A zoo entry's builder: (n, f, seed, rate) -> the perturbed run.
_Perturbation = Callable[[int, "int | None", int, float], RunSpec]


def _links(config: Callable[[float], LossyLinkConfig]) -> _Perturbation:
    """Perturbation: benign ``whp_ba`` over ``config(rate)`` links."""

    def perturb(n: int, f: int | None, seed: int, rate: float) -> RunSpec:
        spec = _benign("whp_ba", n, f, seed)
        return replace(spec, lossy=config(rate)) if rate > 0.0 else spec

    return perturb


def _byz_split(n: int, f: int | None, seed: int, rate: float) -> RunSpec:
    if n < 3:
        raise ValueError("byz_split needs n >= 3 (two correct parities + 1 Byzantine)")
    return RunSpec(
        "byz_split",
        n,
        f if f is not None else 1,
        seed,
        split_decider,
        None,
        StaticCorruption({n - 1}),
        behavior_factory=lambda pid: ScriptedBehavior(
            on_start=lambda ctx: ctx.broadcast(Nudge("nudge"))
        ),
        # rate > 0 layers uniform drop on top of the scripted violation,
        # so even the broken scenario has a degradation axis.
        lossy=LossyLinkConfig(drop_rate=rate) if rate > 0.0 else None,
    )


def _targeted_committee_drop(n: int, f: int | None, seed: int, rate: float) -> RunSpec:
    spec = _benign("whp_ba", n, f, seed)
    if rate <= 0.0:
        return spec
    # The same trusted setup ``run_protocol`` will build for this run.
    pki = PKI.create(n, rng=random.Random(derive_seed(seed, "setup")))
    # The round-0 WHP-coin committees ("first" holds the value
    # candidates, "second" the minimum-takers -- whp_coin.py).  The
    # agreement tag is "ba" (byzantine_agreement's default), so the coin
    # instance for round 0 is ("whp_coin", ("ba", 0)).
    instance = ("whp_coin", ("ba", 0))
    members = sample_committee(pki, instance, "first", spec.params) | (
        sample_committee(pki, instance, "second", spec.params)
    )
    return replace(
        spec, lossy=LossyLinkConfig.targeted(n, senders=members, drop_rate=rate)
    )


def _coin_partition(n: int, f: int | None, seed: int, rate: float) -> RunSpec:
    spec = _benign("whp_ba", n, f, seed)
    # rate scales how long the cut lasts, in intra-partition deliveries:
    # rate=1 holds the partition for ~8 broadcast rounds' worth of
    # traffic (8·n²); rate=0 never installs the cut.
    heal_after = int(rate * 8 * n * n)
    if heal_after <= 0:
        return spec
    group_a = frozenset(range(n // 2))
    return replace(
        spec, scheduler=lambda rng: PartitionScheduler(group_a, heal_after, rng=rng)
    )


# name -> (description, default rate, perturbation).  The default rate is
# what `repro record --protocol <name>` uses; the degradation sweep
# overrides it per point (and embeds the override in the recorded name).
# Every perturbation but byz_split (which swaps the protocol itself)
# changes one thing about the benign whp_ba run.  New hostile strategies
# register here.
_ZOO: dict[str, tuple[str, float, _Perturbation]] = {
    "byz_split": (
        "broken decider + scripted Byzantine nudge; the canonical "
        "Agreement violation (rate adds uniform drop)",
        0.0,
        _byz_split,
    ),
    "lossy_uniform": (
        "whp_ba under a uniform lossy mix (60% drop / 20% duplicate / "
        "20% reorder of the rate)",
        0.05,
        _links(
            lambda rate: LossyLinkConfig(
                drop_rate=0.6 * rate,
                duplicate_rate=0.2 * rate,
                reorder_rate=0.2 * rate,
            )
        ),
    ),
    "targeted_committee_drop": (
        "whp_ba with drops aimed at the round-0 coin committee's "
        "outbound links (per-link overrides)",
        0.4,
        _targeted_committee_drop,
    ),
    "coin_partition": (
        "whp_ba under a half/half partition scheduler; rate scales the "
        "cut's duration before healing",
        0.5,
        _coin_partition,
    ),
    "dup_storm": (
        "whp_ba under heavy duplication (network pays, nothing lost)",
        0.35,
        _links(lambda rate: LossyLinkConfig(duplicate_rate=rate)),
    ),
    "reorder_heavy": (
        "whp_ba under heavy bounded reordering (hold window 64 deliveries)",
        0.5,
        _links(lambda rate: LossyLinkConfig(reorder_rate=rate, reorder_hold=64)),
    ),
}

SCENARIOS = tuple(_ZOO)


def parse_scenario_name(name: str) -> tuple[str, float | None]:
    """Split ``"lossy_uniform@0.1"`` into ``("lossy_uniform", 0.1)``.

    Plain names parse to ``(name, None)`` (meaning: the scenario's
    default rate).  A malformed or out-of-range rate suffix raises
    ``ValueError``, so every caller degrades the same way.
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


def describe_runs() -> str:
    """What ``--protocol`` accepts: the listing the unknown-name error
    and ``repro list`` both print."""
    width = max(len(name) for name in _ZOO)
    return "\n".join(
        [
            "protocols (the benign run: f silent corruptions, random scheduler):",
            f"  {', '.join(PROTOCOLS)}",
            "scenarios (append @rate to override the hostility rate):",
            *(f"  {name:<{width}}  {entry[0]}" for name, entry in _ZOO.items()),
        ]
    )


def resolve_run(
    name: str,
    n: int,
    f: int | None = None,
    seed: int = 0,
    rate: float | None = None,
) -> RunSpec:
    """The run a name stands for, for an ``n``-process system.

    A Table 1 protocol name is its benign run; a zoo name is that run
    with one perturbation, at ``rate`` (or a ``name@rate`` suffix -- the
    explicit argument wins; default: the scenario's own).  The returned
    spec's ``name`` carries the suffix whenever the effective rate is
    not the default, written with ``repr`` so that resolving it again
    yields the very same rate: recordings of swept cells replay as they
    ran.  An unknown name raises ``ValueError`` with the full listing.
    """
    base, suffix_rate = parse_scenario_name(name)
    if rate is None:
        rate = suffix_rate
    if base in PROTOCOLS and rate is None:
        return _benign(base, n, f, seed)
    if base not in _ZOO:
        raise ValueError(f"unknown protocol or scenario {name!r}\n" + describe_runs())
    _, default_rate, perturb = _ZOO[base]
    rate = default_rate if rate is None else float(rate)
    return replace(
        perturb(n, f, seed, rate),
        name=base if rate == default_rate else f"{base}@{rate!r}",
        rate=rate,
    )
