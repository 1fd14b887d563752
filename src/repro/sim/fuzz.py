"""Schedule-fuzzing mechanism: candidates, typed mutations, corruption moves.

A recorded run fixes everything about a schedule -- the ``(seq, sender,
dest)`` deliveries in order, the corruption sites, the link behaviour.
The fuzzer explores the neighbourhood of that recording by applying
*typed* mutations to a :class:`FuzzCandidate`:

========================  ====================================================
mutation                  effect
========================  ====================================================
``swap_adjacent``         exchange two neighbouring deliveries
``swap_random``           exchange two arbitrary deliveries
``delay_delivery``        move one delivery later in the schedule
``drop_delivery``         remove one delivery (drop-as-delay: the message is
                          delayed past the end of the run, a legal
                          asynchronous schedule -- the minimizer's move)
``move_corruption``       re-site a recorded corruption to a different
                          delivery count (via :class:`ScheduledCorruption`)
``lossy_duplicate``       raise the lossy-link duplicate rate
``lossy_corrupt``         raise the lossy-link bit-corrupt rate
``lossy_explore``         abandon seq-exact replay: run a fresh seeded random
                          schedule under a perturbed lossy config (the only
                          way to exercise drop/reorder fates, which make the
                          recorded schedule unrealizable)
``lossy_perturb``         nudge one rate of an existing lossy config
========================  ====================================================

Everything here is deterministic given the mutation RNG; policy (budget,
novelty feedback, corpus admission, counterexample triage) lives in
:mod:`repro.experiments.fuzzing`.  Mutated schedules that the protocol
cannot realize simply make the replay scheduler raise ``RuntimeError``;
the driver treats that as "candidate unrealizable", exactly like the
minimizer does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence

from repro.sim.adversary import CorruptionStrategy, Schedule
from repro.sim.messages import EnvelopeView
from repro.sim.lossy import LossyLinkConfig

__all__ = [
    "FuzzCandidate",
    "MUTATIONS",
    "MutationContext",
    "ScheduledCorruption",
    "mutate",
]

# Rate ceilings keep mutated configs in the regime where most candidates
# still terminate: a near-1.0 drop rate just deadlocks everything.
_MAX_RATE = 0.5
_MAX_DUPLICATE = 0.9


@dataclass(frozen=True)
class FuzzCandidate:
    """One point in the fuzzer's search space.

    ``schedule`` is the ``(seq, sender, dest)`` deliveries to replay;
    ``lossy``/``corrupt_after`` layer link faults and corruption re-siting
    on top of it.  ``explore_seed`` switches execution from seq-exact
    replay to a seeded random scheduler (set by ``lossy_explore``); the
    schedule fields then only carry the lineage's delivery budget.
    """

    schedule: Schedule
    lossy: LossyLinkConfig | None = None
    corrupt_after: tuple[tuple[int, int], ...] | None = None
    explore_seed: int | None = None
    mutation: str = "seed"
    parent: int = -1

    def to_dict(self) -> dict[str, Any]:
        return {
            "mutation": self.mutation,
            "parent": self.parent,
            "schedule": [list(delivery) for delivery in self.schedule],
            "lossy": self.lossy.to_dict() if self.lossy is not None else None,
            "corrupt_after": (
                [list(entry) for entry in self.corrupt_after]
                if self.corrupt_after is not None
                else None
            ),
            "explore_seed": self.explore_seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FuzzCandidate":
        return cls(
            schedule=tuple(
                (seq, sender, dest) for seq, sender, dest in data["schedule"]
            ),
            lossy=(
                LossyLinkConfig.from_dict(data["lossy"])
                if data.get("lossy")
                else None
            ),
            corrupt_after=(
                tuple((pid, after) for pid, after in data["corrupt_after"])
                if data.get("corrupt_after")
                else None
            ),
            explore_seed=data.get("explore_seed"),
            mutation=data.get("mutation", "seed"),
            parent=data.get("parent", -1),
        )


@dataclass(frozen=True)
class MutationContext:
    """What the mutations may read about the recording being fuzzed."""

    corrupted: tuple[int, ...]  # pids the recorded run corrupted
    deliveries: int             # length of the recorded schedule


class ScheduledCorruption(CorruptionStrategy):
    """Corrupt each pid once the run has seen a given delivery count.

    The fuzzer's ``move_corruption`` mutation: the recorded corruption
    set is kept but each corruption is re-sited to fire after
    ``after_deliveries`` observed deliveries (0 = initial corruption,
    like :class:`~repro.sim.adversary.StaticCorruption`).  The count
    restarts with each run, so one instance serves a spec that is run
    many times (a replay, then the minimizer's probes).
    """

    def __init__(self, schedule: Iterable[tuple[int, int]]) -> None:
        self._schedule = tuple((int(pid), int(after)) for pid, after in schedule)
        self._seen = 0

    def initial_corruptions(self, n: int, f: int) -> set[int]:
        self._seen = 0
        return {pid for pid, after in self._schedule if after <= 0}

    def on_delivery(
        self, view: EnvelopeView, corrupted: frozenset[int]
    ) -> set[int]:
        self._seen += 1
        return {
            pid
            for pid, after in self._schedule
            if 0 < after <= self._seen and pid not in corrupted
        }


# -- schedule mutations --------------------------------------------------------


def _swap(candidate: FuzzCandidate, i: int, j: int) -> FuzzCandidate:
    schedule = list(candidate.schedule)
    schedule[i], schedule[j] = schedule[j], schedule[i]
    return replace(candidate, schedule=tuple(schedule))


def _swap_adjacent(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    if len(candidate.schedule) < 2:
        return None
    i = rng.randrange(len(candidate.schedule) - 1)
    return _swap(candidate, i, i + 1)


def _swap_random(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    if len(candidate.schedule) < 2:
        return None
    i, j = rng.sample(range(len(candidate.schedule)), 2)
    return _swap(candidate, i, j)


def _delay_delivery(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    if len(candidate.schedule) < 2:
        return None
    i = rng.randrange(len(candidate.schedule) - 1)
    j = rng.randrange(i + 1, len(candidate.schedule))
    schedule = list(candidate.schedule)
    schedule.insert(j, schedule.pop(i))
    return replace(candidate, schedule=tuple(schedule))


def _drop_delivery(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    if not candidate.schedule:
        return None
    i = rng.randrange(len(candidate.schedule))
    schedule = candidate.schedule
    return replace(candidate, schedule=schedule[:i] + schedule[i + 1:])


def _move_corruption(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    if not ctx.corrupted:
        return None
    sites = dict(candidate.corrupt_after or ((pid, 0) for pid in ctx.corrupted))
    pid = ctx.corrupted[rng.randrange(len(ctx.corrupted))]
    sites[pid] = rng.randrange(len(candidate.schedule) + 1)
    return replace(candidate, corrupt_after=tuple(sorted(sites.items())))


# -- lossy-link mutations ------------------------------------------------------


def _base_lossy(candidate: FuzzCandidate) -> LossyLinkConfig:
    return candidate.lossy if candidate.lossy is not None else LossyLinkConfig()


def _clamped(config: LossyLinkConfig, **updates: float) -> LossyLinkConfig | None:
    """A new config with ``updates`` applied, or None when the fates
    would no longer be mutually exclusive."""
    rates = {
        "drop_rate": config.drop_rate,
        "duplicate_rate": config.duplicate_rate,
        "reorder_rate": config.reorder_rate,
        "corrupt_rate": config.corrupt_rate,
    }
    rates.update(updates)
    if sum(rates.values()) > 1.0:
        return None
    return LossyLinkConfig(reorder_hold=config.reorder_hold, **rates)


def _lossy_duplicate(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    base = _base_lossy(candidate)
    rate = min(_MAX_DUPLICATE, base.duplicate_rate + 0.1 + 0.4 * rng.random())
    config = _clamped(base, duplicate_rate=rate)
    if config is None:
        return None
    return replace(candidate, lossy=config)


def _lossy_corrupt(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    base = _base_lossy(candidate)
    rate = min(_MAX_RATE, base.corrupt_rate + 0.05 + 0.25 * rng.random())
    config = _clamped(base, corrupt_rate=rate)
    if config is None:
        return None
    return replace(candidate, lossy=config)


def _lossy_explore(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    base = _base_lossy(candidate)
    config = _clamped(
        base,
        drop_rate=min(0.15, base.drop_rate + 0.05 * rng.random()),
        duplicate_rate=min(_MAX_DUPLICATE, base.duplicate_rate + 0.2 * rng.random()),
        reorder_rate=min(0.3, base.reorder_rate + 0.15 * rng.random()),
    )
    if config is None or not config.active:
        return None
    return replace(
        candidate, lossy=config, explore_seed=rng.getrandbits(32)
    )


def _lossy_perturb(
    candidate: FuzzCandidate, rng: random.Random, ctx: MutationContext
) -> FuzzCandidate | None:
    if candidate.lossy is None:
        return None
    base = candidate.lossy
    # Drop/reorder make a recorded schedule unrealizable; only perturb
    # them on explore candidates (which run a fresh random schedule).
    names = ["duplicate_rate", "corrupt_rate"]
    if candidate.explore_seed is not None:
        names += ["drop_rate", "reorder_rate"]
    name = names[rng.randrange(len(names))]
    ceiling = _MAX_DUPLICATE if name == "duplicate_rate" else _MAX_RATE
    value = getattr(base, name) + rng.uniform(-0.1, 0.1)
    config = _clamped(base, **{name: min(ceiling, max(0.0, value))})
    if config is None:
        return None
    explore_seed = candidate.explore_seed
    if explore_seed is not None:
        explore_seed = rng.getrandbits(32)
    return replace(candidate, lossy=config, explore_seed=explore_seed)


MUTATIONS: dict[
    str,
    Callable[[FuzzCandidate, random.Random, MutationContext], FuzzCandidate | None],
] = {
    "swap_adjacent": _swap_adjacent,
    "swap_random": _swap_random,
    "delay_delivery": _delay_delivery,
    "drop_delivery": _drop_delivery,
    "move_corruption": _move_corruption,
    "lossy_duplicate": _lossy_duplicate,
    "lossy_corrupt": _lossy_corrupt,
    "lossy_explore": _lossy_explore,
    "lossy_perturb": _lossy_perturb,
}


def mutate(
    candidate: FuzzCandidate,
    rng: random.Random,
    ctx: MutationContext,
    names: Sequence[str] | None = None,
    attempts: int = 8,
) -> FuzzCandidate | None:
    """Apply one applicable typed mutation; None if all attempts misfire.

    Draws mutation kinds uniformly (from ``names`` or the full registry)
    and retries when the drawn mutation is inapplicable to this candidate
    (e.g. ``move_corruption`` with no recorded corruption).  The result
    is stamped with the mutation name; the caller stamps lineage.
    """
    pool = list(names) if names is not None else list(MUTATIONS)
    for _ in range(attempts):
        name = pool[rng.randrange(len(pool))]
        mutated = MUTATIONS[name](candidate, rng, ctx)
        if mutated is not None and mutated != candidate:
            return replace(mutated, mutation=name)
    return None
