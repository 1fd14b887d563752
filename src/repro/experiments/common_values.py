"""Experiment E1b: Lemma 4.2 -- counting *common* values directly.

The shared coin's analysis pivots on ``c``, the number of values received
by at least f+1 correct processes by the end of phase 1; Lemma 4.2 lower
bounds it by 9ε/(1+6ε)·n via the ones-in-a-table argument.  Here we
measure ``c`` itself: a traced run records which FIRST values each
correct process delivered *before broadcasting its SECOND*, and we count
values over the f+1 threshold.  We also record whether the global minimum
was among them (Lemma 4.4's event) and whether the run agreed -- wiring
the lemma chain 4.2 -> 4.4 -> 4.6 to data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import mean

from repro.analysis.bounds import common_values_fraction_bound
from repro.core.messages import coin_value_alpha
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.experiments.coin_success import sweep_params
from repro.experiments.sweep import sweep
from repro.experiments.tables import format_table
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.events import DeliverEvent, SendEvent
from repro.sim.network import Simulation

__all__ = ["CommonValuesPoint", "format_common_values", "run"]


@dataclass(frozen=True)
class CommonValuesRun:
    c: int
    min_was_common: bool
    agreed: bool


@dataclass(frozen=True)
class CommonValuesPoint:
    n: int
    f: int
    epsilon: float
    trials: int
    mean_c: float
    min_c: int
    paper_bound_c: float
    min_common_rate: float
    agreement_rate: float


def run_once(n: int, f: int, seed: int) -> CommonValuesRun:
    params = ProtocolParams(n=n, f=f)
    pki = PKI.create(n, rng=random.Random(derive_seed("e1b", seed)))
    sim = Simulation(
        n=n, f=f, pki=pki,
        adversary=Adversary(
            scheduler=RandomScheduler(random.Random(derive_seed("e1b-s", seed))),
            corruption=StaticCorruption(set(range(f))),
        ),
        seed=seed, params=params,
    )

    # One subscriber measures phase 1.  A FIRST value's origin is its
    # sender: shared_coin discards any FIRST whose origin is not the
    # sender's, and the corrupted processes here are silent.  A process's
    # first SECOND send is the end of its phase 1.
    first_deliveries: list[tuple[int, int, int]] = []  # (step, dest, origin)
    second_step: dict[int, int] = {}

    def measure(event) -> None:
        if type(event) is DeliverEvent:
            if event.message_kind == "FirstMsg":
                first_deliveries.append((event.step, event.dest, event.sender))
        elif type(event) is SendEvent and event.message_kind == "SecondMsg":
            second_step.setdefault(event.sender, event.step)

    sim.events.subscribe(measure)
    sim.set_protocol_all(lambda ctx: shared_coin(ctx, 0))
    sim.run()

    correct = set(sim.correct_pids)
    # Which origins' FIRST values each correct process received in phase 1.
    receivers_per_origin: dict[int, set[int]] = {}
    for step, dest, origin in first_deliveries:
        if dest not in correct:
            continue
        if dest not in second_step or step > second_step[dest]:
            continue
        receivers_per_origin.setdefault(origin, set()).add(dest)
    c = sum(1 for receivers in receivers_per_origin.values() if len(receivers) > f)

    alpha = coin_value_alpha(("shared_coin", 0))
    values = {
        pid: pki.vrf_scheme.prove(pki.vrf_private(pid), alpha).value
        for pid in range(n)
    }
    min_origin = min(values, key=values.get)
    min_common = len(receivers_per_origin.get(min_origin, ())) > f
    outputs = {sim.returns[pid] for pid in correct if pid in sim.returns}
    return CommonValuesRun(c=c, min_was_common=min_common, agreed=len(outputs) == 1)


def _point(n: int, f: int, runs: list[CommonValuesRun]) -> CommonValuesPoint:
    epsilon = ProtocolParams(n=n, f=f).epsilon
    return CommonValuesPoint(
        n=n,
        f=f,
        epsilon=epsilon,
        trials=len(runs),
        mean_c=mean(r.c for r in runs),
        min_c=min(r.c for r in runs),
        paper_bound_c=common_values_fraction_bound(epsilon) * n,
        min_common_rate=mean(r.min_was_common for r in runs),
        agreement_rate=mean(r.agreed for r in runs),
    )


def run(n: int, f_values, seeds, workers: int | None = None) -> list[CommonValuesPoint]:
    cells = [(params.n, params.f) for params in sweep_params(n, f_values)]
    return [_point(*cell, runs) for cell, runs in sweep(run_once, cells, seeds, workers)]


def format_common_values(points: list[CommonValuesPoint]) -> str:
    headers = [
        "n", "f", "epsilon", "mean c", "min c", "Lemma 4.2 bound",
        "P[min common]", "agreement",
    ]
    rows = [
        [
            point.n, point.f, point.epsilon, point.mean_c, point.min_c,
            point.paper_bound_c, point.min_common_rate, point.agreement_rate,
        ]
        for point in points
    ]
    return format_table(headers, rows)
