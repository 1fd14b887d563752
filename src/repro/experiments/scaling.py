"""Experiment E4: word-complexity scaling and the quadratic crossover.

Measures words-per-BA-instance as a function of n for the committee-based
protocol versus the quadratic baselines, fits log-log slopes, and reports
the model prediction next to each measurement.  The paper's claim: our
curve grows like n log² n (slope ≈ 1.2 at these scales) while
MMR/Cachin grow like n² (slope ≈ 2), so a crossover exists and moves the
advantage our way as n grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import mean

from repro.analysis.complexity import fit_loglog_slope, word_complexity_model
from repro.experiments.ascii_plot import loglog_plot
from repro.experiments.parallel import parallel_map
from repro.experiments.protocols import make_runner
from repro.experiments.tables import format_table
from repro.sim.runner import run_protocol, stop_when_all_decided

__all__ = ["ScalingCurve", "format_scaling", "make_adversary", "run"]

# Scheduler registry for sweep trials.  Trials run in worker processes
# that rebuild everything from primitive (picklable) arguments, so the
# sweep API takes a scheduler *name* rather than an instance; ``None``
# keeps run_protocol's seeded uniform-random default.
_SCHEDULERS = ("fifo", "delay", "random")


def make_adversary(scheduler: str | None, f_used: int, seed: int):
    """Build the (picklable-by-name) adversary for one sweep trial."""
    if scheduler is None:
        return None
    import random as _random

    from repro.crypto.hashing import derive_seed
    from repro.sim.adversary import (
        Adversary,
        DelayBoundedScheduler,
        FIFOScheduler,
        RandomScheduler,
        StaticCorruption,
    )

    rng = _random.Random(derive_seed(seed, "sched"))
    if scheduler == "fifo":
        chosen = FIFOScheduler()
    elif scheduler == "delay":
        chosen = DelayBoundedScheduler(rng=rng)
    elif scheduler == "random":
        chosen = RandomScheduler(rng)
    else:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; expected one of {_SCHEDULERS}"
        )
    return Adversary(
        scheduler=chosen, corruption=StaticCorruption(set(range(f_used)))
    )


def _trial(
    name: str,
    n: int,
    f: int | None,
    seed: int,
    whp_sigmas: float,
    max_deliveries: int,
    scheduler: str | None = None,
) -> tuple[float | None, tuple[int, int, int] | None]:
    """One seeded run; top-level so sweep workers can pickle it.

    The protocol closure is rebuilt inside the worker from primitive
    arguments (closures themselves do not pickle).  Returns
    ``(lam, (words, messages, rounds) | None)``.
    """
    factory, params, f_used = make_runner(
        name, n, f=f, seed=seed, whp_sigmas=whp_sigmas
    )
    lam = params.lam if params.lam is not None else 8 * math.log(n)
    adversary = make_adversary(scheduler, f_used, seed)
    result = run_protocol(
        n, f_used, factory,
        adversary=adversary,
        corrupt=None if adversary is not None else set(range(f_used)),
        params=params,
        stop_condition=stop_when_all_decided, seed=seed,
        max_deliveries=max_deliveries,
    )
    if not (result.live and result.all_correct_decided):
        return lam, None
    decision_rounds = [
        notes["decision_round"] + 1
        for notes in result.notes.values()
        if "decision_round" in notes
    ]
    rounds = max(decision_rounds) if decision_rounds else 1
    return lam, (result.words, result.metrics.messages_sent_correct, rounds)


@dataclass(frozen=True)
class ScalingCurve:
    protocol: str
    n_values: tuple[int, ...]
    mean_words: tuple[float, ...]
    mean_messages: tuple[float, ...]
    mean_rounds: tuple[float, ...]
    words_per_round: tuple[float, ...]
    slope_words: float
    slope_words_per_round: float
    model_words: tuple[float, ...]


def run_curve(
    name: str,
    n_values,
    seeds,
    max_deliveries: int = 8_000_000,
    f: int | None = None,
    whp_sigmas: float = 3.0,
    workers: int | None = None,
    scheduler: str | None = None,
) -> ScalingCurve:
    words_per_n: list[float] = []
    messages_per_n: list[float] = []
    rounds_per_n: list[float] = []
    model = word_complexity_model("whp_ba" if name == "whp_ba" else
                                  "mmr_shared_coin" if name == "mmr+alg1" else name)
    model_points = []
    for n in n_values:
        outcomes = parallel_map(
            _trial,
            [
                (name, n, f, seed, whp_sigmas, max_deliveries, scheduler)
                for seed in seeds
            ],
            workers=workers,
        )
        lam = outcomes[-1][0] if outcomes else None
        stats = [measured for _, measured in outcomes if measured is not None]
        words = [w for w, _, _ in stats]
        messages = [m for _, m, _ in stats]
        rounds = [r for _, _, r in stats]
        words_per_n.append(mean(words) if words else float("nan"))
        messages_per_n.append(mean(messages) if messages else float("nan"))
        rounds_per_n.append(mean(rounds) if rounds else float("nan"))
        model_points.append(model(n, lam))
    # Words-per-round strips the per-run round-count noise that otherwise
    # dominates the slope fit at small n (rounds are O(1) in expectation
    # but vary 1..4 run to run).
    per_round = [
        w / r if w == w and r == r and r > 0 else float("nan")
        for w, r in zip(words_per_n, rounds_per_n)
    ]

    return ScalingCurve(
        protocol=name,
        n_values=tuple(n_values),
        mean_words=tuple(words_per_n),
        mean_messages=tuple(messages_per_n),
        mean_rounds=tuple(rounds_per_n),
        words_per_round=tuple(per_round),
        slope_words=_fit(n_values, words_per_n, name, "words"),
        slope_words_per_round=_fit(n_values, per_round, name, "words_per_round"),
        model_words=tuple(model_points),
    )


def _fit(n_values, ys, protocol: str, series: str) -> float:
    """Log-log slope over the finite points, or NaN *with a diagnostic*.

    A NaN slope used to be silent; since every downstream consumer (the
    trend gate, the dashboard's fitted-slope line) simply omits NaN, a
    curve whose runs all failed would vanish without a trace.  Name the
    curve and the dropped n-values on stderr instead, dashboard-style:
    one line, no exception.
    """
    import sys

    usable = [(n, y) for n, y in zip(n_values, ys) if y == y]
    if len(usable) < 2:
        dropped = [n for n, y in zip(n_values, ys) if y != y]
        print(
            f"e4: {protocol}/{series}: log-log fit skipped "
            f"({len(usable)} usable point(s); dropped n={dropped})",
            file=sys.stderr,
        )
        return float("nan")
    return fit_loglog_slope(
        [float(n) for n, _ in usable], [y for _, y in usable]
    )


def run(
    n_values=(30, 60, 120),
    seeds=range(3),
    protocols=("mmr+alg1", "cachin", "whp_ba"),
    f: int | None = None,
    whp_sigmas: float = 3.0,
    workers: int | None = None,
    scheduler: str | None = None,
) -> list[ScalingCurve]:
    """Sweep n for each protocol.

    ``f`` fixes the corruption budget across the sweep (default: each
    protocol's resilience fraction).  Scaling runs default to fixed small
    f and 3-sigma committee margins: the sub-quadratic shape only emerges
    once the feasibility-inflated lambda *plateaus* (lambda must absorb
    ~(sigmas/epsilon)^2 regardless of n), so growing f with n would keep
    the measurement pinned in the pre-asymptotic lambda-growth regime --
    the resilience-stressed configurations live in T1/E8 instead.

    ``scheduler`` names the delivery schedule (``"fifo"``, ``"delay"``,
    ``"random"``; ``None`` = run_protocol's seeded random default).
    """
    return [
        run_curve(
            name, n_values, seeds, f=f, whp_sigmas=whp_sigmas,
            workers=workers, scheduler=scheduler,
        )
        for name in protocols
    ]


def format_scaling(curves: list[ScalingCurve]) -> str:
    headers = ["protocol", "n", "mean words", "mean msgs", "mean rounds",
               "words/round", "model words"]
    rows = []
    for curve in curves:
        for n, words, msgs, rounds, wpr, model in zip(
            curve.n_values, curve.mean_words, curve.mean_messages,
            curve.mean_rounds, curve.words_per_round, curve.model_words,
        ):
            rows.append([curve.protocol, n, words, msgs, rounds, wpr, model])
    table = format_table(headers, rows)
    slopes = ", ".join(
        f"{curve.protocol}: {curve.slope_words:.2f} "
        f"(per-round {curve.slope_words_per_round:.2f})"
        for curve in curves
    )
    series = {
        curve.protocol: [
            (float(n), w)
            for n, w in zip(curve.n_values, curve.mean_words)
            if w == w  # skip NaNs from failed points
        ]
        for curve in curves
    }
    plot = loglog_plot(series, x_label="n", y_label="words")
    return table + f"\n\nfitted log-log word slopes: {slopes}\n\n{plot}"
