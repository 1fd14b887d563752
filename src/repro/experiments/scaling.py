"""Experiment E4: word-complexity scaling.

Measures words-per-BA-instance as a function of n for the committee-based
protocol versus the quadratic baselines, fits log-log slopes, and reports
each protocol's word law (:mod:`repro.analysis.complexity`), evaluated
run by run, next to each measurement.  The paper's claim: our curve
grows like n log² n while MMR/Cachin grow like n² (slope ≈ 2).  At these
scales λ is still feasibility-inflated, so the tracked table measures
1.44 for ours (1.61 per round) against 2.03 for Cachin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.complexity import fit_loglog_slope
from repro.experiments.ascii_plot import loglog_plot
from repro.experiments.sweep import BACell, BARun, ba_sweep, ba_trial, mean_or_nan
from repro.experiments.tables import format_table

__all__ = ["ScalingCurve", "format_scaling", "run"]


def _delivery_cap(n: int) -> int:
    """Delivery budget for one E4 run at size ``n``.

    An MMR-shaped round (BVAL, its relays, AUX, coin shares) costs ~5n²
    deliveries, so 40n² covers eight rounds; the 8,000,000 floor is the
    cap every tracked point (n <= 400) was made with.  A fixed cap would
    stop the quadratic baselines before they decide from n = 800 on, and
    their points would silently drop out of the fit.
    """
    return max(8_000_000, 40 * n * n)


def _trial(name: str, n: int, f: int | None, safety_sigmas: float, seed: int) -> BARun:
    """One seeded run; top-level so sweep workers can pickle it."""
    return ba_trial(name, n, safety_sigmas, seed, f=f, max_deliveries=_delivery_cap(n))


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
    law_words: tuple[float, ...]  # mean over the runs mean_words averages


def _curve(name: str, points: list[tuple[int, BACell]]) -> ScalingCurve:
    """Fold one protocol's ``(n, cell)`` points into its curve."""
    n_values = [n for n, _ in points]
    words = [cell.mean("words") for _, cell in points]
    rounds = [
        mean_or_nan(run.max_round or 1 for run in cell.done) for _, cell in points
    ]
    laws = [[run.law_words for run in cell.done] for _, cell in points]
    # Words-per-round strips the per-run round-count noise that otherwise
    # dominates the slope fit at small n (rounds are O(1) in expectation
    # but vary 1..4 run to run).
    per_round = [
        w / r if w == w and r == r and r > 0 else float("nan")
        for w, r in zip(words, rounds)
    ]
    return ScalingCurve(
        protocol=name,
        n_values=tuple(n_values),
        mean_words=tuple(words),
        mean_messages=tuple(cell.mean("messages") for _, cell in points),
        mean_rounds=tuple(rounds),
        words_per_round=tuple(per_round),
        slope_words=_fit(n_values, words, name, "words"),
        slope_words_per_round=_fit(n_values, per_round, name, "words_per_round"),
        # NaN for a protocol without a law (plain mmr, bracha).
        law_words=tuple(
            float("nan") if None in law else mean_or_nan(law) for law in laws
        ),
    )


def _fit(n_values, ys, protocol: str, series: str) -> float:
    """Log-log slope over the finite points, or NaN *with a diagnostic*.

    Every downstream consumer (the E4 table, the dashboard's
    fitted-slope line) omits NaN, so a curve whose runs all failed would
    vanish without a trace: name the curve and the dropped n-values on
    stderr instead, dashboard-style, one line, no exception.
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
    n_values,
    seeds,
    protocols,
    safety_sigmas: float,
    f: int | None = None,
    workers: int | None = None,
) -> list[ScalingCurve]:
    """Sweep n for each protocol, whp_ba's committees at ``safety_sigmas``.

    ``f`` fixes the corruption budget across the sweep (None: each
    protocol's resilience fraction); the registry says why the tracked
    table fixes a small one.
    """
    cells = [(name, n, f, safety_sigmas) for name in protocols for n in n_values]
    points: dict[str, list] = {name: [] for name in protocols}
    for (name, n, *_), cell in ba_sweep(cells, seeds, workers, _trial):
        points[name].append((n, cell))
    return [_curve(name, points[name]) for name in protocols]


def format_scaling(curves: list[ScalingCurve]) -> str:
    headers = ["protocol", "n", "mean words", "mean msgs", "mean rounds",
               "words/round", "law words"]
    rows = []
    for curve in curves:
        for n, words, msgs, rounds, wpr, law in zip(
            curve.n_values, curve.mean_words, curve.mean_messages,
            curve.mean_rounds, curve.words_per_round, curve.law_words,
        ):
            rows.append([curve.protocol, n, words, msgs, rounds, wpr, law])
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
