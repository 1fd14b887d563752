"""`repro degrade`: how BA-WHP degrades as the network gets hostile.

The paper's guarantees -- agreement and termination WHP, O(n polylog n)
words -- are stated for reliable asynchronous links.  The lossy-link
extension (:class:`repro.sim.lossy.LossyLinkConfig`) can break a run;
this module measures *curves*, not pass/fail: it sweeps a hostility rate
across the scenario zoo (:mod:`repro.experiments.scenarios`) and many
seeds per point, and reports per rate

* decide-rate (with a Wilson interval), deadlock and step-cap fractions,
* rounds-to-decide and coin invocation/success-rate quantiles,
* words sent by correct processes vs words actually delivered,
* aggregate link-fault counters (drops/duplicates/reorders/corruptions),
* the monitor suite's whp-anomaly and safety-violation rates,

plus the estimated *knee*: the first swept rate whose decide-rate falls
below a threshold -- where the WHP argument stops carrying.

Everything is deterministic given ``(scenario, n, rates, seeds)``: runs
are seeded ``0..seeds-1``, lossy fates are functions of (seed, seq), and
the payload carries no timestamps, so the same sweep always produces the
same curve JSON (``benchmarks/bench_degradation.py`` asserts this).  The
``--smoke`` configuration feeds the trend store's ``degradation`` series
(gated by ``repro trends --gate``); full sweeps write standalone
``degradation_<scenario>.json`` artifacts that the dashboard renders as
rate-vs-metric curves with knee markers.  Failing cells export one
recording per swept rate (protocol header ``scenario@rate``), so
``python -m repro explain`` can replay and classify any point on a
curve from its file alone.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.stats import wilson_interval
from repro.experiments.forensics import run_header
from repro.experiments.scenarios import RunSpec, parse_scenario_name, resolve_run
from repro.sim.flightrecorder import FlightRecorder, save_recording
from repro.sim.monitors import SEVERITY_WHP, MonitorSuite
from repro.sim.runner import RunResult

__all__ = [
    "DEFAULT_RATES",
    "DEFAULT_THRESHOLD",
    "SMOKE_SWEEP",
    "format_degradation",
    "run_cell",
    "save_degradation",
    "smoke_degradation",
    "sweep_degradation",
]

DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1)
DEFAULT_THRESHOLD = 0.5

# The CI conformance job's configuration: tiny (2 rates x 2 seeds x one
# scenario) but it walks the whole pipeline, and its payload is the
# trend store's `degradation` series -- so it must be byte-stable across
# machines.  `benchmarks/bench_degradation.py --smoke` records the same
# payload (the journal dedupes the twin).
SMOKE_SWEEP: dict[str, Any] = {
    "scenario": "lossy_uniform",
    "n": 8,
    "rates": (0.0, 0.3),
    "seeds": 2,
}


def _quantile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank quantile; ``None`` on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _round(value: float | None, digits: int = 4) -> float | None:
    return None if value is None else round(value, digits)


def run_cell(
    scenario: str,
    n: int,
    rate: float,
    seed: int,
    max_deliveries: int,
    f: int | None = None,
    observers: Sequence[Any] = (),
) -> tuple[RunSpec, RunResult, MonitorSuite]:
    """Execute one (scenario, rate, seed) cell with a fresh monitor suite.

    Returns ``(spec, result, suite)``; the spec's ``name`` is the
    canonical rate-suffixed scenario name a recording of this cell
    should carry as its protocol header.  ``observers`` ride along
    beside the suite.
    """
    spec = resolve_run(scenario, n, f=f, seed=seed, rate=rate)
    suite = MonitorSuite()
    result = spec.run(observers=[suite, *observers], max_deliveries=max_deliveries)
    return spec, result, suite


def _aggregate_point(
    rate: float, cells: list[tuple[RunResult, MonitorSuite]]
) -> dict[str, Any]:
    """Fold one rate's per-seed runs into a curve point."""
    runs = len(cells)
    decided = sum(1 for result, _ in cells if result.all_correct_decided)
    deadlocked = sum(1 for result, _ in cells if result.deadlocked)
    exhausted = sum(1 for result, _ in cells if result.exhausted)
    whp_anomalies = sum(
        1
        for _, suite in cells
        if any(v.severity == SEVERITY_WHP for v in suite.violations)
    )
    safety = sum(1 for _, suite in cells if suite.safety_violations)

    rounds = [
        float(len(result.rounds))
        for result, _ in cells
        if result.all_correct_decided and result.rounds
    ]
    coin_counts = [float(len(result.coin_invocations)) for result, _ in cells]
    coin_success = [
        result.coin_success_rate
        for result, _ in cells
        if result.coin_invocations
    ]
    faults = {"drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 0}
    for result, _ in cells:
        for fate, count in result.lossy_counters.items():
            faults[fate] += count

    low, high = wilson_interval(decided, runs)
    return {
        "rate": rate,
        "runs": runs,
        "decided_runs": decided,
        "decide_rate": _round(decided / runs),
        # "interval" keys are gate-excluded by name: the bound depends on
        # the sample size, which a config tweak legitimately changes.
        "decide_rate_interval": [_round(low), _round(high)],
        "deadlock_fraction": _round(deadlocked / runs),
        "exhausted_fraction": _round(exhausted / runs),
        "whp_anomaly_rate": _round(whp_anomalies / runs),
        "safety_violation_rate": _round(safety / runs),
        "rounds_to_decide": {
            "median": _quantile(rounds, 0.5),
            "p90": _quantile(rounds, 0.9),
        },
        "coin_invocations": {
            "median": _quantile(coin_counts, 0.5),
            "p90": _quantile(coin_counts, 0.9),
        },
        "coin_success_rate": {
            "median": _round(_quantile(coin_success, 0.5)),
            "p90": _round(_quantile(coin_success, 0.9)),
        },
        "words_sent_mean": _round(
            sum(result.words for result, _ in cells) / runs, 1
        ),
        "words_delivered_mean": _round(
            sum(result.words_delivered for result, _ in cells) / runs, 1
        ),
        "deliveries_mean": _round(
            sum(result.deliveries for result, _ in cells) / runs, 1
        ),
        "link_faults": faults,
    }


def _find_knee(
    points: list[dict[str, Any]], threshold: float
) -> dict[str, Any] | None:
    """The first swept rate whose decide-rate drops below ``threshold``."""
    for point in points:
        if point["decide_rate"] < threshold:
            return {
                "rate": point["rate"],
                "decide_rate": point["decide_rate"],
                "threshold": threshold,
                "decide_rate_interval": list(point["decide_rate_interval"]),
            }
    return None


def sweep_degradation(
    scenario: str = "lossy_uniform",
    n: int = 8,
    rates: Sequence[float] = DEFAULT_RATES,
    seeds: int = 8,
    f: int | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    max_deliveries: int | None = None,
    export_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Sweep ``scenario`` across ``rates`` x ``seeds`` and build the curve.

    ``max_deliveries`` caps each run (default: ``400 * n**2``, roughly
    20x a healthy run -- a run that hits it counts as ``exhausted``, the
    lossy analogue of a livelock).  When ``export_dir`` is given, each
    rate with at least one failing run exports that run's recording
    (re-executed with a flight recorder -- runs are deterministic) named
    ``cell_<scenario>_r<rate>_s<seed>.jsonl`` with the rate-suffixed
    scenario as its protocol header, ready for ``repro explain``.
    """
    base, _ = parse_scenario_name(scenario)
    rates = [float(rate) for rate in rates]
    if seeds < 1:
        raise ValueError(f"need at least one seed per point, got {seeds}")
    cap = max_deliveries if max_deliveries is not None else 400 * n * n

    points: list[dict[str, Any]] = []
    exports: list[str] = []
    spec_f: int | None = None
    for rate in rates:
        cells: list[tuple[RunResult, MonitorSuite]] = []
        failing_seed: int | None = None
        for seed in range(seeds):
            spec, result, suite = run_cell(base, n, rate, seed, cap, f=f)
            spec_f = spec.f
            cells.append((result, suite))
            if failing_seed is None and not result.all_correct_decided:
                failing_seed = seed
        points.append(_aggregate_point(rate, cells))
        if export_dir is not None and failing_seed is not None:
            exports.append(
                _export_cell(export_dir, base, n, rate, failing_seed, f, cap)
            )

    payload: dict[str, Any] = {
        "kind": "degradation",
        "scenario": base,
        "n": n,
        "f": spec_f,
        "seeds": seeds,
        "rates": rates,
        "threshold": threshold,
        "max_deliveries": cap,
        "points": points,
        "knee": _find_knee(points, threshold),
    }
    if exports:
        payload["exports"] = exports
    return payload


def _export_cell(
    export_dir: str | Path,
    scenario: str,
    n: int,
    rate: float,
    seed: int,
    f: int | None,
    cap: int,
) -> str:
    """Re-run one failing cell with the flight recorder and persist it."""
    recorder = FlightRecorder()
    spec, result, _ = run_cell(
        scenario, n, rate, seed, cap, f=f, observers=[recorder]
    )
    directory = Path(export_dir)
    directory.mkdir(parents=True, exist_ok=True)
    # repr(rate), like the spec's name: two swept rates never share a file.
    out = directory / f"cell_{scenario}_r{rate!r}_s{seed}.jsonl"
    save_recording(out, recorder, result, protocol=run_header(spec, recorder.events))
    return out.name


def smoke_degradation() -> dict[str, Any]:
    """The CI smoke sweep's payload (see :data:`SMOKE_SWEEP`)."""
    return sweep_degradation(**SMOKE_SWEEP)


def save_degradation(out: str | Path, payload: dict[str, Any]) -> Path:
    """Persist one curve artifact (sorted keys: byte-stable given config)."""
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def format_degradation(payload: dict[str, Any]) -> str:
    """Human rendering of one sweep: the curve table plus the knee."""
    lines = [
        f"degradation sweep: scenario={payload['scenario']} "
        f"n={payload['n']} f={payload['f']} seeds={payload['seeds']} "
        f"(cap {payload['max_deliveries']} deliveries/run)",
        "",
        f"{'rate':>6}  {'decide':>6} {'95% CI':>14}  {'dead':>5} {'exh':>5} "
        f"{'whp!':>5}  {'rounds':>6} {'coins':>6} {'coin-ok':>7}  "
        f"{'words sent':>10} {'delivered':>10}  faults(d/u/r/c)",
    ]
    for point in payload["points"]:
        low, high = point["decide_rate_interval"]
        rounds = point["rounds_to_decide"]["median"]
        coins = point["coin_invocations"]["median"]
        coin_ok = point["coin_success_rate"]["median"]
        faults = point["link_faults"]
        lines.append(
            f"{point['rate']:>6g}  {point['decide_rate']:>6.2f} "
            f"[{low:.2f}, {high:.2f}]  "
            f"{point['deadlock_fraction']:>5.2f} "
            f"{point['exhausted_fraction']:>5.2f} "
            f"{point['whp_anomaly_rate']:>5.2f}  "
            f"{rounds if rounds is not None else '-':>6} "
            f"{coins if coins is not None else '-':>6} "
            f"{coin_ok if coin_ok is not None else '-':>7}  "
            f"{point['words_sent_mean']:>10.1f} "
            f"{point['words_delivered_mean']:>10.1f}  "
            f"{faults['drops']}/{faults['duplicates']}"
            f"/{faults['reorders']}/{faults['corruptions']}"
        )
    knee = payload["knee"]
    if knee is None:
        lines.append(
            f"\nknee: none -- decide-rate stayed >= {payload['threshold']:.2f} "
            "across the swept rates"
        )
    else:
        low, high = knee["decide_rate_interval"]
        lines.append(
            f"\nknee: rate {knee['rate']:g} -- decide-rate "
            f"{knee['decide_rate']:.2f} [{low:.2f}, {high:.2f}] fell below "
            f"{knee['threshold']:.2f}"
        )
    for name in payload.get("exports", []):
        lines.append(f"failing cell recording -> {name}")
    return "\n".join(lines)
