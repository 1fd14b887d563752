"""The performance ledger: seven workloads, five end-to-end metrics, one
outside-in per-layer trace.  See README.md beside this file.

    python benchmarks/perf/run.py                       # ledger: all workloads
    python benchmarks/perf/run.py --traced              # ... plus per-layer pass
    python benchmarks/perf/run.py --smoke               # every path at n<=24
    python benchmarks/perf/run.py --compare A.json B.json
    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the builder contract's: one workload, one JSON object on
the last line of output.  This process only orchestrates: every
measurement happens in a child process (``child.py``), one child at a
time, so nothing the driver does contends with the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import adapter  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, by_name  # noqa: E402

OUT_DIR = HERE / "out"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 170.0
SETUP_SAMPLES = 3
MAX_REPEATS_PER_RUN = 5
DEFAULT_SEED = 2020


class CheckFailed(Exception):
    """A correctness, determinism or path check failed (one-line diagnostic)."""


# -- children ------------------------------------------------------------------------


def run_child(spec: dict[str, Any], timeout: float = CHILD_TIMEOUT_S) -> dict[str, Any]:
    """Run one child to completion; a crash or time-out is reported, not raised."""
    spec = {"out_dir": str(OUT_DIR), **spec}
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f}s"}
    if done.returncode != 0:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"crashed": f"exit code {done.returncode}: {tail}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def _first_difference(a: list[dict], b: list[dict]) -> str | None:
    for index, (left, right) in enumerate(zip(a, b)):
        for key in left:
            if left[key] != right.get(key):
                return f"op {index} field {key}: {left[key]} != {right.get(key)}"
    if len(a) != len(b):
        return f"{len(a)} ops != {len(b)} ops"
    return None


def check_repeats(workload: str, reports: list[dict[str, Any]]) -> None:
    """Outputs right, and every deterministic counter identical across repeats."""
    good = [report for report in reports if "crashed" not in report]
    for index, report in enumerate(good):
        for violation in report["violations"]:
            raise CheckFailed(f"{workload} repeat {index}: {violation}")
        difference = _first_difference(good[0]["fingerprints"], report["fingerprints"])
        if difference:
            label = "traced pass" if report["traced"] else f"repeat {index}"
            raise CheckFailed(f"{workload} {label} differs from repeat 0: {difference}")
        twin = report.get("twin")
        if twin and twin["kind"] == "observed":
            difference = _first_difference(report["fingerprints"][:1], [twin["fingerprint"]])
            if difference:
                raise CheckFailed(
                    f"{workload} repeat {index}: observers changed the run: {difference}"
                )


def check_paths(workload: str, traced: dict[str, Any], metrics: dict[str, float]) -> None:
    """Did the workload hit the path it claims?"""
    cell = by_name(workload)

    def require(condition: bool, message: str) -> None:
        if not condition:
            raise CheckFailed(f"{workload} traced pass: {message}")

    if cell.batched and traced["api"]["delivery_mode"]:
        require(
            metrics["sim.batched_fraction"] == 1.0,
            f"sim.batched_fraction {metrics['sim.batched_fraction']} != 1.0",
        )
    if cell.lossy:
        require(metrics["sim.lossy.duplicates"] > 0, "sim.lossy.duplicates is 0")
        require(metrics["sim.lossy.reorders"] > 0, "sim.lossy.reorders is 0")
        require(metrics["sim.lossy.drops"] == 0, "sim.lossy.drops is not 0")
    if cell.observed:
        for name, calls in traced["observer_calls"].items():
            require(calls > 0, f"observer {name} saw no events")
    if cell.backend != "simulated":
        floor = 100 * traced["simulated_verify_miss_ns"]
        require(
            metrics["crypto.verify_miss_ns"] >= floor,
            f"crypto.verify_miss_ns {metrics['crypto.verify_miss_ns']:.0f} < 100x simulated",
        )
    parts = sum(
        metrics[name] for name in (
            "sim.kernel_self_s", "sim.sched_s", "sim.submit_s", "core.step_s",
            "baselines.step_s", "crypto.prove_sign_s", "observe.recorder_s",
            "observe.monitors_s", "observe.telemetry_s", "observe.coverage_s",
            "observe.finalize_s", "observe.save_s",
        )
    )
    require(
        abs(parts - metrics["trace.run_s"]) <= 1e-6 * metrics["trace.run_s"],
        f"layer self times {parts} do not add up to trace.run_s {metrics['trace.run_s']}",
    )


# -- one workload ------------------------------------------------------------------------


def measure_end_to_end(
    workload: str, seed: int, *, seconds: float = 0.0, repeats: int = 1,
    smoke: bool = False, twins: bool = False,
) -> list[dict[str, Any]]:
    """Untraced repeats, one child at a time: at least ``repeats`` and until
    ``seconds`` of timed work are done; then set-up-only children until
    there are ``SETUP_SAMPLES`` set-up times.  ``twins`` also runs the
    lossy workload's reliable twin (the observed one's always runs: it is
    a correctness check)."""
    spec = {"workload": workload, "seed": seed, "smoke": smoke}
    reports: list[dict[str, Any]] = []
    measured = 0.0
    while len(reports) < repeats or (measured < seconds and len(reports) < MAX_REPEATS_PER_RUN):
        # Only the repeat the traced pass is compared with needs the twin.
        report = run_child({**spec, "twins": twins and not reports})
        reports.append(report)
        if "crashed" in report:
            break
        measured += report["wall_s"]
    setups = [report for report in reports if "crashed" not in report]
    while setups and not smoke and len(setups) < SETUP_SAMPLES:
        extra = run_child({**spec, "setup_only": True}, timeout=60.0)
        if "crashed" in extra:
            break
        setups.append(extra)
    for report in reports:
        report["setup_samples"] = [row["setup_s"] for row in setups]
    return reports


def summarize(workload: str, reports: list[dict[str, Any]]) -> dict[str, Any]:
    """``correct / attempted / failed / metrics`` plus samples and quartiles."""
    cell_ops = by_name(workload).ops
    good = [report for report in reports if "crashed" not in report]
    attempted = sum(report.get("ops", cell_ops) for report in reports)
    failed = sum(report.get("ops_failed", cell_ops) for report in reports)
    samples = {
        "wall_s": [report["wall_s"] for report in good],
        "setup_s": good[0]["setup_samples"] if good else [],
        "peak_rss_mb": [report["peak_rss_mb"] for report in good],
        "words_correct": [report["words_correct"] for report in good],
        "causal_depth": [report["causal_depth"] for report in good],
    }
    metrics = {}
    for name, unit, _, _ in layers.END_TO_END:
        values = samples[name]
        if not values:
            continue
        q1, q3 = quartiles(values)
        metrics[name] = {
            "value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "samples": len(values), "values": values,
        }
    # Per-op latency, pooled over repeats: the median and the highest
    # percentile that still has ten samples beyond it.
    op_ms = [ms for report in good for ms in report["op_ms"]]
    tail = layers.supported_percentile(len(op_ms))
    return {
        "op_ms": {
            "samples": len(op_ms),
            "p50": layers.percentile(op_ms, 50) if op_ms else None,
            "tail_percentile": tail,
            "tail": layers.percentile(op_ms, tail) if tail else None,
        },
        "correct": bool(good),
        "attempted": attempted,
        "failed": failed,
        "crashes": [report["crashed"] for report in reports if "crashed" in report],
        "metrics": metrics,
        "fingerprints": good[0]["fingerprints"] if good else [],
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_layers(
    workload: str, seed: int, *, smoke: bool = False, untraced: dict[str, Any] | None = None
) -> dict[str, float]:
    """The traced pass: one traced child against an untraced one on the same
    seed (``untraced``: a repeat already measured with ``twins=True``)."""
    spec = {"workload": workload, "seed": seed, "smoke": smoke, "twins": True}
    if untraced is None:
        untraced = run_child(spec)
    traced = run_child({**spec, "traced": True})
    for report in (untraced, traced):
        if "crashed" in report:
            raise CheckFailed(f"{workload} traced pass: child {report['crashed']}")
    check_repeats(workload, [untraced, traced])
    metrics = layers.combine(untraced, traced)
    check_paths(workload, traced, metrics)
    return metrics


def print_metrics(workload: str, metrics: dict[str, Any], registry) -> None:
    for name, unit, *_ in registry:
        if name not in metrics:
            continue
        row = metrics[name]
        value = row["value"] if isinstance(row, dict) else row
        spread = ""
        if isinstance(row, dict) and row.get("samples", 1) > 1:
            spread = f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['samples']}]"
        print(f"{workload:18s} {name:34s} {value:>16.6g} {unit}{spread}")


# -- modes ---------------------------------------------------------------------------------


def contract_run(args: argparse.Namespace) -> int:
    """``--workload W --seed N --seconds S --trace T``: one JSON result line."""
    workload = args.workload
    by_name(workload)
    if args.trace:
        metrics = measure_layers(workload, args.seed)
        print_metrics(workload, metrics, layers.PER_LAYER)
        cell_ops = by_name(workload).ops
        result = {
            "correct": True, "attempted": cell_ops, "failed": 0,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit, _ in layers.PER_LAYER
            },
        }
    else:
        reports = measure_end_to_end(workload, args.seed, seconds=args.seconds)
        check_repeats(workload, reports)
        summary = summarize(workload, reports)
        if not summary["correct"]:
            raise CheckFailed(f"{workload}: every child failed: {summary['crashes']}")
        print_metrics(workload, summary["metrics"], layers.END_TO_END)
        result = {
            "correct": True,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": row["value"], "unit": row["unit"]}
                for name, row in summary["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


def ledger_run(args: argparse.Namespace) -> int:
    """Every workload (or ``--workload``): repeats, checks, table, ledger file."""
    names = [args.workload] if args.workload else [cell.name for cell in WORKLOADS]
    repeats = 1 if args.smoke else max(3, args.repeats)
    started = time.perf_counter()
    ledger: dict[str, Any] = {
        "meta": {
            "seed": args.seed, "repeats": repeats, "smoke": args.smoke,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "platform": platform.platform(),
        },
        "bounds": {name: bound for name, _, _, bound in layers.END_TO_END},
        "workloads": {},
    }
    for name in names:
        traced = args.traced or args.smoke
        reports = measure_end_to_end(
            name, args.seed, repeats=repeats, smoke=args.smoke, twins=traced
        )
        check_repeats(name, reports)
        summary = summarize(name, reports)
        print_metrics(name, summary["metrics"], layers.END_TO_END)
        print(f"{name:18s} {'ops':34s} {summary['attempted']:>16d} count")
        print(f"{name:18s} {'ops_failed':34s} {summary['failed']:>16d} count")
        latency = summary["op_ms"]
        if latency["tail"] is not None:
            print(
                f"{name:18s} {'op_ms p50 / p%g' % latency['tail_percentile']:34s} "
                f"{latency['p50']:>16.6g} ms / {latency['tail']:.6g} ms  [n={latency['samples']}]"
            )
        for crash in summary["crashes"]:
            print(f"{name:18s} child {crash}")
        if traced:
            summary["layers"] = measure_layers(
                name, args.seed, smoke=args.smoke, untraced=reports[0]
            )
            print_metrics(name, summary["layers"], layers.PER_LAYER)
        ledger["workloads"][name] = summary
    ledger["meta"]["total_s"] = time.perf_counter() - started
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(args.out) if args.out else OUT_DIR / ("smoke.json" if args.smoke else "ledger.json")
    path.write_text(json.dumps(ledger, indent=1))
    print(f"ledger written to {path} ({ledger['meta']['total_s']:.1f}s)")
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Per (workload, end-to-end metric): medians, quartiles, ratio, verdict."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bounds = a.get("bounds") or {name: bound for name, _, _, bound in layers.END_TO_END}
    bad = False
    print(f"base A = {path_a}; B = {path_b}; ratio = B median / A median")
    print(f"{'workload':18s} {'metric':14s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s}  verdict")
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            print(f"{name:18s} missing from B")
            bad = True
            continue
        for metric, _, _, _ in layers.END_TO_END:
            row_a, row_b = side_a["metrics"].get(metric), side_b["metrics"].get(metric)
            if row_a is None or row_b is None:
                continue
            verdict = judge(row_a, row_b, bounds[metric])
            bad |= verdict == "regressed"
            print(
                f"{name:18s} {metric:14s} "
                f"{_cell(row_a):>34s} {_cell(row_b):>34s} "
                f"{row_b['value'] / row_a['value']:7.3f}  {verdict}"
            )
        share_a = side_a["failed"] / side_a["attempted"]
        share_b = side_b["failed"] / side_b["attempted"]
        verdict = "regressed" if share_b > share_a else "ok"
        bad |= verdict == "regressed"
        print(f"{name:18s} {'ops_failed/ops':14s} {share_a:>34.4f} {share_b:>34.4f} {'':7s}  {verdict}")
    return 1 if bad else 0


def _cell(row: dict[str, Any]) -> str:
    return f"{row['value']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}]"


def judge(row_a: dict[str, Any], row_b: dict[str, Any], bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one lower-is-better metric.

    Unresolved when either side's own quartile spread exceeds the bound,
    unless every run of B reads better than every run of A."""
    if max(row_b["values"]) < min(row_a["values"]):
        return "ok"
    for row in (row_a, row_b):
        if (row["q3"] - row["q1"]) > bound * row["value"]:
            return "unresolved"
    return "regressed" if row_b["value"] > row_a["value"] * (1.0 + bound) else "ok"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5, help="children per workload (>= 3)")
    parser.add_argument("--traced", action="store_true", help="add the per-layer pass")
    parser.add_argument("--smoke", action="store_true", help="n<=24, 1 repeat, every check")
    parser.add_argument("--out", help="ledger file (default: out/ledger.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--seconds", type=float, help="contract mode: timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="contract mode: 1 = per-layer")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (adapter.SRC_DIR / "repro").is_dir():
        print(f"perf: no program to measure under {adapter.SRC_DIR}", file=sys.stderr)
        return 2
    try:
        if args.trace is not None or args.seconds is not None:
            if not args.workload:
                parser.error("--seconds/--trace need --workload")
            args.trace = args.trace or 0
            args.seconds = args.seconds or 0.0
            return contract_run(args)
        return ledger_run(args)
    except CheckFailed as failure:
        print(f"perf: FAILED {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
