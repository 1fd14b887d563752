"""Command-line entry point: ``python -m repro <command>``.

Regenerates the paper's artefacts without pytest.  Each experiment key
runs at the budget in :mod:`repro.experiments.registry`, the one its
tracked table under ``benchmarks/results/`` was made with, so the output
below the banner is that file's body::

    python -m repro list                 # what can be regenerated
    python -m repro t1                   # Table 1, as tracked
    python -m repro e6 --seeds 20        # the ablation, fewer seeds
    python -m repro all --quick          # everything, smoke-scale

plus the flight-recorder family::

    python -m repro record --n 100 --out flight.jsonl   # run + record BA
    python -m repro record --protocol lossy_uniform@0.1 # any `list`ed name
    python -m repro report flight.jsonl                 # render the report
    python -m repro export flight.jsonl                 # Perfetto trace JSON

the divergence-forensics pair (see DESIGN.md section 12)::

    python -m repro diff a.jsonl b.jsonl     # first divergent event + slice
    python -m repro explain flight.jsonl     # replay, minimize, explain

``--protocol`` names a run: a Table 1 protocol (its benign run) or a zoo
scenario, both resolved by ``repro.experiments.scenarios.resolve_run`` and
listed by ``python -m repro list``.  ``record`` defaults it to ``whp_ba``;
``explain`` and ``fuzz`` rebuild the run from the recording's header, and
an explicit ``--protocol`` overrides the header's name.

the conformance pair (see DESIGN.md section 8)::

    python -m repro check --n 24 --seeds 6   # monitored sweep; writes
                                             # BENCH_conformance.json,
                                             # exits 1 on safety violations
    python -m repro trends                   # cross-run drift tables
    python -m repro trends --last 5          # wider window + sparklines

the schedule-coverage atlas (see DESIGN.md section 11)::

    python -m repro coverage                 # atlas growth + rarest hits
    python -m repro coverage flight.jsonl    # one recording's coverage
    python -m repro coverage --gate          # exit 1 on coverage stagnation

the schedule fuzzer (see DESIGN.md section 13)::

    python -m repro fuzz flight.jsonl --budget 200   # mutate the recorded
                                             # schedule, grow the coverage
                                             # corpus, bundle + minimize any
                                             # violations; exits 1 on safety
                                             # violations outside the
                                             # recording's own baseline

the degradation observatory (see DESIGN.md section 14)::

    python -m repro degrade --scenario lossy_uniform \
        --rates 0,0.02,0.05,0.1 --seeds 8   # decide-rate curves + knee;
                                            # failing cells export
                                            # recordings for `explain`
    python -m repro degrade --smoke          # CI shape, feeds the trend store

and the telemetry pane (see DESIGN.md section 9)::

    python -m repro dashboard flight.jsonl --out dashboard.html
    python -m repro trends --gate --tolerance 25   # exit 1 on drift
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import EXPERIMENTS

__all__ = ["main"]


def _run_experiments(
    keys: list[str], quick: bool, overrides: dict, workers: int | None
) -> int:
    """Run experiments at (registry budget | quick) + overrides: one key
    rejects an override its budget has no entry for (exit 2), several
    (``all``) apply it wherever there is one."""
    for key in keys:
        experiment = EXPERIMENTS[key]
        try:
            budget = experiment.resolve(quick, overrides, strict=len(keys) == 1)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"== {key}: {experiment.description} ==")
        start = time.time()
        print(experiment.report(experiment.run(**budget, workers=workers), budget))
        print(f"[{time.time() - start:.1f}s]\n")
    return 0


# Flight-recorder commands; separate from the experiments because they
# take a file path, not sweep parameters, and are excluded from `all`.


def _run_record(args) -> str:
    from repro.experiments import report

    from repro.sim.telemetry import telemetry_path_for

    protocol = args.protocol or "whp_ba"
    out = args.out or f"flight_{protocol}_n{args.n or 40}_s{args.seed}.jsonl"
    try:
        path, result = report.record_run(
            out,
            name=protocol,
            n=args.n or 40,
            seed=args.seed,
            profile=not args.no_profile,
            telemetry=not args.no_telemetry,
        )
    except ValueError as exc:
        # Most commonly an unknown --protocol; the message is the
        # `repro list` listing of protocols and zoo scenarios.
        raise SystemExit(f"repro record: {exc}")
    text = (
        f"recorded {result.deliveries} deliveries "
        f"(duration {result.duration}, {result.words} words, "
        f"decided={result.all_correct_decided}) -> {path}"
    )
    if not args.no_telemetry:
        text += f"\ntelemetry sidecar -> {telemetry_path_for(path)}"
    return text


def _run_report(args) -> str:
    from repro.experiments import report

    if not args.path:
        raise SystemExit("usage: python -m repro report <recording.jsonl>")
    try:
        return report.render_report_file(args.path)
    except FileNotFoundError:
        raise SystemExit(f"repro report: no such recording: {args.path}")
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro report: {exc}")


def _run_export(args) -> str:
    from repro.sim.flightrecorder import load_recording
    from repro.sim.traceexport import save_chrome_trace

    if not args.path:
        raise SystemExit("usage: python -m repro export <recording.jsonl>")
    out = args.out or str(args.path).removesuffix(".jsonl") + ".trace.json"
    try:
        recording = load_recording(args.path)
    except FileNotFoundError:
        raise SystemExit(f"repro export: no such recording: {args.path}")
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro export: {exc}")
    path = save_chrome_trace(out, recording)
    return (
        f"exported {len(recording.events)} kernel events -> {path}\n"
        "open in https://ui.perfetto.dev or chrome://tracing"
    )


def _load_recording_or_exit(path, command: str):
    from repro.sim.flightrecorder import load_recording

    if not path:
        raise SystemExit(
            f"usage: python -m repro {command} <recording.jsonl>"
            + (" <recording.jsonl>" if command == "diff" else "")
        )
    try:
        return load_recording(path)
    except FileNotFoundError:
        raise SystemExit(f"repro {command}: no such recording: {path}")
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro {command}: {exc}")


def _run_diff(args) -> tuple[str, int]:
    from repro.sim.diffing import (
        diff_recordings,
        format_divergence,
        save_divergence,
    )
    from repro.sim.traceexport import save_divergence_trace

    if not args.path or not args.path2:
        raise SystemExit(
            "usage: python -m repro diff <a.jsonl> <b.jsonl>"
        )
    a = _load_recording_or_exit(args.path, "diff")
    b = _load_recording_or_exit(args.path2, "diff")
    report = diff_recordings(a, b, max_slice=args.slice or 20)
    text = format_divergence(report, a_path=args.path, b_path=args.path2)
    if report.identical:
        return text, 0
    out = args.out or str(args.path).removesuffix(".jsonl") + ".divergence.json"
    saved = save_divergence(
        out, {"kind": "diff", "a": str(args.path), "b": str(args.path2),
              **report.to_dict()}
    )
    lines = [text, f"divergence report -> {saved}"]
    if report.slice:
        trace = save_divergence_trace(
            str(saved).removesuffix(".json") + ".trace.json",
            a,
            report.slice,
        )
        lines.append(
            f"divergence slice trace -> {trace} "
            "(open in https://ui.perfetto.dev)"
        )
    return "\n".join(lines), 1


def _run_explain(args) -> tuple[str, int]:
    from repro.experiments.forensics import explain_recording, format_explain
    from repro.sim.diffing import save_divergence

    _load_recording_or_exit(args.path, "explain")
    try:
        payload = explain_recording(
            args.path, protocol=args.protocol, max_slice=args.slice or 20
        )
    except ValueError as exc:
        raise SystemExit(f"repro explain: {exc}")
    text = format_explain(payload)
    if payload.get("failure") is None:
        return text, 0
    out = args.out or str(args.path).removesuffix(".jsonl") + ".divergence.json"
    saved = save_divergence(out, payload)
    return text + f"\ndivergence report -> {saved}", 1


def _run_fuzz(args) -> tuple[str, int]:
    from repro.experiments.fuzzing import format_fuzz, fuzz_recording

    _load_recording_or_exit(args.path, "fuzz")
    try:
        payload = fuzz_recording(
            args.path,
            protocol=args.protocol,
            budget=args.budget or 200,
            seed=args.seed,
            atlas_root=args.atlas or ".",
            out=args.out,
        )
    except ValueError as exc:
        raise SystemExit(f"repro fuzz: {exc}")
    return format_fuzz(payload), 0 if payload.get("ok") else 1


def _run_check(args) -> tuple[str, int]:
    from repro.experiments import conformance
    from repro.experiments.coverage_atlas import CoverageAtlas

    protocols = tuple(args.protocols.split(",")) if args.protocols else None
    try:
        atlas = CoverageAtlas(".")
        atlas.load()  # fail loudly before the sweep, not after it
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro check: {exc}")
    payload = conformance.run_check(
        protocols=protocols or conformance.DEFAULT_PROTOCOLS,
        n=args.n or 24,
        seeds=range(args.seeds or 6),
        atlas=atlas,
    )
    path = conformance.write_conformance(payload)
    text = conformance.format_check(payload) + f"\n[saved to {path}]"
    return text, 0 if payload["ok"] else 1


def _run_coverage(args) -> tuple[str, int]:
    from repro.experiments import conformance
    from repro.experiments.coverage_atlas import (
        CoverageAtlas,
        format_atlas,
        format_coverage_run,
    )

    atlas = CoverageAtlas(".")
    if args.gate:
        from repro.experiments.trends import TrendStore

        try:
            newest = TrendStore(".").latest("conformance")
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro coverage: {exc}")
        if newest is None:
            raise SystemExit(
                "repro coverage: no conformance record in the trend store; "
                "run `python -m repro check` first"
            )
        verdict = conformance.coverage_gate(newest["payload"])
        text = conformance.format_coverage_gate(verdict)
        return text, 0 if verdict["ok"] else 1
    if args.path:
        from repro.sim.coverage import coverage_from_events
        from repro.sim.flightrecorder import load_recording

        try:
            recording = load_recording(args.path)
        except FileNotFoundError:
            raise SystemExit(f"repro coverage: no such recording: {args.path}")
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro coverage: {exc}")
        snapshot = coverage_from_events(recording.events)
        try:
            return format_coverage_run(
                snapshot, atlas=atlas, source=str(args.path)
            ), 0
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro coverage: {exc}")
    try:
        return format_atlas(atlas, rarest=args.rarest or 10), 0
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro coverage: {exc}")


def _run_degrade(args) -> tuple[str, int]:
    from repro.experiments import degradation
    from repro.experiments.trends import record_bench

    if args.smoke:
        # The CI configuration: tiny, deterministic, and the one shape
        # that feeds the trend store's `degradation` series (full sweeps
        # vary by config, so gating them against each other would flag
        # every parameter change as drift).
        payload = degradation.smoke_degradation()
        snapshot, _ = record_bench("degradation", payload)
        text = degradation.format_degradation(payload)
        return text + f"\n[degradation trends -> {snapshot}]", 0
    scenario = args.scenario or "lossy_uniform"
    try:
        rates = (
            [float(token) for token in args.rates.split(",") if token.strip()]
            if args.rates
            else list(degradation.DEFAULT_RATES)
        )
    except ValueError:
        raise SystemExit(
            f"repro degrade: --rates must be comma-separated numbers, "
            f"got {args.rates!r}"
        )
    from pathlib import Path

    from repro.experiments.scenarios import parse_scenario_name

    try:
        base, _ = parse_scenario_name(scenario)
        out = args.out or f"degradation_{base}.json"
        payload = degradation.sweep_degradation(
            scenario=scenario,
            n=args.n or 8,
            rates=rates,
            seeds=args.seeds or 8,
            export_dir=str(Path(out).with_suffix("")) + "_cells",
        )
    except ValueError as exc:
        raise SystemExit(f"repro degrade: {exc}")
    path = degradation.save_degradation(out, payload)
    text = degradation.format_degradation(payload)
    return text + f"\n[curve artifact -> {path}]", 0


def _run_trends(args) -> tuple[str, int]:
    from repro.experiments import trends

    store = trends.TrendStore(".")
    tolerance = (args.tolerance if args.tolerance is not None else 25.0) / 100.0
    last = args.last or 2
    try:
        if args.gate:
            verdict = trends.gate_trends(store, rel_tol=tolerance, last=last)
            return trends.format_gate(verdict), 0 if verdict["ok"] else 1
        return trends.render_trends(store, rel_tol=tolerance, last=last), 0
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro trends: {exc}")


def _run_dashboard(args) -> str:
    from repro.experiments.dashboard import render_dashboard

    out = args.out or "dashboard.html"
    tolerance = (args.tolerance if args.tolerance is not None else 25.0) / 100.0
    path, diagnostics = render_dashboard(
        out, recording_path=args.path, root=".", rel_tol=tolerance
    )
    lines = [f"dashboard -> {path} (self-contained HTML, open in any browser)"]
    lines += [f"  note: {message}" for message in diagnostics]
    return "\n".join(lines)

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artefacts from 'Not a COINcidence' (PODC 2020).",
    )
    parser.add_argument(
        "command",
        choices=[
            *EXPERIMENTS, "record", "report", "export", "diff", "explain",
            "fuzz", "check", "trends", "coverage", "dashboard", "degrade",
            "all", "list",
        ],
    )
    parser.add_argument(
        "path", nargs="?", default=None,
        help="recording file (report/export/diff/explain commands)",
    )
    parser.add_argument(
        "path2", nargs="?", default=None,
        help="second recording (diff command)",
    )
    parser.add_argument("--n", type=int, default=None, help="system size override")
    parser.add_argument("--seeds", type=int, default=None, help="seed count override")
    parser.add_argument("--seed", type=int, default=0, help="single-run seed (record)")
    parser.add_argument(
        "--out", default=None, help="recording output path (record command)"
    )
    parser.add_argument(
        "--protocol", default=None,
        help="record: protocol or zoo scenario to run (default whp_ba; see "
        "`list`); explain/fuzz: overrides the recording header's name",
    )
    parser.add_argument(
        "--protocols", default=None,
        help="comma-separated protocol list (check command; default "
        "whp_ba,mmr+alg1)",
    )
    parser.add_argument(
        "--no-profile", action="store_true",
        help="record without wall-clock phase timers",
    )
    parser.add_argument(
        "--no-telemetry", action="store_true",
        help="record without the telemetry probe / sidecar",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="trends: exit 1 on out-of-tolerance numeric drift",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="trends/dashboard: drift tolerance in percent (default 25)",
    )
    parser.add_argument(
        "--last", type=int, default=None,
        help="trends: window size for sparklines and drift (default 2)",
    )
    parser.add_argument(
        "--rarest", type=int, default=None,
        help="coverage: how many rarest-hit signatures to list (default 10)",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="fuzz: mutated-candidate budget (default 200)",
    )
    parser.add_argument(
        "--atlas", default=None,
        help="fuzz: directory holding the coverage atlas (default .)",
    )
    parser.add_argument(
        "--slice", type=int, default=None,
        help="diff/explain: max causal-slice length (default 20)",
    )
    parser.add_argument(
        "--scenario", default=None,
        help="degrade: zoo scenario to sweep (default lossy_uniform; "
        "accepts a @rate suffix to pin the rate)",
    )
    parser.add_argument(
        "--rates", default=None,
        help="degrade: comma-separated hostility rates (default 0,0.02,0.05,0.1)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="degrade: tiny fixed sweep feeding the trend store (CI shape)",
    )
    parser.add_argument("--quick", action="store_true", help="smoke-scale parameters")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel sweep workers (default: serial, or REPRO_WORKERS; "
        "0 = one per CPU)",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for key, experiment in EXPERIMENTS.items():
            print(f"  {key:4s} {experiment.description}")
        print("  record  run one protocol with the flight recorder attached")
        print("  report  render a recorded run (round timeline, words, coin, ...)")
        print("  export  convert a recording to Chrome/Perfetto trace JSON")
        print("  diff    localize the first divergent event between two recordings")
        print("  explain replay a recording, minimize and explain its failure")
        print("  fuzz    coverage-guided schedule fuzzing over a recording")
        print("  check   monitored conformance sweep (paper-property checks)")
        print("  trends  cross-run drift tables (--gate exits 1 on drift)")
        print("  coverage  schedule-coverage atlas views (--gate: stagnation)")
        print("  dashboard  single-pane HTML report (telemetry+trends+conformance)")
        print("  degrade  lossy-rate sweep over a zoo scenario (curves + knee)")
        from repro.experiments.scenarios import describe_runs

        print("\nwhat --protocol accepts (record; explain/fuzz to override a header):")
        print(describe_runs())
        return 0

    if args.command in ("record", "report", "export", "dashboard"):
        handler = {
            "record": _run_record, "report": _run_report, "export": _run_export,
            "dashboard": _run_dashboard,
        }[args.command]
        print(handler(args))
        return 0

    if args.command in ("diff", "explain", "fuzz", "degrade"):
        handler = {
            "diff": _run_diff, "explain": _run_explain, "fuzz": _run_fuzz,
            "degrade": _run_degrade,
        }[args.command]
        text, code = handler(args)
        print(text)
        return code

    if args.command == "check":
        if args.quick:
            args.n = args.n or 16
            args.seeds = args.seeds or 2
        text, code = _run_check(args)
        print(text)
        return code

    if args.command == "trends":
        text, code = _run_trends(args)
        print(text)
        return code

    if args.command == "coverage":
        text, code = _run_coverage(args)
        print(text)
        return code

    overrides = {}
    if args.n:
        overrides["n"] = args.n
    if args.seeds:
        overrides["seeds"] = range(args.seeds)
    keys = list(EXPERIMENTS) if args.command == "all" else [args.command]
    return _run_experiments(keys, args.quick, overrides, args.workers)


if __name__ == "__main__":
    sys.exit(main())
