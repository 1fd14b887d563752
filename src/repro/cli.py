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

    python -m repro degrade --scenario lossy_uniform \\
        --rates 0,0.02,0.05,0.1 --seeds 8   # decide-rate curves + knee;
                                            # failing cells export
                                            # recordings for `explain`
    python -m repro degrade --smoke          # smoke shape -> BENCH_degradation.json

and the telemetry pane (see DESIGN.md section 9)::

    python -m repro dashboard flight.jsonl --out dashboard.html
    python -m repro fingerprint    # every pinned count: tests/fingerprints.json

Every command is one :class:`Command` in :data:`COMMANDS`: the flags it
reads, with its own defaults, and its handler.  A flag or positional a
command does not read exits 2 with one line; so does any other bad
input, so exit 1 keeps one meaning -- a check found something.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments.degradation import DEFAULT_RATES
from repro.experiments.registry import EXPERIMENTS

__all__ = ["ARGUMENTS", "COMMANDS", "Command", "main"]


def _run_experiments(
    keys: list[str], quick: bool, overrides: dict, workers: int | None
) -> int:
    """Run experiments at (registry budget | quick) + the overrides each
    budget has a key for.  A size no protocol runs at is bad input
    (exit 2), found for every key before any of them runs."""
    budgets = {key: EXPERIMENTS[key].resolve(quick, overrides) for key in keys}
    for key, budget in budgets.items():
        try:
            list(EXPERIMENTS[key].params(**budget))
        except ValueError as exc:
            raise SystemExit(f"repro {key}: {exc}")
    for key, budget in budgets.items():
        experiment = EXPERIMENTS[key]
        print(f"== {key}: {experiment.description} ==")
        start = time.time()
        print(experiment.report(experiment.run(**budget, workers=workers), budget))
        print(f"[{time.time() - start:.1f}s]\n")
    return 0


def _run_keys(keys: list[str]) -> Callable[[argparse.Namespace], tuple[None, int]]:
    """The handler of experiment keys: ``--n`` / ``--seeds`` override the
    budget where given (``None``: the budget's own).  It prints each
    table as it finishes, so it returns no text."""

    def run(args: argparse.Namespace) -> tuple[None, int]:
        overrides: dict[str, Any] = {}
        if getattr(args, "n", None) is not None:  # e2, e4, e5 have no n
            overrides["n"] = args.n
        if args.seeds is not None:
            overrides["seeds"] = range(args.seeds)
        return None, _run_experiments(keys, args.quick, overrides, args.workers)

    return run


# Flight-recorder commands; separate from the experiments because they
# take a file path, not sweep parameters, and are excluded from `all`.


def _run_record(args) -> tuple[str, int]:
    from repro.experiments import report

    out = args.out or f"flight_{args.protocol}_n{args.n}_s{args.seed}.jsonl"
    try:
        path, result = report.record_run(
            out,
            name=args.protocol,
            n=args.n,
            seed=args.seed,
            profile=not args.no_profile,
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
    return text, 0


def _run_report(args) -> tuple[str, int]:
    from repro.experiments import report

    if not args.path:
        raise SystemExit("usage: python -m repro report <recording.jsonl>")
    try:
        return report.render_report_file(args.path), 0
    except FileNotFoundError:
        raise SystemExit(f"repro report: no such recording: {args.path}")
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro report: {exc}")


def _run_export(args) -> tuple[str, int]:
    from repro.sim.flightrecorder import load_recording
    from repro.sim.traceexport import save_chrome_trace

    if not args.path:
        raise SystemExit("usage: python -m repro export <recording.jsonl>")
    out = args.out or str(args.path).removesuffix(".jsonl") + ".trace.json"
    try:
        recording = load_recording(args.path)
        path = save_chrome_trace(out, recording)
    except FileNotFoundError:
        raise SystemExit(f"repro export: no such recording: {args.path}")
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro export: {exc}")
    return (
        f"exported {len(recording.events)} kernel events -> {path}\n"
        "open in https://ui.perfetto.dev or chrome://tracing"
    ), 0


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
    try:
        report = diff_recordings(a, b, max_slice=args.slice)
    except ValueError as exc:  # a recording whose events do not replay
        raise SystemExit(f"repro diff: {exc}")
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
            args.path, protocol=args.protocol, max_slice=args.slice
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
            budget=args.budget,
            seed=args.seed,
            atlas_root=args.atlas,
            out=args.out,
        )
    except ValueError as exc:
        raise SystemExit(f"repro fuzz: {exc}")
    return format_fuzz(payload), 0 if payload.get("ok") else 1


def _run_check(args) -> tuple[str, int]:
    from repro.experiments import conformance
    from repro.experiments.coverage_atlas import CoverageAtlas
    from repro.experiments.scenarios import resolve_run

    protocols = tuple(args.protocols.split(",")) if args.protocols else None
    protocols = protocols or conformance.DEFAULT_PROTOCOLS
    try:
        # Fail loudly before the sweep, not after it: an unknown name, a
        # size no protocol runs at, a damaged atlas.
        for name in protocols:
            resolve_run(name, args.n)
        atlas = CoverageAtlas(".")
        atlas.load()
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro check: {exc}")
    payload = conformance.run_check(
        protocols=protocols,
        n=args.n,
        seeds=range(args.seeds),
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
        try:
            verdict = conformance.coverage_gate(conformance.read_conformance())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro coverage: {exc}")
        text = conformance.format_coverage_gate(verdict)
        return text, 0 if verdict["ok"] else 1
    if args.path:
        from repro.sim.coverage import coverage_from_events
        from repro.sim.flightrecorder import load_recording

        try:
            snapshot = coverage_from_events(load_recording(args.path).events)
        except FileNotFoundError:
            raise SystemExit(f"repro coverage: no such recording: {args.path}")
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro coverage: {exc}")
        try:
            return format_coverage_run(
                snapshot, atlas=atlas, source=str(args.path)
            ), 0
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro coverage: {exc}")
    try:
        return format_atlas(atlas, rarest=args.rarest), 0
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro coverage: {exc}")


def _run_degrade(args) -> tuple[str, int]:
    from repro.experiments import degradation
    from repro.experiments.store import save_results

    if args.smoke:
        # Tiny and deterministic: the one shape the dashboard shows when
        # no full sweep's artifact is there.
        payload = degradation.smoke_degradation()
        snapshot = save_results("BENCH_degradation", payload, ".")
        text = degradation.format_degradation(payload)
        return text + f"\n[smoke sweep -> {snapshot}]", 0
    from pathlib import Path

    from repro.experiments.scenarios import parse_scenario_name

    try:
        base, _ = parse_scenario_name(args.scenario)
        out = args.out or f"degradation_{base}.json"
        payload = degradation.sweep_degradation(
            scenario=args.scenario,
            n=args.n,
            rates=list(args.rates),
            seeds=args.seeds,
            export_dir=str(Path(out).with_suffix("")) + "_cells",
        )
    except ValueError as exc:
        raise SystemExit(f"repro degrade: {exc}")
    path = degradation.save_degradation(out, payload)
    text = degradation.format_degradation(payload)
    return text + f"\n[curve artifact -> {path}]", 0


def _run_fingerprint(args) -> tuple[str, int]:
    from repro.experiments.fingerprint import fingerprint

    return json.dumps(fingerprint(), indent=1, sort_keys=True), 0


def _run_dashboard(args) -> tuple[str, int]:
    from repro.experiments.dashboard import render_dashboard

    path, diagnostics = render_dashboard(args.out, recording_path=args.path, root=".")
    lines = [f"dashboard -> {path} (self-contained HTML, open in any browser)"]
    lines += [f"  note: {message}" for message in diagnostics]
    return "\n".join(lines), 0


def _run_list(args) -> tuple[str, int]:
    from repro.experiments.scenarios import describe_runs

    lines = [f"  {c.line}" for c in COMMANDS.values() if c.line is not None]
    return "\n".join([
        *lines,
        "\nwhat --protocol accepts (record; explain/fuzz to override a header):",
        describe_runs(),
    ]), 0


# -- the command table -------------------------------------------------


def _checked(kind: type, ok: Callable[[Any], bool], rule: str):
    """A flag value parser: ``kind(text)``, which must satisfy ``ok``."""

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ValueError(f"must be {rule}, got {text!r}")
        return value

    return parse


def _rates(text: str) -> list[float]:
    try:
        rates = [float(token) for token in text.split(",") if token.strip()]
    except ValueError:
        rates = []
    if not rates or not all(0.0 <= rate <= 1.0 for rate in rates):
        raise ValueError(
            f"must be comma-separated rates in [0, 1], got {text!r}"
        )
    return rates


_COUNT = _checked(int, lambda value: value >= 1, "an integer >= 1")
_INT = _checked(int, lambda value: True, "an integer")

# Every flag and positional any command reads: its value parser (None:
# a switch) and its help line.
ARGUMENTS: dict[str, tuple[Callable[[str], Any] | None, str]] = {
    "path": (str, "recording file"),
    "path2": (str, "second recording (diff)"),
    "n": (_COUNT, "system size"),
    "seeds": (_COUNT, "seed count"),
    "seed": (_INT, "single-run seed"),
    "out": (str, "output path"),
    "protocol": (
        str,
        "record: protocol or zoo scenario to run (see `list`); "
        "explain/fuzz: overrides the recording header's name",
    ),
    "protocols": (str, "check: comma-separated protocol list"),
    "no_profile": (None, "record: no wall-clock phase timers"),
    "gate": (None, "coverage: exit 1 on stagnation"),
    "rarest": (_COUNT, "coverage: how many rarest-hit signatures to list"),
    "budget": (_COUNT, "fuzz: mutated-candidate budget"),
    "atlas": (str, "fuzz: directory holding the coverage atlas"),
    "slice": (_COUNT, "diff/explain: max causal-slice length"),
    "scenario": (
        str, "degrade: zoo scenario to sweep (a @rate suffix pins the rate)"
    ),
    "rates": (_rates, "degrade: comma-separated hostility rates"),
    "smoke": (None, "degrade: tiny fixed sweep, saved as BENCH_degradation.json"),
    "quick": (None, "smoke-scale parameters"),
    "workers": (
        _INT, "parallel sweep workers (default: serial, or REPRO_WORKERS; "
        "0 = one per CPU)",
    ),
}
_POSITIONALS = ("path", "path2")


def _spelled(name: str) -> str:
    return f"<{name}>" if name in _POSITIONALS else "--" + name.replace("_", "-")


@dataclass(frozen=True)
class Command:
    """One ``python -m repro`` command."""

    name: str
    line: str | None  # its `repro list` line, padding as listed; None: unlisted
    run: Callable[[argparse.Namespace], tuple[str | None, int]]  # -> (text, exit)
    takes: dict[str, Any]  # each flag or positional it reads -> its default
    quick: dict[str, Any] = field(default_factory=dict)  # defaults under --quick

    def rejection(self, name: str) -> str:
        """The one line for a flag or positional this command does not
        read; an experiment key's missing override names its budget."""
        experiment = EXPERIMENTS.get(self.name)
        if experiment is not None and name in ("n", "seeds"):
            hint = "budget keys: " + ", ".join(experiment.budget)
        else:
            hint = "takes: " + (", ".join(map(_spelled, self.takes)) or "nothing")
        return f"repro {self.name}: no {_spelled(name)} here ({hint})"


def _experiment_command(key: str) -> Command:
    experiment = EXPERIMENTS[key]
    overrides = [name for name in ("n", "seeds") if name in experiment.budget]
    return Command(
        key, f"{key:4s} {experiment.description}", _run_keys([key]),
        {**dict.fromkeys(overrides), "quick": False, "workers": None},
    )


COMMANDS: dict[str, Command] = {
    command.name: command
    for command in (
        *map(_experiment_command, EXPERIMENTS),
        Command(
            "record", "record  run one protocol with the flight recorder attached",
            _run_record,
            dict(protocol="whp_ba", n=40, seed=0, out=None, no_profile=False),
        ),
        Command(
            "report", "report  render a recorded run (round timeline, words, coin, ...)",
            _run_report, dict(path=None),
        ),
        Command(
            "export", "export  convert a recording to Chrome/Perfetto trace JSON",
            _run_export, dict(path=None, out=None),
        ),
        Command(
            "diff", "diff    localize the first divergent event between two recordings",
            _run_diff, dict(path=None, path2=None, slice=20, out=None),
        ),
        Command(
            "explain", "explain replay a recording, minimize and explain its failure",
            _run_explain, dict(path=None, protocol=None, slice=20, out=None),
        ),
        Command(
            "fuzz", "fuzz    coverage-guided schedule fuzzing over a recording",
            _run_fuzz,
            dict(path=None, protocol=None, budget=200, seed=0, atlas=".", out=None),
        ),
        Command(
            "check", "check   monitored conformance sweep (paper-property checks)",
            _run_check, dict(protocols=None, n=24, seeds=6, quick=False),
            quick=dict(n=16, seeds=2),
        ),
        Command(
            "fingerprint", "fingerprint  every pinned run's counts", _run_fingerprint, {}
        ),
        Command(
            "coverage", "coverage  schedule-coverage atlas views (--gate: stagnation)",
            _run_coverage, dict(path=None, gate=False, rarest=10),
        ),
        Command(
            "dashboard",
            "dashboard  single-pane HTML report (telemetry+conformance+scaling)",
            _run_dashboard, dict(path=None, out="dashboard.html"),
        ),
        Command(
            "degrade", "degrade  lossy-rate sweep over a zoo scenario (curves + knee)",
            _run_degrade,
            dict(
                scenario="lossy_uniform", rates=DEFAULT_RATES, n=8, seeds=8,
                out=None, smoke=False,
            ),
        ),
        Command(
            "all", None, _run_keys(list(EXPERIMENTS)),
            dict(n=None, seeds=None, quick=False, workers=None),
        ),
        Command("list", None, _run_list, {}),
    )
}


def _parser() -> argparse.ArgumentParser:
    """Every command and argument from the tables.  Nothing has a default
    here, so what was given is exactly what the namespace holds."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artefacts from 'Not a COINcidence' (PODC 2020).",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=list(COMMANDS))
    for name, (parse, help_text) in ARGUMENTS.items():
        if name in _POSITIONALS:
            parser.add_argument(name, nargs="?", help=help_text)
        elif parse is None:
            parser.add_argument(_spelled(name), action="store_true", help=help_text)
        else:
            parser.add_argument(_spelled(name), help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    given = vars(_parser().parse_args(argv))
    command = COMMANDS[given.pop("command")]
    for name in given:
        if name not in command.takes:
            print(command.rejection(name), file=sys.stderr)
            return 2
    values = dict(command.takes)
    if given.get("quick"):
        values.update(command.quick)
    code = 0  # the experiment keys print as they run, then return 0
    try:
        for name, value in given.items():
            parse = ARGUMENTS[name][0]
            try:
                values[name] = parse(value) if parse else value
            except ValueError as exc:
                raise SystemExit(f"repro {command.name}: {_spelled(name)} {exc}")
        text, code = command.run(argparse.Namespace(**values))
        if text is not None:
            print(text, flush=True)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            # A one-line diagnosis of the input: exit 2, not the 1 that
            # `raise SystemExit(message)` would give -- exit 1 is a check
            # finding something.
            print(exc.code, file=sys.stderr)
            exc.code = 2
        raise
    except BrokenPipeError:
        # The reader left early (`repro report r.jsonl | head`): silence
        # stdout, so the exit flush cannot fail again, and keep the code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
