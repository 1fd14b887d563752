"""`repro fuzz`: coverage-guided schedule fuzzing over a flight recording.

This is the loop that closes the ROADMAP's coverage-fuzzing item: the
coverage atlas (PR 6) is the feedback signal, seq-exact replay + ddmin
(PR 8) is the triage pipeline, and :mod:`repro.sim.fuzz` supplies the
typed mutations.  One invocation:

1. loads a recording and replays it seq-exactly under a fresh
   :class:`~repro.sim.monitors.MonitorSuite` +
   :class:`~repro.sim.coverage.CoverageProbe` -- that run's violations
   are the *baseline* (a recording of a known-broken scenario should not
   fail the fuzz gate for re-finding its own bug), and its signatures
   seed the corpus;
2. spends ``budget`` candidates mutating corpus entries
   (:func:`repro.sim.fuzz.mutate`), executing each mutant, keeping those
   whose signature sets add anything the atlas + corpus have not seen
   (novelty-guided corpus growth, recorded in the atlas journal);
3. for each distinct violating ``(monitor, property)`` target (baseline
   or not), re-executes the first offending candidate under a flight
   recorder, persists the recording, minimizes the schedule (bounded
   ddmin) and writes a ``*.divergence.json`` counterexample bundle that
   ``repro explain``/the dashboard classify like any other;
4. reports a corpus/novelty/violations summary and fails (``ok: False``)
   only when a *safety*-severity target outside the baseline appeared.

Candidates that the protocol cannot realize (the replay scheduler raises
``RuntimeError``) are skipped, exactly like the minimizer skips them.
Everything is deterministic given (recording, seed, budget) except atlas
novelty, which by design depends on what previous runs already explored.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

from repro.crypto.hashing import derive_seed
from repro.experiments.coverage_atlas import CoverageAtlas
from repro.experiments.forensics import explain_recording, run_header, spec_of
from repro.experiments.scenarios import RunSpec
from repro.experiments.store import save_results
from repro.sim.adversary import RandomScheduler, ReplayScheduler
from repro.sim.coverage import CoverageProbe, signature_families, signature_set
from repro.sim.diffing import save_divergence
from repro.sim.flightrecorder import (
    FlightRecorder,
    Recording,
    load_recording,
    save_recording,
)
from repro.sim.fuzz import FuzzCandidate, MutationContext, ScheduledCorruption, mutate
from repro.sim.monitors import SEVERITY_SAFETY, MonitorSuite
from repro.sim.runner import RunResult

__all__ = ["FUZZ_SCHEMA", "FUZZ_SCHEMA_VERSION", "format_fuzz", "fuzz_recording"]

FUZZ_SCHEMA = "repro.fuzz"
# v2: a candidate's schedule is one ``schedule`` list of ``[seq, sender,
# dest]`` deliveries, where v1 wrote parallel ``order`` and ``seqs`` lists.
FUZZ_SCHEMA_VERSION = 2

DEFAULT_BUDGET = 200
DEFAULT_MINIMIZE_BUDGET = 48
DEFAULT_MAX_BUNDLES = 3


def _candidate_spec(spec: RunSpec, candidate: FuzzCandidate) -> RunSpec:
    """The recorded run with the candidate's links and corruption siting."""
    corruption = (
        ScheduledCorruption(candidate.corrupt_after)
        if candidate.corrupt_after is not None
        else spec.corruption
    )
    return replace(spec, lossy=candidate.lossy, corruption=corruption)


def _execute_candidate(
    spec: RunSpec,
    candidate: FuzzCandidate,
    explore_cap: int,
    observers: Sequence[Any] = (),
) -> RunResult:
    """Run one candidate; raises ``RuntimeError`` when unrealizable."""
    if candidate.explore_seed is not None:
        scheduler = RandomScheduler(random.Random(candidate.explore_seed))
        max_deliveries = explore_cap
    else:
        scheduler = ReplayScheduler(candidate.schedule)
        max_deliveries = len(candidate.schedule)
    return _candidate_spec(spec, candidate).run(
        scheduler, observers, max_deliveries=max_deliveries
    )


def _bundle_counterexample(
    out_prefix: str,
    index: int,
    spec: RunSpec,
    candidate: FuzzCandidate,
    target: tuple[str, str],
    explore_cap: int,
    minimize_budget: int,
) -> dict[str, Any]:
    """Persist one violating candidate: recording + minimized bundle.

    The candidate is re-executed under a flight recorder and saved with
    its own spec, whose lossy links and corruption steps the header
    keeps, so :func:`explain_recording` replays, checks and minimizes it
    from the file alone, exactly like a plain recording (lossy fates are
    functions of the seq, so a lossy run replays seq-exactly under its
    own config).
    """
    recorder = FlightRecorder()
    result = _execute_candidate(spec, candidate, explore_cap, [recorder])
    recording_path = Path(f"{out_prefix}_ce{index}.jsonl")
    save_recording(
        recording_path,
        recorder,
        result,
        protocol=run_header(_candidate_spec(spec, candidate), recorder.corruptions),
    )
    divergence_path = Path(f"{out_prefix}_ce{index}.divergence.json")
    payload = explain_recording(recording_path, minimize_budget=minimize_budget)
    payload["source"] = "fuzz"
    payload["candidate"] = candidate.to_dict()
    save_divergence(divergence_path, payload)
    minimized = payload.get("minimized")
    return {
        "recording": str(recording_path),
        "divergence": str(divergence_path),
        "monitor": target[0],
        "property": target[1],
        "mutation": candidate.mutation,
        "failure_type": (payload.get("failure") or {}).get("type"),
        "minimized_deliveries": (
            minimized["deliveries"] if minimized else None
        ),
        "minimize_error": payload.get("minimize_error"),
    }


def fuzz_recording(
    source: str | Path | Recording,
    protocol: str | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    atlas_root: str | Path = ".",
    out: str | None = None,
    minimize_budget: int = DEFAULT_MINIMIZE_BUDGET,
    max_bundles: int = DEFAULT_MAX_BUNDLES,
) -> dict[str, Any]:
    """The full `repro fuzz` pipeline over one recording.

    Returns the JSON-ready summary payload (``schema: "repro.fuzz"``);
    ``payload["ok"]`` is False only when a safety-severity violation
    target *outside the seed recording's own baseline* was found.
    Artifacts land next to ``out`` (default: the recording path minus
    its extension, plus ``.fuzz``): ``<out>_corpus.json`` plus one
    ``<out>_ce<k>.jsonl`` + ``.divergence.json`` pair per bundled
    counterexample.
    """
    if isinstance(source, Recording):
        recording, path = source, None
    else:
        path, recording = Path(source), load_recording(source)
    if out is None:
        if path is None:
            raise ValueError("pass `out` when fuzzing an in-memory recording")
        out = str(path.with_suffix("")) + ".fuzz"
    spec = spec_of(recording, protocol)
    name = spec.name
    run = {"protocol": name, "n": spec.n, "f": spec.f, "seed": spec.seed}
    schedule = recording.schedule()
    explore_cap = max(4 * len(schedule), 64)
    ctx = MutationContext(
        corrupted=tuple(sorted(recording.header.get("corrupted", ()))),
        deliveries=len(schedule),
    )

    payload: dict[str, Any] = {
        "schema": FUZZ_SCHEMA,
        "version": FUZZ_SCHEMA_VERSION,
        "kind": "fuzz",
        "recording": str(path) if path is not None else None,
        **run,
        "deliveries": len(schedule),
        "budget": budget,
    }

    # -- the seed candidate: baseline violations + seed coverage ----------------
    # Zoo scenarios carry a lossy config; the seed candidate must inherit
    # it or the recorded schedule is unrealizable (the fates that shaped
    # the recording never fire on replay).
    seed_candidate = FuzzCandidate(schedule=schedule, lossy=spec.lossy)
    seed_suite = MonitorSuite()
    seed_probe = CoverageProbe()
    try:
        _execute_candidate(
            spec, seed_candidate, explore_cap, [seed_suite, seed_probe]
        )
    except RuntimeError as exc:
        payload["error"] = (
            "seed recording does not replay seq-exactly -- the protocol "
            f"build or setup differs from the one that recorded it: {exc}"
        )
        payload["ok"] = False
        return payload

    baseline_targets = {
        (v.monitor, v.prop): v.severity for v in seed_suite.violations
    }
    seed_signatures = signature_set(seed_probe.snapshot())
    payload["baseline_violations"] = sorted(
        f"{monitor}/{prop}" for monitor, prop in baseline_targets
    )

    atlas = CoverageAtlas(atlas_root)
    atlas_known = atlas.known_signatures()
    atlas.record_run(
        {
            "source": "fuzz",
            **run,
            "scheduler": "replay",
            "mutation": "seed",
        },
        seed_signatures,
    )
    known = atlas_known | seed_signatures
    known_families = set(signature_families(known))

    corpus: list[FuzzCandidate] = [seed_candidate]
    corpus_novelty: list[list[str]] = [sorted(seed_signatures - atlas_known)]
    rng = random.Random(derive_seed(seed, "fuzz", name))
    mutation_stats: dict[str, dict[str, int]] = {}
    new_signatures: set[str] = set()
    new_families: set[str] = set()
    found_targets: dict[tuple[str, str], str] = {}
    bundles: list[dict[str, Any]] = []
    bundled_targets: set[tuple[str, str]] = set()
    realizable = 0
    unrealizable = 0
    skipped = 0

    for index in range(budget):
        parent = rng.randrange(len(corpus))
        candidate = mutate(corpus[parent], rng, ctx)
        if candidate is None:
            skipped += 1
            continue
        candidate = replace(candidate, parent=parent)
        stats = mutation_stats.setdefault(
            candidate.mutation,
            {"tried": 0, "realizable": 0, "novel": 0, "violations": 0},
        )
        stats["tried"] += 1
        suite = MonitorSuite()
        probe = CoverageProbe()
        try:
            _execute_candidate(spec, candidate, explore_cap, [suite, probe])
        except RuntimeError:
            unrealizable += 1
            continue
        realizable += 1
        stats["realizable"] += 1

        signatures = signature_set(probe.snapshot())
        novel = signatures - known
        if novel:
            stats["novel"] += 1
            known |= novel
            new_signatures |= novel
            new_families |= set(signature_families(novel)) - known_families
            known_families |= set(signature_families(novel))
            corpus.append(candidate)
            corpus_novelty.append(sorted(novel))
            atlas.record_run(
                {
                    "source": "fuzz",
                    **run,
                    "scheduler": (
                        "lossy+random"
                        if candidate.explore_seed is not None
                        else "replay"
                    ),
                    "mutation": candidate.mutation,
                    "candidate": index,
                },
                signatures,
            )

        if suite.violations:
            stats["violations"] += 1
        for violation in suite.violations:
            target = (violation.monitor, violation.prop)
            if target not in found_targets:
                found_targets[target] = violation.severity
            if target in bundled_targets or len(bundles) >= max_bundles:
                continue
            bundled_targets.add(target)
            bundles.append(
                _bundle_counterexample(
                    out, len(bundles), spec, candidate, target,
                    explore_cap, minimize_budget,
                )
            )

    new_safety = sorted(
        f"{monitor}/{prop}"
        for (monitor, prop), severity in found_targets.items()
        if severity == SEVERITY_SAFETY and (monitor, prop) not in baseline_targets
    )

    corpus_path = Path(f"{out}_corpus.json")
    corpus_path.parent.mkdir(parents=True, exist_ok=True)
    corpus_path.write_text(
        json.dumps(
            {
                "schema": FUZZ_SCHEMA,
                "version": FUZZ_SCHEMA_VERSION,
                "kind": "fuzz_corpus",
                "recording": payload["recording"],
                "protocol": name,
                "entries": [
                    dict(entry.to_dict(), new_signatures=novelty)
                    for entry, novelty in zip(corpus, corpus_novelty)
                ],
            },
            indent=2,
        )
        + "\n"
    )

    payload.update(
        {
            "candidates": budget,
            "realizable": realizable,
            "unrealizable": unrealizable,
            "skipped": skipped,
            "violating_targets": sorted(
                f"{monitor}/{prop} [{severity}]"
                for (monitor, prop), severity in found_targets.items()
            ),
            "new_violations": new_safety,
            "mutations": {
                name: mutation_stats[name] for name in sorted(mutation_stats)
            },
            "counterexamples": bundles,
            "corpus_file": str(corpus_path),
            "novelty": {
                "corpus_size": len(corpus),
                "new_signatures": len(new_signatures),
                "new_families": sorted(new_families),
                "atlas_known_before": len(atlas_known),
                "atlas_known_after": len(known),
            },
            "ok": not new_safety,
        }
    )

    # The campaign's summary, the dashboard's Fuzzing panel.  Atlas-
    # dependent quantities (corpus growth, realizability -- both functions
    # of what previous runs already explored) live under "novelty"; the
    # configuration and verdict stay at the top level.
    bench_path = save_results(
        "BENCH_fuzzing",
        {
            "recording": payload["recording"],
            **run,
            "budget": budget,
            "deliveries": len(schedule),
            "baseline_violations": payload["baseline_violations"],
            "new_violations": new_safety,
            "ok": payload["ok"],
            "novelty": dict(
                payload["novelty"],
                realizable=realizable,
                unrealizable=unrealizable,
                skipped=skipped,
                violating_targets=len(found_targets),
                counterexamples=len(bundles),
            ),
        },
        atlas_root,
    )
    payload["bench_file"] = str(bench_path)
    return payload


def format_fuzz(payload: dict[str, Any]) -> str:
    """Human rendering of a :func:`fuzz_recording` payload."""
    lines = []
    if payload.get("recording"):
        lines.append(f"fuzz: {payload['recording']}")
    lines.append(
        f"run: protocol={payload.get('protocol')} n={payload.get('n')} "
        f"f={payload.get('f')} seed={payload.get('seed')} "
        f"deliveries={payload.get('deliveries')}"
    )
    if payload.get("error"):
        lines.append(f"error: {payload['error']}")
        return "\n".join(lines)
    baseline = payload.get("baseline_violations") or []
    lines.append(
        "baseline violations: "
        + (", ".join(baseline) if baseline else "none (seed replay clean)")
    )
    lines.append(
        f"budget {payload['budget']}: {payload['realizable']} realizable, "
        f"{payload['unrealizable']} unrealizable, "
        f"{payload['skipped']} mutation no-ops"
    )
    novelty = payload.get("novelty", {})
    lines.append(
        f"corpus: {novelty.get('corpus_size', 1)} entries "
        f"(+{novelty.get('new_signatures', 0)} new signatures vs atlas of "
        f"{novelty.get('atlas_known_before', 0)}; "
        f"new families: "
        + (", ".join(novelty.get("new_families") or []) or "none")
        + ")"
    )
    lines.append("mutation yield (tried / realizable / novel / violating):")
    for name, stats in (payload.get("mutations") or {}).items():
        lines.append(
            f"  {name:<16} {stats['tried']:>4} / {stats['realizable']:>4} / "
            f"{stats['novel']:>4} / {stats['violations']:>4}"
        )
    targets = payload.get("violating_targets") or []
    lines.append(
        "violating targets: " + (", ".join(targets) if targets else "none")
    )
    for bundle in payload.get("counterexamples") or []:
        shrunk = (
            f"minimized to {bundle['minimized_deliveries']} deliveries"
            if bundle.get("minimized_deliveries") is not None
            else f"not minimized ({bundle.get('minimize_error') or 'n/a'})"
        )
        lines.append(
            f"  counterexample [{bundle['monitor']}/{bundle['property']}] "
            f"via {bundle['mutation']}: {bundle['recording']} ({shrunk})"
        )
    new = payload.get("new_violations") or []
    if new:
        lines.append(
            "NEW safety violations (outside the recording's baseline): "
            + ", ".join(new)
        )
    lines.append("ok" if payload.get("ok") else "FUZZ GATE FAILED")
    return "\n".join(lines)
