"""`python -m repro check`: sweep protocols with the conformance monitors on.

Runs each requested protocol (any name ``resolve_run`` accepts; a Table 1
protocol means its benign run) over a seed sweep with one
:class:`~repro.sim.monitors.MonitorSuite` attached per protocol (the
suite accumulates across seeds -- that is what gives the coin-rho and
S1-S4 Wilson intervals their trials), renders a conformance table per
paper property, and persists the full payload as ``BENCH_conformance.json``
through the trend store, so conformance itself has a cross-run
trajectory.

Exit discipline (used verbatim by the CI conformance job): any
``"safety"``-severity violation -- Agreement, Validity, a committee
membership lie -- makes the check fail; ``"whp"``-severity flags are
reported with their observed rate against the paper's bound but do not
fail the run, because the paper *promises* they happen with positive
probability.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.experiments.scenarios import resolve_run
from repro.experiments.trends import record_bench
from repro.sim.coverage import CoverageProbe, signature_set
from repro.sim.monitors import MonitorSuite
from repro.sim.network import DEFAULT_MAX_DELIVERIES

__all__ = [
    "CONFORMANCE_SCHEMA",
    "CONFORMANCE_SCHEMA_VERSION",
    "DEFAULT_PROTOCOLS",
    "coverage_gate",
    "format_check",
    "format_coverage_gate",
    "run_check",
    "write_conformance",
]

CONFORMANCE_SCHEMA = "repro.conformance"
CONFORMANCE_SCHEMA_VERSION = 1

# whp_ba exercises every monitor (coin, committees, approver, safety);
# mmr+alg1 adds the Algorithm 1 shared-coin rho estimate.
DEFAULT_PROTOCOLS = ("whp_ba", "mmr+alg1")


def run_check(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    n: int = 24,
    seeds: Iterable[int] = range(6),
    max_deliveries: int = DEFAULT_MAX_DELIVERIES,
    coverage: bool = True,
    atlas: Any = None,
) -> dict[str, Any]:
    """Run the monitored sweep; returns the JSON-ready conformance payload.

    With ``coverage`` on (the default) every run also carries a
    :class:`~repro.sim.coverage.CoverageProbe`, each row reports how
    many schedule signatures that seed covered and how many were *new*
    -- unseen by any earlier run of the sweep, and, when an ``atlas``
    (:class:`~repro.experiments.coverage_atlas.CoverageAtlas`) is
    passed, unseen by any previously recorded run at all -- and the
    payload gains a sweep-level ``coverage`` summary.  Each (protocol,
    seed) run appends one record to the atlas, so conformance sweeps
    are what grow ``BENCH_coverage_atlas.jsonl``.
    """
    seeds = list(seeds)
    payload: dict[str, Any] = {
        "schema": CONFORMANCE_SCHEMA,
        "version": CONFORMANCE_SCHEMA_VERSION,
        "n": n,
        "seeds": seeds,
        "protocols": {},
    }
    total_safety = 0
    # Novelty within the sweep is judged against the atlas' accumulated
    # knowledge (when given) plus everything earlier in this sweep --
    # so a sweep over already-explored seeds honestly reports 0% new.
    seen: set[str] = atlas.known_signatures() if atlas is not None else set()
    baseline = len(seen)
    sweep_signatures: set[str] = set()
    rows_with_new = total_rows = 0
    for name in protocols:
        suite = MonitorSuite()
        rows = []
        protocol_signatures: set[str] = set()
        protocol_rows_with_new = 0
        for seed in seeds:
            spec = resolve_run(name, n, seed=seed)
            f = spec.f
            probe = CoverageProbe() if coverage else None
            result = spec.run(
                observers=[suite, probe] if coverage else [suite],
                max_deliveries=max_deliveries,
            )
            row = {
                "seed": seed,
                "live": result.live,
                "all_correct_decided": result.all_correct_decided,
                "words": result.words,
                "duration": result.duration,
                "deliveries": result.deliveries,
            }
            if probe is not None:
                signatures = signature_set(probe.snapshot())
                new = signatures - seen
                seen |= signatures
                sweep_signatures |= signatures
                protocol_signatures |= signatures
                row["signatures"] = len(signatures)
                row["new_signatures"] = len(new)
                total_rows += 1
                if new:
                    rows_with_new += 1
                    protocol_rows_with_new += 1
                if atlas is not None:
                    atlas.record_run(
                        {
                            "source": "conformance",
                            "protocol": name,
                            "n": n,
                            "f": f,
                            "seed": seed,
                            "scheduler": "random",
                        },
                        signatures,
                    )
            rows.append(row)
        conformance = suite.report()
        total_safety += conformance["safety_violations"]
        payload["protocols"][name] = {
            "f": f,
            "runs": rows,
            "conformance": conformance,
        }
        if coverage:
            payload["protocols"][name]["coverage"] = {
                "unique_signatures": len(protocol_signatures),
                "runs_with_new": protocol_rows_with_new,
            }
    if coverage:
        # ``unique_signatures`` counts only this sweep's signatures (a
        # deterministic function of the configuration, so the trend
        # gate may judge it); the novelty counts depend on the atlas'
        # prior state and are gate-excluded by name.
        payload["coverage"] = {
            "unique_signatures": len(sweep_signatures),
            "baseline_signatures": baseline,
            "runs_with_new": rows_with_new,
            "runs_total": total_rows,
            "new_rate": rows_with_new / total_rows if total_rows else 0.0,
        }
    payload["safety_violations"] = total_safety
    payload["ok"] = total_safety == 0
    return payload


def write_conformance(payload: dict[str, Any], root: str = "."):
    """Persist the payload as ``BENCH_conformance.json`` + a trend record."""
    path, _ = record_bench("conformance", payload, root=root)
    return path


def _rate_anomalies(node: Any, path: str = "") -> list[str]:
    """Paths of every nested ``"conformant": False`` rate verdict."""
    anomalies: list[str] = []
    if isinstance(node, dict):
        if node.get("conformant") is False:
            anomalies.append(path or "$")
        for key in sorted(node):
            anomalies.extend(_rate_anomalies(node[key], f"{path}.{key}" if path else key))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            anomalies.extend(_rate_anomalies(item, f"{path}[{index}]"))
    return anomalies


def coverage_gate(payload: dict[str, Any]) -> dict[str, Any]:
    """The nightly stagnation gate over one conformance payload.

    Fails (``ok: False``) exactly when the sweep's new-coverage rate was
    0% for *every* seed -- no run contributed a signature the atlas had
    not already seen -- while a monitor is simultaneously reporting a
    whp-severity rate anomaly (a whp flag, or any rate estimate outside
    its paper bound).  Either condition alone is fine: a fully-explored
    sweep with clean monitors is just saturation, and an anomaly found
    by *fresh* coverage is the monitors doing their job.  Together they
    mean the sweep is re-exploring one interleaving and the anomaly
    cannot be trusted to be schedule-independent.
    """
    coverage = payload.get("coverage")
    verdict: dict[str, Any] = {"ok": True, "stagnant": False, "anomalies": []}
    if not coverage:
        verdict["note"] = "payload has no coverage accounting; gate vacuous"
        return verdict
    verdict["runs_with_new"] = coverage.get("runs_with_new", 0)
    verdict["runs_total"] = coverage.get("runs_total", 0)
    verdict["stagnant"] = (
        coverage.get("runs_total", 0) > 0 and coverage.get("runs_with_new", 0) == 0
    )
    anomalies: list[str] = []
    for name, entry in payload.get("protocols", {}).items():
        conformance = entry.get("conformance", {})
        if conformance.get("whp_flags"):
            anomalies.append(f"{name}: {conformance['whp_flags']} whp flag(s)")
        anomalies.extend(
            f"{name}: non-conformant rate at {path}"
            for path in _rate_anomalies(conformance.get("monitors", {}))
        )
    verdict["anomalies"] = anomalies
    verdict["ok"] = not (verdict["stagnant"] and anomalies)
    return verdict


def format_coverage_gate(verdict: dict[str, Any]) -> str:
    """Human-readable gate report (``repro coverage --gate`` output)."""
    lines = ["coverage stagnation gate:"]
    if "note" in verdict:
        lines.append(f"  {verdict['note']}")
    else:
        lines.append(
            f"  new coverage: {verdict['runs_with_new']}/{verdict['runs_total']} "
            "runs contributed unseen signatures"
            + ("  ** STAGNANT" if verdict["stagnant"] else "")
        )
        if verdict["anomalies"]:
            lines.append(f"  rate anomalies ({len(verdict['anomalies'])}):")
            lines.extend(f"    {anomaly}" for anomaly in verdict["anomalies"][:12])
        else:
            lines.append("  rate anomalies: none")
    lines.append(
        "GATE: "
        + (
            "PASS"
            if verdict["ok"]
            else "FAIL (0% new coverage while monitors flag rate anomalies)"
        )
    )
    return "\n".join(lines)


def _rate_cell(entry: dict[str, Any], bound: float | None, kind: str) -> str:
    if not entry.get("trials"):
        return "(no trials)"
    interval = entry.get("interval")
    lo, hi = (interval if interval else (0.0, 1.0))
    cell = f"{entry['successes']}/{entry['trials']}"
    cell += f"  rate={entry['mean']:.3f} [{lo:.3f}, {hi:.3f}]"
    if bound is not None:
        cell += f"  {kind}{bound:.3g}"
        cell += "" if entry.get("conformant", True) else "  ** NON-CONFORMANT"
    return cell


def format_check(payload: dict[str, Any]) -> str:
    """Human-readable conformance tables for the whole sweep."""
    lines = [
        f"conformance check: n={payload['n']}, seeds={payload['seeds']}",
    ]
    for name, entry in payload["protocols"].items():
        conformance = entry["conformance"]
        monitors = conformance["monitors"]
        decided = sum(1 for row in entry["runs"] if row["all_correct_decided"])
        lines.append("")
        lines.append(
            f"== {name} (f={entry['f']}): {decided}/{len(entry['runs'])} runs "
            f"decided, {conformance['safety_violations']} safety violations, "
            f"{conformance['whp_flags']} whp flags"
        )
        safety = monitors.get("safety")
        if safety:
            lines.append(
                f"  safety    : {safety['decisions_checked']} decisions checked; "
                f"Agreement violations={safety['agreement_violations']}, "
                f"Validity violations={safety['validity_violations']}"
            )
        committee = monitors.get("committee")
        if committee and committee["committees_checked"]:
            lines.append(
                f"  committees: {committee['committees_checked']} checked "
                "(failure rate vs Chernoff bound)"
            )
            for prop, stats in committee["properties"].items():
                failures = {
                    "successes": stats["successes"],
                    "trials": stats["trials"],
                    "mean": stats["mean"],
                    "interval": stats["interval"],
                    "conformant": stats["conformant"],
                }
                lines.append(
                    f"    {prop}: "
                    + _rate_cell(failures, stats.get("chernoff_bound"), "bound=")
                )
        coin = monitors.get("coin")
        if coin and coin["variants"]:
            lines.append("  coins     : (success rate vs rho bound)")
            for variant, stats in coin["variants"].items():
                lines.append(
                    f"    {variant}: "
                    + _rate_cell(stats, stats.get("rho_bound"), "rho>=")
                )
        approver = monitors.get("approver")
        if approver and approver["instances_checked"]:
            ga = approver["graded_agreement"]
            grades = ", ".join(
                f"|{grade}|x{count}" for grade, count in approver["grades"].items()
            )
            lines.append(
                f"  approvers : {approver['instances_checked']} instances; "
                f"Graded Agreement {ga['successes']}/{ga['trials']}; "
                f"grades {grades}"
            )
        coverage = entry.get("coverage")
        if coverage:
            lines.append(
                f"  coverage  : {coverage['unique_signatures']} distinct "
                f"signatures; {coverage['runs_with_new']}/{len(entry['runs'])} "
                "seeds contributed new ones"
            )
        for violation in conformance["violations"]:
            lines.append(
                f"  ! [{violation['severity']}] "
                f"{violation['monitor']}/{violation['property']} "
                f"step {violation['step']}: {violation['message']}"
            )
    sweep_coverage = payload.get("coverage")
    if sweep_coverage:
        lines.append("")
        lines.append(
            f"coverage: {sweep_coverage['unique_signatures']} distinct "
            f"signatures ({sweep_coverage['baseline_signatures']} known "
            f"before); {sweep_coverage['runs_with_new']}/"
            f"{sweep_coverage['runs_total']} runs contributed new "
            f"interleavings ({sweep_coverage['new_rate']:.0%})"
        )
    lines.append("")
    lines.append("RESULT: " + ("OK" if payload["ok"] else "SAFETY VIOLATIONS"))
    if not payload["ok"]:
        from repro.sim.diffing import divergence_hint

        lines.append(divergence_hint("to localize a violating run"))
    return "\n".join(lines)
