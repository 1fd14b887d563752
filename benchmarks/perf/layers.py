"""Metric registry and the per-layer arithmetic of the traced pass.

Layer = module name.  ``derive`` runs in the traced child and turns the
tracer's per-name totals, the runs' own counters and three
micro-benchmarks into layer metrics; ``combine`` runs in the driver and
adds the ratios that need the untraced child's clock.  Self times of one
workload add up to its ``run`` span by construction::

    sim.kernel_self_s + sim.sched_s + sim.submit_s
      + core.step_s | baselines.step_s + crypto.prove_sign_s
      + observe.{recorder,monitors,telemetry,coverage,finalize,save}_s
      == trace.run_s

``crypto.verify_s`` is *computed* (exact miss counts from the run's
metrics and exact counts of the calls made x unit costs from a
micro-benchmark of the same PKI backend): ``pki.*_verify`` is accounted
~45x per delivery, far too often to put a span around.  It is a part of
``core.step_s``, not an addend.
"""

from __future__ import annotations

import random
import time
from typing import Any

__all__ = [
    "END_TO_END", "PER_LAYER", "combine", "derive", "percentile", "supported_percentile",
]

# (name, unit, better, bound).  The bound is the share of the base's median
# by which `--compare` lets a metric worsen between two ledgers of the
# *same seed*: host clocks carry the sandbox's noise, simulated counts
# repeat exactly.  BENCHMARK.json states wider bounds, because the
# builder contract measures spread across *different* seeds (README.md).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.10),
    ("setup_s", "s", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("words_correct", "words", "lower", 0.0),
    ("causal_depth", "hops", "lower", 0.0),
)

# (name, unit, better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # sim kernel: network, mailbox, process, metrics
    ("sim.deliveries", "count", "lower"),
    ("sim.deliveries_per_s", "1/s", "higher"),
    ("sim.ns_per_delivery", "ns", "lower"),
    ("sim.kernel_self_s", "s", "lower"),
    ("sim.kernel_self_ns_per_delivery", "ns", "lower"),
    ("sim.submit_s", "s", "lower"),
    ("sim.submits", "count", "lower"),
    ("sim.wait_evaluations", "count", "lower"),
    ("sim.wait_skip_ratio", "ratio", "higher"),
    ("sim.batched_fraction", "ratio", "higher"),
    ("sim.drain_batches", "count", "lower"),
    # sim.adversary
    ("sim.sched_s", "s", "lower"),
    ("sim.sched_calls", "count", "lower"),
    ("sim.sched_ns_per_call", "ns", "lower"),
    # sim lossy links
    ("sim.lossy.duplicates", "count", "lower"),
    ("sim.lossy.reorders", "count", "lower"),
    ("sim.lossy.drops", "count", "lower"),
    ("sim.words_delivered", "words", "lower"),
    ("sim.lossy.slowdown_ratio", "ratio", "lower"),
    # sim observers: events, flightrecorder, monitors, telemetry, coverage
    ("observe.events", "count", "lower"),
    ("observe.ns_per_event", "ns", "lower"),
    ("observe.emit_self_s", "s", "lower"),
    ("observe.recorder_s", "s", "lower"),
    ("observe.monitors_s", "s", "lower"),
    ("observe.telemetry_s", "s", "lower"),
    ("observe.coverage_s", "s", "lower"),
    ("observe.finalize_s", "s", "lower"),
    ("observe.save_s", "s", "lower"),
    ("observe.recording_mb", "MiB", "lower"),
    ("observe.slowdown_ratio", "ratio", "lower"),
    # core: approver, whp_coin, committees, agreement
    ("core.step_s", "s", "lower"),
    ("core.steps", "count", "lower"),
    ("core.step_ns", "ns", "lower"),
    ("core.rounds", "count", "lower"),
    ("core.decision_depth", "hops", "lower"),
    ("core.coin_invocations", "count", "lower"),
    ("core.coin_success_ratio", "ratio", "higher"),
    ("core.words.approver", "words", "lower"),
    ("core.words.whp_coin", "words", "lower"),
    ("core.words.ok_share", "ratio", "lower"),
    ("core.committee_sample_us", "us", "lower"),
    # baselines (+ core.shared_coin)
    ("baselines.step_s", "s", "lower"),
    ("baselines.steps", "count", "lower"),
    ("baselines.rounds", "count", "lower"),
    # crypto: pki, vrf, signatures, ec
    ("crypto.keygen_s", "s", "lower"),
    ("crypto.verify_calls", "count", "lower"),
    ("crypto.verify_calls_per_delivery", "ratio", "lower"),
    ("crypto.verify_direct_calls", "count", "lower"),
    ("crypto.verify_hit_ratio", "ratio", "higher"),
    ("crypto.verify_hit_ns", "ns", "lower"),
    ("crypto.verify_miss_ns", "ns", "lower"),
    ("crypto.verify_s", "s", "lower"),
    ("crypto.prove_sign_calls", "count", "lower"),
    ("crypto.prove_sign_s", "s", "lower"),
    # experiments: protocols, sweep shape
    ("experiments.make_runner_s", "s", "lower"),
    ("experiments.runs_per_s", "1/s", "higher"),
    ("experiments.op_ms_p50", "ms", "lower"),
    ("experiments.op_ms_p95", "ms", "lower"),
    # host
    ("host.import_s", "s", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.wall_minus_cpu_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_OBSERVERS = ("recorder", "monitors", "telemetry", "coverage")
_PERMILLE_LADDER = (500, 750, 900, 950, 990, 999)


def supported_percentile(samples: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    supported = [p for p in _PERMILLE_LADDER if samples * (1000 - p) >= 10 * 1000]
    return supported[-1] / 10 if supported else None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (the sample at or above share ``p``)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


# -- micro-benchmarks (traced child only, after the timed section) -------------------


def _per_call_ns(call, loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        call()
    return (time.perf_counter() - start) / loops * 1e9


def verify_unit_costs(backend: str) -> dict[str, float]:
    """ns per verify call on ``backend``: memo hit and uncached, VRF and signature."""
    from repro.crypto.pki import PKI

    fast = backend == "simulated"
    alpha = b"perf-ledger-unit-cost"
    costs: dict[str, float] = {}
    for cached, label, loops in ((True, "hit", 20_000), (False, "miss", 2_000 if fast else 3)):
        pki = PKI.create(2, backend=backend, rng=random.Random(2020), verify_cache=cached)
        output = pki.vrf_scheme.prove(pki.vrf_private(0), alpha)
        signature = pki.signature_scheme.sign(pki.signature_private(0), alpha)
        if not (pki.vrf_verify(0, alpha, output) and pki.signature_verify(0, alpha, signature)):
            raise AssertionError(f"{backend} backend rejected its own proof")
        costs[f"vrf_{label}_ns"] = _per_call_ns(lambda: pki.vrf_verify(0, alpha, output), loops)
        costs[f"sig_{label}_ns"] = _per_call_ns(
            lambda: pki.signature_verify(0, alpha, signature), loops
        )
    return costs


def committee_sample_us(pki: Any, params: Any) -> float:
    """us per trusted-view ``sample_committee`` at the workload's n (0 without λ)."""
    from repro.core.committees import sample_committee

    if getattr(params, "lam", None) is None:
        return 0.0
    loops = 3
    start = time.perf_counter()
    for index in range(loops):
        sample_committee(pki, ("perf", index), "micro", params)
    return (time.perf_counter() - start) / loops * 1e6


# -- the traced child's share ----------------------------------------------------------


def derive(
    workload: Any, records: list[dict], tracer: Any, report: dict, sample: tuple[Any, Any]
) -> dict[str, float]:
    from repro.sim.telemetry import LAYER_OF_KIND

    layer = workload.layer
    step = f"{layer}.step"
    prints = report["fingerprints"]

    def total(key: str) -> int:
        return sum(row[key] for row in prints)

    deliveries = total("deliveries")
    out: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    run_s = tracer.total_s("run")
    out["trace.run_s"] = run_s
    out["sim.deliveries"] = deliveries
    out["sim.kernel_self_s"] = tracer.self_s("run")
    out["sim.kernel_self_ns_per_delivery"] = tracer.self_s("run") / deliveries * 1e9
    out["sim.submit_s"] = tracer.self_s("sim.submit")
    out["sim.submits"] = tracer.count("sim.submit")
    evaluations, skips = total("wait_evaluations"), total("wait_skips")
    out["sim.wait_evaluations"] = evaluations
    out["sim.wait_skip_ratio"] = skips / (evaluations + skips) if evaluations + skips else 0.0
    out["sim.batched_fraction"] = sum(r["batched_deliveries"] for r in records) / deliveries
    out["sim.drain_batches"] = sum(r["drain_batches"] for r in records)
    out["sim.sched_s"] = tracer.self_s("sim.sched")
    out["sim.sched_calls"] = tracer.count("sim.sched")
    if tracer.count("sim.sched"):
        out["sim.sched_ns_per_call"] = tracer.total_s("sim.sched") / tracer.count("sim.sched") * 1e9
    for fate in ("duplicates", "reorders", "drops"):
        out[f"sim.lossy.{fate}"] = total(f"lossy_{fate}")
    out["sim.words_delivered"] = total("words_delivered")

    observer_s = 0.0
    for name in _OBSERVERS:
        out[f"observe.{name}_s"] = tracer.self_s(f"observe.{name}")
        observer_s += out[f"observe.{name}_s"]
    out["observe.finalize_s"] = tracer.self_s("observe.finalize")
    out["observe.save_s"] = tracer.self_s("observe.save")
    observer_s += out["observe.finalize_s"] + out["observe.save_s"]
    out["observe.events"] = tracer.count("observe.recorder")
    out["observe.recording_mb"] = report["recording_bytes"] / (1024.0 * 1024.0)
    if workload.observed:
        # Event construction + dispatch: what the observed run spends beyond
        # its bare twin (traced the same way) and beyond the observers.
        out["observe.emit_self_s"] = run_s - report["twin"]["wall_s"] - observer_s
        out["observe.ns_per_event"] = (
            (out["observe.emit_self_s"] + observer_s) / out["observe.events"] * 1e9
        )

    out[f"{layer}.step_s"] = tracer.self_s(step)
    out[f"{layer}.steps"] = tracer.count(step)
    out[f"{layer}.rounds"] = total("decision_rounds")
    out["core.decision_depth"] = total("decision_depth")
    coins = sum(r["coin_invocations"] for r in records)
    out["core.coin_invocations"] = coins
    if coins:
        out["core.coin_success_ratio"] = sum(r["coins_unanimous"] for r in records) / coins
    if layer == "core":
        out["core.step_ns"] = tracer.self_s(step) / max(1, tracer.count(step)) * 1e9
        out["core.committee_sample_us"] = committee_sample_us(*sample)
        words = {"approver": 0, "coin": 0, "OkMsg": 0}
        for record in records:
            for kind, count in record["words_by_kind"].items():
                if LAYER_OF_KIND.get(kind) in words:
                    words[LAYER_OF_KIND[kind]] += count
                if kind in words:
                    words[kind] += count
        out["core.words.approver"] = words["approver"]
        out["core.words.whp_coin"] = words["coin"]
        out["core.words.ok_share"] = words["OkMsg"] / max(1, report["words_correct"])

    out["crypto.keygen_s"] = tracer.total_s("crypto.keygen")
    calls, hits = total("verifications"), total("verification_cache_hits")
    vrf_misses = sum(r["vrf_misses"] for r in records)
    sig_misses = sum(r["sig_misses"] for r in records)
    vrf_direct = sum(r["direct_verifies"][0] for r in records)
    sig_direct = sum(r["direct_verifies"][1] for r in records)
    costs = verify_unit_costs(workload.backend)
    out["crypto.verify_calls"] = calls
    out["crypto.verify_calls_per_delivery"] = calls / deliveries
    out["crypto.verify_direct_calls"] = vrf_direct + sig_direct
    out["crypto.verify_hit_ratio"] = hits / calls if calls else 0.0
    out["crypto.verify_hit_ns"] = (costs["vrf_hit_ns"] + costs["sig_hit_ns"]) / 2
    out["crypto.verify_miss_ns"] = (costs["vrf_miss_ns"] + costs["sig_miss_ns"]) / 2
    # Every miss is a call made; the other calls made are memo hits; the
    # calls counted but not made were replayed by a compound memo for free.
    out["crypto.verify_s"] = 1e-9 * (
        vrf_misses * costs["vrf_miss_ns"] + (vrf_direct - vrf_misses) * costs["vrf_hit_ns"]
        + sig_misses * costs["sig_miss_ns"] + (sig_direct - sig_misses) * costs["sig_hit_ns"]
    )
    out["crypto.prove_sign_calls"] = tracer.count("crypto.prove_sign")
    out["crypto.prove_sign_s"] = tracer.self_s("crypto.prove_sign")
    out["experiments.make_runner_s"] = tracer.total_s("experiments.make_runner")
    if workload.backend != "simulated":
        simulated = verify_unit_costs("simulated")
        report["simulated_verify_miss_ns"] = (
            simulated["vrf_miss_ns"] + simulated["sig_miss_ns"]
        ) / 2
    report["observer_calls"] = {
        name: tracer.count(f"observe.{name}") for name in _OBSERVERS
    }
    return out


# -- the driver's share ----------------------------------------------------------------


def combine(untraced: dict, traced: dict) -> dict[str, float]:
    """All per-layer metrics of one workload: the traced child's, plus the
    rates and ratios that use the untraced child's clock."""
    out = dict(traced["layers"])
    deliveries = out["sim.deliveries"]
    wall = untraced["wall_s"]
    out["sim.deliveries_per_s"] = deliveries / wall
    out["sim.ns_per_delivery"] = wall / deliveries * 1e9
    out["experiments.runs_per_s"] = untraced["ops"] / wall
    out["experiments.op_ms_p50"] = percentile(untraced["op_ms"], 50)
    out["experiments.op_ms_p95"] = percentile(untraced["op_ms"], 95)
    out["host.import_s"] = untraced["import_s"]
    out["host.cpu_s"] = untraced["cpu_s"]
    out["host.wall_minus_cpu_s"] = wall - untraced["cpu_s"]
    out["trace.overhead_ratio"] = traced["wall_s"] / wall
    # Slow-down of the workload against its bare twin; 1.0 where the
    # workload *is* the bare cell.
    out["observe.slowdown_ratio"] = out["sim.lossy.slowdown_ratio"] = 1.0
    twin = untraced.get("twin")
    if twin is not None:
        key = "observe.slowdown_ratio" if twin["kind"] == "observed" else "sim.lossy.slowdown_ratio"
        out[key] = wall / twin["wall_s"]
    return out
