"""Smoke and unit tests of the performance ledger itself.

Not part of tier-1 (``testpaths = ["tests"]``); run it on its own::

    python -m pytest benchmarks/perf/test_perf_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import adapter  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_smoke_runs_every_workload_traced_and_untraced(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    ledger = json.loads(out.read_text())
    assert list(ledger["workloads"]) == [cell.name for cell in WORKLOADS]
    for name, summary in ledger["workloads"].items():
        assert summary["correct"], name
        assert set(summary["metrics"]) == {metric for metric, *_ in layers.END_TO_END}
        assert set(summary["layers"]) == {metric for metric, *_ in layers.PER_LAYER}
        assert summary["layers"]["trace.overhead_ratio"] > 0
    assert ledger["meta"]["total_s"] < 90


def test_benchmark_json_agrees_with_the_registry():
    spec = json.loads((adapter.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [row["name"] for row in spec["workloads"]] == [cell.name for cell in WORKLOADS]
    assert [(row["name"], row["unit"], row["better"]) for row in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _ in layers.END_TO_END
    ]
    assert [(row["name"], row["unit"], row["better"]) for row in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    # The contract's bounds must cover seed-to-seed spread, so they may only
    # be wider than the same-seed bounds `--compare` applies.
    for row, (_, _, _, same_seed_bound) in zip(spec["end_to_end"], layers.END_TO_END):
        assert same_seed_bound <= row["bound"] <= 0.25


# -- span self-time arithmetic -------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    spans = [
        (0, "run", 0.0, 10.0, -1),
        (1, "core.step", 1.0, 5.0, 0),
        (2, "sim.submit", 2.0, 3.0, 1),
        (3, "sim.sched", 2.2, 2.7, 2),   # grandchild: charged to sim.submit only
        (4, "core.step", 6.0, 7.0, 0),
        (5, "sim.sched", 8.0, 8.5, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["run"] == 10.0 - (4.0 + 1.0 + 0.5)
    assert selfs["core.step"] == (4.0 - 1.0) + 1.0
    assert selfs["sim.submit"] == 1.0 - 0.5
    assert selfs["sim.sched"] == 0.5 + 0.5
    assert abs(sum(selfs.values()) - 10.0) < 1e-12  # self times add up to the root


def test_tracer_totals_match_the_offline_arithmetic():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(200)))
    middle = tracer.wrap("middle", lambda: [leaf() for _ in range(3)])
    tracer.span("run", lambda: [middle() for _ in range(4)])
    assert tracer.count("leaf") == 12 and tracer.count("middle") == 4
    offline = tracing.self_times(tracer.spans)
    for name in ("run", "middle", "leaf"):
        assert abs(offline[name] - tracer.self_s(name)) < 1e-9
    total = sum(tracer.self_s(name) for name in ("run", "middle", "leaf"))
    assert abs(total - tracer.total_s("run")) < 1e-9


def test_tracer_keeps_totals_exact_past_the_span_cap():
    tracer = tracing.Tracer(keep=5)
    leaf = tracer.wrap("leaf", lambda: None)
    tracer.span("run", lambda: [leaf() for _ in range(50)])
    assert tracer.count("leaf") == 50
    assert len(tracer.spans) == 6 and tracer.dropped == 45  # 5 leaves + the run span
    assert tracer.spans[-1][1] == "run"


def test_traced_scheduler_keeps_the_kernel_fast_path_detection():
    adapter.load_program()
    from repro.sim.adversary import FIFOScheduler, RandomScheduler, Scheduler

    tracer = tracing.Tracer()
    random_cls = tracing._traced_scheduler_class(RandomScheduler, tracer)
    assert random_cls.on_submit is Scheduler.on_submit      # still skipped by the kernel
    assert random_cls.drain is Scheduler.drain              # still declines batches
    assert random_cls.choose is not RandomScheduler.choose
    fifo_cls = tracing._traced_scheduler_class(FIFOScheduler, tracer)
    assert fifo_cls.wants_view is False
    assert fifo_cls.on_submit is not Scheduler.on_submit
    scheduler = FIFOScheduler()
    scheduler.__class__ = fifo_cls
    scheduler.on_submit_range(0, 3)
    assert scheduler.drain(None, 10) == [0, 1, 2]
    assert tracer.count("sim.sched") == 2


# -- percentile rule -----------------------------------------------------------------


def test_supported_percentile_needs_ten_samples_beyond_it():
    assert layers.supported_percentile(9) is None
    assert layers.supported_percentile(20) == 50.0
    assert layers.supported_percentile(40) == 75.0
    assert layers.supported_percentile(100) == 90.0
    assert layers.supported_percentile(200) == 95.0
    assert layers.supported_percentile(1000) == 99.0
    assert layers.supported_percentile(10_000) == 99.9


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 41)]
    assert layers.percentile(values, 50) == 20.0
    assert layers.percentile(values, 95) == 38.0
    assert layers.percentile([7.0], 95) == 7.0


# -- API-drift adapter ---------------------------------------------------------------


def _today(n, f, protocol, *, adversary=None, delivery_mode="classic", lossy=None,
           subscribers=None, monitors=None, telemetry=None, coverage=None):
    """Today's keyword surface."""


def _after_roadmap_items_2_and_3(n, f, protocol, *, adversary=None, lossy=None, observers=None):
    """One kernel loop (no delivery_mode), one observer seam."""


class _Stub:
    on_event = staticmethod(lambda event: None)


def _observers():
    return adapter.Observers(_Stub(), _Stub(), _Stub(), _Stub())


def test_adapter_detects_the_api_shape_from_the_signature():
    assert adapter.detect_api(_today) == adapter.ApiShape(delivery_mode=True, observers=False)
    assert adapter.detect_api(_after_roadmap_items_2_and_3) == adapter.ApiShape(
        delivery_mode=False, observers=True
    )


def test_adapter_passes_only_keywords_that_exist():
    observers = _observers()
    today = adapter.optional_kwargs(adapter.detect_api(_today), batched=True,
                                    lossy=None, observers=observers)
    assert today["delivery_mode"] == "batched"
    assert today["subscribers"] == [observers.recorder.on_event]
    assert today["monitors"] is observers.monitors
    assert "observers" not in today and "lossy" not in today
    later = adapter.optional_kwargs(adapter.detect_api(_after_roadmap_items_2_and_3),
                                    batched=True, lossy="config", observers=observers)
    assert "delivery_mode" not in later and "subscribers" not in later
    assert len(later["observers"]) == 4 and later["lossy"] == "config"
    _after_roadmap_items_2_and_3(4, 1, None, **later)  # accepted by the new surface
    _today(4, 1, None, **today)


# -- --compare verdicts --------------------------------------------------------------


def _row(values):
    q1, q3 = run.quartiles(values)
    return {"value": sorted(values)[len(values) // 2], "q1": q1, "q3": q3, "values": values}


def test_compare_verdicts():
    base = _row([10.0, 10.1, 10.2, 10.1, 10.0])
    assert run.judge(base, _row([10.3, 10.2, 10.4, 10.3, 10.2]), 0.10) == "ok"
    assert run.judge(base, _row([12.0, 12.1, 12.2, 12.1, 12.0]), 0.10) == "regressed"
    assert run.judge(base, _row([9.0, 14.0, 11.0, 13.0, 8.0]), 0.10) == "unresolved"
    assert run.judge(base, _row([5.0, 9.9, 7.0, 6.0, 8.0]), 0.10) == "ok"  # every run better
    exact = _row([100, 100, 100])
    assert run.judge(exact, _row([100, 100, 100]), 0.0) == "ok"
    assert run.judge(exact, _row([101, 101, 101]), 0.0) == "regressed"
