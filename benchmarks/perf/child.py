"""One measured repeat of one workload, in a process of its own.

The driver (``run.py``) starts one child per (workload, repeat), one at a
time.  The child imports the program, builds its inputs (``setup_s``),
runs one untimed warm-up op at n=16, collects garbage and disables the
collector, runs the workload's ops in a closed loop (the next op starts
when the previous one returns; the collector is off while an op runs),
checks every op's outputs and prints one JSON object as the last line of its output.
With ``traced`` set it first rewires each op through ``tracing.trace_op``
and afterwards derives the per-layer metrics and writes the span file.
"""

from __future__ import annotations

import time

_FIRST_LINE = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import adapter  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload, by_name, smoke_variant  # noqa: E402

WARMUP_N = 16
WARMUP_MAX_DELIVERIES = 500_000


def _op_seed(root_seed: int, workload: Workload, index: int) -> int:
    from repro.crypto.hashing import derive_seed

    return derive_seed(root_seed, "perf", workload.name, index)


@contextmanager
def _collector_off():
    """Timed sections run with the cyclic collector off (and start clean)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _timed_run(op: adapter.Op, shape: adapter.ApiShape, timed, out_dir: Path):
    """One op's timed section; returns ``(result, recording bytes)``."""

    def section():
        result = adapter.run_op(op, shape)
        if op.observers is None:
            return result, 0
        return result, adapter.finish_observed(op, result, out_dir, timed)

    return timed("run", section)


def _twin(workload: Workload, seed: int, shape, traced: bool) -> dict[str, Any]:
    """The workload's bare twin: same seed, no lossy links, no observers.

    Traced like the main run (into a tracer of its own) when the main run
    is, so the difference of the two walls is not the tracing."""
    op = adapter.build_op(workload, seed, lossy=False, observed=False)
    if traced:
        tracing.trace_op(op, tracing.Tracer(keep=0))
    with _collector_off():
        start = time.perf_counter()
        result = adapter.run_op(op, shape)
        wall = time.perf_counter() - start
    return {
        "kind": "observed" if workload.observed else "lossy",
        "wall_s": wall,
        "fingerprint": adapter.fingerprint(result),
    }


def measure(spec: dict[str, Any]) -> dict[str, Any]:
    workload = by_name(spec["workload"])
    if spec.get("smoke"):
        workload = smoke_variant(workload)
    root_seed = spec["seed"]
    out_dir = Path(spec["out_dir"])
    traced = spec.get("traced", False)

    import_start = time.perf_counter()
    adapter.load_program()
    import_s = time.perf_counter() - import_start
    from repro.sim.runner import run_protocol

    shape = adapter.detect_api(run_protocol)
    tracer = tracing.Tracer() if traced else None
    timed = tracer.span if tracer else adapter.untimed

    # -- set-up: every op's inputs --------------------------------------------
    ops = [
        adapter.build_op(workload, _op_seed(root_seed, workload, index), timed=timed)
        for index in range(workload.ops)
    ]
    if tracer is not None:
        for op in ops:
            tracing.trace_op(op, tracer)
    setup_s = time.perf_counter() - _FIRST_LINE
    report: dict[str, Any] = {
        "workload": workload.name,
        "n": workload.n,
        "seed": root_seed,
        "traced": traced,
        "api": asdict(shape),
        "setup_s": setup_s,
        "import_s": import_s,
    }
    if spec.get("setup_only"):
        return report

    # -- warm-up: fill import-time and lru_cache state, untimed ----------------
    warm = replace(
        workload, n=min(WARMUP_N, workload.n), ops=1, backend="simulated",
        observed=False, lossy=(),
    )
    adapter.run_op(
        adapter.build_op(warm, _op_seed(root_seed, warm, -1)), shape,
        max_deliveries=WARMUP_MAX_DELIVERIES,
    )

    # -- timed section: closed loop, one client ---------------------------------
    # Each op is timed with the collector off; between ops (untimed) the
    # finished run is reduced to its record and dropped, as a sweep drops
    # it, so peak RSS is one run's and not the sum of all of them.
    out_dir.mkdir(parents=True, exist_ok=True)
    first_seed = ops[0].seed
    sample = (ops[0].pki, ops[0].params)  # for the committee micro-benchmark
    records = []
    op_seconds = []
    cpu_s = 0.0
    recording_bytes = 0
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="recording-") as scratch:
        for index in range(len(ops)):
            op, ops[index] = ops[index], None
            with _collector_off():
                cpu_start = time.process_time()
                op_start = time.perf_counter()
                result, size = _timed_run(op, shape, timed, Path(scratch))
                op_seconds.append(time.perf_counter() - op_start)
                cpu_s += time.process_time() - cpu_start
            records.append(adapter.record_op(op, result))
            recording_bytes += size
            del op, result
    wall_s = sum(op_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report.update(
        ops=len(records),
        ops_failed=sum(record["failed"] for record in records),
        violations=[
            f"op {index}: {record['violation']}"
            for index, record in enumerate(records) if record["violation"]
        ],
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        op_ms=[seconds * 1e3 for seconds in op_seconds],
        words_correct=sum(record["fingerprint"]["words"] for record in records),
        causal_depth=sum(record["causal_depth"] for record in records),
        fingerprints=[record["fingerprint"] for record in records],
        recording_bytes=recording_bytes,
    )

    # -- twins: the same seed without observers / without lossy links -----------
    wants_twin = workload.observed or (bool(workload.lossy) and spec.get("twins", False))
    if wants_twin:
        report["twin"] = _twin(workload, first_seed, shape, traced)

    if tracer is not None:
        import layers

        report["layers"] = layers.derive(workload, records, tracer, report, sample)
        trace_path = out_dir / f"trace_{workload.name}.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name,
            "n": workload.n,
            "seed": root_seed,
            **tracer.to_dict(),
        }))
        report["trace_file"] = str(trace_path)
    return report


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    report = measure(spec)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
