"""`python -m repro dashboard`: one self-contained HTML pane for the repo.

Stitches every observability artifact this repository produces into a
single offline file -- no network fetches, no external scripts or
stylesheets, every chart inline SVG -- so "what has this repo been
doing" is answerable from one artifact attached to a CI run or mailed
around:

* **run summary + telemetry timelines** of a flight recording: the
  virtual-time series a :class:`~repro.sim.telemetry.TelemetryProbe`
  sampled (in-flight messages, mailbox backlog, blocked processes,
  cumulative words by protocol layer), its latency quantiles and the
  per-causal-depth profile, replayed from the recording's event log
  through a fresh probe.
* **trend-store series** with SVG sparklines and out-of-tolerance drift
  highlighted (same numeric-leaves rules as ``repro trends --gate``).
* **conformance verdicts** from the newest ``conformance`` trend record
  (per-protocol safety violations and whp flags).
* **divergence forensics** from the newest ``*.divergence.json`` report
  (written by ``repro diff`` / ``repro explain``): the verdict, the
  minimized schedule and the causal slice behind the divergence.
* **fuzzing campaign** from the newest ``fuzzing`` trend record
  (written by ``repro fuzz``): candidate yield, corpus growth, new
  signature families and any counterexample bundles.
* **degradation curves** from the newest ``degradation_*.json`` sweep
  artifact (written by ``repro degrade``), falling back to the trend
  store's ``degradation`` smoke series: outcome fractions and word
  counts vs hostility rate, with the estimated knee marked.
* **schedule coverage** from ``BENCH_coverage_atlas.jsonl``
  (:mod:`repro.experiments.coverage_atlas`): atlas growth, new
  signatures per run, rarest-hit signatures.
* **E4 scaling curves** from the newest ``E4_scaling`` trend record
  (mean words vs n per protocol, log-log).

Every missing input degrades to a one-line diagnostic *inside the
dashboard* (and on stdout), never an exception: a dashboard of an empty
repository is a valid dashboard that says what to run next.
"""

from __future__ import annotations

import html
import math
from pathlib import Path
from typing import Any

from repro.experiments.trends import (
    TrendStore,
    canonical_scalar,
    numeric_drifts,
)

__all__ = ["build_dashboard", "render_dashboard"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #d0d0e0; padding-bottom: .3rem; }
table { border-collapse: collapse; font-size: .85rem; }
td, th { padding: .25rem .7rem; border-bottom: 1px solid #e8e8f0;
         text-align: right; } th { background: #f4f4fa; }
td:first-child, th:first-child { text-align: left; }
.diag { color: #8a6d3b; background: #fcf8e3; padding: .4rem .8rem;
        border-radius: 4px; display: inline-block; margin: .2rem 0; }
.drift { color: #a94442; font-weight: 600; }
.ok { color: #3c763d; }
.chart-title { font-size: .8rem; color: #555; margin: .6rem 0 .1rem; }
.charts { display: flex; flex-wrap: wrap; gap: 1.2rem; }
svg { background: #fbfbfe; border: 1px solid #e0e0ea; }
.legend { font-size: .75rem; color: #444; }
"""

_PALETTE = ("#3b5bdb", "#e8590c", "#2b8a3e", "#9c36b5", "#c92a2a", "#0b7285")


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.3g}" if abs(value) < 1000 else f"{value:,.0f}"
    if isinstance(value, int):
        return f"{value:,}"
    return _esc(value)


# -- SVG primitives ----------------------------------------------------------


def _polyline_points(
    xs: list[float], ys: list[float], width: int, height: int, pad: int = 6
) -> str:
    if not xs:
        return ""
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    points = []
    for x, y in zip(xs, ys):
        px = pad + (x - x_lo) / x_span * (width - 2 * pad)
        py = height - pad - (y - y_lo) / y_span * (height - 2 * pad)
        points.append(f"{px:.1f},{py:.1f}")
    return " ".join(points)


def _line_chart(
    series: dict[str, tuple[list[float], list[float]]],
    width: int = 340,
    height: int = 120,
    title: str = "",
) -> str:
    """Multi-series SVG line chart with min/max labels and a legend."""
    drawn = {
        name: (xs, ys) for name, (xs, ys) in series.items() if xs and ys
    }
    if not drawn:
        return "<p class='diag'>(no data points)</p>"
    all_ys = [y for _, ys in drawn.values() for y in ys]
    all_xs = [x for xs, _ in drawn.values() for x in xs]
    parts = [
        f"<div class='chart-title'>{_esc(title)}</div>" if title else "",
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} {height}'"
        " role='img'>",
    ]
    for index, (name, (xs, ys)) in enumerate(drawn.items()):
        color = _PALETTE[index % len(_PALETTE)]
        parts.append(
            f"<polyline fill='none' stroke='{color}' stroke-width='1.5' "
            f"points='{_polyline_points(xs, ys, width, height)}'/>"
        )
    parts.append(
        f"<text x='4' y='12' font-size='9' fill='#888'>{_fmt(max(all_ys))}</text>"
        f"<text x='4' y='{height - 2}' font-size='9' fill='#888'>"
        f"{_fmt(min(all_ys))}</text>"
        f"<text x='{width - 4}' y='{height - 2}' font-size='9' fill='#888' "
        f"text-anchor='end'>x={_fmt(max(all_xs))}</text>"
    )
    parts.append("</svg>")
    legend = " &middot; ".join(
        f"<span style='color:{_PALETTE[i % len(_PALETTE)]}'>&#9632;</span> "
        f"{_esc(name)}"
        for i, name in enumerate(drawn)
    )
    parts.append(f"<div class='legend'>{legend}</div>")
    return "".join(part for part in parts if part)


def _spark_svg(values: list[float], width: int = 120, height: int = 24) -> str:
    finite = [v for v in values if isinstance(v, (int, float)) and v == v]
    if len(finite) < 2:
        return ""
    points = _polyline_points(
        list(range(len(finite))), finite, width, height, pad=2
    )
    return (
        f"<svg width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
        f"<polyline fill='none' stroke='#3b5bdb' stroke-width='1.2' "
        f"points='{points}'/></svg>"
    )


def _diag(message: str) -> str:
    return f"<p class='diag'>{_esc(message)}</p>"


# -- sections ----------------------------------------------------------------


def _series_xy(series: dict[str, Any]) -> tuple[list[float], list[float]]:
    return (
        [float(s) for s in series.get("steps", [])],
        [float(v) for v in series.get("values", [])],
    )


def _run_section(recording, recording_path, diagnostics: list[str]) -> str:
    if recording is None:
        message = (
            f"no recording: {recording_path}"
            if recording_path
            else "no recording supplied; run `python -m repro record "
            "--n 40 --out flight.jsonl` and pass the file"
        )
        diagnostics.append(message)
        return f"<section id='run'><h2>Run</h2>{_diag(message)}</section>"
    header = recording.header
    summary = recording.summary
    cells = {
        "n": header.get("n"),
        "f": header.get("f"),
        "seed": header.get("seed"),
        "deliveries": summary.get("deliveries"),
        "causal depth": summary.get("duration"),
        "words": summary.get("words"),
        "live": summary.get("live"),
        "all decided": summary.get("all_correct_decided"),
    }
    row = "".join(f"<td>{_fmt(value)}</td>" for value in cells.values())
    head = "".join(f"<th>{_esc(key)}</th>" for key in cells)
    return (
        "<section id='run'><h2>Run</h2>"
        f"<p>{_esc(recording_path)}</p>"
        f"<table><tr>{head}</tr><tr>{row}</tr></table></section>"
    )


def _telemetry_section(telemetry, diagnostics: list[str]) -> str:
    # Snapshot dicts render in sorted key order, so the page depends on
    # what a snapshot holds, not on the order a probe filled it in.
    if telemetry is None:
        message = "no telemetry (pass a recording; its events are replayed)"
        diagnostics.append(message)
        return (
            "<section id='telemetry'><h2>Telemetry</h2>"
            f"{_diag(message)}</section>"
        )
    series = telemetry.get("series", {})
    charts = []
    gauges = {
        "in-flight messages": "in_flight",
        "blocked processes": "blocked",
        "peak mailbox backlog": "backlog_max",
        "mean mailbox backlog": "backlog_mean",
    }
    for title, key in gauges.items():
        if key in series:
            xs, ys = _series_xy(series[key])
            charts.append(
                f"<div>{_line_chart({key: (xs, ys)}, title=title + ' / step')}"
                "</div>"
            )
    layers = series.get("words_by_layer", {})
    if layers:
        charts.append(
            "<div>"
            + _line_chart(
                {layer: _series_xy(layers[layer]) for layer in sorted(layers)},
                title="cumulative words by layer / step",
            )
            + "</div>"
        )
    quantiles = telemetry.get("quantiles", {})
    q_rows = []
    for name, stats in sorted(quantiles.items()):
        if not stats.get("count"):
            continue
        q_rows.append(
            f"<tr><td>{_esc(name)}</td>"
            + "".join(
                f"<td>{_fmt(stats.get(key))}</td>"
                for key in ("count", "min", "p50", "p90", "p99", "max")
            )
            + "</tr>"
        )
    q_table = (
        "<table><tr><th>latency</th><th>count</th><th>min</th><th>p50</th>"
        "<th>p90</th><th>p99</th><th>max</th></tr>" + "".join(q_rows)
        + "</table>"
        if q_rows
        else _diag("no latency samples")
    )
    profile = telemetry.get("depth_profile", [])
    depth_chart = ""
    if profile:
        depths = [float(row["depth"]) for row in profile]
        depth_chart = _line_chart(
            {
                "messages": (depths, [float(r["messages"]) for r in profile]),
                "decisions": (
                    depths,
                    [float(r["decisions"]) for r in profile],
                ),
            },
            title="messages and decisions / causal depth",
        )
    return (
        "<section id='telemetry'><h2>Telemetry</h2>"
        f"<div class='charts'>{''.join(charts)}"
        f"<div>{depth_chart}</div></div>"
        f"<h3>latency quantiles (virtual time)</h3>{q_table}"
        "</section>"
    )


def _trends_section(store: TrendStore, rel_tol: float,
                    diagnostics: list[str]) -> str:
    try:
        names = store.names()
    except ValueError as exc:
        message = f"trend store unreadable: {exc}"
        diagnostics.append(message)
        return f"<section id='trends'><h2>Trends</h2>{_diag(message)}</section>"
    if not names:
        message = (
            f"trend store empty at {store.path} "
            "(benchmarks and `repro check` append here as they run)"
        )
        diagnostics.append(message)
        return f"<section id='trends'><h2>Trends</h2>{_diag(message)}</section>"
    rows = []
    for name in names:
        history = store.history(name)
        window = history[-8:]
        scalar = canonical_scalar(window) if len(window) > 1 else None
        spark = _spark_svg(scalar[1]) if scalar else ""
        tracking = _esc(scalar[0]) if scalar else ""
        if len(history) < 2:
            drift_cell = "<span class='ok'>first record</span>"
        else:
            drifts = numeric_drifts(
                history[-2]["payload"], history[-1]["payload"], rel_tol=rel_tol
            )
            drift_cell = (
                f"<span class='drift'>{len(drifts)} field(s): "
                + "; ".join(_esc(d) for d in drifts[:3])
                + "</span>"
                if drifts
                else f"<span class='ok'>within {rel_tol:.0%}</span>"
            )
        rows.append(
            f"<tr><td>{_esc(name)}</td><td>{len(history)}</td>"
            f"<td>{spark}</td><td>{tracking}</td><td>{drift_cell}</td></tr>"
        )
    return (
        "<section id='trends'><h2>Trends</h2>"
        f"<p>{_esc(store.path)}</p>"
        "<table><tr><th>series</th><th>records</th><th>trend</th>"
        "<th>tracking</th><th>drift vs previous</th></tr>"
        + "".join(rows)
        + "</table></section>"
    )


def _conformance_section(store: TrendStore, diagnostics: list[str]) -> str:
    try:
        latest = store.latest("conformance")
    except ValueError:
        latest = None
    if latest is None:
        message = "no conformance record (run `python -m repro check`)"
        diagnostics.append(message)
        return (
            "<section id='conformance'><h2>Conformance</h2>"
            f"{_diag(message)}</section>"
        )
    payload = latest["payload"]
    verdict = (
        "<span class='ok'>OK</span>"
        if payload.get("ok")
        else "<span class='drift'>SAFETY VIOLATIONS</span>"
    )
    rows = []
    for name, entry in payload.get("protocols", {}).items():
        conformance = entry.get("conformance", {})
        runs = entry.get("runs", [])
        decided = sum(1 for run in runs if run.get("all_correct_decided"))
        rows.append(
            f"<tr><td>{_esc(name)}</td><td>{entry.get('f')}</td>"
            f"<td>{decided}/{len(runs)}</td>"
            f"<td>{conformance.get('safety_violations')}</td>"
            f"<td>{conformance.get('whp_flags')}</td></tr>"
        )
    return (
        "<section id='conformance'><h2>Conformance</h2>"
        f"<p>n={payload.get('n')}, seeds={_esc(payload.get('seeds'))} "
        f"&mdash; {verdict}</p>"
        "<table><tr><th>protocol</th><th>f</th><th>decided</th>"
        "<th>safety violations</th><th>whp flags</th></tr>"
        + "".join(rows)
        + "</table></section>"
    )


def _coverage_section(atlas, diagnostics: list[str]) -> str:
    try:
        records = atlas.load() if atlas is not None else []
    except (OSError, ValueError) as exc:
        message = f"coverage atlas unreadable: {exc}"
        diagnostics.append(message)
        return (
            "<section id='coverage'><h2>Schedule coverage</h2>"
            f"{_diag(message)}</section>"
        )
    if not records:
        message = (
            "no coverage atlas (run `python -m repro check`; every "
            "monitored run appends its signature set)"
        )
        diagnostics.append(message)
        return (
            "<section id='coverage'><h2>Schedule coverage</h2>"
            f"{_diag(message)}</section>"
        )
    growth = atlas.growth(records)
    known = atlas.known_signatures(records)
    contributing = sum(1 for point in growth if point["new"])
    growth_spark = _spark_svg(
        [float(point["known_after"]) for point in growth], width=220
    )
    new_spark = _spark_svg([float(point["new"]) for point in growth], width=220)
    families: dict[str, int] = {}
    for signature in known:
        family = signature.split(":", 1)[0]
        families[family] = families.get(family, 0) + 1
    family_row = ", ".join(
        f"{name} {count}" for name, count in sorted(families.items())
    )
    rare_rows = "".join(
        f"<tr><td><code>{_esc(signature)}</code></td><td>{runs_with}</td></tr>"
        for signature, runs_with in atlas.rarest(8, records)
    )
    return (
        "<section id='coverage'><h2>Schedule coverage</h2>"
        f"<p>{_esc(atlas.path)} &mdash; {len(records)} runs, "
        f"{len(known)} distinct signatures, {contributing}/{len(growth)} "
        "runs contributed new coverage "
        f"(latest new-rate {growth[-1]['new_rate']:.0%})</p>"
        "<div class='charts'>"
        f"<div><div class='chart-title'>atlas size / run</div>{growth_spark}"
        "</div>"
        f"<div><div class='chart-title'>new signatures / run</div>{new_spark}"
        "</div></div>"
        f"<p class='legend'>signatures by family: {_esc(family_row)}</p>"
        "<table><tr><th>rarest signatures</th><th>runs</th></tr>"
        + rare_rows
        + "</table></section>"
    )


def _fuzzing_section(store: TrendStore, diagnostics: list[str]) -> str:
    try:
        latest = store.latest("fuzzing")
    except ValueError:
        latest = None
    if latest is None:
        message = (
            "no fuzzing record (run `python -m repro fuzz "
            "<recording.jsonl>`)"
        )
        diagnostics.append(message)
        return (
            "<section id='fuzzing'><h2>Fuzzing</h2>"
            f"{_diag(message)}</section>"
        )
    payload = latest["payload"]
    novelty = payload.get("novelty") or {}
    verdict = (
        "<span class='ok'>OK</span>"
        if payload.get("ok")
        else "<span class='drift'>NEW SAFETY VIOLATIONS</span>"
    )
    cells = {
        "budget": payload.get("budget"),
        "realizable": novelty.get("realizable"),
        "unrealizable": novelty.get("unrealizable"),
        "corpus": novelty.get("corpus_size"),
        "new signatures": novelty.get("new_signatures"),
        "counterexamples": novelty.get("counterexamples"),
    }
    head = "".join(f"<th>{_esc(key)}</th>" for key in cells)
    row = "".join(f"<td>{_fmt(value)}</td>" for value in cells.values())
    families = novelty.get("new_families") or []
    family_line = (
        f"<p class='legend'>new signature families: "
        f"{_esc(', '.join(families))}</p>"
        if families
        else ""
    )
    new = payload.get("new_violations") or []
    new_line = (
        "<p class='drift'>new safety violations: "
        + _esc(", ".join(new))
        + "</p>"
        if new
        else ""
    )
    return (
        "<section id='fuzzing'><h2>Fuzzing</h2>"
        f"<p>{_esc(payload.get('recording'))} &mdash; "
        f"protocol={_esc(payload.get('protocol'))} "
        f"seed={_fmt(payload.get('seed'))} &mdash; {verdict}</p>"
        f"<table><tr>{head}</tr><tr>{row}</tr></table>"
        + family_line
        + new_line
        + "</section>"
    )


def _divergence_section(
    divergence: dict[str, Any] | None,
    divergence_path: str | Path | None,
    diagnostics: list[str],
) -> str:
    if divergence is None:
        message = (
            "no divergence reports (`python -m repro diff` and `repro "
            "explain` write *.divergence.json when a check goes red)"
        )
        diagnostics.append(message)
        return (
            "<section id='divergence'><h2>Divergence forensics</h2>"
            f"{_diag(message)}</section>"
        )
    headline = divergence.get("describe")
    if headline is None:
        failure = divergence.get("failure")
        headline = (
            failure.get("message", "failure explained")
            if isinstance(failure, dict)
            else "recording clean: no failure found"
        )
    verdict = (
        "<span class='ok'>clean</span>"
        if divergence.get("identical")
        or (divergence.get("kind") == "explain" and not divergence.get("failure"))
        else f"<span class='drift'>{_esc(headline)}</span>"
    )
    parts = [
        "<section id='divergence'><h2>Divergence forensics</h2>",
        f"<p>{_esc(divergence_path)} &mdash; {verdict}</p>",
    ]
    minimized = divergence.get("minimized")
    if isinstance(minimized, dict) and minimized.get("describe"):
        parts.append(f"<p>{_esc(minimized['describe'])}</p>")
    slice_entries = divergence.get("slice") or []
    rows = []
    for entry in slice_entries:
        route = (
            f"{entry.get('sender')} &rarr; {entry.get('dest')}"
            if entry.get("sender") is not None
            else _esc(entry.get("pid", ""))
        )
        label = _esc(
            entry.get("message_kind") or entry.get("value", "")
        )
        flag = (
            "<span class='drift'>&#9670; diverges</span>"
            if entry.get("divergent")
            else ""
        )
        rows.append(
            f"<tr><td>{_esc(entry.get('kind'))}</td>"
            f"<td>{_fmt(entry.get('step'))}</td>"
            f"<td>{_fmt(entry.get('seq', ''))}</td>"
            f"<td>{route}</td><td>{label}</td>"
            f"<td>{_fmt(entry.get('depth', ''))}</td><td>{flag}</td></tr>"
        )
    if rows:
        parts.append(
            "<table><tr><th>event</th><th>step</th><th>seq</th>"
            "<th>route</th><th>kind/value</th><th>depth</th><th></th></tr>"
            + "".join(rows)
            + "</table>"
        )
    changed = divergence.get("changed") or []
    if changed:
        parts.append(
            "<p class='legend'>field deltas: "
            + "; ".join(_esc(delta) for delta in changed)
            + "</p>"
        )
    parts.append("</section>")
    return "".join(parts)


def _scaling_section(store: TrendStore, diagnostics: list[str]) -> str:
    try:
        latest = store.latest("E4_scaling")
    except ValueError:
        latest = None
    if latest is None:
        message = (
            "no scaling record (run `pytest benchmarks/bench_e4_scaling.py "
            "--benchmark-only`)"
        )
        diagnostics.append(message)
        return (
            "<section id='scaling'><h2>Scaling (E4)</h2>"
            f"{_diag(message)}</section>"
        )
    curves = latest["payload"]
    series: dict[str, tuple[list[float], list[float]]] = {}
    slopes = []
    for curve in curves if isinstance(curves, list) else []:
        points = [
            (math.log10(n), math.log10(w))
            for n, w in zip(curve.get("n_values", []), curve.get("mean_words", []))
            if isinstance(w, (int, float)) and w == w and w > 0
        ]
        if points:
            series[curve.get("protocol", "?")] = (
                [x for x, _ in points],
                [y for _, y in points],
            )
        slope = curve.get("slope_words_per_round")
        if isinstance(slope, (int, float)):
            slopes.append(f"{curve.get('protocol')}: {slope:.2f}")
    chart = _line_chart(
        series, width=420, height=180,
        title="mean words vs n (log10/log10)",
    )
    slope_line = (
        f"<p>fitted per-round log-log slopes: {_esc(', '.join(slopes))}</p>"
        if slopes
        else ""
    )
    return (
        "<section id='scaling'><h2>Scaling (E4)</h2>"
        f"{chart}{slope_line}</section>"
    )


def _rate_chart(
    series: dict[str, tuple[list[float], list[float]]],
    knee_rate: float | None,
    width: int = 420,
    height: int = 160,
    title: str = "",
) -> str:
    """Fraction-vs-rate curves on a shared [0, 1] y-scale + knee marker.

    Unlike :func:`_line_chart` (which normalizes each polyline to its own
    range -- fine for magnitudes, misleading for rates), every series
    here shares the fixed [0, 1] domain, so "decide rate crosses
    deadlock fraction" reads directly off the pane.  The knee, when
    estimated, renders as a dashed vertical marker at its rate.
    """
    drawn = {name: (xs, ys) for name, (xs, ys) in series.items() if xs and ys}
    if not drawn:
        return "<p class='diag'>(no data points)</p>"
    pad = 6
    all_xs = [x for xs, _ in drawn.values() for x in xs]
    x_lo, x_hi = min(all_xs), max(all_xs)
    x_span = (x_hi - x_lo) or 1.0

    def px(x: float) -> float:
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def py(y: float) -> float:
        return height - pad - max(0.0, min(1.0, y)) * (height - 2 * pad)

    parts = [
        f"<div class='chart-title'>{_esc(title)}</div>" if title else "",
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} {height}'"
        " role='img'>",
    ]
    for index, (name, (xs, ys)) in enumerate(drawn.items()):
        color = _PALETTE[index % len(_PALETTE)]
        points = " ".join(
            f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f"<polyline fill='none' stroke='{color}' stroke-width='1.5' "
            f"points='{points}'/>"
        )
    if knee_rate is not None and x_lo <= knee_rate <= x_hi:
        marker = px(knee_rate)
        parts.append(
            f"<line x1='{marker:.1f}' y1='{pad}' x2='{marker:.1f}' "
            f"y2='{height - pad}' stroke='#c92a2a' stroke-width='1' "
            "stroke-dasharray='4 3'/>"
            f"<text x='{marker + 3:.1f}' y='{pad + 9}' font-size='9' "
            f"fill='#c92a2a'>knee {knee_rate:g}</text>"
        )
    parts.append(
        "<text x='4' y='12' font-size='9' fill='#888'>1</text>"
        f"<text x='4' y='{height - 2}' font-size='9' fill='#888'>0</text>"
        f"<text x='{width - 4}' y='{height - 2}' font-size='9' fill='#888' "
        f"text-anchor='end'>rate={_fmt(x_hi)}</text>"
    )
    parts.append("</svg>")
    legend = " &middot; ".join(
        f"<span style='color:{_PALETTE[i % len(_PALETTE)]}'>&#9632;</span> "
        f"{_esc(name)}"
        for i, name in enumerate(drawn)
    )
    parts.append(f"<div class='legend'>{legend}</div>")
    return "".join(part for part in parts if part)


def _degradation_section(
    degradation: dict[str, Any] | None,
    degradation_path: str | Path | None,
    store: TrendStore,
    diagnostics: list[str],
) -> str:
    source = degradation_path
    if degradation is None:
        # No standalone sweep artifact: fall back to the trend store's
        # `degradation` series (the CI smoke sweep).
        try:
            latest = store.latest("degradation")
        except ValueError:
            latest = None
        if latest is not None:
            degradation = latest["payload"]
            source = "trend store: degradation (smoke sweep)"
    if degradation is None:
        message = (
            "no degradation sweep (run `python -m repro degrade "
            "--scenario lossy_uniform`)"
        )
        diagnostics.append(message)
        return (
            "<section id='degradation'><h2>Degradation curves</h2>"
            f"{_diag(message)}</section>"
        )
    points = degradation.get("points") or []
    xs = [float(p.get("rate", 0.0)) for p in points]

    def fraction(key: str) -> list[float]:
        return [float(p.get(key) or 0.0) for p in points]

    knee = degradation.get("knee")
    knee_rate = knee.get("rate") if isinstance(knee, dict) else None
    fraction_chart = _rate_chart(
        {
            "decide rate": (xs, fraction("decide_rate")),
            "deadlock": (xs, fraction("deadlock_fraction")),
            "exhausted": (xs, fraction("exhausted_fraction")),
            "whp anomaly": (xs, fraction("whp_anomaly_rate")),
        },
        knee_rate,
        title=(
            f"{degradation.get('scenario')}: outcome fractions vs "
            "hostility rate"
        ),
    )
    words_chart = _line_chart(
        {
            "words sent": (
                xs, [float(p.get("words_sent_mean") or 0.0) for p in points]
            ),
            "words delivered": (
                xs,
                [float(p.get("words_delivered_mean") or 0.0) for p in points],
            ),
        },
        width=420,
        height=160,
        title="mean words vs hostility rate (correct senders / delivered)",
    )
    if knee is None:
        knee_line = (
            "<p class='ok'>no knee: decide-rate stayed at or above "
            f"{_fmt(degradation.get('threshold'))} across the swept rates</p>"
        )
    else:
        low, high = knee.get("decide_rate_interval", (None, None))
        knee_line = (
            f"<p class='drift'>knee at rate {_fmt(knee.get('rate'))}: "
            f"decide-rate {_fmt(knee.get('decide_rate'))} "
            f"(95% CI [{_fmt(low)}, {_fmt(high)}]) fell below "
            f"{_fmt(knee.get('threshold'))}</p>"
        )
    rows = []
    for point in points:
        coin = point.get("coin_success_rate") or {}
        faults = point.get("link_faults") or {}
        rows.append(
            f"<tr><td>{_fmt(point.get('rate'))}</td>"
            f"<td>{_fmt(point.get('decide_rate'))}</td>"
            f"<td>{_fmt(point.get('deadlock_fraction'))}</td>"
            f"<td>{_fmt(point.get('whp_anomaly_rate'))}</td>"
            f"<td>{_fmt(coin.get('median', ''))}</td>"
            f"<td>{_fmt(point.get('words_sent_mean'))}</td>"
            f"<td>{_fmt(point.get('words_delivered_mean'))}</td>"
            f"<td>{_fmt(faults.get('drops', 0))}/"
            f"{_fmt(faults.get('duplicates', 0))}/"
            f"{_fmt(faults.get('reorders', 0))}/"
            f"{_fmt(faults.get('corruptions', 0))}</td></tr>"
        )
    table = (
        "<table><tr><th>rate</th><th>decide</th><th>deadlock</th>"
        "<th>whp!</th><th>coin ok (med)</th><th>words sent</th>"
        "<th>delivered</th><th>faults d/u/r/c</th></tr>"
        + "".join(rows)
        + "</table>"
        if rows
        else ""
    )
    return (
        "<section id='degradation'><h2>Degradation curves</h2>"
        f"<p>{_esc(source)} &mdash; scenario="
        f"{_esc(degradation.get('scenario'))} "
        f"n={_fmt(degradation.get('n'))} f={_fmt(degradation.get('f'))} "
        f"seeds={_fmt(degradation.get('seeds'))}/rate</p>"
        f"<div class='charts'><div>{fraction_chart}</div>"
        f"<div>{words_chart}</div></div>"
        + knee_line
        + table
        + "</section>"
    )


# -- assembly ----------------------------------------------------------------


def build_dashboard(
    recording=None,
    recording_path: str | Path | None = None,
    telemetry: dict[str, Any] | None = None,
    store: TrendStore | None = None,
    atlas: Any = None,
    divergence: dict[str, Any] | None = None,
    divergence_path: str | Path | None = None,
    degradation: dict[str, Any] | None = None,
    degradation_path: str | Path | None = None,
    rel_tol: float = 0.25,
    title: str = "repro dashboard",
    notes: list[str] | None = None,
) -> tuple[str, list[str]]:
    """Assemble the dashboard HTML; returns ``(html, diagnostics)``.

    Every argument is optional; missing inputs become one-line
    diagnostics rendered in place of their section.  ``notes`` are
    caller-supplied diagnostics (e.g. a recording that failed to load)
    rendered under the header so they appear inside the pane too.
    """
    diagnostics: list[str] = []
    store = store if store is not None else TrendStore(".")
    banner = "".join(_diag(note) for note in notes or ())
    sections = [
        _run_section(recording, recording_path, diagnostics),
        _telemetry_section(telemetry, diagnostics),
        _trends_section(store, rel_tol, diagnostics),
        _conformance_section(store, diagnostics),
        _divergence_section(divergence, divergence_path, diagnostics),
        _fuzzing_section(store, diagnostics),
        _degradation_section(
            degradation, degradation_path, store, diagnostics
        ),
        _coverage_section(atlas, diagnostics),
        _scaling_section(store, diagnostics),
    ]
    document = (
        "<!doctype html>\n"
        "<html lang='en'><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{_esc(title)}</h1>"
        "<p class='legend'>self-contained report: virtual-time telemetry, "
        "cross-run trends, paper-property conformance, scaling &mdash; "
        "generated by <code>python -m repro dashboard</code></p>"
        + banner
        + "".join(sections)
        + "</body></html>\n"
    )
    return document, diagnostics


def render_dashboard(
    out: str | Path,
    recording_path: str | Path | None = None,
    root: str | Path = ".",
    rel_tol: float = 0.25,
) -> tuple[Path, list[str]]:
    """Load whatever inputs exist and write the dashboard to ``out``.

    Returns ``(path, diagnostics)``.  Damaged inputs (truncated
    recording, unreadable divergence report) degrade to diagnostics
    exactly like missing ones -- the dashboard never refuses to render.
    """
    from repro.experiments.coverage_atlas import CoverageAtlas
    from repro.sim.flightrecorder import load_recording
    from repro.sim.telemetry import telemetry_from_events

    diagnostics: list[str] = []
    recording = None
    telemetry = None
    if recording_path is not None:
        try:
            recording = load_recording(recording_path)
        except (OSError, ValueError) as exc:
            diagnostics.append(f"recording unusable: {exc}")
        if recording is not None:
            telemetry = telemetry_from_events(recording.events)
    divergence = None
    divergence_path = None
    reports = sorted(
        Path(root).glob("*.divergence.json"),
        key=lambda p: p.stat().st_mtime,
    )
    if reports:
        import json

        divergence_path = reports[-1]
        try:
            divergence = json.loads(divergence_path.read_text())
        except (OSError, ValueError) as exc:
            diagnostics.append(f"divergence report unusable: {exc}")
            divergence_path = None
    degradation = None
    degradation_path = None
    sweeps = sorted(
        Path(root).glob("degradation_*.json"),
        key=lambda p: p.stat().st_mtime,
    )
    if sweeps:
        import json

        degradation_path = sweeps[-1]
        try:
            degradation = json.loads(degradation_path.read_text())
        except (OSError, ValueError) as exc:
            diagnostics.append(f"degradation sweep unusable: {exc}")
            degradation_path = None
    document, build_diags = build_dashboard(
        recording=recording,
        recording_path=recording_path,
        telemetry=telemetry,
        store=TrendStore(root),
        atlas=CoverageAtlas(root),
        divergence=divergence,
        divergence_path=divergence_path,
        degradation=degradation,
        degradation_path=degradation_path,
        rel_tol=rel_tol,
        notes=diagnostics,
    )
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(document)
    return out, diagnostics + build_diags
