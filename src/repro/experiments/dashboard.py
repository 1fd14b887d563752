"""`python -m repro dashboard`: one self-contained HTML pane for the repo.

Stitches every observability artifact this repository produces into a
single offline file -- no network fetches, no external scripts or
stylesheets, every chart inline SVG -- so "what has this repo been
doing" is answerable from one artifact attached to a CI run or mailed
around.

The page is :data:`PANELS`, one row per section in page order: the run
summary and telemetry of a flight recording (replayed from its events),
the newest conformance verdict, divergence report, fuzzing campaign and
degradation sweep, the schedule-coverage atlas, and the E4 scaling
curves.  Each row names its ``source``, the function that renders it,
and the one line shown when its input is absent, which names the
command that creates it.

Inputs are read once each, from one root: the recording, the
``BENCH_<name>.json`` snapshots (each the payload its writer saved last),
the coverage atlas, the newest ``*.divergence.json`` and
``degradation_*.json``, and the tracked
``benchmarks/results/E4_scaling.json``.  No input ever stops the page:
an absent one shows its panel's ``missing`` line, a damaged one a line
that names the file and the error, so a dashboard of an empty repository
is a valid dashboard that says what to run next.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.experiments.conformance import read_conformance
from repro.experiments.coverage_atlas import CoverageAtlas
from repro.sim.coverage import signature_families
from repro.sim.flightrecorder import Recording, load_recording
from repro.sim.telemetry import telemetry_from_events

__all__ = ["PANELS", "Panel", "build_dashboard", "render_dashboard"]

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
    xs: list[float],
    ys: list[float],
    width: int,
    height: int,
    pad: int = 6,
    y_range: tuple[float, float] | None = None,
) -> str:
    if not xs:
        return ""
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = y_range or (min(ys), max(ys))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    points = []
    for x, y in zip(xs, ys):
        if y_range:
            y = min(max(y, y_lo), y_hi)
        px = pad + (x - x_lo) / x_span * (width - 2 * pad)
        py = height - pad - (y - y_lo) / y_span * (height - 2 * pad)
        points.append(f"{px:.1f},{py:.1f}")
    return " ".join(points)


def _line_chart(
    series: dict[str, tuple[list[float], list[float]]],
    width: int = 340,
    height: int = 120,
    title: str = "",
    y_range: tuple[float, float] | None = None,
    knee: float | None = None,
    x_name: str = "x",
) -> str:
    """Multi-series SVG line chart with min/max labels and a legend.

    Each polyline spans its own range -- fine for magnitudes, misleading
    for rates, so a ``y_range`` puts every series on one clamped scale
    (``(0, 1)`` for fractions).  A ``knee`` inside the x range renders
    as a dashed vertical marker at that x.
    """
    drawn = {
        name: (xs, ys) for name, (xs, ys) in series.items() if xs and ys
    }
    if not drawn:
        return "<p class='diag'>(no data points)</p>"
    all_ys = [y for _, ys in drawn.values() for y in ys]
    all_xs = [x for xs, _ in drawn.values() for x in xs]
    y_lo, y_hi = y_range or (min(all_ys), max(all_ys))
    parts = [
        f"<div class='chart-title'>{_esc(title)}</div>" if title else "",
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} {height}'"
        " role='img'>",
    ]
    for index, (name, (xs, ys)) in enumerate(drawn.items()):
        color = _PALETTE[index % len(_PALETTE)]
        parts.append(
            f"<polyline fill='none' stroke='{color}' stroke-width='1.5' "
            f"points='{_polyline_points(xs, ys, width, height, y_range=y_range)}'/>"
        )
    x_lo, x_hi = min(all_xs), max(all_xs)
    if knee is not None and x_lo <= knee <= x_hi:
        pad = 6
        marker = pad + (knee - x_lo) / ((x_hi - x_lo) or 1.0) * (width - 2 * pad)
        parts.append(
            f"<line x1='{marker:.1f}' y1='{pad}' x2='{marker:.1f}' "
            f"y2='{height - pad}' stroke='#c92a2a' stroke-width='1' "
            "stroke-dasharray='4 3'/>"
            f"<text x='{marker + 3:.1f}' y='{pad + 9}' font-size='9' "
            f"fill='#c92a2a'>knee {knee:g}</text>"
        )
    parts.append(
        f"<text x='4' y='12' font-size='9' fill='#888'>{_fmt(y_hi)}</text>"
        f"<text x='4' y='{height - 2}' font-size='9' fill='#888'>"
        f"{_fmt(y_lo)}</text>"
        f"<text x='{width - 4}' y='{height - 2}' font-size='9' fill='#888' "
        f"text-anchor='end'>{x_name}={_fmt(x_hi)}</text>"
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


# -- the inputs --------------------------------------------------------------


def _json(path: Path) -> Any:
    return json.loads(path.read_text())


def _json_object(path: Path) -> dict[str, Any]:
    document = _json(path)
    if not isinstance(document, dict):
        raise ValueError("not a JSON object")
    return document


class _Inputs:
    """Everything the page reads, from one root, each input read once.

    A reader returns None for an absent input and raises ``ValueError``
    naming the file for a damaged one; the outcome is kept either way,
    so the panels that share an input share one read and one verdict.
    """

    def __init__(self, root: str | Path, recording_path: str | Path | None) -> None:
        self.root = Path(root)
        self.recording_path = recording_path
        self._read: dict[Any, Any] = {}

    def _once(self, path: str | Path, read: Callable[[], Any]) -> Any:
        if path not in self._read:
            try:
                self._read[path] = read()
            except (OSError, ValueError) as exc:
                detail = str(exc)  # the loaders' errors mostly name the file
                if not detail.startswith(f"{path}: "):
                    detail = f"{path}: {detail}"
                self._read[path] = ValueError(f"cannot read {detail}")
        value = self._read[path]
        if isinstance(value, ValueError):
            raise value
        return value

    def recording(self) -> tuple[str | Path, Recording] | None:
        path = self.recording_path
        if path is None:
            return None

        def replayed() -> Recording:
            recording = load_recording(path)
            recording.events  # a schedule that does not replay is a read error
            return recording

        return path, self._once(path, replayed)

    def telemetry(self) -> dict[str, Any] | None:
        recording = self.recording()
        return None if recording is None else telemetry_from_events(
            recording[1].events
        )

    def document(
        self, name: str, read: Callable[[Path], Any] = _json_object
    ) -> Any:
        """The document at ``root/name`` as ``read`` parses it, or None
        when there is none."""
        path = self.root / name
        if not path.exists():
            return None
        return self._once(path, lambda: read(path))

    def atlas(self) -> tuple[CoverageAtlas, list[dict]] | None:
        atlas = CoverageAtlas(self.root)
        records = self._once(atlas.path, atlas.load)
        return (atlas, records) if records else None

    def newest(self, pattern: str) -> tuple[Path, dict[str, Any]] | None:
        """The newest JSON report matching ``pattern`` (mtime ties broken
        by name), or None when there is none."""
        path = max(
            self.root.glob(pattern),
            key=lambda candidate: (candidate.stat().st_mtime, candidate.name),
            default=None,
        )
        if path is None:
            return None
        return path, self._once(path, lambda: _json_object(path))


# -- the panels --------------------------------------------------------------


def _series_xy(series: dict[str, Any]) -> tuple[list[float], list[float]]:
    return (
        [float(s) for s in series.get("steps", [])],
        [float(v) for v in series.get("values", [])],
    )


def _run(source) -> str:
    path, recording = source
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
        f"<p>{_esc(path)}</p>"
        f"<table><tr>{head}</tr><tr>{row}</tr></table>"
    )


def _telemetry(telemetry: dict[str, Any]) -> str:
    # Snapshot dicts render in sorted key order, so the page depends on
    # what a snapshot holds, not on the order a probe filled it in.
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
        f"<div class='charts'>{''.join(charts)}"
        f"<div>{depth_chart}</div></div>"
        f"<h3>latency quantiles (virtual time)</h3>{q_table}"
    )


def _conformance(payload: dict[str, Any]) -> str:
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
        f"<p>n={payload.get('n')}, seeds={_esc(payload.get('seeds'))} "
        f"&mdash; {verdict}</p>"
        "<table><tr><th>protocol</th><th>f</th><th>decided</th>"
        "<th>safety violations</th><th>whp flags</th></tr>"
        + "".join(rows)
        + "</table>"
    )


def _divergence(source) -> str:
    path, divergence = source
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
    parts = [f"<p>{_esc(path)} &mdash; {verdict}</p>"]
    minimized = divergence.get("minimized")
    if isinstance(minimized, dict) and minimized.get("describe"):
        parts.append(f"<p>{_esc(minimized['describe'])}</p>")
    rows = []
    for entry in divergence.get("slice") or []:
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
    return "".join(parts)


def _fuzzing(payload: dict[str, Any]) -> str:
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
        f"<p>{_esc(payload.get('recording'))} &mdash; "
        f"protocol={_esc(payload.get('protocol'))} "
        f"seed={_fmt(payload.get('seed'))} &mdash; {verdict}</p>"
        f"<table><tr>{head}</tr><tr>{row}</tr></table>"
        + family_line
        + new_line
    )


def _degradation_sweep(inputs: _Inputs):
    """The newest sweep artifact, else the smoke sweep's snapshot."""
    sweep = inputs.newest("degradation_*.json")
    if sweep is not None:
        return sweep
    smoke = inputs.document("BENCH_degradation.json")
    return None if smoke is None else ("BENCH_degradation.json (smoke sweep)", smoke)


def _degradation(source) -> str:
    where, degradation = source
    points = degradation.get("points") or []
    xs = [float(p.get("rate", 0.0)) for p in points]

    def column(key: str) -> list[float]:
        return [float(p.get(key) or 0.0) for p in points]

    knee = degradation.get("knee")
    fraction_chart = _line_chart(
        {
            "decide rate": (xs, column("decide_rate")),
            "deadlock": (xs, column("deadlock_fraction")),
            "exhausted": (xs, column("exhausted_fraction")),
            "whp anomaly": (xs, column("whp_anomaly_rate")),
        },
        width=420,
        height=160,
        title=(
            f"{degradation.get('scenario')}: outcome fractions vs "
            "hostility rate"
        ),
        y_range=(0, 1),
        knee=knee.get("rate") if isinstance(knee, dict) else None,
        x_name="rate",
    )
    words_chart = _line_chart(
        {
            "words sent": (xs, column("words_sent_mean")),
            "words delivered": (xs, column("words_delivered_mean")),
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
        f"<p>{_esc(where)} &mdash; scenario="
        f"{_esc(degradation.get('scenario'))} "
        f"n={_fmt(degradation.get('n'))} f={_fmt(degradation.get('f'))} "
        f"seeds={_fmt(degradation.get('seeds'))}/rate</p>"
        f"<div class='charts'><div>{fraction_chart}</div>"
        f"<div>{words_chart}</div></div>"
        + knee_line
        + table
    )


def _coverage(source) -> str:
    atlas, records = source
    growth = atlas.growth(records)
    known = atlas.known_signatures(records)
    contributing = sum(1 for point in growth if point["new"])
    growth_spark = _spark_svg(
        [float(point["known_after"]) for point in growth], width=220
    )
    new_spark = _spark_svg([float(point["new"]) for point in growth], width=220)
    family_row = ", ".join(
        f"{name} {count}" for name, count in signature_families(known).items()
    )
    rare_rows = "".join(
        f"<tr><td><code>{_esc(signature)}</code></td><td>{runs_with}</td></tr>"
        for signature, runs_with in atlas.rarest(8, records)
    )
    return (
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
        + "</table>"
    )


def _scaling(curves: Any) -> str:
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
    return chart + slope_line


@dataclass(frozen=True)
class Panel:
    """One section of the page.

    ``source`` reads the panel's input and returns what ``render``
    draws: None when the input is absent (the panel shows ``missing``,
    which names the command that creates it), and it raises
    ``OSError``/``ValueError`` when the input is damaged (the panel names
    the file and the error).
    """

    id: str
    title: str
    source: Callable[[_Inputs], Any]
    render: Callable[[Any], str]
    missing: str


PANELS: tuple[Panel, ...] = (
    Panel(
        "run", "Run", _Inputs.recording, _run,
        "no recording supplied; run `python -m repro record "
        "--n 40 --out flight.jsonl` and pass the file",
    ),
    Panel(
        "telemetry", "Telemetry", _Inputs.telemetry, _telemetry,
        "no telemetry (pass a recording; its events are replayed)",
    ),
    Panel(
        "conformance", "Conformance",
        lambda inputs: inputs.document("BENCH_conformance.json", read_conformance),
        _conformance,
        "no conformance record (run `python -m repro check`)",
    ),
    Panel(
        "divergence", "Divergence forensics",
        lambda inputs: inputs.newest("*.divergence.json"), _divergence,
        "no divergence reports (`python -m repro diff` and `repro "
        "explain` write *.divergence.json when a check goes red)",
    ),
    Panel(
        "fuzzing", "Fuzzing",
        lambda inputs: inputs.document("BENCH_fuzzing.json"), _fuzzing,
        "no fuzzing record (run `python -m repro fuzz <recording.jsonl>`)",
    ),
    Panel(
        "degradation", "Degradation curves", _degradation_sweep, _degradation,
        "no degradation sweep (run `python -m repro degrade "
        "--scenario lossy_uniform`)",
    ),
    Panel(
        "coverage", "Schedule coverage", _Inputs.atlas, _coverage,
        "no coverage atlas (run `python -m repro check`; every "
        "monitored run appends its signature set)",
    ),
    Panel(
        "scaling", "Scaling (E4)",
        lambda inputs: inputs.document("benchmarks/results/E4_scaling.json", _json),
        _scaling,
        "no scaling table at benchmarks/results/E4_scaling.json (run "
        "`pytest benchmarks/bench_e4_scaling.py --benchmark-only`)",
    ),
)


# -- assembly ----------------------------------------------------------------


def _section(panel: Panel, inputs: _Inputs, diagnostics: list[str]) -> str:
    """The one rule every panel follows: render the source's data, or
    show one line saying why there is none."""
    try:
        data = panel.source(inputs)
    except (OSError, ValueError) as exc:
        data, message = None, str(exc)
    else:
        message = panel.missing
    if data is not None:
        body = panel.render(data)
    else:
        diagnostics.append(message)
        body = _diag(message)
    return f"<section id='{panel.id}'><h2>{panel.title}</h2>{body}</section>"


def build_dashboard(
    root: str | Path = ".", recording_path: str | Path | None = None
) -> tuple[str, list[str]]:
    """Assemble the dashboard of everything under ``root`` (plus the
    recording, if given); returns ``(html, diagnostics)``, one
    diagnostic per panel that had nothing to render."""
    inputs = _Inputs(root, recording_path)
    diagnostics: list[str] = []
    sections = [_section(panel, inputs, diagnostics) for panel in PANELS]
    document = (
        "<!doctype html>\n"
        "<html lang='en'><head><meta charset='utf-8'>"
        "<title>repro dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>repro dashboard</h1>"
        "<p class='legend'>self-contained report: virtual-time telemetry, "
        "paper-property conformance, coverage, scaling &mdash; "
        "generated by <code>python -m repro dashboard</code></p>"
        + "".join(sections)
        + "</body></html>\n"
    )
    return document, diagnostics


def render_dashboard(
    out: str | Path,
    recording_path: str | Path | None = None,
    root: str | Path = ".",
) -> tuple[Path, list[str]]:
    """Write the dashboard of ``root`` to ``out``; returns
    ``(path, diagnostics)``."""
    document, diagnostics = build_dashboard(root, recording_path)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(document)
    return out, diagnostics
