"""Deterministic CSV/JSON report emitters and a dependency-free SVG plot.

CSV cells are formatted by ``fmt``, floats with 17 significant digits;
JSON floats are Python's shortest repr that round-trips.  Both are exact,
so identical runs produce byte-identical files.  The JSON envelope is
versioned with "schema": "circumlab/1" and echoes the run configuration.
The SVG emitter draws log-log polylines on a fixed 800x600 canvas.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

SCHEMA = "circumlab/1"

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 40, 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def fmt(value) -> str:
    """Canonical scalar formatting: 17 significant digits for floats."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _canon(value):
    """JSON-safe copy: infinities and NaN as strings, numpy scalars as
    Python scalars."""
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    if hasattr(value, "item"):  # numpy scalar
        return _canon(value.item())
    return value


def csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(command: str, config: dict, results) -> str:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "config": _canon(config),
        "results": _canon(results),
    }
    return json.dumps(doc, indent=2) + "\n"


def write_text(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _ticks(lo: float, hi: float) -> list[int]:
    """Decade exponents covering [lo, hi] (positive data only)."""
    e0 = math.floor(math.log10(lo))
    e1 = math.ceil(math.log10(hi))
    if e1 == e0:
        e1 += 1
    return list(range(e0, e1 + 1))


def svg_loglog(series: dict[str, list[tuple[float, float]]],
               xlabel: str, ylabel: str, title: str = "") -> str:
    """Log-log polyline chart; ``series`` maps label -> [(x, y), ...].

    Non-positive points are dropped (log axes).
    """
    pts = {
        label: [(x, y) for x, y in data if x > 0 and y > 0]
        for label, data in series.items()
    }
    pts = {k: v for k, v in pts.items() if v}
    if not pts:
        raise ValueError("no positive data to plot")
    xs = [x for data in pts.values() for x, _ in data]
    ys = [y for data in pts.values() for _, y in data]
    xt = _ticks(min(xs), max(xs))
    yt = _ticks(min(ys), max(ys))

    def px(x: float) -> float:
        f = (math.log10(x) - xt[0]) / (xt[-1] - xt[0])
        return MARGIN_L + f * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y: float) -> float:
        f = (math.log10(y) - yt[0]) / (yt[-1] - yt[0])
        return HEIGHT - MARGIN_B - f * (HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    for e in xt:
        x = px(10.0 ** e)
        out.append(
            f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y1}" '
            f'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">1e{e}</text>'
        )
    for e in yt:
        y = py(10.0 ** e)
        out.append(
            f'<line x1="{x0}" y1="{y:.1f}" x2="{x1}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">1e{e}</text>'
        )
    out.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="black"/>'
    )
    out.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {(y0 + y1) / 2:.1f})">{ylabel}</text>'
    )
    for k, (label, data) in enumerate(sorted(pts.items())):
        color = PALETTE[k % len(PALETTE)]
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(data))
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, y in data:
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                f'fill="{color}"/>'
            )
        out.append(
            f'<text x="{x1 - 10}" y="{y1 + 20 + 18 * k}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
