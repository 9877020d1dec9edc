"""Dependency-free SVG line charts of sweep points, one curve per sweep.

Output is plain deterministic text (fixed 800x500 viewbox, no timestamps,
no generated ids), so identical runs produce byte-identical files that
diff cleanly.
"""

from __future__ import annotations

from plotarc.experiments import PeriodGroup, SweepPoint, best_points

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT = 70, 170
MARGIN_TOP, MARGIN_BOTTOM = 30, 60

PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Expected F1 of a fair coin on balanced classes, drawn as the dashed baseline.
CHANCE_F1 = 0.5


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data.

    The same output as ``xml.sax.saxutils.escape``, whose import pulls in
    ``urllib.request`` and ``http.client`` on every command.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fx(x: float) -> str:
    return f"{x:.2f}"


def _x_pos(fraction: float, x_min: float, x_max: float) -> float:
    span = x_max - x_min or 1.0
    return MARGIN_LEFT + (fraction - x_min) / span * PLOT_W


def _y_pos(f1: float) -> float:
    # Fixed y-axis [0, 1] so charts from different runs are comparable.
    return MARGIN_TOP + (1.0 - f1) * PLOT_H


def _axes(x_min: float, x_max: float) -> list[str]:
    parts = []
    ax_bottom = MARGIN_TOP + PLOT_H
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{ax_bottom}" x2="{MARGIN_LEFT + PLOT_W}" '
        f'y2="{ax_bottom}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{ax_bottom}" stroke="black"/>'
    )
    for i in range(6):
        f1 = i / 5.0
        y = _y_pos(f1)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 4}" y1="{_fx(y)}" x2="{MARGIN_LEFT}" y2="{_fx(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fx(y + 4)}" text-anchor="end" font-size="12">{f1:.1f}</text>'
        )
    for i in range(6):
        frac = x_min + (x_max - x_min) * i / 5.0
        x = _x_pos(frac, x_min, x_max)
        parts.append(
            f'<line x1="{_fx(x)}" y1="{ax_bottom}" x2="{_fx(x)}" y2="{ax_bottom + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fx(x)}" y="{ax_bottom + 18}" text-anchor="middle" font-size="12">{frac:.2f}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + PLOT_W / 2}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-size="13">main-section fraction</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + PLOT_H / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + PLOT_H / 2})">F1-score</text>'
    )
    return parts


def _polyline(points: tuple[SweepPoint, ...], x_min: float, x_max: float, color: str) -> str:
    pts = " ".join(f"{_fx(_x_pos(p.main_fraction, x_min, x_max))},{_fx(_y_pos(p.f1))}" for p in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'


def _argmax_marker(points: tuple[SweepPoint, ...], x_min: float, x_max: float, color: str) -> str:
    x = _fx(_x_pos(best_points(points)[0].main_fraction, x_min, x_max))
    return (
        f'<line x1="{x}" y1="{MARGIN_TOP}" x2="{x}" y2="{MARGIN_TOP + PLOT_H}" '
        f'stroke="{color}" stroke-dasharray="2,4"/>'
    )


def _legend(labels_colors) -> list[str]:
    parts = []
    x = MARGIN_LEFT + PLOT_W + 15
    for i, (label, color) in enumerate(labels_colors):
        y = MARGIN_TOP + 15 + i * 20
        parts.append(f'<line x1="{x}" y1="{y}" x2="{x + 24}" y2="{y}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x + 30}" y="{y + 4}" font-size="12">{escape(label)}</text>')
    return parts


def _x_range(curves) -> tuple[float, float]:
    fractions = [p.main_fraction for points in curves for p in points]
    lo, hi = min(fractions, default=0.0), max(fractions, default=1.0)
    if lo == hi:
        lo, hi = lo - 0.05, hi + 0.05
    return lo, hi


def _chart(title: str, series, legend) -> str:
    """The one chart body: axes, title, and for ``series`` of (points, color)
    a dashed chance baseline plus each curve's polyline and dotted line at its
    best point; an empty tuple of points draws nothing."""
    x_min, x_max = _x_range([points for points, _ in series])
    body = _axes(x_min, x_max)
    body.append(f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="15">{escape(title)}</text>')
    if series:
        y = _fx(_y_pos(CHANCE_F1))
        body.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y}" x2="{MARGIN_LEFT + PLOT_W}" y2="{y}" '
            f'stroke="gray" stroke-dasharray="8,4"/>'
        )
    for points, color in series:
        if points:
            body.append(_polyline(points, x_min, x_max, color))
            body.append(_argmax_marker(points, x_min, x_max, color))
    body.extend(_legend(legend))
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def render_sweep(points: tuple[SweepPoint, ...], title: str = "Partition sweep") -> str:
    """One sweep's curve with its best-point line over the chance baseline."""
    return _chart(title, [(points, PALETTE[0])], [("F1", PALETTE[0]), ("baseline", "gray")])


def render_periods(groups: tuple[PeriodGroup, ...]) -> str:
    """One curve per swept period group; skipped groups appear in the legend only."""
    populated = [g for g in groups if g.points is not None]
    series = [(g.points, PALETTE[i % len(PALETTE)]) for i, g in enumerate(populated)]
    legend = [("baseline", "gray")]
    legend += [(f"{g.label} (n={g.novel_count})", color) for g, (_, color) in zip(populated, series)]
    legend += [
        (f"{g.label} (skipped, n={g.novel_count})", "lightgray")
        for g in groups
        if g.points is None
    ]
    return _chart("Partition sweep by period", series, legend)
