"""Minimal hand-emitted SVG line charts.

Convenience output only; the CSV files are the contract.  One chart =
axes with ticks, one polyline per curve of a `TimeSeries`, error bars on
the Monte Carlo mean.
"""

import math

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1, 2, 5, 10) if s * mag >= raw) * mag
    # by integer index: a running sum stalls when step is below the float spacing
    return [round(k * step, 12) for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]


def y_range(title: str, series) -> tuple[float, float]:
    """The y-axis range of the chart of a `TimeSeries`: every curve and
    error bar, padded by 5% of its span.  Raises ValueError when the padded
    range is wider than the float range."""
    ys = [y for y in (series.ideal, series.reference, series.mc_mean) if y is not None]
    if series.mc_mean is not None:
        ys += [series.mc_mean + series.mc_stderr, series.mc_mean - series.mc_stderr]
    ys = np.concatenate(ys)
    y0, y1 = float(ys.min()), float(ys.max())
    pad = 0.05 * (y1 - y0 or 1.0)
    y0, y1 = y0 - pad, y1 + pad
    if not math.isfinite(y1 - y0):
        raise ValueError(f"{title}: the chart's y-range {y0:g} to {y1:g} is wider than the float range")
    return y0, y1


def render(title: str, series) -> str:
    """The chart of a `TimeSeries` as SVG text: the ideal curve, the
    reference (dashed) and the Monte Carlo mean with error bars and markers
    where they are defined; every value must be finite."""
    # (label, y, color, dash attribute, error bars)
    curves = [("ideal", series.ideal, "#d95f02", "", None)]
    if series.reference is not None:
        curves.append(("reference", series.reference, "#1b9e77", ' stroke-dasharray="6,4"', None))
    if series.mc_mean is not None:
        curves.append(("mc mean", series.mc_mean, "#7570b3", "", series.mc_stderr))

    x0, x1 = float(series.t.min()), float(series.t.max())
    y0, y1 = y_range(title, series)
    if x1 == x0:
        x1 = x0 + 1.0

    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T

    # scalars (ticks) and arrays (series) alike
    def sx(x):
        return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

    def sy(y):
        return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black"/>',
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black"/>',
    ]
    for t in _ticks(x0, x1):
        parts.append(
            f'<line x1="{sx(t):.1f}" y1="{py0}" x2="{sx(t):.1f}" y2="{py0 + 5}" stroke="black"/>'
            f'<text x="{sx(t):.1f}" y="{py0 + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{px0 - 5}" y1="{sy(t):.1f}" x2="{px0}" y2="{sy(t):.1f}" stroke="black"/>'
            f'<text x="{px0 - 8}" y="{sy(t) + 4:.1f}" text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<text x="{(px0 + px1) / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">t</text>'
    )
    parts.append(
        f'<text x="16" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(py0 + py1) / 2:.1f})">excited-state population</text>'
    )

    legend_y = MARGIN_T + 6
    # one array expression per curve; Python floats format faster than numpy scalars
    px = sx(series.t).tolist()
    for label, y, color, dash, err in curves:
        py = sy(y).tolist()
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        if err is not None:
            for a, lo, hi in zip(px, sy(y - err).tolist(), sy(y + err).tolist()):
                parts.append(
                    f'<line x1="{a:.2f}" y1="{lo:.2f}" '
                    f'x2="{a:.2f}" y2="{hi:.2f}" stroke="{color}"/>'
                )
            for a, b in zip(px, py):
                parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<line x1="{px1 - 130}" y1="{legend_y}" x2="{px1 - 110}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
            f'<text x="{px1 - 104}" y="{legend_y + 4}">{label}</text>'
        )
        legend_y += 16

    parts.append("</svg>")
    return "\n".join(parts)


def write(path, title: str, series) -> None:
    text = render(title, series)  # before the file is opened: a chart that fails leaves none
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
