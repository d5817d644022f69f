"""Tiny standalone SVG line plots, so curve output needs no plotting stack."""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 28, 46


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def line_plot_svg(x, series: dict, title: str = "", xlabel: str = "",
                  ylabel: str = "") -> str:
    """Render named y-series over shared x values as an SVG document.

    Each series holds one y value per x value.  Non-finite points break the
    polyline instead of distorting the scale.
    """
    xs = [float(v) for v in x]
    columns = [np.array(ys, dtype=float) for ys in series.values()]
    ragged = [name for name, y in zip(series, columns) if y.shape != (len(xs),)]
    if ragged:
        raise ValueError(f"series {', '.join(map(str, ragged))} must hold one value "
                         f"per x value ({len(xs)})")
    every_y = np.concatenate([np.empty(0), *columns])
    finite_y = every_y[np.isfinite(every_y)].tolist()
    if not xs or not finite_y:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite_y), max(finite_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    span_x = (x_hi - x_lo) or 1.0

    def sx(v):
        return _ML + (v - x_lo) / span_x * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    # axes and ticks
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
               'fill="none" stroke="#333"/>')
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{_H-_MB}" x2="{px:.1f}" y2="{_H-_MB+4}" stroke="#333"/>')
        out.append(f'<text x="{px:.1f}" y="{_H-_MB+16}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{_ML-4}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#333"/>')
        out.append(f'<text x="{_ML-7}" y="{py+3.5:.1f}" text-anchor="end">{t:g}</text>')
    if title:
        out.append(f'<text x="{(_W+_ML-_MR)/2:.0f}" y="{_MT-10}" text-anchor="middle" '
                   f'font-size="13">{title}</text>')
    if xlabel:
        out.append(f'<text x="{(_W+_ML-_MR)/2:.0f}" y="{_H-8}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{(_H-_MB+_MT)/2:.0f}" text-anchor="middle" '
                   f'transform="rotate(-90 14 {(_H-_MB+_MT)/2:.0f})">{ylabel}</text>')
    # series, scaled as arrays by the same operations as the ticks
    x_px = sx(np.array(xs)).tolist()
    for y, color in zip(columns, _PALETTE):
        y_px = sy(y).tolist()
        # [start, stop) of each run of finite points
        finite = np.concatenate(([False], np.isfinite(y), [False]))
        for start, stop in np.flatnonzero(finite[1:] != finite[:-1]).reshape(-1, 2).tolist():
            points = " ".join(map("{:.2f},{:.2f}".format, x_px[start:stop], y_px[start:stop]))
            out.append(f'<polyline points="{points}" fill="none" '
                       f'stroke="{color}" stroke-width="1.6"/>')
    # legend
    ly = _MT + 12
    for (name, _), color in zip(series.items(), _PALETTE):
        out.append(f'<line x1="{_W-_MR-130}" y1="{ly}" x2="{_W-_MR-106}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W-_MR-100}" y="{ly+3.5}">{name}</text>')
        ly += 15
    out.append("</svg>")
    return "\n".join(out) + "\n"
