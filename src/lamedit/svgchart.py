"""Minimal SVG line charts, emitted directly with no plotting dependency.

Output is a plain string; numeric attributes are formatted with a fixed
precision so identical inputs give byte-identical documents.
"""

from __future__ import annotations

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 64
MARGIN_RIGHT = 160
MARGIN_TOP = 40
MARGIN_BOTTOM = 52


def _fmt(value):
    return f"{value:.2f}"


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(series, title, x_label, y_label, y_range):
    """Render labelled polylines.

    Parameters
    ----------
    series : sequence of (label, xs, ys)
    y_range : (lo, hi) of the y axis.

    Returns
    -------
    str : a complete SVG document.
    """
    all_x = [x for _, xs, _ in series for x in xs]
    if not all_x:
        raise ValueError("line_chart needs at least one point")
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = y_range
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x):
        return MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15" fill="#222222">{title}</text>',
    ]
    axis_style = 'stroke="#444444" stroke-width="1"'
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(MARGIN_TOP + plot_h)}" '
        f'x2="{_fmt(MARGIN_LEFT + plot_w)}" y2="{_fmt(MARGIN_TOP + plot_h)}" {axis_style}/>'
    )
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(MARGIN_TOP)}" '
        f'x2="{_fmt(MARGIN_LEFT)}" y2="{_fmt(MARGIN_TOP + plot_h)}" {axis_style}/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_TOP + plot_h)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(MARGIN_TOP + plot_h + 5)}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(MARGIN_TOP + plot_h + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#222222">{tick:.3g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{_fmt(MARGIN_LEFT - 5)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_LEFT)}" '
            f'y2="{_fmt(y)}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 9)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#222222">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#222222">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#222222" '
        f'transform="rotate(-90 16 {_fmt(MARGIN_TOP + plot_h / 2)})">{y_label}</text>'
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>')
        ly = MARGIN_TOP + 16 + 18 * idx
        lx = MARGIN_LEFT + plot_w + 12
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 18)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 24)}" y="{_fmt(ly)}" font-family="sans-serif" font-size="12" '
            f'fill="#222222">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
