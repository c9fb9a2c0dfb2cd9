"""Deterministic SVG bifurcation diagrams.

Hand-rolled writer: byte-identical output for identical inputs (no library
version strings, no timestamps).  Diagrams show log10(d) horizontally against
lambda (linear, or log10 when the branch spans more than two decades), with
fold markers and optional predicted-interval shading.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError

WIDTH = 820.0
HEIGHT = 560.0
ML, MR, MT, MB = 74.0, 24.0, 36.0, 56.0
COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#9467bd", "#8c564b")
LOG_Y_SPAN = 100.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks_linear(lo, hi, n=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def render_branches_svg(branches, path, interval=None, title=None) -> None:
    """Write an SVG diagram of one or more (label, Branch) pairs.

    interval: optional (lam_lo, lam_hi) band to shade (inf allowed on the
    upper end).
    """
    if not branches:
        raise InvalidInputError("no branches to plot")
    all_pts = [p for _, br in branches for p in br.points]
    if not all_pts:
        raise InvalidInputError("branches contain no points")

    xs = [math.log10(p.d) for p in all_pts]
    lams = [p.lam for p in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    lam_lo, lam_hi = min(lams), max(lams)
    log_y = lam_lo > 0.0 and lam_hi / lam_lo > LOG_Y_SPAN

    def ty(lam):
        return math.log10(lam) if log_y else lam

    y_lo, y_hi = ty(lam_lo), ty(lam_hi)
    # flat branches: widen the window instead of amplifying solver noise
    min_span = max(1e-6 * max(abs(y_lo), abs(y_hi)), 1e-12)
    if y_hi - y_lo < min_span:
        mid = 0.5 * (y_lo + y_hi)
        half = max(0.05 * abs(mid), 0.5)
        y_lo, y_hi = mid - half, mid + half
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def X(x):
        return ML + (x - x_lo) / (x_hi - x_lo) * (WIDTH - ML - MR)

    def Y(y):
        return HEIGHT - MB - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MT - MB)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
               f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH:g}" height="{HEIGHT:g}" fill="#ffffff"/>')
    if title:
        out.append(f'<text x="{_fmt(WIDTH / 2)}" y="22" font-family="monospace" '
                   f'font-size="14" text-anchor="middle">{_xml(title)}</text>')

    if interval is not None:
        lo, hi = interval
        lo_y = ty(max(lo, lam_lo)) if lo > 0.0 or not log_y else y_lo
        hi_y = ty(min(hi, lam_hi)) if math.isfinite(hi) else y_hi
        if hi_y > lo_y:
            out.append(f'<rect x="{_fmt(ML)}" y="{_fmt(Y(hi_y))}" '
                       f'width="{_fmt(WIDTH - ML - MR)}" '
                       f'height="{_fmt(Y(lo_y) - Y(hi_y))}" '
                       f'fill="#fff3b0" fill-opacity="0.6"/>')

    # axes and ticks
    out.append(f'<line x1="{_fmt(ML)}" y1="{_fmt(HEIGHT - MB)}" x2="{_fmt(WIDTH - MR)}" '
               f'y2="{_fmt(HEIGHT - MB)}" stroke="#000000" stroke-width="1"/>')
    out.append(f'<line x1="{_fmt(ML)}" y1="{_fmt(MT)}" x2="{_fmt(ML)}" '
               f'y2="{_fmt(HEIGHT - MB)}" stroke="#000000" stroke-width="1"/>')
    for e in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        px = X(e)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MB)}" x2="{_fmt(px)}" '
                   f'y2="{_fmt(HEIGHT - MB + 5)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MB + 20)}" '
                   f'font-family="monospace" font-size="11" text-anchor="middle">'
                   f'1e{e}</text>')
    y_ticks = (_ticks_linear(y_lo, y_hi) if not log_y
               else list(range(math.ceil(y_lo), math.floor(y_hi) + 1)))
    for v in y_ticks:
        py = Y(v)
        label = f"1e{v}" if log_y else f"{v:g}"
        out.append(f'<line x1="{_fmt(ML - 5)}" y1="{_fmt(py)}" x2="{_fmt(ML)}" '
                   f'y2="{_fmt(py)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(ML - 9)}" y="{_fmt(py + 4)}" font-family="monospace" '
                   f'font-size="11" text-anchor="end">{label}</text>')
    out.append(f'<text x="{_fmt((ML + WIDTH - MR) / 2)}" y="{_fmt(HEIGHT - 14)}" '
               f'font-family="monospace" font-size="12" text-anchor="middle">'
               f'amplitude d = max|u| (log scale)</text>')
    ylab = "lambda (log scale)" if log_y else "lambda"
    out.append(f'<text x="18" y="{_fmt((MT + HEIGHT - MB) / 2)}" font-family="monospace" '
               f'font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 18 {_fmt((MT + HEIGHT - MB) / 2)})">{ylab}</text>')

    for idx, (label, br) in enumerate(branches):
        color = COLORS[idx % len(COLORS)]
        for start, stop in br.segments():
            pts = " ".join(f"{_fmt(X(math.log10(p.d)))},{_fmt(Y(ty(p.lam)))}"
                           for p in br.points[start:stop])
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"/>')
        for f in br.folds:
            p = br.points[f.index]
            out.append(f'<circle cx="{_fmt(X(math.log10(p.d)))}" '
                       f'cy="{_fmt(Y(ty(p.lam)))}" r="4" fill="#d62728"/>')
        if label:
            out.append(f'<text x="{_fmt(WIDTH - MR - 8)}" y="{_fmt(MT + 16 + 16 * idx)}" '
                       f'font-family="monospace" font-size="12" text-anchor="end" '
                       f'fill="{color}">{_xml(label)}</text>')

    out.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(out) + "\n")


def _xml(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
