"""Tiny deterministic SVG emitters: log-log scatter with fit lines, line
charts, and heatmaps. Presentation only; the CSV files are the contract."""

from __future__ import annotations

import math

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 52
_PALETTE = ("#c23b22", "#1f5fa6", "#3d8c40", "#8a5fb0", "#b8860b", "#4a4a4a")
_MAX_CELLS = 200  # heatmap cells per axis; a longer axis keeps every k-th point

# five-anchor ramp, dark blue -> yellow
_RAMP = ((0.267, 0.005, 0.329), (0.229, 0.322, 0.546), (0.128, 0.567, 0.551),
         (0.369, 0.789, 0.383), (0.993, 0.906, 0.144))


def _lerp_color(u: float) -> str:
    u = min(max(u, 0.0), 1.0)
    seg = min(int(u * (len(_RAMP) - 1)), len(_RAMP) - 2)
    f = u * (len(_RAMP) - 1) - seg
    rgb = [(1 - f) * a + f * b for a, b in zip(_RAMP[seg], _RAMP[seg + 1])]
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


class _Frame:
    def __init__(self, xlim, ylim, logx=False, logy=False):
        self.logx, self.logy = logx, logy
        self.x0, self.x1 = (math.log10(xlim[0]), math.log10(xlim[1])) if logx else xlim
        self.y0, self.y1 = (math.log10(ylim[0]), math.log10(ylim[1])) if logy else ylim
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0

    def px(self, x):
        v = math.log10(x) if self.logx else x
        return _ML + (v - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y):
        v = math.log10(y) if self.logy else y
        return _H - _MB - (v - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)

    def ticks(self, n=5):
        xs = [self.x0 + i * (self.x1 - self.x0) / (n - 1) for i in range(n)]
        ys = [self.y0 + i * (self.y1 - self.y0) / (n - 1) for i in range(n)]
        fx = (lambda v: 10.0**v) if self.logx else (lambda v: v)
        fy = (lambda v: 10.0**v) if self.logy else (lambda v: v)
        return [fx(v) for v in xs], [fy(v) for v in ys]


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _axes(frame, xlabel, ylabel):
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>',
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.0f})">'
        f"{ylabel}</text>",
    ]
    tx, ty = frame.ticks()
    for v in tx:
        x = frame.px(v)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle" font-size="10" '
            f'font-family="sans-serif">{v:.3g}</text>'
        )
    for v in ty:
        y = frame.py(v)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{_ML - 6}" y="{y + 3:.1f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{v:.3g}</text>'
        )
    return parts


def _finite_positive(xs, ys, logx, logy):
    out = []
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if logx and x <= 0 or logy and y <= 0:
            continue
        out.append((float(x), float(y)))
    return out


def svg_chart(path, series, xlabel, ylabel, title, logx=False, logy=False):
    """series: list of (xs, ys, label, kind) with kind 'line' or 'dots'."""
    pts_all = []
    cleaned = []
    for xs, ys, label, kind in series:
        pts = _finite_positive(xs, ys, logx, logy)
        cleaned.append((pts, label, kind))
        pts_all.extend(pts)
    if not pts_all:
        raise ValueError("nothing to plot")
    xlim = (min(p[0] for p in pts_all), max(p[0] for p in pts_all))
    ylim = (min(p[1] for p in pts_all), max(p[1] for p in pts_all))
    frame = _Frame(xlim, ylim, logx, logy)
    parts = _header(title) + _axes(frame, xlabel, ylabel)
    for i, (pts, label, kind) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        if kind == "dots":
            for x, y in pts:
                parts.append(
                    f'<circle cx="{frame.px(x):.1f}" cy="{frame.py(y):.1f}" r="2.5" '
                    f'fill="{color}"/>'
                )
        else:
            coords = " ".join(f"{frame.px(x):.1f},{frame.py(y):.1f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * i}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
    return path


def svg_heatmap(path, x, y, z, xlabel, ylabel, title):
    """z[i, j] over y[i] (rows) and x[j] (columns), linear axes."""
    sy = max(1, (len(y) - 1) // _MAX_CELLS + 1)
    sx = max(1, (len(x) - 1) // _MAX_CELLS + 1)
    ys, xs, zs = y[::sy], x[::sx], z[::sy, ::sx]
    zmin, zmax = float(zs.min()), float(zs.max())
    span = zmax - zmin if zmax > zmin else 1.0
    frame = _Frame((min(xs), max(xs)), (min(ys), max(ys)))
    parts = _header(title)
    cw = (_W - _ML - _MR) / len(xs)
    ch = (_H - _MT - _MB) / len(ys)
    for i in range(len(ys)):
        for j in range(len(xs)):
            u = (float(zs[i, j]) - zmin) / span
            parts.append(
                f'<rect x="{_ML + j * cw:.1f}" y="{_H - _MB - (i + 1) * ch:.1f}" '
                f'width="{cw + 0.5:.1f}" height="{ch + 0.5:.1f}" fill="{_lerp_color(u)}"/>'
            )
    parts += _axes(frame, xlabel, ylabel)
    parts.append(
        f'<text x="{_W - _MR - 6}" y="{_MT - 6}" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">range [{zmin:.3g}, {zmax:.3g}]</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
    return path
