"""Deterministic SVG rendering of a simulation report.

Draws the density histogram of the standardized statistics, the kernel
density curve, and the standard normal density for comparison.  The
output is plain string assembly with fixed float formatting, so a given
report always produces byte-identical SVG.
"""

from __future__ import annotations

import math

from .simulate import ExperimentReport

_W, _H = 640.0, 420.0
_L, _R, _T, _B = 62.0, 18.0, 46.0, 50.0


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _tag(name: str, text: str | None = None, **attrs) -> str:
    """One SVG element.  Numbers print through ``_fmt``, ``_`` in an
    attribute name prints as ``-``, and ``None`` attributes are left out."""
    body = "".join(
        f' {k.replace("_", "-")}="{v if isinstance(v, str) else _fmt(v)}"'
        for k, v in attrs.items()
        if v is not None
    )
    return f"<{name}{body}/>" if text is None else f"<{name}{body}>{text}</{name}>"


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def law_label(law: dict) -> str:
    """A law's config as ``family(name=value, ...)``, its fields sorted."""
    family = law.get("family", "?")
    params = ", ".join(f"{k}={v}" for k, v in sorted(law.items()) if k != "family")
    return f"{family}({params})" if params else family


def emit_plot(report: ExperimentReport) -> str:
    """The report's figure as an SVG document, one element per line: the
    histogram, the kernel density and the N(0,1) density, with axes and a
    legend.  Every element inside the root ``<svg>`` is written by ``_tag``."""
    edges = report.histogram["edges"]
    counts = report.histogram["counts"]
    total = sum(counts)
    grid = report.kde["grid"]
    density = report.kde["density"]

    x_lo = min(edges[0], grid[0], -4.0)
    x_hi = max(edges[-1], grid[-1], 4.0)
    bar_density = [
        c / (total * (edges[i + 1] - edges[i])) if total else 0.0
        for i, c in enumerate(counts)
    ]
    y_hi = 1.08 * max([*bar_density, *density, _normal_pdf(0.0)])

    plot_w = _W - _L - _R
    plot_h = _H - _T - _B
    base = _T + plot_h

    def sx(x: float) -> float:
        return _L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return base - y / y_hi * plot_h

    def line(x1, y1, x2, y2, stroke="black", width=1, dash=None) -> str:
        style = dict(stroke=stroke, stroke_width=width, stroke_dasharray=dash)
        return _tag("line", x1=x1, y1=y1, x2=x2, y2=y2, **style)

    def polyline(xs, ys, stroke: str, dash: str | None = None) -> str:
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        style = dict(fill="none", stroke=stroke, stroke_width=1.6, stroke_dasharray=dash)
        return _tag("polyline", **style, points=pts)

    def text(x, y, content: str, size, anchor=None, fill=None) -> str:
        font = dict(font_family="monospace", font_size=size)
        return _tag("text", content, x=x, y=y, text_anchor=anchor, **font, fill=fill)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        _tag("rect", width=_W, height=_H, fill="white"),
    ]

    cfg = report.config
    title = f"{law_label(cfg.get('law', {}))} p={cfg.get('p')} n={cfg.get('n')} reps={cfg.get('reps')}"
    subtitle = f"KS p-value {report.ks.p_value:.4g}, variance {report.summary.variance:.4g}"
    parts.append(text(_W / 2, 20, title, 13, anchor="middle"))
    parts.append(text(_W / 2, 36, subtitle, 11, anchor="middle", fill="#555"))

    # histogram bars
    bar = dict(fill="#9ecae1", stroke="#6baed6", stroke_width=0.5)
    for i, d in enumerate(bar_density):
        x0, x1 = sx(edges[i]), sx(edges[i + 1])
        y0 = sy(d)
        parts.append(_tag("rect", x=x0, y=y0, width=x1 - x0, height=base - y0, **bar))

    parts.append(polyline(grid, density, "#d62728"))
    normal_xs = [x_lo + (x_hi - x_lo) * i / 255 for i in range(256)]
    parts.append(polyline(normal_xs, [_normal_pdf(x) for x in normal_xs], "#222222", dash="5,3"))

    # axes
    parts.append(line(_L, base, _L + plot_w, base))
    parts.append(line(_L, _T, _L, base))
    for tick in range(int(math.ceil(x_lo)), int(math.floor(x_hi)) + 1):
        parts.append(line(sx(tick), base, sx(tick), base + 4))
        parts.append(text(sx(tick), base + 16, f"{tick}", 10, anchor="middle"))
    n_yticks = 4
    for j in range(n_yticks + 1):
        y = y_hi * j / n_yticks
        parts.append(line(_L - 4, sy(y), _L, sy(y)))
        parts.append(text(_L - 8, sy(y) + 3, f"{y:.2f}", 10, anchor="end"))
    parts.append(
        text(_L + plot_w / 2, _H - 12, "standardized log-determinant", 11, anchor="middle")
    )

    # legend
    lx = _L + plot_w - 150
    parts.append(line(lx, _T + 12, lx + 22, _T + 12, "#d62728", 1.6))
    parts.append(text(lx + 27, _T + 15, "kernel density", 10))
    parts.append(line(lx, _T + 26, lx + 22, _T + 26, "#222222", 1.6, dash="5,3"))
    parts.append(text(lx + 27, _T + 29, "N(0,1) density", 10))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
