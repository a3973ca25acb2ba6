"""File formats: JSONL sample streams, CSV profiles, and SVG renderings of
staircase profiles in the Russian convention.  Output is byte-stable for
fixed inputs."""

from __future__ import annotations

import json

from .diagrams import StaircaseShape
from .partitions import Partition

SHAPE_PAD = 0.5  # how far shape_points samples past the outermost corners
SVG_WIDTH, SVG_HEIGHT = 640, 440


def samples_to_jsonl(run) -> str:
    """One JSON record per line: a header line (the run's config, seed,
    count and method, the growth backend that ran, whether numba was
    available, the growth validation result and the package version), then
    one line per draw."""
    from . import __version__, _kernels

    header = {"config": run.config, "seed": run.seed, "count": run.count,
              "method": run.method, "backend": run.backend,
              "numba_available": _kernels.HAVE_NUMBA,
              "growth_validated": run.growth_validated, "version": __version__}
    lines = [json.dumps(header, sort_keys=True, default=str)]
    for lam in run.collected:
        lines.append(json.dumps(lam.to_json()))
    return "\n".join(lines) + "\n"


def partitions_from_jsonl(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = json.loads(lines[0])
    parts = [Partition.from_json(json.loads(ln)) for ln in lines[1:]]
    return header, parts


def profile_csv(points) -> str:
    """CSV "x,omega" from an iterable of (u, omega(u)) pairs."""
    rows = ["x,omega"]
    for u, w in points:
        rows.append(f"{float(u):.12g},{float(w):.12g}")
    return "\n".join(rows) + "\n"


def shape_points(shape: StaircaseShape):
    """Sample a staircase's corners (plus SHAPE_PAD beyond the ends) as
    (u, omega) pairs suitable for CSV/SVG emission."""
    corners = shape.corners()
    us = [c[0] for c in corners]
    lo, hi = float(us[0]) - SHAPE_PAD, float(us[-1]) + SHAPE_PAD
    pts = [(lo, float(shape.evaluate(lo)))]
    for u, w, _ in corners:
        pts.append((float(u), float(w)))
    pts.append((hi, float(shape.evaluate(hi))))
    return pts


def corners_json(shape: StaircaseShape) -> str:
    return json.dumps({
        "orientation": shape.orientation,
        "minima": [float(x) for x in shape.minima],
        "maxima": [float(y) for y in shape.maxima],
    }, sort_keys=True)


def profiles_svg(curves) -> str:
    """Minimal SVG 1.1 rendering, SVG_WIDTH x SVG_HEIGHT, of one or more
    profile curves; ``curves`` is a list of (points, color) with points as
    (u, omega) pairs.  The |x| reference cone is drawn in light gray."""
    width, height = SVG_WIDTH, SVG_HEIGHT
    allu = [p[0] for pts, _ in curves for p in pts]
    allw = [p[1] for pts, _ in curves for p in pts]
    lo, hi = min(allu), max(allu)
    top = max(allw) * 1.05 + 1e-9
    margin = 40.0
    sx = (width - 2 * margin) / (hi - lo if hi > lo else 1.0)
    sy = (height - 2 * margin) / top

    def X(u):
        return margin + (u - lo) * sx

    def Y(w):
        return height - margin - w * sy

    def polyline(pts, color, dash=""):
        coords = " ".join(f"{X(u):.2f},{Y(w):.2f}" for u, w in pts)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                f'{extra} points="{coords}" />')

    body = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white" />']
    # |x| reference in the Russian convention
    zero = 0.0
    cone = [(lo, abs(lo)), (zero, 0.0), (hi, abs(hi))]
    cone = [(u, min(w, top)) for u, w in cone]
    body.append(polyline(cone, "#bbbbbb", dash="4 3"))
    # u-axis
    body.append(f'<line x1="{margin:.1f}" y1="{Y(0):.2f}" '
                f'x2="{width - margin:.1f}" y2="{Y(0):.2f}" '
                f'stroke="#888888" stroke-width="1" />')
    for pts, color in curves:
        body.append(polyline(pts, color))
    body.append("</svg>")
    return "\n".join(body) + "\n"
