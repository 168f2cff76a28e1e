"""Deterministic SVG timelines: one lane per agent, position on the x axis.

Each lane shows the agent's ride segments colored and labeled by bike id
("walk" for label 0), hatching for waiting time, and a marker where a bike is
abandoned.  Output is a pure function of the schedule: identical schedules
give byte-identical SVG.
"""

from __future__ import annotations

from fractions import Fraction

from .model import Schedule

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a356",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#ff9da7",
    "#9c755f",
)
_WALK = "#e8e8e8"

_WIDTH = 860
_LANE = 44
_GAP = 14
_MARGIN_X = 70
_MARGIN_Y = 40


def _px(fraction_of_interval: Fraction) -> float:
    return _MARGIN_X + float(fraction_of_interval) * (_WIDTH - 2 * _MARGIN_X)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def schedule_svg(sched: Schedule) -> str:
    m, n = sched.agents, sched.size
    total = sched.length
    if total == 0:
        raise ValueError("cannot render a zero-length schedule")
    height = _MARGIN_Y * 2 + m * (_LANE + _GAP)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" font-family="sans-serif" font-size="12">',
        "<defs>",
        '<pattern id="wait" width="6" height="6" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        '<rect width="6" height="6" fill="#ffffff"/>'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#888888" stroke-width="2"/>'
        "</pattern>",
        "</defs>",
    ]
    axis_y = height - _MARGIN_Y / 2
    parts.append(
        f'<line x1="{_fmt(_px(Fraction(0)))}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(_px(Fraction(1)))}" y2="{_fmt(axis_y)}" stroke="#333"/>'
    )
    for tick in (Fraction(0), Fraction(1, 2), Fraction(1)):
        x = _px(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y - 4)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(axis_y + 4)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 16)}" '
            f'text-anchor="middle">{tick}</text>'
        )

    # Cumulative ridden distance per bike, to place abandonment markers.
    usage: dict[int, Fraction] = {}
    last_rider: dict[int, int] = {}
    for j in range(n):
        for i in range(m):
            label = sched.matrix.rows[i][j]
            if label != 0:
                usage[label] = usage.get(label, Fraction(0)) + sched.partition[j]
                last_rider[label] = i

    for i in range(m):
        y = _MARGIN_Y + i * (_LANE + _GAP)
        parts.append(
            f'<text x="{_fmt(_MARGIN_X - 10)}" y="{_fmt(y + _LANE / 2 + 4)}" '
            f'text-anchor="end">agent {i + 1}</text>'
        )
        cursor = Fraction(0)
        for j in range(n):
            x0 = _px(cursor / total)
            cursor += sched.partition[j]
            x1 = _px(cursor / total)
            label = sched.matrix.rows[i][j]
            fill = _WALK if label == 0 else _PALETTE[(label - 1) % len(_PALETTE)]
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y)}" width="{_fmt(x1 - x0)}" '
                f'height="{_LANE}" fill="{fill}" stroke="#555"/>'
            )
            if x1 - x0 >= 34:
                name = "walk" if label == 0 else f"bike {label}"
                parts.append(
                    f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y + _LANE / 2 + 4)}" '
                    f'text-anchor="middle">{name}</text>'
                )
            w = sched.wait(i, j)
            if w != 0:
                # Wait time drawn at the boundary, at the walking-time scale,
                # clamped before the float conversion that a huge wait overflows.
                wx = float(min(w / total, Fraction(2, 25))) * (_WIDTH - 2 * _MARGIN_X)
                parts.append(
                    f'<rect x="{_fmt(x1 - wx / 2)}" y="{_fmt(y)}" '
                    f'width="{_fmt(wx)}" height="{_LANE}" fill="url(#wait)" '
                    f'stroke="#888"/>'
                )
    for label in sorted(usage):
        if usage[label] < total:
            i = last_rider[label]
            x = _px(usage[label] / total)
            y = _MARGIN_Y + i * (_LANE + _GAP)
            parts.append(
                f'<line x1="{_fmt(x - 5)}" y1="{_fmt(y - 8)}" x2="{_fmt(x + 5)}" '
                f'y2="{_fmt(y + 2)}" stroke="#c0392b" stroke-width="2"/>'
            )
            parts.append(
                f'<line x1="{_fmt(x - 5)}" y1="{_fmt(y + 2)}" x2="{_fmt(x + 5)}" '
                f'y2="{_fmt(y - 8)}" stroke="#c0392b" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y - 12)}" text-anchor="middle" '
                f'fill="#c0392b">bike {label} left</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
