from plotarc.experiments import (
    PeriodGroup,
    SweepPoint,
)
from xml.sax.saxutils import escape as sax_escape

import pytest

from plotarc.svgplot import escape, render_periods, render_sweep


def make_curve():
    return tuple(
        SweepPoint((75 - fl) / 75, fl, 0.5 + 0.01 * (10 - abs(fl - 4))) for fl in range(1, 11)
    )


def test_sweep_svg_structure():
    svg = render_sweep(make_curve())
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 800 500"' in svg
    assert "<polyline" in svg
    assert 'stroke-dasharray="8,4"' in svg  # dashed baseline
    assert 'stroke-dasharray="2,4"' in svg  # dotted argmax marker
    assert svg.rstrip().endswith("</svg>")


def test_sweep_svg_deterministic():
    assert render_sweep(make_curve()) == render_sweep(make_curve())


def test_empty_curve_renders():
    svg = render_sweep(())
    assert "<polyline" not in svg
    assert "</svg>" in svg


def test_periods_svg_one_polyline_per_group():
    groups = (
        PeriodGroup("<=1830", 50, make_curve()),
        PeriodGroup("1831-1848", 5, None),
        PeriodGroup(">=1871", 50, make_curve()),
    )
    svg = render_periods(groups)
    assert svg.count("<polyline") == 2
    assert "skipped" in svg
    assert "&lt;=1830" in svg  # group labels are XML-escaped


@pytest.mark.parametrize(
    "text", ["", "a & b", "<=1830", "x > y", 'say "hi"', "it's", "&amp;", "<&>&lt;\"'"]
)
def test_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)
