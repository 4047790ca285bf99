import pytest

from spdelab.svgplot import GuideLine, Series, loglog_svg


@pytest.fixture
def simple_svg():
    series = [
        Series(label="gamma = 0.5", x=[0.25, 0.125, 0.0625], y=[0.1, 0.05, 0.025]),
        Series(label="gamma = 0.75", x=[0.25, 0.125, 0.0625], y=[0.04, 0.01, 0.0025]),
    ]
    guides = [
        GuideLine(label="rate 1", slope=1.0, anchor_x=0.25, anchor_y=0.15),
        GuideLine(label="rate 2", slope=2.0, anchor_x=0.25, anchor_y=0.06),
    ]
    return loglog_svg(series, guides, "errors", "h", "relative error")


def test_structure(simple_svg):
    assert simple_svg.startswith("<svg")
    assert simple_svg.rstrip().endswith("</svg>")
    assert simple_svg.count("<polyline") == 2
    assert simple_svg.count("<circle") == 6
    assert simple_svg.count("stroke-dasharray") == 2


def test_labels_present(simple_svg):
    for text in ("gamma = 0.5", "rate 2", "relative error", "errors"):
        assert text in simple_svg


def test_parses_as_xml(simple_svg):
    import xml.etree.ElementTree as ET

    root = ET.fromstring(simple_svg)
    assert root.tag.endswith("svg")


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        loglog_svg([], [], "t", "x", "y")
