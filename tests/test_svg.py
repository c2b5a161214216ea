import pytest

from harborth.errors import HarborthError
from harborth.svg import EDGES, render_svg


@pytest.fixture(scope="module")
def figure():
    return render_svg("K", 6)


class TestRender:
    def test_deterministic(self, figure):
        assert render_svg("K", 6) == figure

    def test_center_frame_anchor(self, figure):
        # vertex A sits on the positive x-axis at the shifted abscissa
        assert '>A</text>' in figure
        line = next(l for l in figure.splitlines() if '>A</text>' in l)
        assert 'x="0.995049"' in line and 'y="0.000000"' in line

    def test_edge_and_vertex_counts(self, figure):
        # thirteen constraint segments and nine vertices, each in four
        # reflected copies
        assert figure.count("<line ") == len(EDGES) * 4 == 52
        assert figure.count("<circle ") == 36

    def test_digits_control_output(self):
        five = render_svg("K", 5)
        assert 'x="0.99505"' in five
        assert five != render_svg("K", 6)

    def test_other_frames(self):
        a = render_svg("A", 5)
        f = render_svg("F", 5)
        assert a != f
        # the construction frame puts A at the origin, the diagonal
        # frame puts F there
        assert '<text x="0.00000" y="0.00000" dx="0.05" dy="-0.05">A' in a
        assert '<text x="0.00000" y="0.00000" dx="0.05" dy="-0.05">F' in f

    def test_places_bounded_by_enclosures(self):
        # solve_T to 1e-40 leaves every coordinate enclosure narrower than
        # 1e-30 but wider than 1e-45 at the default precision
        assert 'x="0.995049' in render_svg("K", 30)
        with pytest.raises(HarborthError, match="certify only 3[0-9]"):
            render_svg("K", 45)

    def test_unknown_frame(self):
        with pytest.raises(ValueError):
            render_svg("Q", 6)

    def test_well_formed_xml(self, figure):
        import xml.etree.ElementTree as ET
        root = ET.fromstring(figure)
        assert root.tag.endswith("svg")
