from __future__ import annotations

import sys
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from freeset.canonical import canonical_order
from freeset.cli import main
from freeset.errors import GraphFormatError, Unverified
from freeset.extractors import antichain_freeset, planar_freeset
from freeset.realize import GridDrawing, free_realize
from freeset.svg import export_svg
from freeset.textio import (
    parse_certificate,
    parse_drawing,
    parse_freeset,
    parse_graph,
    parse_points,
    serialize_certificate,
    serialize_drawing,
    serialize_freeset,
    serialize_graph,
    serialize_points,
)

from conftest import bend_points


class TestGraphFormat:
    def test_k4_bytes_roundtrip(self, k4):
        text = serialize_graph(k4)
        assert serialize_graph(parse_graph(text)) == text

    def test_value_roundtrip(self, gh):
        assert parse_graph(serialize_graph(gh)) == gh

    def test_comments_and_blanks_tolerated(self, k4):
        text = "# a comment\n\n" + serialize_graph(k4).replace(
            "V 4", "V 4  # four vertices")
        assert parse_graph(text) == k4

    def test_malformed_rotation_line_number(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("V 2\nR 0: 1\nR 1 0\n")
        assert "line 3" in str(err.value)

    def test_missing_vertex_count(self):
        with pytest.raises(GraphFormatError):
            parse_graph("R 0: 1\nR 1: 0\n")

    def test_unknown_directive(self):
        with pytest.raises(GraphFormatError, match="^line 2: unknown "
                           "directive 'Q'$"):
            parse_graph("V 2\nQ 0: 1\nR 0: 1\nR 1: 0\n")

    def test_huge_vertex_count_rejected(self):
        # the count is checked against the rotation lines, nothing of size
        # 10^11 is built
        with pytest.raises(GraphFormatError, match="cover vertices"):
            parse_graph("V 100000000000\nR 0: 1\nR 1: 0\n")


class TestCertificateFormat:
    def test_roundtrip(self, k4):
        cs = canonical_order(k4)
        cert, _ = antichain_freeset(k4, cs, (3, 2))
        assert parse_certificate(serialize_certificate(cert)) == cert

    def test_freeset_roundtrip(self, k4):
        fs = planar_freeset(k4)
        parsed = parse_freeset(serialize_freeset(fs), k4)
        assert parsed.order == fs.order
        assert parsed.certificate == fs.certificate

    def test_double_passage_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_certificate("CV 0\nCF 1\nCF 2\n")

    @pytest.mark.parametrize("text,message", [
        ("CF 1\nCV 0\n", "line 1: face passage before any item"),
        ("CV 0\nCZ 1\n", "line 2: unknown certificate directive 'CZ'")])
    def test_bad_certificate_line(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            parse_certificate(text)


class TestDrawingFormat:
    def test_rational_preserved(self, k4):
        fs = planar_freeset(k4)
        d = free_realize(k4, fs, [(F(22, 7), F(1, 3)), (F(23, 7), F(-5, 9))])
        text = serialize_drawing(d)
        assert "22/7" in text
        back = parse_drawing(text, k4)
        assert back.pos == d.pos
        assert bend_points(back) == bend_points(d)
        assert serialize_drawing(back) == text

    def test_reversed_bend_key_is_checked(self, k4):
        # a bend keyed high end first is stored under the edge's normal key,
        # so the exact check sees it: here it sits on vertex 2, and edge
        # 0-1 runs along edge 0-2
        text = "".join(f"P {v} {x} {y}\n" for v, (x, y) in
                       enumerate([(0, 0), (4, 0), (0, 4), (1, 1)]))
        d = parse_drawing(text + "B 1 0 0 4\n", k4, verify=False)
        assert bend_points(d) == {(0, 1): ((F(0), F(4)),)}
        with pytest.raises(Unverified, match="edges .* overlap"):
            parse_drawing(text + "B 1 0 0 4\n", k4)

    @pytest.mark.parametrize("line,message", [
        ("P x 1 2", "integer vertex ids"), ("P 0 1 2", "duplicate position"),
        ("P 4 1 2", "not in the graph"), ("P 0 1", "malformed P line"),
        ("B 0 1 2", "malformed B line"), ("B 0 9 1 1", "not an edge")])
    def test_bad_drawing_line(self, k4, line, message):
        text = "P 0 0 0\nP 1 4 0\nP 2 0 4\nP 3 1 1\n" + line + "\n"
        with pytest.raises(GraphFormatError, match=message):
            parse_drawing(text, k4)

    def test_missing_vertex_fails_verification(self, k4):
        text = "P 0 0 0\nP 1 4 0\nP 2 0 4\n"
        with pytest.raises(Unverified, match="^drawing fails verification: "
                           "missing-vertex: not every vertex is placed$"):
            parse_drawing(text, k4)

    def test_cli_verify_reports_missing_vertex(self, k4, tmp_path):
        gpath, dpath = tmp_path / "k4.txt", tmp_path / "k4.drawing"
        gpath.write_text(serialize_graph(k4))
        dpath.write_text("P 0 0 0\nP 1 4 0\nP 3 1 1\n")
        r = CliRunner().invoke(main, ["verify", "--graph", str(gpath),
                                      "--drawing", str(dpath)])
        assert r.exit_code == 1
        assert r.output == ("drawing: missing-vertex: not every vertex is "
                            "placed\n")

    def test_points_roundtrip(self):
        pts = [(F(1, 3), F(-2, 5)), (F(4), F(0))]
        assert parse_points(serialize_points(pts)) == pts

    def test_bad_point_line(self):
        with pytest.raises(GraphFormatError):
            parse_points("1/2\n")


def long_drawing(k4, digits: int) -> GridDrawing:
    """K4 with one vertex inside the triangle of the others and a bend
    below edge 0-1, on coordinates whose numerators have about ``digits``
    decimal digits."""
    n = 10 ** digits + 12345
    return GridDrawing.from_points(
        k4, {0: (F(0), F(0)), 1: (F(n, 3), F(0)), 2: (F(0), F(n, 7)),
             3: (F(n, 31), F(n + 2, 37))},
        bends={(0, 1): ((F(n, 6), F(-n, 11)),)})


class TestLongIntegers:
    """Numbers past CPython's int/str conversion limit (4,300 digits by
    default) are written and read in pieces, and the limit is left as it
    is."""

    @pytest.mark.parametrize("digits", [5000, 20000])
    def test_drawing_roundtrip(self, k4, digits):
        limit = sys.get_int_max_str_digits()
        d = long_drawing(k4, digits)
        text = serialize_drawing(d)
        assert max(len(t) for t in text.split()) > digits
        back = parse_drawing(text, k4)
        assert back.verified
        assert (back.pos, bend_points(back)) == (d.pos, bend_points(d))
        assert serialize_drawing(back) == text
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("digits", [5000, 20000])
    def test_cli_verify(self, k4, digits, tmp_path):
        gpath, dpath = tmp_path / "k4.txt", tmp_path / "k4.drawing"
        gpath.write_text(serialize_graph(k4))
        dpath.write_text(serialize_drawing(long_drawing(k4, digits)))
        r = CliRunner().invoke(main, ["verify", "--graph", str(gpath),
                                      "--drawing", str(dpath)])
        assert r.exit_code == 0 and r.output == "drawing: ok\n"

    def test_same_text_as_str(self):
        # the pieces join to exactly what str() writes, and read back
        for n in (10 ** 600, 10 ** 600 - 1, -(2 ** 1993), 2 ** 1994 + 1,
                  -(10 ** 4300 + 7), 3 ** 20000):
            x = F(n, 7)
            with_limit_lifted = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                want = f"{x.numerator}/{x.denominator}"
            finally:
                sys.set_int_max_str_digits(with_limit_lifted)
            assert serialize_points([(x, F(0))]) == want + " 0/1\n"
            assert parse_points(want + " 0/1\n") == [(x, F(0))]

    @pytest.mark.parametrize("text", ["1_" + "0" * 5000,
                                      "\u0661" * 5000 + "/1",
                                      "1/" + "0" * 5000])
    def test_long_malformed_numbers_still_rejected(self, text):
        with pytest.raises(GraphFormatError, match="bad rational"):
            parse_points(f"{text} 0\n")


class TestSvg:
    def test_basic_render(self, k4):
        fs = planar_freeset(k4)
        d = free_realize(k4, fs, [(0, 0), (1, 1)])
        doc = export_svg(d, certificate=fs.certificate, highlight=fs.order)
        assert doc.startswith("<svg")
        assert doc.count("<circle") == 4
        assert doc.count("<polyline") >= 6

    def test_unverified_rejected(self, k4):
        d = GridDrawing.from_points(k4, {v: (F(v), F(0)) for v in range(4)})
        with pytest.raises(Unverified):
            export_svg(d)
