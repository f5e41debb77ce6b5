"""Drawings are printed straight from their integer grid.

``serialize_drawing`` prints a ``GridDrawing`` from its numerators, one
``gcd`` per coordinate against ``dx`` or ``dy``.  Its text must be the text
of the Fraction printer it replaced, kept here as the oracle, on the grid's
Fractions (``GridDrawing.pos`` and ``bend_points``).
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset.applications import psge_two, untangle
from freeset.extractors import planar_freeset
from freeset.generators import path, random_triangulation
from freeset.realize import GridDrawing, free_realize
from freeset.svg import export_svg
from freeset.textio import _BITS, _decimal, parse_drawing, serialize_drawing

from conftest import bend_points, point_set
from test_golden import FAMILIES, FAMILY_REALIZE_CASES, REALIZE_CASES


def _fraction_text(x) -> str:
    p, q = x.numerator, x.denominator
    if p.bit_length() <= _BITS and q.bit_length() <= _BITS:
        return f"{p}/{q}"
    return f"{_decimal(p)}/{_decimal(q)}"


def fraction_printer(d: GridDrawing) -> str:
    """``serialize_drawing`` as it was when it printed from Fractions."""
    out = []
    for v in sorted(d.pos):
        x, y = d.pos[v]
        out.append(f"P {v} {_fraction_text(x)} {_fraction_text(y)}")
    bends = bend_points(d)
    for e in sorted(bends):
        for (x, y) in bends[e]:
            out.append(f"B {e[0]} {e[1]} {_fraction_text(x)} "
                       f"{_fraction_text(y)}")
    return "\n".join(out) + "\n"


def assert_prints_as_fractions(grid: GridDrawing) -> None:
    assert serialize_drawing(grid) == fraction_printer(grid)


GOLDEN = [(FAMILIES["triangulation"], (n, gseed), pseed, style)
          for n, gseed, pseed, style, _ in REALIZE_CASES] + [
    (FAMILIES[family], args, pseed, style)
    for family, args, pseed, style, _ in FAMILY_REALIZE_CASES]


@pytest.mark.parametrize("make,args,pseed,style", GOLDEN,
                         ids=[f"{m.__name__}{a}-p{p}-{s}"
                              for m, a, p, s in GOLDEN])
def test_golden_realizations(make, args, pseed, style):
    g = make(*args)
    fs = planar_freeset(g)
    d = free_realize(g, fs, point_set(style, len(fs.order),
                                      random.Random(pseed)))
    assert isinstance(d, GridDrawing)
    assert_prints_as_fractions(d)


@pytest.mark.parametrize("n,seed", [(40, 21), (70, 22)])
def test_golden_untangle(n, seed):
    rng = random.Random(seed)
    g = random_triangulation(n, seed)
    cells = rng.sample([(x, y) for x in range(-n // 4, n // 4)
                        for y in range(-n, n)], n)
    assert_prints_as_fractions(untangle(g, dict(enumerate(cells))).drawing)


@pytest.mark.parametrize("n,seed", [(30, 31), (60, 32)])
def test_golden_psge_two(n, seed):
    res = psge_two(random_triangulation(n, seed),
                   random_triangulation(n, seed + 1000))
    for d in res.drawings:
        assert_prints_as_fractions(d)


def _grid(pos, bends, dx, dy) -> GridDrawing:
    return GridDrawing(graph=path(len(pos)), xy=pos, bend_xy=bends, dx=dx,
                       dy=dy)


@pytest.mark.parametrize("grid", [
    # negative and zero coordinates, and whole ones (k/1)
    _grid([(0, 0), (-6, 4), (12, -8)], {(1, 2): ((-3, 0),)}, 3, 4),
    _grid([(0, -5), (-7, 0)], {}, 1, 1),
    # a factor shared by every numerator and the denominator
    _grid([(6 * 35, -6 * 14), (6 * 5, 6 * 7), (-6 * 7, 0)],
          {(0, 1): ((6 * 11, -6 * 13),)}, 6 * 35, 6 * 14),
    # numerators and denominators past 600 digits, with and without a
    # common factor
    _grid([(3 ** 1500 + 1, -(7 ** 900)), (-(10 ** 700), 5 ** 1000)],
          {(0, 1): ((2 ** 2500 + 3, 11 ** 700),)}, 3 ** 1400, 2 ** 2100),
    _grid([(6 * 10 ** 650, -(3 ** 1900)), (6 * 7 ** 800, 3 ** 1400)],
          {}, 6 * 10 ** 640, 3 ** 1300),
], ids=["signs-and-whole", "integers", "shared-factor", "past-600-digits",
        "past-600-digits-reduced"])
def test_hand_made_grids(grid):
    assert_prints_as_fractions(grid)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(-10 ** 30, 10 ** 30),
                          st.integers(-10 ** 30, 10 ** 30)),
                min_size=2, max_size=6),
       st.integers(1, 10 ** 12), st.integers(1, 10 ** 12),
       st.integers(1, 720))
def test_random_grids(pos, dx, dy, k):
    # k multiplies every numerator and both denominators
    scaled = [(x * k, y * k) for x, y in pos]
    assert_prints_as_fractions(_grid(scaled, {(0, 1): (scaled[0],)},
                                     dx * k, dy * k))


def test_poly_drawing_with_int_coordinates():
    d = GridDrawing.from_points(
        path(3), {2: (4, -1), 0: (0, 0), 1: (F(-3, 6), 7)},
        bends={(1, 2): ((-2, F(10, 4)),)})
    assert serialize_drawing(d) == fraction_printer(d) == (
        "P 0 0/1 0/1\nP 1 -1/2 7/1\nP 2 4/1 -1/1\nB 1 2 -2/1 5/2\n")


def test_parsed_drawing_without_verification():
    text = ("P 0 4/6 -0/5\nP 1 -12/8 3\nP 2 " + "7" * 700 + "/" + "3" * 650
            + " 9/3\nB 1 2 1/3 -2/4\n")
    d = parse_drawing(text, path(3), verify=False)
    assert serialize_drawing(d) == fraction_printer(d)
    assert serialize_drawing(d).startswith("P 0 2/3 0/1\nP 1 -3/2 3/1\n")


def test_svg_of_a_grid_is_the_svg_of_its_fractions():
    # the svg is drawn from x / dx, which rounds as float(Fraction(x, dx))
    # does, so a drawing renders alike on any grid: here a realized one on
    # a grid 3 x 5 times finer than its own, and on the least one its
    # parsed text is read onto
    g = random_triangulation(30, 3)
    fs = planar_freeset(g)
    d = free_realize(g, fs, point_set("general", len(fs.order),
                                      random.Random(3)))
    d = replace(d, xy=[(3 * x, 5 * y) for x, y in d.xy],
                bend_xy={e: tuple((3 * x, 5 * y) for x, y in b)
                         for e, b in d.bend_xy.items()},
                dx=3 * d.dx, dy=5 * d.dy)
    least = parse_drawing(serialize_drawing(d), g)
    assert (least.dx, least.dy) != (d.dx, d.dy)
    assert export_svg(d, certificate=fs.certificate, highlight=fs.order) \
        == export_svg(least, certificate=fs.certificate, highlight=fs.order)
    res = untangle(g, {v: (v % 7, v // 7) for v in range(g.n)})
    assert export_svg(res.drawing, highlight=res.fixed) == export_svg(
        parse_drawing(serialize_drawing(res.drawing), g),
        highlight=res.fixed)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(-10 ** 300, 10 ** 300), st.integers(1, 10 ** 400))
def test_int_quotient_rounds_as_the_fraction(x, dx):
    assert x / dx == float(F(x, dx))
