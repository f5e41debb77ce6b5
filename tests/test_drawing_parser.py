"""``parse_drawing`` reads a drawing straight onto its integer grid.

It reads each coordinate as a numerator and a denominator and scales them
to one least common denominator per axis, building no Fraction.  The
reader it replaced, which read every coordinate into a Fraction and put the
drawing on its grid afterwards, is kept here as the oracle
(``fraction_parse``).  On hand-written texts and on random ones the two
must agree: the same rational points, the same grid, the same verdict and
the same error text.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset.embedding import norm_edge
from freeset.errors import GraphFormatError, Unverified
from freeset.generators import path
from freeset.realize import GridDrawing, verify_drawing
from freeset.textio import _integer, _lines, parse_drawing

from conftest import bend_points, k4


def _fail(no: int, msg: str):
    raise GraphFormatError(f"line {no}: {msg}")


def _frac(s: str, no: int) -> Fraction:
    """A coordinate as the Fraction reader read it."""
    if "/" in s:
        a, b = s.split("/", 1)
        try:
            return Fraction(_integer(a), _integer(b))
        except (ValueError, ZeroDivisionError):
            _fail(no, f"bad rational {s!r}")
    try:
        return Fraction(_integer(s))
    except ValueError:
        _fail(no, f"bad rational {s!r}")


def fraction_parse(text: str, g, verify: bool = True):
    """The Fraction reader: (pos, bends, least grid, None), or the text of
    the GraphFormatError it raised or of the violation its check found.  A
    missing vertex fails whether verified or not: the grid reader has no
    point to put it on, where the Fraction reader returned the partial
    drawing and only its check rejected it."""
    pos = {}
    bends: dict = {}
    try:
        for no, line in _lines(text):
            parts = line.split()
            kind = parts[0]
            if kind not in ("P", "B"):
                _fail(no, f"unknown drawing directive {kind!r}")
            if len(parts) != (4 if kind == "P" else 5):
                _fail(no, f"malformed {kind} line")
            try:
                ids = [int(t) for t in parts[1:-2]]
            except ValueError:
                _fail(no, f"{kind} expects integer vertex ids")
            point = (_frac(parts[-2], no), _frac(parts[-1], no))
            if kind == "P":
                v = ids[0]
                if not 0 <= v < g.n:
                    _fail(no, f"vertex {v} is not in the graph")
                if v in pos:
                    _fail(no, f"duplicate position for vertex {v}")
                pos[v] = point
            else:
                e = norm_edge(*ids)
                if e not in g.edges:
                    _fail(no, f"bend on {e}, which is not an edge of the "
                          "graph")
                bends.setdefault(e, []).append(point)
    except GraphFormatError as exc:
        return str(exc)
    bends = {e: tuple(b) for e, b in bends.items()}
    if set(pos) != set(range(g.n)):
        return ("drawing fails verification: missing-vertex: not every "
                "vertex is placed")
    grid = GridDrawing.from_points(g, pos, bends=bends)
    violation = verify_drawing(g, grid) if verify else None
    if violation is not None:
        return f"drawing fails verification: {violation}"
    return pos, bends, (grid.dx, grid.dy), violation


def grid_parse(text: str, g, verify: bool = True):
    """``parse_drawing`` in the shape of ``fraction_parse``."""
    try:
        d = parse_drawing(text, g, verify=verify)
    except (GraphFormatError, Unverified) as exc:
        return str(exc)
    assert d.verified == verify
    return d.pos, bend_points(d), (d.dx, d.dy), None


def assert_same(text: str, g) -> None:
    for verify in (True, False):
        assert grid_parse(text, g, verify) == fraction_parse(text, g, verify)


K4 = ("P 0 0 0\n", "P 1 4 0\n", "P 2 0 4\n", "P 3 1 1\n")
LONG = "1" + "0" * 5000 + "7"

HAND_WRITTEN = {
    "lowest-terms": "".join(K4),
    "not-reduced": "P 0 0/5 0/9\nP 1 8/2 0/7\nP 2 0/3 12/3\nP 3 2/2 3/3\n",
    "negative-denominators": "P 0 0/-1 0\nP 1 -4/-1 0/-5\nP 2 0 4/1\n"
                             "P 3 1/-3 -1/-3\n",
    "plus-signs": "P 0 +0 -0\nP 1 +4/+1 +0/-2\nP 2 0 +8/2\nP 3 +1/+3 1/+3\n",
    "shared-factor": "P 0 0/6 0/6\nP 1 24/6 0/6\nP 2 0/6 24/6\n"
                     "P 3 6/6 6/6\n",
    "long-numerators": f"P 0 0 0\nP 1 {LONG}/3 0\nP 2 0 {LONG}/7\n"
                       f"P 3 {LONG}/31 {LONG}/37\nB 0 1 {LONG}/6 -{LONG}/11\n",
    "long-denominators": f"P 0 0 0\nP 1 4 0\nP 2 0 4\nP 3 1/{LONG} 1/{LONG}\n",
    "comments-and-blanks": "# a drawing\n\nP 0 0 0 # origin\n   \n"
                           "P 1 4 0\n#P 4 1 1\nP 2 0 4\n\tP 3 1 1\t\n",
    "bend-low-end-first": "".join(K4) + "B 0 1 2 -1\n",
    "bend-high-end-first": "".join(K4) + "B 1 0 2 -1\n",
    "two-bends": "".join(K4) + "B 0 1 1 -1\nB 0 1 3/1 -2/2\n",
    "bends-either-way-round": "".join(K4) + "B 1 0 1 -1\nB 0 1 3 -1\n",
    "bend-on-a-vertex": "".join(K4) + "B 1 0 0 4\n",
    "duplicate-bend": "".join(K4) + "B 0 1 2 -1\nB 0 1 2 -1\n",
    "duplicate-vertex": "".join(K4) + "P 2 0 4\n",
    "coincident-vertices": "P 0 0 0\nP 1 4 0\nP 2 0 4\nP 3 0/2 0/3\n",
    "crossing": "P 0 0 0\nP 1 4 0\nP 2 0 4\nP 3 10 10\n",
    "missing-vertex": "P 0 0 0\nP 1 4 0\nP 3 1 1\n",
    "empty": "# nothing\n\n",
    "zero-denominator": "P 0 0 0\nP 1 4/0 0\n",
    "negative-zero-denominator": "P 0 0 -1/-0\n",
    "empty-numerator": "P 0 /2 0\n",
    "empty-denominator": "P 0 2/ 0\n",
    "two-slashes": "P 0 1/2/3 0\n",
    "decimal-point": "P 0 0.5 0\n",
    "exponent": "P 0 1e3 0\n",
    "letters": "P 0 x 0\n",
    "underscores": "P 0 1_0/2_0 0\nP 1 4 0\nP 2 0 4\nP 3 1 1\n",
    "long-underscores": f"P 0 1_{LONG} 0\n",
    "long-malformed-denominator": f"P 0 1/{LONG}x 0\n",
    "unknown-directive": "".join(K4) + "Q 0 1 2\n",
    "short-line": "P 0 1\n",
    "bad-vertex-id": "P x 1 2\n",
    "vertex-out-of-range": "P 4 1 2\n",
    "bend-on-a-non-edge": "".join(K4[:2]) + "B 0 9 1 1\n",
    "bad-bend-token": "".join(K4) + "B 0 1 2/0 1\n",
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_texts(name):
    assert_same(HAND_WRITTEN[name], k4())


def test_least_grid_of_unreduced_tokens():
    # 2/4 and 3/6 are 1/2: the grid is that of the least denominators
    d = parse_drawing("P 0 2/4 0/7\nP 1 3/-6 5/10\nP 2 1 -1/-2\n", path(3),
                      verify=False)
    assert (d.dx, d.dy) == (2, 2)
    assert d.xy == [(1, 0), (-1, 1), (2, 1)]


TOKENS = ["0", "1", "-1", "+2", "4", "2/4", "1/-3", "-6/-4", "+3/+6", "0/5",
          "-0", "7/1", f"{LONG}/3", f"-3/{LONG}", "1/0", "1/", "/2", "x",
          "1.5", "1_2"]


@st.composite
def drawing_texts(draw):
    """Lines of P and B directives for K4 with tokens from ``TOKENS``:
    most lines well formed, some vertex ids duplicated or missing, bends
    named either way round, and comments and blank lines between."""
    lines = []
    vertices = draw(st.permutations(range(4)))
    count = draw(st.integers(2, 5))
    for v in [*vertices, *vertices][:count]:
        lines.append(f"P {v} {draw(st.sampled_from(TOKENS))} "
                     f"{draw(st.sampled_from(TOKENS))}")
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.sampled_from([(0, 1), (1, 0), (1, 2), (3, 2), (0, 3)]))
        lines.append(f"B {u} {v} {draw(st.sampled_from(TOKENS))} "
                     f"{draw(st.sampled_from(TOKENS))}")
    lines = draw(st.permutations(lines))
    noise = draw(st.lists(st.sampled_from(["", "# c", "  "]), max_size=3))
    return "\n".join([*noise, *lines]) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(drawing_texts())
def test_random_texts(text):
    assert_same(text, k4())
