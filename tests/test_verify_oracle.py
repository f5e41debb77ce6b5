"""``verify_drawing`` against a brute-force reference checker.

The reference works on the rational coordinates directly (no integer grid,
no sweep, no shortcuts) and states the crossing-free condition as plainly
as possible:

* every vertex is placed, no two vertices share a position and no piece of
  an edge has length zero;
* a vertex lies on a piece of an edge only as an endpoint of that piece,
  and only if it is an endpoint of the edge;
* two pieces of one edge meet at most in one common endpoint;
* pieces of two different edges meet at most in one common endpoint, and
  that point is the position of a vertex of both edges.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset import build_embedded
from freeset.embedding import norm_edge
from freeset.extractors import planar_freeset
from freeset.generators import cycle, path, random_triangulation, star
from freeset.realize import (
    GridDrawing,
    PolyDrawing,
    free_realize,
    realize_collinear,
    verify_drawing,
)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_closed(p, a, b) -> bool:
    return (_cross(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _meet(a, b, c, d):
    """Intersection of closed segments ab and cd: None, a point, or
    ``"overlap"`` when it contains more than one point."""
    den = _cross((0, 0), (b[0] - a[0], b[1] - a[1]),
                 (d[0] - c[0], d[1] - c[1]))
    if den != 0:
        t = _cross(a, c, d) / den
        u = _cross(a, c, b) / den
        if 0 <= t <= 1 and 0 <= u <= 1:
            return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        return None
    if _cross(a, b, c) != 0:
        return None  # parallel, not collinear
    # collinear: intersect the parameter ranges along ab
    ab = (b[0] - a[0], b[1] - a[1])
    norm = ab[0] * ab[0] + ab[1] * ab[1]

    def par(p):
        return ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / norm

    lo = max(F(0), min(par(c), par(d)))
    hi = min(F(1), max(par(c), par(d)))
    if lo > hi:
        return None
    if lo < hi:
        return "overlap"
    return (a[0] + lo * ab[0], a[1] + lo * ab[1])


def reference_ok(g, d: PolyDrawing) -> bool:
    if set(d.pos) != set(range(g.n)):
        return False
    if len(set(d.pos.values())) != g.n:
        return False
    pieces = []  # (a, b, edge)
    for e in sorted(g.edges):
        chain = [d.pos[e[0]], *d.bends.get(e, ()), d.pos[e[1]]]
        for a, b in zip(chain, chain[1:]):
            if a == b:
                return False
            pieces.append((a, b, e))
    for v in range(g.n):
        for a, b, e in pieces:
            if _on_closed(d.pos[v], a, b) and not (
                    v in e and d.pos[v] in (a, b)):
                return False
    for i, (a, b, e) in enumerate(pieces):
        for c, dd, f in pieces[i + 1:]:
            m = _meet(a, b, c, dd)
            if m is None:
                continue
            if m == "overlap" or m not in (a, b) or m not in (c, dd):
                return False
            if e != f and not any(d.pos[w] == m for w in set(e) & set(f)):
                return False
    return True


def _random_drawing(g, rng: random.Random, grid: int,
                    bend_rate: float) -> PolyDrawing:
    def point():
        return (F(rng.randint(0, 2 * grid), 2), F(rng.randint(0, 2 * grid), 2))

    cells = set()
    while len(cells) < g.n:
        cells.add(point())
    pos = dict(zip(range(g.n), rng.sample(sorted(cells), g.n)))
    bends = {}
    for e in sorted(g.edges):
        if rng.random() < bend_rate:
            bends[e] = tuple(point() for _ in range(rng.choice((1, 1, 2))))
    return PolyDrawing(graph=g, pos=pos, bends=bends)


def _small_graphs():
    return [path(3), path(5), star(5), cycle(4), cycle(6),
            random_triangulation(4, 1), random_triangulation(6, 2),
            random_triangulation(8, 3)]


def _perturbed_realizations(rng: random.Random, sizes=(6, 14), graphs=6,
                            with_base=False):
    """Verified drawings, each with one vertex or bend moved onto a nearby
    feature: another vertex, a bend, or the midpoint of a piece.  With
    ``with_base`` the collinear base drawing of each graph is included:
    its free set sits on the x-axis, among disjoint pieces of that line."""
    out = []
    for seed in range(graphs):
        g = random_triangulation(rng.randint(*sizes), 500 + seed)
        fs = planar_freeset(g)
        pts = sorted({(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
                      for _ in range(len(fs.order) * 3)})
        pts = rng.sample(pts, len(fs.order))
        d = free_realize(g, fs, pts)
        out.append(d)
        if with_base:
            out.append(realize_collinear(g, fs, range(len(fs.order))))
        feats = [p for p in d.pos.values()]
        feats += [p for b in d.bends.values() for p in b]
        feats += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                  for a, b, _ in d.segments()]
        for _ in range(12):
            target = rng.choice(feats)
            if d.bends and rng.random() < 0.3:
                e = rng.choice(sorted(d.bends))
                bends = dict(d.bends)
                bends[e] = (target,)
                out.append(PolyDrawing(graph=g, pos=d.pos, bends=bends))
            else:
                pos = dict(d.pos)
                pos[rng.randrange(g.n)] = target
                out.append(PolyDrawing(graph=g, pos=pos, bends=d.bends))
    return out


def test_oracle_random_corpus():
    rng = random.Random(20261018)
    corpus = []
    for g in _small_graphs():
        for grid in (2, 4, 8):
            for bend_rate in (0.0, 0.4):
                corpus += [_random_drawing(g, rng, grid, bend_rate)
                           for _ in range(25)]
    corpus += _perturbed_realizations(rng)
    verdicts = {True: 0, False: 0}
    for d in corpus:
        ref = reference_ok(d.graph, d)
        assert (verify_drawing(d.graph, d) is None) == ref, (
            d.pos, d.bends)
        verdicts[ref] += 1
    # the corpus exercises both verdicts in quantity
    assert verdicts[True] >= 60 and verdicts[False] >= 300


def test_oracle_larger_realizations():
    corpus = _perturbed_realizations(random.Random(20261019), sizes=(40, 60),
                                     graphs=3, with_base=True)
    verdicts = {True: 0, False: 0}
    for d in corpus:
        ref = reference_ok(d.graph, d)
        assert (verify_drawing(d.graph, d) is None) == ref, (
            d.pos, d.bends)
        verdicts[ref] += 1
    assert verdicts[True] >= 6 and verdicts[False] >= 20


@lru_cache(maxsize=1)
def _grid_corpus() -> list[PolyDrawing]:
    """Verified drawings: realizations and collinear bases of small
    triangulations, on the points of four seeds."""
    out = []
    for seed in range(4):
        g = random_triangulation(10 + 4 * seed, 700 + seed)
        fs = planar_freeset(g)
        rng = random.Random(seed)
        pts = rng.sample(sorted({(F(rng.randint(-9, 9), rng.randint(1, 4)),
                                  F(rng.randint(-9, 9), rng.randint(1, 4)))
                                 for _ in range(len(fs.order) * 3)}),
                         len(fs.order))
        out.append(free_realize(g, fs, pts))
        out.append(realize_collinear(g, fs, [F(x, 3) for x in
                                             range(len(fs.order))]))
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 7), st.sampled_from(["none", "onto-edge",
                                            "onto-vertex", "shifted"]),
       st.integers(0, 10 ** 6), st.integers(1, 10 ** 12),
       st.integers(1, 10 ** 12))
def test_sweep_invariant_under_axis_scales(which, broken, pick, a, b):
    """The sweep's verdict and violation text are the same on (a·x, b·y)
    as on the least common grid, on valid drawings and on drawings with a
    vertex moved onto a piece of an edge, onto another vertex, or by a
    small shift."""
    d = _grid_corpus()[which]
    g = d.graph
    v = pick % g.n
    x, y = d.pos[v]
    if broken == "onto-edge":
        p, q, _ = d.segments()[pick % len(d.segments())]
        d = replace(d, pos={**d.pos, v: ((p[0] + q[0]) / 2,
                                         (p[1] + q[1]) / 2)})
    elif broken == "onto-vertex":
        d = replace(d, pos={**d.pos, v: d.pos[(v + 1 + pick) % g.n]})
    elif broken == "shifted":
        d = replace(d, pos={**d.pos, v: (x + F(pick % 7 - 3, 5),
                                         y + F(pick % 5 - 2, 3))})
    grid = GridDrawing.from_drawing(d)

    def scaled(p):
        return (a * p[0], b * p[1])

    stretched = replace(grid, pos=[scaled(p) for p in grid.pos],
                        bends={e: tuple(map(scaled, ps))
                               for e, ps in grid.bends.items()},
                        dx=a * grid.dx, dy=b * grid.dy)
    want = verify_drawing(g, d)
    assert str(verify_drawing(g, stretched)) == str(want)
    assert (want is None) == reference_ok(g, d)


def _violation(g, pos, bends=None):
    d = PolyDrawing(graph=g, pos={v: (F(x), F(y)) for v, (x, y) in pos.items()},
                    bends={norm_edge(*e): tuple((F(x), F(y)) for x, y in b)
                           for e, b in (bends or {}).items()})
    v = verify_drawing(g, d)
    assert (v is None) == reference_ok(g, d)
    return v


def test_touch_at_shared_vertex_is_allowed():
    # two edges meeting at their common vertex, including a straight angle
    assert _violation(path(3), {0: (0, 0), 1: (1, 1), 2: (2, 0)}) is None
    assert _violation(path(3), {0: (0, 0), 1: (1, 0), 2: (2, 0)}) is None
    # a bent edge whose second piece ends at the shared vertex
    assert _violation(path(3), {0: (0, 0), 1: (2, 0), 2: (4, 0)},
                      {(1, 2): ((3, 5),)}) is None


def test_touch_at_non_shared_point_is_a_crossing():
    # the pieces of two disjoint edges share an endpoint that is a bend
    v = _violation(path(4), {0: (0, 0), 1: (2, 0), 2: (2, 4), 3: (0, 2)},
                   {(0, 1): ((1, 1),), (2, 3): ((1, 1),)})
    assert v.kind == "crossing" and "intersect" in v.detail


def test_bent_edge_overlapping_neighbour_through_shared_vertex():
    # edge 0-2 leaves vertex 0 along edge 0-1 before bending away
    g = build_embedded(3, [[1, 2], [0], [0]])
    v = _violation(g, {0: (0, 0), 1: (4, 0), 2: (2, 3)},
                   {(0, 2): ((2, 0),)})
    assert v.kind == "crossing" and "overlap" in v.detail
    # leaving in the opposite direction is a touch, not an overlap
    assert _violation(g, {0: (0, 0), 1: (4, 0), 2: (-2, 3)},
                      {(0, 2): ((-2, 0),)}) is None


def test_fold_back():
    # with one bend the returning piece runs over the far vertex
    v = _violation(path(2), {0: (0, 0), 1: (1, 0)}, {(0, 1): ((3, 0),)})
    assert v.kind == "vertex-on-edge"
    # with two bends the second piece runs back over the first
    v = _violation(path(2), {0: (0, 0), 1: (2, 5)},
                   {(0, 1): ((4, 0), (2, 0))})
    assert v.kind == "crossing" and "folds back" in v.detail


def test_vertex_on_edge():
    v = _violation(path(3), {0: (0, 0), 1: (2, 0), 2: (1, 0)})
    assert v.kind == "vertex-on-edge"
    # a vertex on a bend of a foreign edge
    v = _violation(path(3), {0: (0, 0), 1: (2, 0), 2: (1, 1)},
                   {(0, 1): ((1, 1),)})
    assert v.kind == "vertex-on-edge"


def test_coincident_vertices():
    v = _violation(path(3), {0: (0, 0), 1: (1, 1), 2: (0, 0)})
    assert v.kind == "coincident-vertices"


@pytest.mark.parametrize("bend", [(0, 0), (2, 0)])
def test_zero_length_piece(bend):
    v = _violation(path(2), {0: (0, 0), 1: (2, 0)}, {(0, 1): (bend,)})
    assert v.kind == "degenerate-segment"


# name: (graph, positions, bends, crossing-free); sweep degeneracies, each
# also checked against the reference
_DEGENERATE = {
    "vertical path": (path(3), {0: (0, 0), 1: (0, 2), 2: (0, 4)}, {}, True),
    "vertical through horizontal": (
        path(4), {0: (1, 0), 1: (1, 4), 2: (0, 2), 3: (2, 2)}, {}, False),
    "vertical beside vertical": (
        path(4), {0: (0, 0), 1: (0, 3), 2: (0, 4), 3: (0, 6)},
        {(1, 2): ((1, F(7, 2)),)}, True),
    "vertical overlap": (
        path(4), {0: (0, 0), 1: (0, 3), 2: (1, 1), 3: (1, 6)},
        {(2, 3): ((0, 1), (0, 5))}, False),
    "vertex on vertical piece": (
        path(3), {0: (0, 0), 1: (0, 4), 2: (0, 2)}, {}, False),
    "vertex on vertical bent piece": (
        path(3), {0: (0, 0), 1: (3, 4), 2: (0, 2)},
        {(0, 1): ((0, 4),)}, False),
    "vertex beside vertical piece": (
        path(3), {0: (0, 0), 1: (0, 4), 2: (1, 2)}, {}, True),
    "three edges leave a vertex at one slope": (
        star(4), {0: (0, 0), 1: (3, 0), 2: (0, 3), 3: (4, 4)},
        {(0, 1): ((1, 1),), (0, 2): ((2, 2),)}, False),
    "edges leave a vertex at one slope, opposite ways": (
        star(3), {0: (0, 0), 1: (1, 1), 2: (-1, -1)}, {}, True),
    "two pieces of one edge leave a bend at one slope": (
        path(2), {0: (4, 0), 1: (2, 3)}, {(0, 1): ((0, 0), (2, 0))}, False),
    "vertical pieces leave a bend at one slope": (
        path(2), {0: (0, 4), 1: (1, 2)}, {(0, 1): ((0, 0), (0, 2))}, False),
    "crossing at the x of an unrelated vertex": (
        path(5), {0: (0, 0), 1: (4, 4), 2: (0, 4), 3: (4, 0), 4: (2, -3)},
        {}, False),
    "crossing off the grid at the x of an unrelated vertex": (
        path(5), {0: (0, 0), 1: (3, 3), 2: (0, 3), 3: (3, 0), 4: (F(3, 2), -3)},
        {}, False),
    "bend inside a piece of another edge": (
        path(4), {0: (0, 0), 1: (4, 0), 2: (1, 3), 3: (3, 3)},
        {(2, 3): ((2, 0),)}, False),
    "bend inside a piece of its own edge": (
        path(2), {0: (0, 0), 1: (2, -3)},
        {(0, 1): ((4, 0), (4, 4), (2, 0))}, False),
    "bend on a bend of another edge": (
        path(4), {0: (0, 0), 1: (4, 0), 2: (4, 4), 3: (0, 4)},
        {(0, 1): ((2, 2),), (2, 3): ((2, 2),)}, False),
    "disjoint collinear pieces on one line": (
        path(4), {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)},
        {(1, 2): ((F(3, 2), 1),)}, True),
    "collinear pieces meeting at a bend": (
        path(4), {0: (0, 0), 1: (1, 2), 2: (3, 2), 3: (4, 0)},
        {(0, 1): ((2, 0),), (2, 3): ((2, 0),)}, False),
    "collinear pieces overlapping on the axis": (
        path(4), {0: (0, 0), 1: (2, 0), 2: (1, 1), 3: (3, 0)},
        {(2, 3): ((1, 0),)}, False),
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE))
def test_sweep_degeneracies(name):
    g, pos, bends, ok = _DEGENERATE[name]
    assert (_violation(g, pos, bends) is None) == ok
