"""``verify_drawing`` against a brute-force reference checker.

The reference works on the rational coordinates directly (no integer grid,
no sweep, no shortcuts) and states the crossing-free condition as plainly
as possible:

* no two vertices share a position and no piece of an edge has length
  zero;
* a vertex lies on a piece of an edge only as an endpoint of that piece,
  and only if it is an endpoint of the edge;
* two pieces of one edge meet at most in one common endpoint;
* pieces of two different edges meet at most in one common endpoint, and
  that point is the position of a vertex of both edges.

``reference_verify`` is the sweep as it was before events were located
from a piece ending there, the pieces leaving a point were sorted by an
integer slope key and the points were numbered: every violation text must
be the same as its text.  It keys pieces by their end points and names a
crossing with its own ``_crossing``, so it shares no code with the sweep
under test beyond ``_cross_properly`` and the grid of ``GridDrawing``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F
from functools import cmp_to_key, lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset import build_embedded, realize
from freeset.embedding import norm_edge
from freeset.extractors import planar_freeset
from freeset.generators import cycle, path, random_triangulation, star
from freeset.realize import (
    DrawingViolation,
    GridDrawing,
    _cross_properly,
    free_realize,
    realize_collinear,
    verify_drawing,
)

from conftest import bend_points, segments


def moved_to(d: GridDrawing, pos: dict, bends=None) -> GridDrawing:
    """d with its vertices at the rational points of ``pos``, and its bends
    at those of ``bends`` (its own by default), on the least grid."""
    return GridDrawing.from_points(
        d.graph, pos, bends=bend_points(d) if bends is None else bends)


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


def reference_ok(g, d: GridDrawing) -> bool:
    if len(set(d.pos.values())) != g.n:
        return False
    pieces = []  # (a, b, edge)
    bends = bend_points(d)
    for e in sorted(g.edges):
        chain = [d.pos[e[0]], *bends.get(e, ()), d.pos[e[1]]]
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


def _crossing(pieces: list, i: int, j: int, vertex_at: dict) -> DrawingViolation:
    """The violation of two pieces (left, right, edge), keyed by their end
    points, known to meet where they may not.

    Pieces sharing an endpoint meet elsewhere only by running on in one
    direction: a fold-back for one edge, an overlap for two edges at a
    vertex of both.  The piece that starts further right is named first.
    """
    i, j = sorted((i, j), key=lambda k: (pieces[k][0][0], k), reverse=True)
    (p, q, e), (pj, qj, f) = pieces[i], pieces[j]
    for x in (p, q):
        if x in (pj, qj):
            if e == f:
                return DrawingViolation(
                    "crossing", f"edge {e} folds back on itself")
            w = vertex_at.get(x)
            if w in e and w in f:
                return DrawingViolation(
                    "crossing", f"edges {e} and {f} overlap")
    return DrawingViolation("crossing", f"edges {e} and {f} intersect")


def reference_verify(g, d) -> DrawingViolation | None:
    """The sweep that ``verify_drawing`` replaced: the status is bisected at
    every event and the pieces leaving a point are sorted by a comparator
    on exact orientation.  Verdict and violation text must match."""
    pos = d.xy
    vertex_at = {p: v for v, p in enumerate(pos)}
    if len(vertex_at) != len(pos):
        return DrawingViolation("coincident-vertices",
                                "two vertices share a position")

    pieces = []  # (left, right, edge), endpoints in sweep order
    geo = []  # per piece: (x, y, dx, dy), its left end and its direction
    starts: dict[tuple[int, int], list[int]] = {}
    for e in sorted(d.graph.edges):
        chain = [pos[e[0]], *d.bend_xy.get(e, ()), pos[e[1]]]
        for p, q in zip(chain, chain[1:]):
            if p == q:
                return DrawingViolation("degenerate-segment",
                                        f"edge {e} has a zero-length piece")
            if q < p:
                p, q = q, p
            starts.setdefault(p, []).append(len(pieces))
            pieces.append((p, q, e))
            geo.append((p[0], p[1], q[0] - p[0], q[1] - p[1]))
    events = set(vertex_at)
    events.update(q for _, q, _ in pieces)
    events.update(starts)

    status: list[int] = []  # pieces crossing the sweep line, bottom to top
    for point in sorted(events):
        px, py = point
        # status[:lo] passes strictly below the point, status[lo:hi] through
        # it: piece i is below when the point is left of its direction
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) // 2
            ax, ay, ux, uy = geo[status[mid]]
            if ux * (py - ay) > uy * (px - ax):
                lo = mid + 1
            else:
                hi = mid
        ending, inner = [], []
        hi = lo
        while hi < len(status):
            i = status[hi]
            if pieces[i][1] == point:
                ending.append(i)
            else:
                ax, ay, ux, uy = geo[i]
                if ux * (py - ay) != uy * (px - ax):
                    break
                inner.append(i)
            hi += 1
        new = starts.get(point, [])
        here = ending + new
        v = vertex_at.get(point)

        if inner:
            t = pieces[inner[0]]
            if v is not None:
                return DrawingViolation(
                    "vertex-on-edge", f"vertex {v} lies on edge {t[2]}")
            others = here + inner[1:]
            j = next((j for j in others
                      if pieces[j][0] in t[:2] or pieces[j][1] in t[:2]),
                     others[0])
            return _crossing(pieces, inner[0], j, vertex_at)
        if v is not None:
            for i in here:
                if v not in pieces[i][2]:
                    return DrawingViolation(
                        "vertex-on-edge",
                        f"vertex {v} lies on edge {pieces[i][2]}")
        else:
            for i in here:
                if pieces[i][2] != pieces[here[0]][2]:
                    return _crossing(pieces, here[0], i, vertex_at)

        if len(new) > 1:
            # bottom to top just after the point; equal directions overlap
            def turn(i: int, j: int) -> int:
                """Negative when piece j leaves the point above piece i."""
                _, _, ux, uy = geo[i]
                _, _, wx, wy = geo[j]
                return uy * wx - ux * wy

            new = sorted(new, key=cmp_to_key(turn))
            for i, j in zip(new, new[1:]):
                if turn(i, j) == 0:
                    return _crossing(pieces, i, j, vertex_at)

        status[lo:hi] = new
        top = lo + len(new)
        down = status[lo - 1] if lo > 0 else None
        up = status[top] if top < len(status) else None
        pairs = [(down, new[0]), (new[-1], up)] if new else [(down, up)]
        for i, j in pairs:
            if i is not None and j is not None and \
                    _cross_properly(geo[i], geo[j]):
                return _crossing(pieces, i, j, vertex_at)
    return None


def _checked(d: GridDrawing) -> DrawingViolation | None:
    """``verify_drawing``'s violation, after checking its verdict against
    ``reference_ok`` and its text against ``reference_verify``."""
    got = verify_drawing(d.graph, d)
    assert str(got) == str(reference_verify(d.graph, d)), (d.xy, d.bend_xy)
    assert (got is None) == reference_ok(d.graph, d), (d.xy, d.bend_xy)
    return got


def _random_drawing(g, rng: random.Random, grid: int,
                    bend_rate: float) -> GridDrawing:
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
    return GridDrawing.from_points(g, pos, bends=bends)


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
        feats += [p for b in bend_points(d).values() for p in b]
        feats += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                  for a, b, _ in segments(d)]
        for _ in range(12):
            target = rng.choice(feats)
            if d.bend_xy and rng.random() < 0.3:
                e = rng.choice(sorted(d.bend_xy))
                bends = bend_points(d)
                bends[e] = (target,)
                out.append(moved_to(d, d.pos, bends))
            else:
                pos = dict(d.pos)
                pos[rng.randrange(g.n)] = target
                out.append(moved_to(d, pos))
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
        verdicts[_checked(d) is None] += 1
    # the corpus exercises both verdicts in quantity
    assert verdicts[True] >= 60 and verdicts[False] >= 300


def test_oracle_larger_realizations():
    corpus = _perturbed_realizations(random.Random(20261019), sizes=(40, 60),
                                     graphs=3, with_base=True)
    verdicts = {True: 0, False: 0}
    for d in corpus:
        verdicts[_checked(d) is None] += 1
    assert verdicts[True] >= 6 and verdicts[False] >= 20


@lru_cache(maxsize=1)
def _grid_corpus() -> list[GridDrawing]:
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
        p, q, _ = segments(d)[pick % len(segments(d))]
        d = moved_to(d, {**d.pos, v: ((p[0] + q[0]) / 2,
                                      (p[1] + q[1]) / 2)})
    elif broken == "onto-vertex":
        d = moved_to(d, {**d.pos, v: d.pos[(v + 1 + pick) % g.n]})
    elif broken == "shifted":
        d = moved_to(d, {**d.pos, v: (x + F(pick % 7 - 3, 5),
                                      y + F(pick % 5 - 2, 3))})
    grid = moved_to(d, d.pos)  # the least common grid

    def scaled(p):
        return (a * p[0], b * p[1])

    stretched = replace(grid, xy=[scaled(p) for p in grid.xy],
                        bend_xy={e: tuple(map(scaled, ps))
                                 for e, ps in grid.bend_xy.items()},
                        dx=a * grid.dx, dy=b * grid.dy)
    want = _checked(d)
    assert str(verify_drawing(g, stretched)) == str(want)
    assert str(reference_verify(g, stretched)) == str(want)


def _violation(g, pos, bends=None):
    d = GridDrawing.from_points(
        g, {v: (F(x), F(y)) for v, (x, y) in pos.items()},
        bends={norm_edge(*e): tuple((F(x), F(y)) for x, y in b)
               for e, b in (bends or {}).items()})
    return _checked(d)


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


def _graph(n: int, edges):
    """The graph on n vertices with exactly these edges, which form a tree
    (so any rotation is planar).  The cases below join their edges through
    one vertex drawn far right, at (100, 0)."""
    rot = [[] for _ in range(n)]
    for u, v in edges:
        rot[u].append(v)
        rot[v].append(u)
    return build_embedded(n, rot)


# name: (graph, positions, bends, crossing-free); sweep degeneracies, each
# also checked against both references
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
    "vertical and sloped pieces leave a vertex": (
        star(4), {0: (0, 0), 1: (0, 5), 2: (3, 1), 3: (3, -1)}, {}, True),
    "two vertical pieces leave a vertex": (
        star(4), {0: (0, 0), 1: (0, 5), 2: (3, 1), 3: (-1, 4)},
        {(0, 3): ((0, 2),)}, False),
    "vertical piece ends where a sloped one passes": (
        _graph(5, [(0, 1), (2, 3), (1, 4), (3, 4)]),
        {0: (0, -3), 1: (1, 3), 2: (-2, 2), 3: (2, -2), 4: (100, 0)},
        {(0, 1): ((0, 0),)}, False),
    "sloped piece ends on a vertical piece": (
        path(4), {0: (0, -3), 1: (0, 3), 2: (-2, 2), 3: (3, 4)},
        {(2, 3): ((0, 0),)}, False),
    # a piece passes through an event point below a piece that ends there
    "foreign piece through a bend, below the piece ending there": (
        _graph(5, [(0, 1), (2, 3), (1, 4), (3, 4)]),
        {0: (-4, 0), 1: (0, 4), 2: (-2, -2), 3: (2, 2), 4: (100, 0)},
        {(0, 1): ((0, 0),)}, False),
    "foreign piece through a vertex, below the edge ending there": (
        _graph(5, [(0, 1), (2, 3), (1, 4), (3, 4)]),
        {0: (-4, 0), 1: (0, 0), 2: (-2, -2), 3: (2, 2), 4: (100, 0)}, {},
        False),
    "foreign piece below two pieces ending at a shared bend": (
        _graph(7, [(0, 1), (2, 3), (4, 5), (1, 6), (3, 6), (5, 6)]),
        {0: (-4, 0), 1: (4, 1), 2: (-4, 4), 3: (4, 5), 4: (-2, -4),
         5: (2, 4), 6: (100, 0)},
        {(0, 1): ((0, 0),), (2, 3): ((0, 0),)}, False),
    # a bend that coincides with a vertex or another bend is the same point
    "bend on a vertex not an end of its edge": (
        path(3), {0: (0, 0), 1: (4, 0), 2: (2, 2)},
        {(0, 1): ((2, 2),)}, False),
    "bend on its own edge's end": (
        path(3), {0: (0, 0), 1: (4, 0), 2: (2, 3)},
        {(0, 1): ((2, 2), (4, 0))}, False),
    "two consecutive equal bends of one edge": (
        path(3), {0: (0, 0), 1: (4, 0), 2: (2, 3)},
        {(0, 1): ((2, 1), (2, 1))}, False),
    # the upper of the two edges ending at vertex 0 is the later piece
    "foreign piece between two edges ending at a vertex": (
        _graph(5, [(0, 1), (0, 2), (2, 3), (3, 4)]),
        {0: (0, 0), 1: (-4, -4), 2: (-4, 0), 3: (-4, -2), 4: (4, 2)}, {},
        False),
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE))
def test_sweep_degeneracies(name):
    g, pos, bends, ok = _DEGENERATE[name]
    assert (_violation(g, pos, bends) is None) == ok


# ---------------------------------------------------------------------------
# The event lookup, the slope-key sort and the shared-end skip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bits", [70, 1100])
def test_equal_keys_distinct_slopes(bits, monkeypatch):
    """Slopes 1 and 1 + 2^-bits have one key: the exact sort decides."""
    fallbacks = []

    def counting(cmp):
        fallbacks.append(cmp)
        return cmp_to_key(cmp)

    monkeypatch.setattr(realize, "cmp_to_key", counting)
    t = 2 ** bits
    pos = {0: (0, 0), 1: (t, t), 2: (t, t + 1)}
    assert _violation(star(3), pos) is None
    assert len(fallbacks) == 1
    # a vertex on the upper of the two, and a third edge along the lower
    g = build_embedded(4, [[1, 2], [0, 3], [0], [1]])
    v = _violation(g, {**pos, 3: (F(t, 2), F(t + 1, 2))})
    assert str(v) == "vertex-on-edge: vertex 3 lies on edge (0, 2)"
    v = _violation(star(4), {**pos, 3: (2 * t, 2 * t)})
    assert v.kind == "crossing" and "overlap" in v.detail
    # the lower one bends back up across the upper one
    v = _violation(star(3), {0: (0, 0), 1: (t, t + 1), 2: (t - 1, t + 10)},
                   {(0, 2): ((t, t),)})
    assert str(v) == "crossing: edges (0, 2) and (0, 1) intersect"
    assert len(fallbacks) == 4


def test_same_pair_named_among_many_in_one_direction():
    # five pieces leave vertex 0, three of them in one direction (slope 1),
    # interleaved with others: the first two of the three, in piece order,
    # are named
    g = star(6)
    pos = {0: (0, 0), 1: (1, 10), 2: (5, 0), 3: (2, 10), 4: (1, -3),
           5: (3, 10)}
    bends = {(0, 1): ((1, 1),), (0, 3): ((2, 2),), (0, 5): ((3, 3),)}
    v = _violation(g, pos, bends)
    assert str(v) == "crossing: edges (0, 3) and (0, 1) overlap"
    # without the first of them the next pair is named
    v = _violation(g, pos, {(0, 3): ((2, 2),), (0, 5): ((3, 3),)})
    assert str(v) == "crossing: edges (0, 5) and (0, 3) overlap"


@pytest.mark.parametrize("broken", ["none", "onto-edge", "onto-vertex",
                                    "shifted"])
def test_coordinates_above_2_to_1100(broken):
    """A drawing moved and stretched to coordinates above 2^1100 gets the
    small drawing's violation text, from the sweep and from the
    reference."""
    big = 2 ** 1100
    rng = random.Random(1100)
    for d in _grid_corpus():
        g = d.graph
        v = rng.randrange(g.n)
        x, y = d.pos[v]
        if broken == "onto-edge":
            p, q, _ = rng.choice(segments(d))
            d = moved_to(d, {**d.pos, v: ((p[0] + q[0]) / 2,
                                          (p[1] + q[1]) / 2)})
        elif broken == "onto-vertex":
            d = moved_to(d, {**d.pos, v: d.pos[(v + 1) % g.n]})
        elif broken == "shifted":
            d = moved_to(d, {**d.pos, v: (x + F(1, 3), y - F(1, 2))})

        def moved(p):
            return (p[0] * big + 3 * big, p[1] * (big + 1) - big)

        far = moved_to(d, {u: moved(p) for u, p in d.pos.items()},
                       {e: tuple(map(moved, ps))
                        for e, ps in bend_points(d).items()})
        want = _checked(d)
        assert str(verify_drawing(g, far)) == str(want)
        assert str(reference_verify(g, far)) == str(want)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 7), st.integers(1, 3), st.sampled_from([0.0, 0.5]),
       st.integers(0, 2 ** 32))
def test_matches_reference_on_crowded_drawings(which, grid, bend_rate, seed):
    """Random drawings on a few grid points, so that pieces meet, overlap
    and pass through vertices and bends often."""
    d = _random_drawing(_small_graphs()[which], random.Random(seed), grid,
                        bend_rate)
    _checked(d)


class _Counted(int):
    """An int whose differences stay counted and whose products are
    counted."""

    products = 0

    def __sub__(self, other):
        return _Counted(int(self) - int(other))

    def __rsub__(self, other):
        return _Counted(int(other) - int(self))

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


@pytest.mark.parametrize("n", [100, 200, 400])
def test_products_per_piece(n, monkeypatch):
    """The sweep of a realized triangulation makes at most six products
    of coordinate differences per piece; the bisecting sweep made about
    thirteen."""
    g = random_triangulation(n, n + 1)
    fs = planar_freeset(g)
    rng = random.Random(n)
    pts: set = set()
    while len(pts) < len(fs.order):
        pts.add((F(rng.randint(-400, 400), rng.randint(1, 9)),
                 F(rng.randint(-400, 400), rng.randint(1, 9))))
    d = free_realize(g, fs, sorted(pts))

    def counted(p):
        return (_Counted(p[0]), _Counted(p[1]))

    counting = replace(d, xy=[counted(p) for p in d.xy],
                       bend_xy={e: tuple(map(counted, b))
                                for e, b in d.bend_xy.items()})
    monkeypatch.setattr(_Counted, "products", 0)
    assert verify_drawing(g, counting) is None
    assert 0 < _Counted.products <= 6 * len(segments(d))


# ---------------------------------------------------------------------------
# Differential property: near-degenerate drawings on lopsided grids
# ---------------------------------------------------------------------------

@st.composite
def _near_degenerate(draw):
    """A small graph drawn on the points of a 5 x 5 lattice, so that pieces
    share endpoints and run along one line; edges bent at lattice points,
    at vertices other than their own ends or at the middle of an edge;
    maybe one vertex moved to the middle of an edge.  The stretch (a, b)
    has one scale 2^100 to 2^1100 times the other, so that slope keys of
    the sweep tie."""
    g = draw(st.sampled_from(_small_graphs()))
    lattice = [(F(x), F(y)) for x in range(5) for y in range(5)]
    cells = draw(st.lists(st.sampled_from(lattice), min_size=g.n,
                          max_size=g.n, unique=True))
    pos = dict(enumerate(cells))
    edges = sorted(g.edges)

    def middle(e):
        (ax, ay), (bx, by) = pos[e[0]], pos[e[1]]
        return ((ax + bx) / 2, (ay + by) / 2)

    if draw(st.booleans()):
        pos[draw(st.integers(0, g.n - 1))] = middle(draw(st.sampled_from(
            edges)))
    def bend(e, kind):
        others = [pos[w] for w in range(g.n) if w not in e]
        if kind == "vertex" and others:
            return draw(st.sampled_from(others))
        if kind == "middle":
            return middle(draw(st.sampled_from(edges)))
        return draw(st.sampled_from(lattice))

    bends = {}
    for e in edges:
        kinds = draw(st.sampled_from([(), (), (), ("lattice",), ("vertex",),
                                      ("middle",), ("lattice", "vertex")]))
        bends[e] = tuple(bend(e, kind) for kind in kinds)
    bits = draw(st.integers(100, 1100))
    small = draw(st.integers(1, 9))
    big = (1 << bits) + draw(st.integers(0, 2 ** 16))
    a, b = (big, small) if draw(st.booleans()) else (small, big)
    return GridDrawing.from_points(g, pos, bends=bends), a, b


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_near_degenerate())
def test_matches_reference_on_lopsided_grids(case):
    """``verify_drawing`` against both references on near-degenerate
    drawings stretched by (a, b), and its text against the unstretched
    drawing's."""
    d, a, b = case

    def stretched(p):
        return (a * p[0], b * p[1])

    far = replace(d, xy=[stretched(p) for p in d.xy],
                  bend_xy={e: tuple(map(stretched, ps))
                           for e, ps in d.bend_xy.items()})
    assert str(_checked(far)) == str(verify_drawing(d.graph, d))
