"""The exact clearance that sizes the perturbation of a collinear base.

``_clearance_sq`` measures only the pairs on a common face that touches a
moving vertex, from a plan kept on the graph for one bend layout and
moving set, first on a coarse grid and then exactly for the pairs near the
least coarse distance.  Two references check it: ``exact_scan_sq`` scans
the same plan exactly, pair by pair, and must give the same D² and the
same DegenerateOutput text; ``all_pairs_sq`` measures every pair of a
vertex or bend and a piece it is not an end of, in Fractions.  They must
agree on a seeded corpus of collinear bases, degenerate ones included, on
drawings that share a graph but not a plan, and on grids too coarse or too
large for the coarse stage to decide.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import isqrt, lcm

import pytest

from freeset import realize
from freeset.embedding import norm_edge
from freeset.errors import DegenerateOutput
from freeset.extractors import planar_freeset
from freeset.generators import (
    cycle,
    grid,
    maximal_outerplanar,
    path,
    random_triangulation,
    stacked_3tree,
)
from freeset.rational import common_denominator
from freeset.realize import (
    DrawingViolation,
    GridDrawing,
    PolyDrawing,
    _clearance_plan,
    _clearance_sq,
    _collinear_base,
    _distinct_x_shear,
    free_realize,
    perturb_scale,
    verify_drawing,
)

from conftest import point_set, thinned_triangulation

STYLES = ("general", "collinear", "repeated-x", "coprime")
FAMILIES = {
    "triangulation": lambda seed: random_triangulation(30, seed),
    "outerplanar": lambda seed: maximal_outerplanar(30, seed),
    "grid": lambda seed: grid(5, 6),
    "stacked": lambda seed: stacked_3tree(30, seed),
    "thinned": lambda seed: thinned_triangulation(40, seed),
}
CASES = [(f, seed, style) for f in FAMILIES for seed in (1, 2, 3)
         for style in STYLES]


def _segment_sq(p, a, b) -> F:
    """Squared distance from p to the segment ab."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    length2 = dx * dx + dy * dy
    t = 0 if length2 == 0 else min(1, max(0, ((p[0] - a[0]) * dx +
                                              (p[1] - a[1]) * dy) / length2))
    qx, qy = a[0] + t * dx, a[1] + t * dy
    return (p[0] - qx) ** 2 + (p[1] - qy) ** 2


def all_pairs_sq(d: PolyDrawing | GridDrawing, moving) -> F | None:
    """Least squared distance between a vertex or bend and a piece it is
    not an end of, over every pair in which the point or an end of the
    piece is a moving vertex."""
    if isinstance(d, GridDrawing):
        d = d.drawing()
    moving = {("v", v) for v in moving}
    points = {("v", v): p for v, p in d.pos.items()}
    pieces = []
    for e in sorted(d.graph.edges):
        bends = {("b", e, j): p for j, p in enumerate(d.bends.get(e, ()))}
        points.update(bends)
        chain = [("v", e[0]), *bends, ("v", e[1])]
        pieces.extend(zip(chain, chain[1:]))
    best = None
    for a, b in pieces:
        for q, p in points.items():
            if q in (a, b) or not {q, a, b} & moving:
                continue
            dist = _segment_sq(p, points[a], points[b])
            if best is None or dist < best:
                best = dist
    return best


def exact_scan_sq(d: GridDrawing, moving) -> F | None:
    """``_clearance_sq`` as one exact scan: the plan's pairs in order, each
    measured in integer products on the single-scale grid, a point outside
    the piece's box grown by the floor of the least D so far skipped, the
    first pair at D² = 0 named in the same DegenerateOutput."""
    g = d.graph
    layout = tuple(sorted((e, len(b)) for e, b in d.bends.items()))
    pieces = _clearance_plan(g, layout, frozenset(moving))
    pts = list(d.pos)
    for e, _ in layout:
        pts.extend(d.bends[e])
    scale = lcm(d.dx, d.dy)
    mx, my = scale // d.dx, scale // d.dy
    grid = [(x * mx, y * my) for x, y in pts]
    reach = 2 * max(abs(c) for p in grid for c in p)  # at least D
    best = None  # (num, den, point, edge): D² = num / den on the grid
    for a, b, points, e in pieces:
        (ax, ay), (bx, by) = grid[a], grid[b]
        x0, x1 = (ax, bx) if ax < bx else (bx, ax)
        y0, y1 = (ay, by) if ay < by else (by, ay)
        x0, x1, y0, y1 = x0 - reach, x1 + reach, y0 - reach, y1 + reach
        dx, dy = bx - ax, by - ay
        for i in points:
            px, py = grid[i]
            if not (x0 <= px <= x1 and y0 <= py <= y1):
                continue
            wx, wy = px - ax, py - ay
            dot = wx * dx + wy * dy
            if dot <= 0:
                num, den = wx * wx + wy * wy, 1
            elif dot >= dx * dx + dy * dy:
                num, den = (px - bx) ** 2 + (py - by) ** 2, 1
            else:
                num, den = (wx * dy - wy * dx) ** 2, dx * dx + dy * dy
            if best is None or num * best[1] < best[0] * den:
                best = (num, den, i, e)
                reach = isqrt(num // den)
    if best is not None and best[0] == 0:
        i, e = best[2:]
        owners = [f for f, nb in layout for _ in range(nb)]  # of the bends
        point = f"vertex {i}" if i < g.n else \
            f"a bend of edge {owners[i - g.n]}"
        raise realize._degenerate("collinear", DrawingViolation(
            "vertex-on-edge", f"{point} lies on edge {e}"))
    return None if best is None else F(best[0], best[1] * scale * scale)


def _base_on(fs, style: str, rng_seed: int) -> GridDrawing:
    pts = point_set(style, len(fs.order), random.Random(rng_seed))
    xs = sorted(x for x, _ in _distinct_x_shear(pts)[1])
    return _collinear_base(fs.graph, fs, *common_denominator(xs))[0]


def _base(family: str, seed: int, style: str):
    fs = planar_freeset(FAMILIES[family](seed))
    return fs, _base_on(fs, style, seed)


@pytest.fixture
def builds(monkeypatch):
    """The arguments of each ``_clearance_plan`` call, one per plan built."""
    calls = []
    build = realize._clearance_plan

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(realize, "_clearance_plan", counting)
    return calls


def outcome(clearance, d: GridDrawing, moving):
    """D² by ``clearance``, or the text of the DegenerateOutput it raises."""
    try:
        return clearance(d, moving)
    except DegenerateOutput as err:
        return str(err)


def _scaled(d: GridDrawing, k: int) -> GridDrawing:
    """d with every numerator times k."""
    return GridDrawing(graph=d.graph, pos=[(x * k, y * k) for x, y in d.pos],
                       bends={e: tuple((x * k, y * k) for x, y in b)
                              for e, b in d.bends.items()},
                       dx=d.dx, dy=d.dy)


@pytest.mark.parametrize("family,seed,style", CASES)
def test_face_local_matches_all_pairs(family, seed, style):
    fs, base = _base(family, seed, style)
    d2 = _clearance_sq(base, fs.order)
    assert d2 is not None and d2 > 0
    assert d2 == exact_scan_sq(base, fs.order) == all_pairs_sq(base, fs.order)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coordinates_beyond_2_to_1100(family):
    # the coarse stage shifts away more than a thousand bits
    fs, base = _base(family, 2, "coprime")
    k = 3 ** 700 + 1
    big = _scaled(base, k)
    assert min(abs(c) for p in big.pos for c in p if c).bit_length() > 1100
    d2 = _clearance_sq(big, fs.order)
    assert d2 == exact_scan_sq(big, fs.order) == \
        _clearance_sq(base, fs.order) * k * k
    assert d2 == all_pairs_sq(big, fs.order)


def test_nearest_pair_below_the_coarse_grid():
    # one vertex far out puts every other point within a unit or two of the
    # origin on the coarse grid, so the nearest pair, less than 2^-W of the
    # extent apart, and every pair near it are decided exactly
    fs, base = _base("triangulation", 1, "general")
    g = base.graph
    far = max((v for v in range(g.n) if v not in fs.order),
              key=lambda v: abs(base.pos[v][0]) + abs(base.pos[v][1]))
    top = max(abs(c) for p in base.pos for c in p)
    shift = realize._COARSE_BITS + 2 * top.bit_length()
    pos = list(base.pos)
    pos[far] = (pos[far][0] << shift, pos[far][1] << shift)
    d = GridDrawing(graph=g, pos=pos, bends=base.bends, dx=base.dx,
                    dy=base.dy)
    d2 = _clearance_sq(d, fs.order)
    assert d2 == exact_scan_sq(d, fs.order) == all_pairs_sq(d, fs.order)
    extent = max(abs(c) for p in d.drawing().pos.values() for c in p)
    assert 0 < d2 * 2 ** (2 * realize._COARSE_BITS) < extent ** 2


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_vertex_on_piece_is_degenerate(family):
    # a vertex put on a piece of its own face at a moving vertex
    fs, grid = _base(family, 1, "general")
    base = grid.drawing()
    g = base.graph
    v = fs.order[0]
    walk = [u for u, _ in g.faces[g.faces_at(v)[0]].walk]
    i = walk.index(v)
    w = walk[(i + 1) % len(walk)]
    u = next(u for u in walk if u not in (v, w))
    a, b = base.pos[v], base.pos[w]
    pos = {**base.pos, u: ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)}
    broken = PolyDrawing(graph=g, pos=pos,
                         bends={e: p for e, p in base.bends.items()
                                if e != tuple(sorted((v, w)))})
    assert all_pairs_sq(broken, fs.order) == 0
    grid = GridDrawing.from_drawing(broken)
    with pytest.raises(DegenerateOutput,
                       match="collinear drawing failed verification: "
                             "vertex-on-edge"):
        _clearance_sq(grid, fs.order)
    assert outcome(_clearance_sq, grid, fs.order) == \
        outcome(exact_scan_sq, grid, fs.order)


def _first_zero_pair(d: GridDrawing, moving) -> tuple[int, tuple]:
    """The first (point, edge) of the plan at distance 0, in Fractions."""
    layout = tuple(sorted((e, len(b)) for e, b in d.bends.items()))
    pts = list(d.pos)
    for e, _ in layout:
        pts.extend(d.bends[e])
    pts = [(F(x, d.dx), F(y, d.dy)) for x, y in pts]
    for a, b, points, e in _clearance_plan(d.graph, layout, frozenset(moving)):
        for i in points:
            if _segment_sq(pts[i], pts[a], pts[b]) == 0:
                return i, e
    raise AssertionError("no pair at distance 0")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_first_of_several_zero_pairs_is_named(family):
    # fixed vertices put on the midpoints of unbent edges at moving
    # vertices, on a grid past 2^200: the error names the plan's first pair
    # at distance 0
    fs, grid = _base(family, 3, "coprime")
    grid = _scaled(grid, 2 ** 201 + 2)  # even: midpoints stay on the grid
    g = grid.graph
    pos = list(grid.pos)
    placed = set()
    for v in fs.order:
        for fid in g.faces_at(v):
            walk = [u for u, _ in g.faces[fid].walk]
            w = walk[(walk.index(v) + 1) % len(walk)]
            u = next((u for u in walk if u not in (v, w, *placed)
                      and u not in fs.order), None)
            if u is not None and norm_edge(v, w) not in grid.bends:
                placed.add(u)
                pos[u] = ((pos[v][0] + pos[w][0]) // 2,
                          (pos[v][1] + pos[w][1]) // 2)
                break
        if len(placed) == 3:
            break
    assert len(placed) == 3
    d = GridDrawing(graph=g, pos=pos, bends=grid.bends, dx=grid.dx,
                    dy=grid.dy)
    i, e = _first_zero_pair(d, fs.order)
    text = outcome(_clearance_sq, d, fs.order)
    assert text == outcome(exact_scan_sq, d, fs.order)
    assert text.startswith("collinear drawing failed verification: ")
    assert text.endswith(f"vertex {i} lies on edge {e}" if i < g.n else
                         f"lies on edge {e}")


def test_pruning_keeps_the_nearest_pair():
    # a path has one face, so the face-local D² is the all-pairs one; here
    # halving the pruning reach would skip the nearest pair
    pos = {0: (-10, 12), 1: (-6, -20), 2: (-8, 14), 3: (15, -6), 4: (5, 12)}
    d = PolyDrawing(graph=path(5), pos={v: (F(x), F(y))
                                        for v, (x, y) in pos.items()})
    grid = GridDrawing.from_drawing(d)
    assert _clearance_sq(grid, [0, 2]) == exact_scan_sq(grid, [0, 2]) == \
        all_pairs_sq(d, [0, 2]) == F(648, 145)


@pytest.mark.parametrize("m", [7, 1 << 100])
@pytest.mark.parametrize("direction", [(1, 0), (1, 1), (-1, 1)])
def test_pairs_as_far_apart_as_the_drawing_is_wide(m, direction):
    # a path on a line through the origin: both pairs are as long as the
    # drawing is wide, and the first one measured sets the bound
    ux, uy = direction
    d = GridDrawing(graph=path(3), bends={}, dx=1, dy=1,
                    pos=[(-m * ux, -m * uy), (0, 0), (m * ux, m * uy)])
    d2 = (ux * ux + uy * uy) * m * m
    assert _clearance_sq(d, [2]) == exact_scan_sq(d, [2]) == \
        all_pairs_sq(d, [2]) == d2


def test_no_pair_means_no_bound():
    # nothing moves: no pair, and no bound
    _, base = _base("triangulation", 1, "general")
    assert _clearance_sq(base, []) is None
    assert exact_scan_sq(base, []) is None


@pytest.mark.parametrize("seed", range(60))
def test_clustered_at_the_floor_extremes(seed):
    # a path or cycle on a few cells of the coarse grid, each point at the
    # low or the high corner of its cell, so flooring moves it by nothing
    # or by nearly (1, 1): coarse distances are off by up to about 2√2, in
    # either direction, ties and points on pieces are common, and the
    # exact stage must still find the nearest pair and the first zero one
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    g = (path if seed % 2 else cycle)(n)
    sh = rng.choice((0, 20, 1000))
    low = (1 << sh) - 1
    top = 1 << (realize._COARSE_BITS - 1)  # keeps the shift at sh
    cells = rng.sample([(x, y) for x in range(-4, 5) for y in range(-4, 5)], n)
    pos = [((top + x) << sh | rng.choice((0, low)),
            (top + y) << sh | rng.choice((0, low))) for x, y in cells]
    d = GridDrawing(graph=g, pos=pos, bends={}, dx=1, dy=1)
    moving = rng.sample(range(n), rng.randint(1, n))
    got = outcome(_clearance_sq, d, moving)
    assert got == outcome(exact_scan_sq, d, moving)
    if not isinstance(got, str):
        assert got == all_pairs_sq(d, moving)


@pytest.mark.parametrize("family,style", [("outerplanar", "general"),
                                          ("grid", "coprime")])
def test_epsilon_is_largest_power_of_two(family, style):
    # the lift is epsilon * y / ymax: a fixed vertex ends at y * ymax / eps
    fs, grid = _base(family, 2, style)
    targets = [F(3 * i - 7, i + 1) for i in range(len(fs.order))]
    d = perturb_scale(grid, fs.order, targets).drawing()
    base = grid.drawing()
    ymax = max(abs(y) for y in targets)
    v = next(v for v in range(base.graph.n) if base.pos[v][1] != 0)
    eps = base.pos[v][1] * ymax / d.pos[v][1]
    assert eps == F(2) ** (eps.numerator.bit_length() -
                           eps.denominator.bit_length())
    d2 = _clearance_sq(grid, fs.order)
    assert (2 * eps) ** 2 < d2 <= (4 * eps) ** 2


def test_plan_follows_bend_layout_and_moving_set():
    # one graph, three plans: the base, the base with one bend fewer, and a
    # smaller moving set; a plan reused across them would misnumber the
    # bends or test the wrong pairs, and the three values differ
    fs, base = _base("thinned", 2, "general")
    g = base.graph

    def without(e):
        return GridDrawing(graph=g, pos=base.pos,
                           bends={f: b for f, b in base.bends.items()
                                  if f != e}, dx=base.dx, dy=base.dy)

    e = next(e for e in sorted(base.bends)
             if verify_drawing(g, without(e)) is None)
    cases = [(base, fs.order), (without(e), fs.order),
             (base, fs.order[-1:])]
    values = [_clearance_sq(d, moving) for d, moving in cases]
    assert values == [all_pairs_sq(d, moving) for d, moving in cases]
    assert len(set(values)) == 3


def test_plan_is_reused_across_positions(builds):
    # the same graph, free set and bends at two sets of x positions, then
    # realized on a third point set: one plan
    fs = planar_freeset(FAMILIES["triangulation"](3))
    for rng_seed in (1, 7):
        base = _base_on(fs, "coprime", rng_seed)
        assert _clearance_sq(base, fs.order) == all_pairs_sq(base, fs.order)
    pts = point_set("general", len(fs.order), random.Random(3))
    assert free_realize(fs.graph, fs, pts).verified
    assert len(builds) == 1


def test_plan_is_rebuilt_for_a_new_layout_or_moving_set(builds):
    # the graph keeps one plan: a new bend layout or moving set replaces it
    fs, base = _base("thinned", 2, "general")
    e = min(base.bends)
    fewer = GridDrawing(graph=base.graph, pos=base.pos,
                        bends={f: b for f, b in base.bends.items() if f != e},
                        dx=base.dx, dy=base.dy)
    for d, moving in [(base, fs.order), (base, fs.order), (fewer, fs.order),
                      (base, fs.order[-1:]), (base, fs.order[-1:])]:
        _clearance_sq(d, moving)
    assert [(dict(layout).get(e), len(moving))
            for _, layout, moving in builds] == \
        [(1, len(fs.order)), (None, len(fs.order)), (1, 1)]


def test_perturb_checks_the_returned_drawing(monkeypatch):
    fs, base = _base("stacked", 1, "general")
    checked = []
    real = realize.verify_drawing

    def spy(g, d):
        checked.append(d)
        return real(g, d)

    monkeypatch.setattr(realize, "verify_drawing", spy)
    targets = [F(2 * i - 5, i + 2) for i in range(len(fs.order))]
    d = perturb_scale(base, fs.order, targets)
    assert d.verified and len(checked) == 1
    assert (checked[0].pos, checked[0].bends) == (d.pos, d.bends)
    assert [d.drawing().pos[v][1] for v in fs.order] == targets
