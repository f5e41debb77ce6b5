"""The exact clearance that sizes the perturbation of a collinear base.

``_clearance_sq`` measures only the pairs on a common face that touches a
moving vertex, from a plan kept on the graph for one bend layout and
moving set.  The reference here measures every pair of a vertex or bend
and a piece it is not an end of, in Fractions, and both must agree on a
seeded corpus of collinear bases, degenerate ones included, and on
drawings that share a graph but not a plan.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from freeset import realize
from freeset.errors import DegenerateOutput
from freeset.extractors import planar_freeset
from freeset.generators import (
    grid,
    maximal_outerplanar,
    path,
    random_triangulation,
    stacked_3tree,
)
from freeset.rational import common_denominator
from freeset.realize import (
    GridDrawing,
    PolyDrawing,
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


@pytest.mark.parametrize("family,seed,style", CASES)
def test_face_local_matches_all_pairs(family, seed, style):
    fs, base = _base(family, seed, style)
    d2 = _clearance_sq(base, fs.order)
    assert d2 is not None and d2 > 0
    assert d2 == all_pairs_sq(base, fs.order)


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
    with pytest.raises(DegenerateOutput,
                       match="collinear drawing failed verification: "
                             "vertex-on-edge"):
        _clearance_sq(GridDrawing.from_drawing(broken), fs.order)


def test_pruning_keeps_the_nearest_pair():
    # a path has one face, so the face-local D² is the all-pairs one; here
    # halving the pruning reach would skip the nearest pair
    pos = {0: (-10, 12), 1: (-6, -20), 2: (-8, 14), 3: (15, -6), 4: (5, 12)}
    d = PolyDrawing(graph=path(5), pos={v: (F(x), F(y))
                                        for v, (x, y) in pos.items()})
    assert _clearance_sq(GridDrawing.from_drawing(d), [0, 2]) == \
        all_pairs_sq(d, [0, 2]) == F(648, 145)


def test_no_pair_means_no_bound():
    # nothing moves: no pair, and no bound
    _, base = _base("triangulation", 1, "general")
    assert _clearance_sq(base, []) is None


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
