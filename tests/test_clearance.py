"""The lift of a collinear base, sized by the triangles of its system.

``perturb_scale`` moves the free set off the axis by epsilon·yᵢ/ymax and
scales every height by ymax/epsilon.  Epsilon is the largest power of two
below the least lift at which a triple of the collinear system stops
turning counter-clockwise: a triangle of one of the augmented halves, or a
corner of the quadrilateral of the chain's ends and the apexes
(``_lift_exponent``).  Two
references check it.  ``reference_bound`` finds that least lift in
Fractions, from its own face trace of each half, with each triangle's sign
read off the base and each orientation measured at two lift heights;
``all_pairs_sq`` measures the clearance of the lifted drawing, the least
squared distance between a vertex or bend and a piece it is not an end
of.  They are checked on a seeded corpus of collinear bases, on bases
scaled past 2^1100, on clustered and far-apart targets, and on broken
bases, where the error must name the first triple that the reference
finds flat or clockwise.  Epsilon is read off the lift before rounding,
the points that ``realize._snap_exponent`` sizes the rounding on.

The lifted drawing is then rounded: every point but the free vertices goes
toward zero to a multiple of delta, the largest power of two for which
each triple keeps D > 2·delta·(|u|₁ + |w|₁) + 8·delta².
``reference_delta`` finds that delta in Fractions, and the golden
realizations are checked against it, coordinate by coordinate.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freeset import realize
from freeset.embedding import _trace_faces, norm_edge
from freeset.errors import DegenerateOutput
from freeset.extractors import planar_freeset
from freeset.generators import (
    cycle,
    fan,
    goldner_harary,
    grid,
    icosahedron,
    maximal_outerplanar,
    octahedron,
    path,
    random_triangulation,
    stacked_3tree,
    star,
)
from freeset.rational import common_denominator
from freeset.realize import (
    GridDrawing,
    _collinear_base,
    _collinear_system,
    _shear_keys,
    free_realize,
    perturb_scale,
    verify_drawing,
)

from conftest import (
    bend_points,
    drawing_of,
    point_list,
    point_set,
    thinned_triangulation,
    triangle_checks,
)
from test_golden import FAMILIES as GOLDEN_FAMILIES
from test_golden import FAMILY_REALIZE_CASES, REALIZE_CASES

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


def all_pairs_sq(d: GridDrawing, moving) -> F | None:
    """Least squared distance between a vertex or bend and a piece it is
    not an end of, over every pair in which the point or an end of the
    piece is a moving vertex."""
    moving = {("v", v) for v in moving}
    points = {("v", v): p for v, p in d.pos.items()}
    pieces = []
    bent = bend_points(d)
    for e in sorted(d.graph.edges):
        bends = {("b", e, j): p for j, p in enumerate(bent.get(e, ()))}
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


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def reference_triples(base: GridDrawing, fs) -> list:
    """Every condition of the lift, as (name, points, sign): three point
    ids of the system and the sign their orientation must keep.

    Each half's faces are traced here again, and every face but the one
    bounded by apex + axis is taken as a triangle, with the sign it has in
    the base (which must be the same for the whole half); a half with no
    other face is a fan from its apex.  The quadrilateral of the chain's
    ends P₀, P₁ and the apexes L, U must stay convex: (P₀, L, P₁, U) turns
    counter-clockwise at each corner.  The apexes sit at
    ((x₀ + x₁)/2, ±4(x₁ - x₀)) for the chain ends' x's x₀ and x₁."""
    sysm = _collinear_system(fs._analysis)
    pos = points_of(base, fs)
    out = []
    for which, (hp, keep) in sysm.halves.items():
        point = dict(enumerate(keep))
        point[hp.apex] = ("apex", which)
        rim = set(hp.y) | {hp.apex}
        faces = [[u for u, _ in walk] for walk in _trace_faces(hp.rot)[0]]
        faces = [f for f in faces if set(f) != rim or len(f) != len(rim)]
        signs = set()
        for verts in faces or [[hp.apex, a, b] for a, b in zip(hp.y,
                                                                hp.y[1:])]:
            assert len(verts) == 3
            ids = tuple(point[u] for u in verts)
            sign = 1 if _orient(*(pos[p] for p in ids)) > 0 else -1
            signs.add(sign)
            out.append((f"the {which} half's triangle", ids, sign))
        assert len(signs) <= 1
    quad = [sysm.y_order[0], ("apex", "inside"), sysm.y_order[-1],
            ("apex", "outside")]
    for k in range(4):
        out.append(("corner", tuple(quad[(k + i) % 4] for i in range(3)), 1))
    return out


def points_of(base: GridDrawing, fs, lift=None) -> dict:
    """The base's points by id, the apexes by ("apex", half), with each
    free vertex v raised by ``lift[v]``."""
    sysm = _collinear_system(fs._analysis)
    pos = dict(base.pos)
    bends = bend_points(base)
    for e, mid in sysm.mids.items():
        (pos[mid],) = bends[e]
    x0, x1 = pos[sysm.y_order[0]][0], pos[sysm.y_order[-1]][0]
    pos[("apex", "inside")] = ((x0 + x1) / 2, -4 * (x1 - x0))
    pos[("apex", "outside")] = ((x0 + x1) / 2, 4 * (x1 - x0))
    for v, h in (lift or {}).items():
        pos[v] = (pos[v][0], pos[v][1] + h)
    return pos


def reference_bounds(base, fs, targets) -> list:
    """Per condition of ``reference_triples``, the least lift at which it
    fails, or None: the orientation at lift 0 and at lift 1 give the line
    it runs on."""
    ymax = max(abs(F(y)) for y in targets)
    up = {v: F(y) / ymax for v, y in zip(fs.order, targets)}
    at0, at1 = points_of(base, fs), points_of(base, fs, up)
    out = []
    for _, ids, sign in reference_triples(base, fs):
        d0 = _orient(*(at0[p] for p in ids))
        lin = _orient(*(at1[p] for p in ids)) - d0
        assert sign * d0 > 0
        out.append(-d0 / lin if sign * lin < 0 else None)
    return out


def reference_bound(base, fs, targets) -> F | None:
    bounds = [b for b in reference_bounds(base, fs, targets) if b is not None]
    return min(bounds) if bounds else None


def pow2_below(q: F) -> F:
    """The largest power of two strictly below q > 0."""
    eps = F(2) ** (q.numerator.bit_length() - q.denominator.bit_length())
    while eps >= q:
        eps /= 2
    while 2 * eps < q:
        eps *= 2
    return eps


def reference_delta(d: GridDrawing, apex, sysm) -> F:
    """The largest power of two delta for which every triple of the system
    has D > 2·delta·(|u|₁ + |w|₁) + 8·delta², in Fractions: D the doubled
    area of the triple (a, b, c) on the points of d, u = b - a and
    w = c - a; the upper apex at ``apex`` on d's grid, the lower its mirror
    image."""
    pts = [*d.pos.values(), *(bend_points(d)[e][0] for e in sysm.mids)]
    ax, ay = F(apex[0], d.dx), F(apex[1], d.dy)
    return delta_of_triples(pts + [(ax, -ay), (ax, ay)], sysm.triples)


def delta_of_triples(pts, triples) -> F:
    """``reference_delta`` on the rational points ``pts``."""
    best = None
    for a, b, c in triples:
        (px, py), (qx, qy), (rx, ry) = pts[a], pts[b], pts[c]
        u, w = (qx - px, qy - py), (rx - px, ry - py)
        area = u[0] * w[1] - u[1] * w[0]
        spread = abs(u[0]) + abs(u[1]) + abs(w[0]) + abs(w[1])
        assert area > 0
        delta = pow2_below(area / (2 * spread))
        while area <= 2 * delta * spread + 8 * delta * delta:
            delta /= 2
        if best is None or delta < best:
            best = delta
    return best


def toward_zero(value: F, delta: F) -> F:
    """value rounded toward zero to a multiple of delta."""
    k = abs(value) // delta
    return k * delta if value >= 0 else -k * delta


def epsilon_of(base, out, fs, targets) -> F:
    """The epsilon ``perturb_scale`` used: a fixed vertex off the axis ends
    at y·ymax/epsilon in the lift before rounding, ``out``."""
    ymax = max(abs(F(y)) for y in targets)
    v = next(v for v in range(base.graph.n)
             if base.pos[v][1] != 0 and v not in fs.order)
    return base.pos[v][1] * ymax / out.pos[v][1]


def _base_on(fs, style: str, rng_seed: int) -> GridDrawing:
    pts = point_set(style, len(fs.order), random.Random(rng_seed))
    t, keys, den = _shear_keys(pts)
    xs = sorted(F(x + t * y, den) for x, y in keys)
    return _collinear_base(fs.graph, fs, *common_denominator(xs))[0]


def _targets(fs, style: str, rng_seed: int) -> list:
    pts = point_set(style, len(fs.order), random.Random(rng_seed + 100))
    return [y for _, y in pts]


def _base(family: str, seed: int, style: str):
    fs = planar_freeset(FAMILIES[family](seed))
    return fs, _base_on(fs, style, seed)


def _scaled(d: GridDrawing, k: int) -> GridDrawing:
    """d with every numerator times k."""
    return GridDrawing(graph=d.graph, xy=[(x * k, y * k) for x, y in d.xy],
                       bend_xy={e: tuple((x * k, y * k) for x, y in b)
                                for e, b in d.bend_xy.items()},
                       dx=d.dx, dy=d.dy)


def rounding_of(g, call):
    """What ``call()`` returned, and each point list of g that
    ``realize._rounded`` rounded while it ran, as it was before: as a
    drawing on its grid, with its upper apex and system and the exponent j
    of the delta = 2^-j that ``realize._snap_exponent`` chose for it."""
    seen = []
    snap = realize._snap_exponent

    def spy(pts, sysm, dx, dy, stage):
        j = snap(pts, sysm, dx, dy, stage)
        seen.append((drawing_of(g, pts, sysm, dx, dy), pts[-1], sysm, j))
        return j

    realize._snap_exponent = spy
    try:
        return call(), seen
    finally:
        realize._snap_exponent = snap


def lifted_exactly(base, fs, targets):
    """``perturb_scale``'s drawing, after checking that it is plane, that
    its free vertices are exactly at their targets, that its clearance is
    positive and that the epsilon of its lift, before rounding, is the
    reference one."""
    d, [(lift, _, _, _)] = rounding_of(
        base.graph, lambda: perturb_scale(base, fs, targets))
    assert verify_drawing(d.graph, d) is None
    assert [d.pos[v][1] for v in fs.order] == [F(y) for y in targets]
    assert [d.pos[v] for v in fs.order] == [lift.pos[v] for v in fs.order]
    assert all_pairs_sq(d, fs.order) > 0
    if not any(targets):
        return d
    bound = reference_bound(base, fs, targets)
    assert epsilon_of(base, lift, fs, targets) == \
        (1 if bound is None else pow2_below(bound))
    return d


@pytest.mark.parametrize("family,seed,style", CASES)
def test_face_local_matches_all_pairs(family, seed, style):
    # the bound from each triangle on its own is the reference bound over
    # all of them, and the lifted drawing keeps every pair apart
    fs, base = _base(family, seed, style)
    lifted_exactly(base, fs, _targets(fs, style, seed))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coordinates_beyond_2_to_1100(family):
    # the bound scales with the grid, exactly
    fs, base = _base(family, 2, "coprime")
    targets = _targets(fs, "coprime", 2)
    k = 3 ** 700 + 1
    big = _scaled(base, k)
    assert min(abs(c) for p in big.xy for c in p if c).bit_length() > 1100
    assert reference_bound(big, fs, targets) == \
        reference_bound(base, fs, targets) * k
    lifted_exactly(big, fs, targets)


def test_targets_2_to_300_apart_land_exactly():
    # one target 2^300 times the others: the other free vertices rise by
    # less than 2^-300 of the bound, and still land exactly
    fs, base = _base("triangulation", 1, "general")
    targets = [F(2 ** 300)] + [F((-1) ** i * (i + 1), 7)
                               for i in range(1, len(fs.order))]
    d = lifted_exactly(base, fs, targets)
    assert d.pos[fs.order[1]][1] == F(-2, 7)


def _broken(family: str, seed: int, count: int):
    """A collinear base with ``count`` vertices off the axis moved onto
    the middle of an unbent edge of a face at a free vertex, on a grid
    past 2^200 (even, so the middles stay on it)."""
    fs, base = _base(family, seed, "coprime")
    base = _scaled(base, 2 ** 201 + 2)
    g = base.graph
    pos = list(base.xy)
    placed = set()
    for v in fs.order:
        for fid in g.faces_at(v):
            walk = [u for u, _ in g.faces[fid].walk]
            w = walk[(walk.index(v) + 1) % len(walk)]
            u = next((u for u in walk if u not in (v, w, *placed)
                      and pos[u][1] != 0), None)
            if u is not None and norm_edge(v, w) not in base.bend_xy:
                placed.add(u)
                pos[u] = ((pos[v][0] + pos[w][0]) // 2,
                          (pos[v][1] + pos[w][1]) // 2)
                break
        if len(placed) == count:
            break
    assert len(placed) == count
    return fs, GridDrawing(graph=g, xy=pos, bend_xy=base.bend_xy, dx=base.dx,
                           dy=base.dy)


def first_broken(base, fs) -> tuple[str, tuple]:
    """The first condition of the system, in the system's order, that the
    base breaks, by the reference orientation in Fractions."""
    sysm = _collinear_system(fs._analysis)
    pos = points_of(base, fs)
    n, lower = base.graph.n, base.graph.n + len(sysm.mids)
    for i, ids in enumerate(sysm.triples):
        at = [pos[("apex", "inside") if p == lower else ("apex", "outside")
                  if p == lower + 1 else p] for p in ids]
        if _orient(*at) <= 0:
            return next(w for end, w in sysm.parts if i < end), ids
    raise AssertionError("no broken condition")


def _named(fs, ids) -> str:
    sysm = _collinear_system(fs._analysis)
    n = fs.graph.n
    crossed = list(sysm.mids)
    return ", ".join(str(p) if p < n else f"m{crossed[p - n]}"
                     if p < n + len(crossed) else
                     ("the lower apex" if p == n + len(crossed)
                      else "the upper apex") for p in ids)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_vertex_on_piece_is_degenerate(family):
    # a vertex on a piece of its own face at a free vertex: some triangle
    # is flat or clockwise in the base, and the lift raises before it moves
    # anything
    fs, broken = _broken(family, 1, 1)
    with pytest.raises(DegenerateOutput,
                       match="collinear drawing failed verification: "
                             "flipped-triangle: the (inside|outside) half's "
                             "triangle .* is (degenerate|clockwise)$"):
        perturb_scale(broken, fs, _targets(fs, "general", 1))
    assert verify_drawing(broken.graph, broken) is not None


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_first_of_several_zero_pairs_is_named(family):
    # three fixed vertices on the middles of unbent edges at free vertices:
    # the error names the first condition, in the system's order, that the
    # Fraction reference finds broken
    fs, broken = _broken(family, 3, 3)
    what, ids = first_broken(broken, fs)
    with pytest.raises(DegenerateOutput) as err:
        perturb_scale(broken, fs, _targets(fs, "general", 3))
    assert str(err.value).startswith(
        f"collinear drawing failed verification: flipped-triangle: {what} "
        f"{_named(fs, ids)} is ")


def test_least_bound_is_not_the_first():
    # every condition is measured: the least bound is not the first one
    fs, base = _base("thinned", 2, "general")
    targets = _targets(fs, "general", 2)
    bounds = reference_bounds(base, fs, targets)
    found = [b for b in bounds if b is not None]
    assert found[0] != min(found)
    lifted_exactly(base, fs, targets)


@pytest.mark.parametrize("m", [7, 1 << 100])
@pytest.mark.parametrize("direction", [(1, 0), (1, 1), (-1, 1)])
def test_pairs_as_far_apart_as_the_drawing_is_wide(m, direction):
    # three free vertices of a path on a line through the origin, as far
    # apart as the drawing is wide; on the x-axis nothing is lifted
    g = path(5)
    fs = planar_freeset(g)
    ux, uy = direction
    pts = [(F(-m * ux), F(-m * uy)), (F(0), F(0)), (F(m * ux), F(m * uy))]
    d = free_realize(g, fs, pts)
    assert verify_drawing(g, d) is None
    assert {d.pos[v] for v in fs.order} == set(pts)
    base = _base_on(fs, "general", 1)
    lifted_exactly(base, fs, [y for _, y in pts])


def test_no_pair_means_no_bound():
    # nothing moves: the base itself is rounded and checked, and no bound
    # means epsilon 1
    fs, base = _base("triangulation", 1, "general")
    out, [(d, _, _, _)] = rounding_of(
        base.graph, lambda: perturb_scale(base, fs, [0] * len(fs.order)))
    assert out.verified and (d.xy, d.bend_xy) == (base.xy, base.bend_xy)
    sysm = _collinear_system(fs._analysis)
    pts, _, dy = realize._apex_points(base, sysm)
    assert realize._lift_exponent(pts, sysm, [0] * len(pts), dy, 1) == 0


@pytest.mark.parametrize("seed", range(60))
def test_clustered_at_the_floor_extremes(seed):
    # the free set of a path or a cycle on a few cells of a grid 2^sh wide,
    # each point at the low or the high corner of its cell: targets tie or
    # differ by one part in 2^sh, and the lift must still be exact
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    g = (path if seed % 2 else cycle)(n)
    fs = planar_freeset(g)
    sh = rng.choice((0, 20, 1000))
    low = (1 << sh) - 1
    top = 1 << 59
    cells = rng.sample([(x, y) for x in range(-4, 5) for y in range(-4, 5)],
                       len(fs.order))
    pts = [(F((top + x) << sh | rng.choice((0, low))),
            F((top + y) << sh | rng.choice((0, low)))) for x, y in cells]
    d = free_realize(g, fs, pts)
    assert verify_drawing(g, d) is None
    assert sorted(d.pos[v] for v in fs.order) == sorted(pts)
    base = _base_on(fs, "general", seed)
    lifted_exactly(base, fs, [y for _, y in pts])


@pytest.mark.parametrize("family,style", [("outerplanar", "general"),
                                          ("grid", "coprime")])
def test_epsilon_is_largest_power_of_two(family, style):
    # the lift is epsilon * y / ymax: a fixed vertex ends at y * ymax / eps
    fs, grid = _base(family, 2, style)
    targets = [F(3 * i - 7, i + 1) for i in range(len(fs.order))]
    _, [(lift, _, _, _)] = rounding_of(
        grid.graph, lambda: perturb_scale(grid, fs, targets))
    eps = epsilon_of(grid, lift, fs, targets)
    assert eps == F(2) ** (eps.numerator.bit_length() -
                           eps.denominator.bit_length())
    bound = reference_bound(grid, fs, targets)
    assert eps < bound <= 2 * eps


def test_bound_follows_moving_set_and_bends_are_checked():
    # the bound follows the moving set and the targets; a base without the
    # bend of a crossed edge is not a drawing of the system
    fs, base = _base("thinned", 2, "general")
    targets = _targets(fs, "general", 2)
    last = fs.restricted(fs.order[-1:])
    cases = [(fs, targets), (last, targets[-1:]),
             (fs, [y * (i % 3) for i, y in enumerate(targets)])]
    bounds = [reference_bound(base, s, t) for s, t in cases]
    assert len(set(bounds)) == 3
    for s, t in cases:
        lifted_exactly(base, s, t)
    fewer = GridDrawing(graph=base.graph, xy=base.xy, dx=base.dx, dy=base.dy,
                        bend_xy=dict(list(base.bend_xy.items())[1:]))
    with pytest.raises(DegenerateOutput, match="collinear drawing failed "
                       "verification: bends: the bends are not one per "
                       "crossed edge$"):
        perturb_scale(fewer, fs, targets)


@pytest.fixture
def traces(monkeypatch):
    """The number of face traces made by realization: ``traces[0]``."""
    calls = [0]
    trace = realize._trace_faces

    def counting(*args):
        calls[0] += 1
        return trace(*args)

    monkeypatch.setattr(realize, "_trace_faces", counting)
    return calls


def test_triangles_traced_once_across_positions(traces):
    # the same free set at two sets of x positions, then realized on a
    # third point set: the system's faces are traced twice per half, once
    # before the augmentation and once after, and never again
    fs = planar_freeset(FAMILIES["triangulation"](3))
    for rng_seed in (1, 7):
        base = _base_on(fs, "coprime", rng_seed)
        lifted_exactly(base, fs, _targets(fs, "coprime", rng_seed))
    pts = point_set("general", len(fs.order), random.Random(3))
    assert free_realize(fs.graph, fs, pts).verified
    assert traces[0] == 4


def test_restriction_traces_nothing_again(traces):
    # a restriction shares its set's system: a new moving set traces
    # nothing again
    fs, base = _base("thinned", 2, "general")
    assert traces[0] == 4  # two per half
    targets = _targets(fs, "general", 2)
    for s, t in [(fs, targets), (fs.restricted(fs.order[:2]), targets[:2]),
                 (fs.restricted(fs.order[-1:]), targets[-1:])]:
        lifted_exactly(base, s, t)
        pts = point_set("general", len(s.order), random.Random(4))
        assert free_realize(s.graph, s, pts).verified
    assert traces[0] == 4


def test_perturb_checks_the_returned_drawing(monkeypatch):
    # one triangle check, on the drawing returned, and no sweep
    fs, base = _base("stacked", 1, "general")
    swept = []
    sweep = realize.verify_drawing

    def sweep_spy(g, d):
        swept.append(d)
        return sweep(g, d)

    monkeypatch.setattr(realize, "verify_drawing", sweep_spy)
    targets = [F(2 * i - 5, i + 2) for i in range(len(fs.order))]
    with triangle_checks() as checked:
        d = perturb_scale(base, fs, targets)
    assert d.verified and len(checked) == 1 and swept == []
    drawn = checked[0].drawing
    assert (drawn.xy, drawn.bend_xy) == (d.xy, d.bend_xy)
    assert [d.pos[v][1] for v in fs.order] == targets
    assert sweep(d.graph, d) is None


EVERY_FAMILY = [
    (path, (6,)), (cycle, (7,)), (star, (7,)), (fan, (8,)), (octahedron, ()),
    (icosahedron, ()), (goldner_harary, ()),
    (grid, (4, 7)), (maximal_outerplanar, (50, 4)),
    (random_triangulation, (60, 5)), (stacked_3tree, (50, 6)),
    (thinned_triangulation, (50, 7)),
]


@pytest.mark.parametrize("make,args", EVERY_FAMILY,
                         ids=[f"{m.__name__}{a}" for m, a in EVERY_FAMILY])
@pytest.mark.parametrize("style", STYLES)
def test_epsilon_matches_reference_on_every_family(make, args, style):
    fs = planar_freeset(make(*args))
    lifted_exactly(_base_on(fs, style, 9), fs, _targets(fs, style, 9))


# each with the factors (kx, ky) by which its least grid is refined for
# the apexes to be grid points
LIFT_CASES = [(FAMILIES[f](1), [F(3 * k + 1, 2) for k in range(40)], (1, 1))
              for f in sorted(FAMILIES)] + [
    # the apex's x is not on the least grid, or its height is not, or both
    (path(2), [F(0), F(1)], (2, 1)), (path(2), [F(0), F(1, 8)], (2, 2)),
    (path(2), [F(1, 3), F(8, 3)], (2, 3)), (path(2), [F(0), F(2, 3)], (1, 3))]


@pytest.mark.parametrize("g,xs,refine", LIFT_CASES,
                         ids=[f"{f}" for f in sorted(FAMILIES)] +
                         ["path2-odd-middle", "path2-half-height",
                          "path2-thirds", "path2-y-only"])
def test_lift_of_a_fraction_drawing_matches_its_grid(g, xs, refine):
    # the collinear base, put on its least grid, may need a finer one for
    # the apexes to be grid points, along x, y or both; the lift, and the
    # drawing rounded from it, must come out the same as on the base's own
    # grid, and so must the zero lift, which is realize_collinear's drawing
    fs = planar_freeset(g)
    xs = xs[:len(fs.order)]
    targets = _targets(fs, "coprime", 1)
    base = _collinear_base(g, fs, *common_denominator(xs))[0]
    least = GridDrawing.from_points(g, base.pos, bends=bend_points(base))
    assert (least.dx, least.dy) != (base.dx, base.dy)
    zeros = [0] * len(fs.order)
    for ys in (targets, zeros):
        out, [(lift, _, _, _)] = rounding_of(
            g, lambda: perturb_scale(least, fs, ys))
        assert out.verified and verify_drawing(g, out) is None
        want, [(want_lift, _, _, _)] = rounding_of(
            g, lambda: perturb_scale(base, fs, ys))
        assert (lift.pos, bend_points(lift)) == \
            (want_lift.pos, bend_points(want_lift))
        assert (out.xy, out.bend_xy, out.dx, out.dy) == \
            (want.xy, want.bend_xy, want.dx, want.dy)
    poly = realize.realize_collinear(g, fs, xs)
    assert (poly.pos, bend_points(poly)) == (out.pos, bend_points(out))
    sysm = _collinear_system(fs._analysis)
    _, dx, dy = realize._apex_points(least, sysm)
    assert (dx, dy) == (least.dx * refine[0], least.dy * refine[1])


ROUNDED_CASES = (
    [("triangulation", (n, g), p, style)
     for n, g, p, style, _ in REALIZE_CASES]
    + [(f, a, p, style) for f, a, p, style, _ in FAMILY_REALIZE_CASES])


@pytest.mark.parametrize("family,args,pseed,style", ROUNDED_CASES,
                         ids=[f"{f}{a}-p{p}-{s}"
                              for f, a, p, s in ROUNDED_CASES])
def test_rounding_matches_the_delta_reference(family, args, pseed, style):
    # the golden realizations, lifted and zero-lifted: delta is the largest
    # power of two that the reference bound allows; every coordinate off
    # the free set is its unrounded value rounded toward zero to a multiple
    # of delta, so within [0, delta) of it; free vertices are bit-exact
    g = GOLDEN_FAMILIES[family](*args)
    fs = planar_freeset(g)
    pts = point_set(style, len(fs.order), random.Random(pseed))
    d, lifted = rounding_of(g, lambda: free_realize(g, fs, pts))
    assert d.verified and verify_drawing(g, d) is None
    flat, collinear = rounding_of(g, lambda: realize.realize_collinear(
        g, fs, list(range(len(fs.order)))))
    assert flat.verified
    free = set(fs.order)
    for lift, apex, sysm, j in lifted + collinear:
        delta = reference_delta(lift, apex, sysm)
        assert delta == F(2) ** -j
        pts, dx, dy = realize._rounded(point_list(lift, sysm, apex), sysm,
                                       fs.order, lift.dx, lift.dy, "perturb")
        rounded = drawing_of(g, pts, sysm, dx, dy)
        for v in range(g.n):
            if v in free:
                assert rounded.pos[v] == lift.pos[v]
            else:
                assert rounded.pos[v] == tuple(toward_zero(c, delta)
                                               for c in lift.pos[v])
        bends, at = bend_points(lift), bend_points(rounded)
        assert at.keys() == bends.keys()
        for e, (p,) in bends.items():
            assert at[e] == (tuple(toward_zero(c, delta) for c in p),)
    # the zero lift returns the drawing rounded last
    assert (flat.xy, flat.bend_xy) == (rounded.xy, rounded.bend_xy)


@st.composite
def _triangles(draw):
    """A few counter-clockwise triangles on an integer grid with the
    denominators dx and dy, their coordinates and the denominators each of
    0 to 300 bits, so that delta ranges far above and below 1."""
    dx = draw(st.integers(1, 2 ** draw(st.integers(0, 300))))
    dy = draw(st.integers(1, 2 ** draw(st.integers(0, 300))))
    pts, triples = [], []
    for _ in range(draw(st.integers(1, 4))):
        bits = draw(st.integers(0, 300))
        coord = st.integers(-2 ** bits, 2 ** bits)
        tri = [(draw(coord), draw(coord)) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = tri
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        assume(det != 0)
        if det < 0:
            tri[1], tri[2] = tri[2], tri[1]
        triples.append(tuple(range(len(pts), len(pts) + 3)))
        pts += tri
    return pts, triples, dx, dy


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_triangles())
def test_snap_exponent_matches_the_reference(case):
    # the bit-length bounds and the exact test against the Fraction
    # reference, where delta may be a large power of two or a tiny one
    pts, triples, dx, dy = case
    j = realize._snap_exponent(pts, SimpleNamespace(triples=triples), dx, dy,
                               "perturb")
    values = [(F(x, dx), F(y, dy)) for x, y in pts]
    assert F(2) ** -j == delta_of_triples(values, triples)
