"""The triangle check of realized drawings, with the sweep as its oracle.

``_checked_halves`` accepts a drawing of a collinear system when every
triangle of its two halves, and every corner of the quadrilateral of the
axis chain's ends and the apexes, turns counter-clockwise.  The drawings
that realization checks this way are captured here, with their apexes,
and broken in seeded ways: a vertex or bend moved onto another point, onto
the middle of a piece, or across the far edge of a triangle at it, and two
vertices swapped.  Whenever ``verify_drawing`` rejects a mutant, the
triangle check must reject it too.  A derandomized property moves the
non-free points of small realized drawings by small steps on a finer
grid: whenever the triangle check accepts one, the sweep must too.  A
hand-built half with a face of four
vertices must be refused when the system is built.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache
from math import atan2
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset import realize
from freeset.errors import DegenerateOutput
from freeset.extractors import planar_freeset
from freeset.realize import GridDrawing, free_realize, verify_drawing

from conftest import (
    point_list,
    point_set,
    thinned_triangulation,
    triangle_checks,
)
from test_golden import FAMILIES, FAMILY_REALIZE_CASES, REALIZE_CASES

CORPUS = ([("thinned", (n, s, keep), 5) for n in (12, 24, 40)
           for s in (1, 2, 3) for keep in (0.3, 0.6)]
          + [("triangulation", (n, g), p) for n, g, p, _, _ in REALIZE_CASES]
          + [(f, a, p) for f, a, p, _, _ in FAMILY_REALIZE_CASES])


def checked_drawings(family, args, pseed):
    """The drawings that ``_checked_halves`` accepted while realizing the
    case, each with its apex and system, on the unit grid."""
    make = thinned_triangulation if family == "thinned" else FAMILIES[family]
    g = make(*args)
    fs = planar_freeset(g)
    with triangle_checks() as seen:
        pts = point_set("general", len(fs.order), random.Random(pseed))
        d = free_realize(g, fs, pts)
    assert d.verified and verify_drawing(g, d) is None
    return [(c.drawing, c.apex, c.sysm) for c in seen]


def doubled(d: GridDrawing) -> GridDrawing:
    """d on a grid twice as fine, so the middle of a piece is a point."""
    return GridDrawing(graph=d.graph, xy=[(2 * x, 2 * y) for x, y in d.xy],
                       bend_xy={e: tuple((2 * x, 2 * y) for x, y in b)
                                for e, b in d.bend_xy.items()},
                       dx=2 * d.dx, dy=2 * d.dy)


def mutants(d: GridDrawing, rng: random.Random, count: int):
    """``count`` seeded mutants of d (on the doubled grid), each with what
    was done to it."""
    d = doubled(d)
    g = d.graph
    bent = sorted(d.bend_xy)
    edges = sorted(g.edges)

    def piece_ends(e):
        chain = [d.xy[e[0]], *d.bend_xy.get(e, ()), d.xy[e[1]]]
        k = rng.randrange(len(chain) - 1)
        return chain[k], chain[k + 1]

    def moved(target, point):
        """d with a vertex (an int) or the bend of an edge moved."""
        if isinstance(target, int):
            pos = list(d.xy)
            pos[target] = point
            return GridDrawing(graph=g, xy=pos, bend_xy=d.bend_xy, dx=d.dx,
                               dy=d.dy)
        return GridDrawing(graph=g, xy=d.xy, dx=d.dx, dy=d.dy,
                           bend_xy={**d.bend_xy, target: (point,)})

    for _ in range(count):
        kind = rng.choice(("onto-point", "onto-middle", "across", "swap"))
        target = rng.randrange(g.n) if not bent or rng.random() < 0.7 \
            else rng.choice(bent)
        if kind == "onto-point":
            point = rng.choice(list(d.xy) + [b[0] for b in d.bend_xy.values()])
        elif kind == "onto-middle":
            (ax, ay), (bx, by) = piece_ends(rng.choice(edges))
            point = ((ax + bx) // 2, (ay + by) // 2)
        elif kind == "across":
            # reflected through the middle of the far side of a face at it
            v = target if isinstance(target, int) else target[0]
            u, w = rng.sample(g.rot[v], 2) if len(g.rot[v]) > 1 else \
                (g.rot[v][0], g.rot[g.rot[v][0]][0])
            (ux, uy), (wx, wy) = d.xy[u], d.xy[w]
            x, y = d.xy[target] if isinstance(target, int) else \
                d.bend_xy[target][0]
            point = (ux + wx - x, uy + wy - y)
        else:
            v, u = rng.sample(range(g.n), 2)
            pos = list(d.xy)
            pos[v], pos[u] = pos[u], pos[v]
            yield f"swap {v} {u}", GridDrawing(graph=g, xy=pos,
                                               bend_xy=d.bend_xy, dx=d.dx,
                                               dy=d.dy)
            continue
        yield f"{kind} {target}", moved(target, point)


def triangle_check_rejects(d, apex, sysm) -> bool:
    try:
        realize._checked_halves(
            point_list(d, sysm, (2 * apex[0], 2 * apex[1])), sysm, "perturb")
    except DegenerateOutput:
        return True
    return False


@pytest.mark.parametrize("family,args,pseed", CORPUS,
                         ids=[f"{f}{a}-p{p}" for f, a, p in CORPUS])
def test_mutants_rejected_by_the_sweep_are_rejected(family, args, pseed):
    rng = random.Random(f"{family}{args}")
    count = 6 if args[0] >= 200 else 24
    rejected = 0
    for d, apex, sysm in checked_drawings(family, args, pseed):
        assert not triangle_check_rejects(doubled(d), apex, sysm)
        for what, m in mutants(d, rng, count):
            if verify_drawing(m.graph, m) is not None:
                rejected += 1
                assert triangle_check_rejects(m, apex, sysm), what
    assert rejected > 0


QUAD_PTS = {0: (0, 0), 1: (4, 0), 2: (1, -2), 3: (3, -2), 4: (2, -8)}


def test_quadrilateral_face_is_refused():
    # axis 0-1, apex 4 below it; 2 and 3 hang between them, and the face
    # 0, 2, 3, 1 has four vertices: a disk, but not triangulated
    adj = {0: [1, 2, 4], 1: [0, 3, 4], 2: [0, 3, 4], 3: [1, 2, 4],
           4: [0, 1, 2, 3]}
    # each rotation counter-clockwise, by angle
    rot = [sorted(adj[v], key=lambda u, v=v: atan2(
        QUAD_PTS[u][1] - QUAD_PTS[v][1], QUAD_PTS[u][0] - QUAD_PTS[v][0]))
        for v in range(5)]
    hp = SimpleNamespace(rot=rot, y=[0, 1], apex=4)
    with pytest.raises(DegenerateOutput, match="^collinear drawing failed "
                       "verification: not-a-disk: the inside half has the "
                       "face 0, 2, 3, 1, which is not a triangle$"):
        realize._half_triangles(hp, list(range(5)), "inside", str)


@pytest.mark.parametrize("change,detail", [
    (lambda rot: rot[0].remove(2), "has an edge in one rotation only"),
    (lambda rot: rot[0].append(2), "repeats a neighbour of 0"),
    (lambda rot: rot.append([]), "is not connected"),
], ids=["one-sided", "repeated", "disconnected"])
def test_broken_rotation_is_refused(change, detail):
    # the triangulated half: 0-1 the axis, 4 the apex below, and the face
    # 0, 2, 3, 1 split by the chord 0-3
    adj = {0: [1, 2, 3, 4], 1: [0, 3, 4], 2: [0, 3, 4], 3: [0, 1, 2, 4],
           4: [0, 1, 2, 3]}
    rot = [sorted(adj[v], key=lambda u, v=v: atan2(
        QUAD_PTS[u][1] - QUAD_PTS[v][1], QUAD_PTS[u][0] - QUAD_PTS[v][0]))
        for v in range(5)]
    hp = SimpleNamespace(rot=rot, y=[0, 1], apex=4)
    assert len(realize._half_triangles(hp, list(range(5)), "inside",
                                       str)) == 5
    change(rot)
    with pytest.raises(DegenerateOutput, match="^collinear drawing failed "
                       f"verification: not-a-disk: the inside half {detail}$"):
        realize._half_triangles(hp, list(range(len(rot))), "inside", str)


# ---------------------------------------------------------------------------
# Differential property: realized drawings with their non-free points moved
# ---------------------------------------------------------------------------

SMALL = ([("thinned", (n, s, 0.45), 5 + s) for n in (12, 24) for s in (1, 2)]
         + [("triangulation", (n, g), p) for n, g, p, _, _ in REALIZE_CASES
            if n <= 45])


@lru_cache(maxsize=None)
def _small_checked(i: int):
    """The last drawing that ``_checked_halves`` accepted while realizing
    ``SMALL[i]``, with its apex, its system, its non-free vertices and the
    point ids of each: vertex v is v, the bend of the k-th crossed edge is
    n + k."""
    family, args, pseed = SMALL[i]
    d, apex, sysm = checked_drawings(family, args, pseed)[-1]
    make = thinned_triangulation if family == "thinned" else FAMILIES[family]
    free = set(planar_freeset(make(*args)).order)
    fixed = [v for v in range(d.graph.n) if v not in free]
    return d, apex, sysm, fixed


def _triple_neighbours(sysm, p: int) -> list[int]:
    """The points that share a triple of the system with point p."""
    return sorted({q for t in sysm.triples if p in t for q in t} - {p})


@st.composite
def _moved_realization(draw):
    """A small realized drawing on a grid 2^s times finer, with one to three
    of its non-free points (vertices off the free set, and bends) each moved
    by k/2^s of the way to a point it shares a triple with, |k| <= 2^s;
    the apex, scaled to the finer grid, as realization put it."""
    d, apex, sysm, fixed = _small_checked(draw(st.integers(0, len(SMALL) - 1)))
    n, crossed = d.graph.n, list(sysm.mids)
    s = draw(st.integers(1, 12))
    f = 1 << s
    pts = [(x * f, y * f) for x, y in point_list(d, sysm, apex)]
    movable = fixed + [n + k for k in range(len(crossed))]
    for p in draw(st.lists(st.sampled_from(movable), min_size=1, max_size=3,
                           unique=True)):
        q = draw(st.sampled_from(_triple_neighbours(sysm, p)))
        k = draw(st.integers(-f, f))
        (px, py), (qx, qy) = pts[p], pts[q]
        pts[p] = (px + k * (qx - px) // f, py + k * (qy - py) // f)
    moved = replace(d, xy=pts[:n], dx=d.dx * f, dy=d.dy * f,
                    bend_xy={e: (pts[n + k],) for k, e in enumerate(crossed)})
    return moved, (apex[0] * f, apex[1] * f), sysm


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_moved_realization())
def test_triangle_check_accepts_only_plane_drawings(case):
    """Whenever the triangle check accepts a moved realization, the sweep
    accepts it too.  Only that direction holds: a helper triangle (one at
    an apex, or of a chord) may flip without any edge of g crossing."""
    d, apex, sysm = case
    try:
        realize._checked_halves(point_list(d, sysm, apex), sysm, "perturb")
    except DegenerateOutput:
        return
    assert verify_drawing(d.graph, d) is None
