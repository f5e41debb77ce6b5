from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction as F
from typing import NamedTuple

import pytest

from freeset import build_embedded, embedding, extractors, realize
from freeset.curves import AlongItem
from freeset.embedding import norm_edge
from freeset.generators import (
    fan,
    goldner_harary,
    octahedron,
    random_triangulation,
)
from freeset.realize import GridDrawing


def k4():
    """K4 with outer face (0,1,2) and center 3."""
    rot = [[1, 3, 2], [2, 3, 0], [0, 3, 1], [2, 0, 1]]
    return build_embedded(4, rot, outer_face_hint=[0, 1, 2])


def induce(g, vertices, outer_face_hint=None):
    """Induced subgraph on a vertex set, inheriting the cyclic orders, and
    its relabelling (old id -> new id).  Vertices are relabelled densely in
    increasing order of their original ids; ``build_embedded`` raises
    Disconnected when the result is not connected."""
    keep = sorted(set(vertices))
    relabel = {v: i for i, v in enumerate(keep)}
    rot = [[relabel[u] for u in g.rot[v] if u in relabel] for v in keep]
    hint = None
    if outer_face_hint is not None:
        hint = [relabel[v] for v in outer_face_hint]
    return build_embedded(len(keep), rot, outer_face_hint=hint), relabel


def bend_points(d):
    """The bends of a ``GridDrawing`` as Fractions, per bent edge: the
    rational view of ``bend_xy``, as ``pos`` is of ``xy``."""
    return {e: tuple((F(x, d.dx), F(y, d.dy)) for x, y in b)
            for e, b in d.bend_xy.items()}


def drawing_of(g, pts, sysm, dx=1, dy=1) -> GridDrawing:
    """The drawing of g whose vertices and bends are the first points of
    ``pts``, a point list of the collinear system ``sysm`` as
    ``realize._apex_points`` lists it, on the grid dx, dy: vertex v is
    point v, the bend of the k-th crossed edge is point g.n + k."""
    n = g.n
    return GridDrawing(graph=g, xy=pts[:n], dx=dx, dy=dy,
                       bend_xy={e: (pts[n + k],)
                                for k, e in enumerate(sysm.mids)})


def point_list(d, sysm, apex):
    """The point list of ``sysm`` for the drawing d, with the upper apex at
    ``apex`` and the lower at its mirror image: the inverse of
    ``drawing_of``."""
    x, y = apex
    return [*d.xy, *(d.bend_xy[e][0] for e in sysm.mids), (x, -y), (x, y)]


class TriangleCheck(NamedTuple):
    """A point list that ``realize._checked_halves`` accepted, for the
    stage ``stage``: its vertices and bends as a drawing on the unit grid
    (the sweep's verdict does not depend on the axis scales), its upper
    apex and its system.  ``kind`` is "triangles", so a log that a spy on
    the sweep shares with ``triangle_checks`` reads (kind, ...) first."""
    kind: str
    stage: str
    drawing: GridDrawing
    apex: tuple
    sysm: object


@contextmanager
def triangle_checks(log=None):
    """Yield ``log``, a new list when it is None, and append to it each
    point list that ``realize._checked_halves`` accepts while the block
    runs, as a TriangleCheck.  The drawing's graph is the one that the
    collinear system was last looked up for (``realize._system_of``)."""
    log = [] if log is None else log
    check, system_of = realize._checked_halves, realize._system_of
    graph = []

    def looked_up(g, fs):
        graph[:] = [g]
        return system_of(g, fs)

    def spy(pts, sysm, stage):
        check(pts, sysm, stage)
        log.append(TriangleCheck("triangles", stage,
                                 drawing_of(graph[0], pts, sysm), pts[-1],
                                 sysm))

    realize._checked_halves, realize._system_of = spy, looked_up
    try:
        yield log
    finally:
        realize._checked_halves, realize._system_of = check, system_of


def segments(d):
    """The pieces (a, b, edge) of a drawing as Fractions, edge by edge in
    sorted order, each edge from its first end through its bends."""
    out = []
    bends = bend_points(d)
    for e in sorted(d.graph.edges):
        chain = [d.pos[e[0]], *bends.get(e, ()), d.pos[e[1]]]
        out.extend((a, b, e) for a, b in zip(chain, chain[1:]))
    return out


def thinned_triangulation(n: int, seed: int, keep: float = 0.45):
    """``random_triangulation(n, seed)`` with random edges deleted.

    Edges are tried in a seeded random order and deleted while the graph
    stays connected, until about ``keep`` of them remain; the thinned graph
    has bridges and degree-1 vertices, so some faces repeat a vertex.  The
    largest face becomes the outer face.
    """
    g = random_triangulation(n, seed)
    rng = random.Random(seed)
    adj = [set(r) for r in g.rot]
    m = len(g.edges)
    for u, v in rng.sample(sorted(g.edges), m):
        if m <= keep * len(g.edges):
            break
        adj[u].discard(v)
        adj[v].discard(u)
        seen, stack = {u}, [u]
        while stack and v not in seen:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if v in seen:
            m -= 1
        else:
            adj[u].add(v)
            adj[v].add(u)
    rot = [[u for u in r if u in adj[v]] for v, r in enumerate(g.rot)]
    return build_embedded(n, rot)


def point_set(style: str, k: int, rng: random.Random) -> list:
    """k distinct rational points in one of the criterion-2 styles: general,
    collinear, repeated x or coprime denominators, sorted."""
    pts: set = set()
    while len(pts) < k:
        if style == "general":
            pts.add((F(rng.randint(-400, 400), rng.randint(1, 9)),
                     F(rng.randint(-400, 400), rng.randint(1, 9))))
        elif style == "collinear":
            t = F(rng.randint(-200, 200), rng.randint(1, 5))
            pts.add((t, 3 * t - 2))
        elif style == "repeated-x":
            pts.add((F(rng.randint(-4, 4)),
                     F(rng.randint(-400, 400), rng.randint(1, 9))))
        else:  # coprime denominators
            pts.add((F(rng.randint(-10 ** 6, 10 ** 6), 997),
                     F(rng.randint(-10 ** 6, 10 ** 6), 991)))
    return sorted(pts)


def canonical_fans(cs):
    """v_i -> its neighbour fan in G_{i-1}, for i > 2, from the order and
    the rotations: the rotation of v_i restricted to earlier vertices,
    starting after the arc of later ones (at v_1 for v_n, which has none)."""
    pos = {v: i for i, v in enumerate(cs.order)}
    fans = {}
    for v in cs.order[2:]:
        rot = cs.graph.rot[v]
        early = [pos[u] < pos[v] for u in rot]
        start = rot.index(cs.v1) if all(early) else next(
            j for j in range(len(rot)) if early[j] and not early[j - 1])
        fans[v] = tuple(u for u in rot[start:] + rot[:start]
                        if pos[u] < pos[v])
    return fans


def frame_edges(cs):
    """The frame as directed edges, from the ends of the fans."""
    fans = canonical_fans(cs)
    return {(fan[0], v) for v, fan in fans.items()} | \
        {(v, fan[-1]) for v, fan in fans.items()}


def comparable(cs, a, b):
    return cs.precedes(a, b) or cs.precedes(b, a)


def frame_successors(cs, v):
    return list(cs.succ[v])


def edge_classes(g, cert, sp):
    """Edge -> "along" or "crossed" as the certificate lists it, else
    "inside" or "outside" as its end off the curve."""
    along = {norm_edge(*it.edge) for it in cert.items
             if isinstance(it, AlongItem)}
    crossed = {norm_edge(*e) for e in cert.crossed_edges()}
    y = set(sp.Y)
    out = {}
    for e in g.edges:
        if e in along:
            out[e] = "along"
        elif e in crossed:
            out[e] = "crossed"
        else:
            w = e[0] if e[0] not in y else e[1]
            assert w not in y, f"edge {e} joins curve vertices"
            out[e] = "inside" if w in sp.X else "outside"
    return out


def prefix_boundaries(cs):
    """Step i -> boundary path of G_i (the first i canonical vertices) from
    v_1 to v_2, replayed forward: v_i replaces the interior of its fan."""
    boundary = [cs.v1, cs.v2]
    out = {2: tuple(boundary)}
    for i, (v, fan) in enumerate(canonical_fans(cs).items(), 3):
        a = boundary.index(fan[0])
        boundary[a + 1:a + len(fan) - 1] = [v]
        out[i] = tuple(boundary)
    return out


@pytest.fixture(name="k4")
def k4_fixture():
    return k4()


@pytest.fixture(name="octa")
def octa_fixture():
    return octahedron()


@pytest.fixture(name="fan6")
def fan6_fixture():
    return fan(6)


@pytest.fixture(name="gh")
def gh_fixture():
    return goldner_harary()


@pytest.fixture(name="trace_calls")
def trace_calls_fixture(monkeypatch):
    """Count face traces: ``calls[0]`` is the number of ``_trace_faces``
    calls made through the embedding, extractor and realize modules."""
    calls = [0]
    trace = embedding._trace_faces

    def counting(*args):
        calls[0] += 1
        return trace(*args)

    for mod in (embedding, extractors, realize):
        monkeypatch.setattr(mod, "_trace_faces", counting)
    return calls
