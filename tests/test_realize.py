from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset import applications, build_embedded, curves, embedding, realize
from freeset.applications import psge_two, untangle
from freeset.bench import _random_tree
from freeset.canonical import canonical_order
from freeset.curves import (
    CrossItem,
    CurveCertificate,
    VertexItem,
    _side_partition_of,
    analyze_curve,
    side_partition,
)
from freeset.embedding import _trace_faces, norm_edge
from freeset.errors import (
    DegenerateOutput,
    FreesetError,
    InvalidCurve,
    SizeMismatch,
    YNotOnOuterFace,
)
from freeset.extractors import (
    OrderedFreeSet,
    antichain_freeset,
    planar_freeset,
)
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
from freeset.realize import (
    DrawingViolation,
    GridDrawing,
    _checked,
    _collinear_system,
    _HalfPlane,
    _shear_drawing,
    _shear_keys,
    free_realize,
    perturb_scale,
    realize_collinear,
    tutte_solve,
    verify_drawing,
)
from freeset.textio import (
    parse_drawing,
    parse_freeset,
    serialize_drawing,
    serialize_freeset,
)

from conftest import (
    bend_points,
    edge_classes,
    point_set,
    segments,
    thinned_triangulation,
    triangle_checks,
)


def half_plane(h, axis) -> _HalfPlane:
    """The half-plane system of the embedded graph h on the axis."""
    return _HalfPlane(h.rot, [f.walk for f in h.faces], h.outer_face,
                      list(axis))


def half_drawing(h, hp, xs, side) -> GridDrawing:
    """h drawn by its half-plane system hp with the axis at the integers
    xs and the rest on one side, after the one exact check."""
    pos, dx, dy = hp.solve(list(xs), 1, side)
    return _checked(GridDrawing(graph=h, xy=pos, bend_xy={}, dx=dx, dy=dy,
                                provenance="halfplane"), "halfplane")


def draw_half(h, axis, xs, side="below") -> dict:
    """h drawn by ``_HalfPlane`` with the axis at the integers xs and the
    rest on one side, after the one exact check."""
    return half_drawing(h, half_plane(h, axis), xs, side).pos


def antichain_pair(k4):
    cs = canonical_order(k4)
    cert, order = antichain_freeset(k4, cs, (3, 2))
    return OrderedFreeSet(graph=k4, order=order, certificate=cert,
                          provenance="antichain", bound_met="|S|=2")


class TestVerify:
    def test_k4_barycenter_ok(self, k4):
        pos = {0: (F(0), F(0)), 1: (F(4), F(0)), 2: (F(0), F(4)),
               3: (F(4, 3), F(4, 3))}
        d = GridDrawing.from_points(k4, pos)
        assert verify_drawing(k4, d) is None

    def test_center_outside_reports_crossing(self, k4):
        pos = {0: (F(0), F(0)), 1: (F(4), F(0)), 2: (F(0), F(4)),
               3: (F(10), F(10))}
        d = GridDrawing.from_points(k4, pos)
        v = verify_drawing(k4, d)
        assert v is not None and v.kind == "crossing"

    def test_vertex_on_edge_midpoint(self):
        g = path(3)
        pos = {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(2), F(0))}
        # vertex 1 between 0 and 2 is fine (no edge 0-2); put 2 on edge 0-1
        pos2 = {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(0))}
        assert verify_drawing(g, GridDrawing.from_points(g, pos)) is None
        v = verify_drawing(g, GridDrawing.from_points(g, pos2))
        assert v is not None and v.kind == "vertex-on-edge"

    def test_coincident_vertices(self, k4):
        pos = {0: (F(0), F(0)), 1: (F(4), F(0)), 2: (F(0), F(4)),
               3: (F(0), F(0))}
        v = verify_drawing(k4, GridDrawing.from_points(k4, pos))
        assert v is not None and v.kind == "coincident-vertices"

    def test_drawing_of_another_graph(self):
        # the square drawn for the path 0-1-2-3 is crossing free, but the
        # cycle's edge (0, 3) crosses its edge (1, 2)
        sq = {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(0), F(2)),
              3: (F(2), F(2))}
        g, h = cycle(4), path(4)
        assert verify_drawing(h, GridDrawing.from_points(h, sq)) is None
        assert verify_drawing(g, GridDrawing.from_points(g, sq)) is not None
        with pytest.raises(SizeMismatch):
            verify_drawing(g, GridDrawing.from_points(h, sq))
        # an equal graph built separately is the same graph
        assert verify_drawing(path(4), GridDrawing.from_points(h, sq)) is None

    def test_bent_edge_fold_back(self):
        g = path(2)
        d = GridDrawing.from_points(g, {0: (F(0), F(0)), 1: (F(1), F(0))},
                                    bends={(0, 1): ((F(3), F(0)),)})
        v = verify_drawing(g, d)
        assert v is not None

    def test_orientation_tests_near_linearithmic(self):
        from math import ceil, log2

        class Counted(int):
            """An int whose differences stay counted and whose products are
            counted: the sweep evaluates an orientation test inline as at
            most two products of coordinate differences."""

            def __sub__(self, other):
                return Counted(int(self) - int(other))

            def __rsub__(self, other):
                return Counted(int(other) - int(self))

            def __mul__(self, other):
                calls.append(1)
                return int(self) * int(other)

            __rmul__ = __mul__

        g = random_triangulation(200, 6)
        fs = planar_freeset(g)
        rng = random.Random(200)
        pts: set = set()
        while len(pts) < len(fs.order):
            pts.add((F(rng.randint(-400, 400), rng.randint(1, 9)),
                     F(rng.randint(-400, 400), rng.randint(1, 9))))
        d = free_realize(g, fs, sorted(pts))

        def counted(p):
            return (Counted(p[0]), Counted(p[1]))

        counting = replace(d, xy=[counted(p) for p in d.xy],
                           bend_xy={e: tuple(map(counted, b))
                                    for e, b in d.bend_xy.items()})
        calls = []
        assert verify_drawing(g, counting) is None
        m = len(segments(d))
        assert 0 < len(calls) <= 2 * 8 * m * ceil(log2(m))


class TestTutte:
    def test_k4_center_at_barycenter(self, k4):
        d = tutte_solve(k4, [0, 1, 2], [(0, 0), (4, 0), (0, 4)])
        pos = d.pos
        assert pos[3] == (F(4, 3), F(4, 3))

    def test_interior_barycentric_identity(self):
        g = octahedron()
        outer = [u for u, _ in g.faces[g.outer_face].walk]
        pos = tutte_solve(g, outer, [(0, 0), (8, 0), (0, 8)]).pos
        d = GridDrawing.from_points(g, pos)
        assert verify_drawing(g, d) is None
        # interior vertices satisfy the barycentric identity exactly
        fixed = set(outer)
        for v in range(g.n):
            if v in fixed:
                continue
            nbrs = g.rot[v]
            assert pos[v][0] * len(nbrs) == sum(pos[u][0] for u in nbrs)
            assert pos[v][1] * len(nbrs) == sum(pos[u][1] for u in nbrs)

    def test_large_system_solved_exactly(self):
        # 102 nested triangles, the outer one fixed: 303 interior vertices
        from freeset import embed_from_faces
        layers = 102
        faces = [(0, 2, 1), (3 * layers - 3, 3 * layers - 2, 3 * layers - 1)]
        for i in range(layers - 1):
            for j in range(3):
                a, b = 3 * i + j, 3 * i + (j + 1) % 3
                faces += [(a, b, b + 3), (a, b + 3, a + 3)]
        g = embed_from_faces(3 * layers, faces, outer=(0, 2, 1))
        outer = [u for u, _ in g.faces[g.outer_face].walk]
        assert sorted(outer) == [0, 1, 2]
        pos = tutte_solve(g, outer, [(0, 0), (8, 0), (0, 8)]).pos
        assert verify_drawing(g, GridDrawing.from_points(g, pos)) is None
        for v in range(3, g.n):
            nbrs = g.rot[v]
            assert pos[v][0] * len(nbrs) == sum(pos[u][0] for u in nbrs)
            assert pos[v][1] * len(nbrs) == sum(pos[u][1] for u in nbrs)

    @pytest.mark.parametrize("cycle,positions", [([], []), ([0], [(0, 0)])])
    def test_short_boundary_rejected_before_factoring(
            self, k4, cycle, positions, monkeypatch):
        factored = []
        monkeypatch.setattr(realize, "FractionFreeSolver", factored.append)
        with pytest.raises(SizeMismatch):
            tutte_solve(k4, cycle, positions)
        assert factored == []

    @pytest.mark.parametrize("cycle,text", [
        ([0, 1, 2, 3], "one position per boundary vertex"),
        ([0, 1, 0], "boundary cycle repeats a vertex")])
    def test_bad_boundary_rejected(self, k4, cycle, text):
        with pytest.raises(SizeMismatch, match=f"^{text}$"):
            tutte_solve(k4, cycle, [(0, 0), (4, 0), (0, 4)])

    def test_nonconvex_boundary_degenerates(self, octa):
        outer = [u for u, _ in octa.faces[octa.outer_face].walk]
        other = [v for v in range(6) if v not in outer]
        cycle = outer + [other[0]]
        with pytest.raises(DegenerateOutput, match="tutte"):
            tutte_solve(octa, cycle[:3] + [other[0]],
                        [(0, 0), (4, 0), (2, 1), (2, -5)])


class TestHalfplane:
    def test_star_below(self):
        from freeset import build_embedded
        # hub 3 joined to every vertex of the axis path 0-1-2
        g = build_embedded(4, [[1, 3], [2, 0, 3], [1, 3], [2, 1, 0]])
        pos = draw_half(g, [0, 1, 2], [0, 1, 2], side="below")
        assert pos[3][1] < 0
        for i, v in enumerate([0, 1, 2]):
            assert pos[v] == (F(i), F(0))

    def test_path_identity(self):
        g = path(4)
        pos = draw_half(g, [0, 1, 2, 3], [0, 1, 2, 3], side="below")
        for v in range(4):
            assert pos[v] == (F(v), F(0))

    # 0 and 5 of the octahedron are not adjacent; 0 and 2 of a path are
    # both on the outer face but not adjacent either
    @pytest.mark.parametrize("g,axis", [(octahedron(), [0, 5]),
                                        (path(4), [0, 2])],
                             ids=["octahedron", "path"])
    def test_axis_not_on_outer_face(self, g, axis, monkeypatch):
        built = []
        monkeypatch.setattr(realize, "insert_chords",
                            lambda *args: built.append(args))
        monkeypatch.setattr(realize, "FractionFreeSolver", built.append)
        with pytest.raises(YNotOnOuterFace):
            draw_half(g, axis, [0, 1], side="below")
        assert built == []


def cyclic_form(walk):
    """A face walk (vertex sequence) up to where it starts."""
    walk = list(walk)
    return min(tuple(walk[i:] + walk[:i]) for i in range(len(walk)))


def reference_fill_content_faces(hp, rot, faces, edges):
    """The re-trace loop that ``_HalfPlane._fill_content_faces`` replaced:
    chord the first face of more than three darts that is not known to be
    saturated, then trace every face again.  The apex graph handed in must
    be a valid embedding, with the faces and edges that building it finds."""
    apex_graph = build_embedded(len(rot), rot)
    assert sorted(map(cyclic_form, faces)) == \
        sorted(cyclic_form(f.vertices) for f in apex_graph.faces)
    assert edges == apex_graph.edges
    rot = [list(r) for r in rot]
    edges = set(edges)
    helpers = []
    fixed = set(hp.y) | {hp.apex}
    skipped = set()
    while True:
        target = next((w for w in _trace_faces(rot)[0]
                       if len(w) > 3 and frozenset(w) not in skipped), None)
        if target is None:
            return rot, helpers
        verts = [u for u, _ in target]
        k = len(verts)

        def valid(i, j, want_fixed):
            a, b = verts[i], verts[j]
            return (a != b and (j - i) % k not in (0, 1, k - 1)
                    and not (a in fixed and b in fixed)
                    and not (want_fixed and a not in fixed
                             and b not in fixed)
                    and norm_edge(a, b) not in edges)

        pos = next(((i, j) for want_fixed in (True, False)
                    for i in range(k) for j in range(k)
                    if valid(i, j, want_fixed)), None)
        if pos is None:
            skipped.add(frozenset(target))
            continue
        i, j = pos
        a, b = verts[i], verts[j]
        rot[a].insert(rot[a].index(verts[i - 1]), b)
        rot[b].insert(rot[b].index(verts[j - 1]), a)
        edges.add(norm_edge(a, b))
        helpers.append(norm_edge(a, b))


def graph_builds(monkeypatch):
    """Count EmbeddedGraph constructions: ``builds[0]``."""
    builds = [0]
    init = embedding.EmbeddedGraph.__init__

    def counting(self, *args):
        builds[0] += 1
        init(self, *args)

    monkeypatch.setattr(embedding.EmbeddedGraph, "__init__", counting)
    return builds


def halfplanes(g):
    """The two ``_HalfPlane``s of the collinear system of g's free set."""
    sysm = _collinear_system(planar_freeset(g)._analysis)
    return [sysm.halves[w][0] for w in ("inside", "outside")]


def half_inputs(g) -> list:
    """Both halves of the collinear system of g's free set, inside first,
    as ``_half_embedding`` builds them: ((rot, walks, outer, axis),
    keep)."""
    an = planar_freeset(g)._analysis
    sysm = _collinear_system(an)
    sp = _side_partition_of(an)
    return [realize._half_embedding(an, sp, sysm.mids, sysm.y_order, w)
            for w in ("inside", "outside")]


HALFPLANE_CORPUS = [
    (grid, (4, 5)), (grid, (7, 7)), (maximal_outerplanar, (30, 1)),
    (maximal_outerplanar, (80, 2)), (random_triangulation, (40, 3)),
    (random_triangulation, (120, 4)), (thinned_triangulation, (30, 5)),
    (thinned_triangulation, (60, 6)), (thinned_triangulation, (120, 7)),
]


class TestFillContentFaces:
    @pytest.mark.parametrize(
        "make,args", HALFPLANE_CORPUS,
        ids=[f"{m.__name__}{a}" for m, a in HALFPLANE_CORPUS])
    def test_matches_retrace_loop(self, make, args, monkeypatch):
        g = make(*args)
        built, halves = halfplanes(g), half_inputs(g)
        monkeypatch.setattr(_HalfPlane, "_fill_content_faces",
                            reference_fill_content_faces)
        for hp, (half, _) in zip(built, halves):
            ref = _HalfPlane(*half)
            assert hp.helper_edges == ref.helper_edges
            assert hp.rot == ref.rot

    def test_traces_and_builds_nothing(self, trace_calls, monkeypatch):
        half, _ = half_inputs(thinned_triangulation(120, 7))[0]
        builds = graph_builds(monkeypatch)
        before = trace_calls[0]
        again = _HalfPlane(*half)
        assert len(again.helper_edges) > 10
        # the apex re-validation and the final rebuild made 2 traces
        assert trace_calls[0] - before == 0
        assert builds[0] == 0


@pytest.mark.parametrize("make,args", HALFPLANE_CORPUS,
                         ids=[f"{m.__name__}{a}" for m, a in HALFPLANE_CORPUS])
def test_half_embedding_builds_each_half_once(make, args, trace_calls,
                                              monkeypatch):
    an = planar_freeset(make(*args))._analysis
    sysm = _collinear_system(an)
    sp = _side_partition_of(an)
    builds = graph_builds(monkeypatch)
    for which in ("inside", "outside"):
        before = trace_calls[0], builds[0]
        (rot, walks, outer, axis), keep = realize._half_embedding(
            an, sp, sysm.mids, sysm.y_order, which)
        # one trace, and no graph built
        assert (trace_calls[0], builds[0]) == (before[0] + 1, before[1])
        assert axis == [keep.index(y) for y in sysm.y_order]
        # the outer face is the complement side at the first axis edge
        dart = (axis[1], axis[0]) if which == "inside" else tuple(axis[:2])
        assert dart in walks[outer]


def crosses_bridge(g, cert) -> bool:
    """Whether the certificate crosses an edge with one face on both sides."""
    return any(g.face_of(u, v) == g.face_of(v, u)
               for u, v in cert.crossed_edges())


def lifted_halves(g, cert) -> dict:
    """Reference: the halves built on a subdivided copy of g.

    Every crossed edge is subdivided, the certificate is moved onto the copy
    (a crossing becomes a pass through the midpoint, each face the copy's
    face of one of its darts) and analyzed there again; each half keeps the
    edges whose side class is its own or "along".  Returns which -> (h,
    rel).  On a certificate that crosses no bridge it is the construction
    on g."""
    crossed = sorted(norm_edge(*e) for e in cert.crossed_edges())
    gp = embedding.subdivide(g, crossed)
    mids = {e: g.n + k for k, e in enumerate(crossed)}
    fmap = {}
    for f in g.faces:
        u, v = f.walk[0]
        fmap[f.id] = gp.face_of(u, mids.get(norm_edge(u, v), v))
    lifted = CurveCertificate(
        tuple(VertexItem(mids[norm_edge(*it.edge)])
              if isinstance(it, CrossItem) else it for it in cert.items),
        tuple(None if p is None else fmap[p] for p in cert.passages))
    an = analyze_curve(gp, lifted)
    sp = _side_partition_of(an)
    y_order = lifted.vertex_order()
    m = len(y_order)
    item_of = {it.v: i for i, it in enumerate(lifted.items)
               if isinstance(it, VertexItem)}
    classes = edge_classes(gp, lifted, sp)
    out = {}
    for which in ("inside", "outside"):
        keep_class = {"along", which}

        def keep_edge(u, v):
            return classes[norm_edge(u, v)] in keep_class

        rot_map = {v: [u for u in gp.rot[v] if keep_edge(v, u)]
                   for v in sorted(sp.X if which == "inside" else sp.Z)}
        for yi, y in enumerate(y_order):
            i = item_of[y]
            base = list(gp.rot[y])
            inserts = []
            if yi + 1 < m and an.exit_corner[i] is not None:
                inserts.append((an.exit_corner[i], y_order[yi + 1], 0))
            if yi > 0 and an.entry_corner[i] is not None:
                inserts.append((an.entry_corner[i], y_order[yi - 1], 1))
            flip = 1 if which == "inside" else -1
            for slot, nbr, _ in sorted(inserts,
                                       key=lambda t: (-t[0], flip * t[2])):
                base.insert(slot, nbr)
            axis = {y_order[j] for j in (yi - 1, yi + 1) if 0 <= j < m}
            rot_map[y] = [u for u in base if u in axis
                          or (gp.has_edge(y, u) and keep_edge(y, u))]
        keep = sorted(rot_map)
        rel = {v: i for i, v in enumerate(keep)}
        y0r, y1r = rel[y_order[0]], rel[y_order[1]]
        h = embedding._rebuild([[rel[u] for u in rot_map[v]] for v in keep],
                               (y1r, y0r) if which == "inside" else (y0r, y1r))
        out[which] = (h, rel)
    return out


class TestHalvesOnG:
    """Each half is built from g and the one analysis of the certificate
    on g: the same halves as the subdivided reference wherever the
    certificate crosses no bridge, and the sides of ``side_partition``
    where it does."""

    @staticmethod
    def same_as_lifted(g) -> bool:
        """Whether g's certificate crosses no bridge; if so, assert that
        both halves equal the reference's."""
        fs = planar_freeset(g)
        cert = fs.certificate
        if crosses_bridge(g, cert):
            return False
        sysm = _collinear_system(fs._analysis)
        ref = lifted_halves(g, cert)
        for which, ((rot, walks, outer, axis), keep) in zip(
                ("inside", "outside"), half_inputs(g)):
            h, rel = ref[which]
            assert (tuple(map(tuple, rot)), outer) == (h.rot, h.outer_face)
            assert list(map(tuple, walks)) == [f.walk for f in h.faces]
            assert {v: i for i, v in enumerate(keep)} == rel
            assert axis == [rel[y] for y in sysm.y_order]
            hp, kept = sysm.halves[which]
            assert kept == keep
            assert hp.rot == half_plane(h, axis).rot
        return True

    @staticmethod
    def assert_sides(g):
        """The collinear drawing of g's free set puts ``side_partition``'s
        X below the axis, its Z above and its Y on it."""
        fs = planar_freeset(g)
        sp = side_partition(g, fs.certificate)
        d = realize_collinear(g, fs, range(len(fs.order)))
        assert all(d.pos[v][1] < 0 for v in sp.X)
        assert all(d.pos[v][1] > 0 for v in sp.Z)
        assert {v for v in range(g.n) if d.pos[v][1] == 0} == set(sp.Y)

    @pytest.mark.parametrize(
        "make,args", HALFPLANE_CORPUS,
        ids=[f"{m.__name__}{a}" for m, a in HALFPLANE_CORPUS])
    def test_corpus(self, make, args):
        g = make(*args)
        if not self.same_as_lifted(g):
            self.assert_sides(g)

    @pytest.mark.parametrize("n", range(6, 41, 2))
    def test_thinned_sweep(self, n):
        """The 90 graphs of ``test_thinned_end_to_end`` for this n; about
        half of their certificates cross a bridge."""
        compared = 0
        for s in range(1, 31):
            for keep in (0.3, 0.45, 0.6):
                g = thinned_triangulation(n, s, keep)
                if self.same_as_lifted(g):
                    compared += 1
                else:
                    self.assert_sides(g)
        assert compared >= 40

    def test_bridge_crossings_keep_sides(self):
        # the subdivided reference could pass a bridge's midpoint through
        # one corner and put both ends of the bridge on one side
        graphs = [thinned_triangulation(n, s) for n in (20, 30, 40)
                  for s in range(1, 12)]
        crossing = [g for g in graphs
                    if crosses_bridge(g, planar_freeset(g).certificate)]
        assert len(crossing) >= 10
        for g in crossing:
            self.assert_sides(g)


def assert_axis_premise(g):
    """The premise of the ``_HalfPlane`` lemma, which the proper
    certificate gives and nothing checks before the augmented halves are
    traced: on both halves of g's free set the rotation lists are
    symmetric and simple, the axis has at least two vertices, all
    distinct, and every edge of the half between two axis vertices joins
    consecutive ones."""
    for (rot, _, _, axis), _ in half_inputs(g):
        at = {v: i for i, v in enumerate(axis)}
        assert len(axis) >= 2 and len(at) == len(axis)
        for v, nbrs in enumerate(rot):
            assert v not in nbrs and len(set(nbrs)) == len(nbrs)
            assert all(v in rot[u] for u in nbrs)
            for u in nbrs:
                if u in at and v in at:
                    assert abs(at[u] - at[v]) == 1, (u, v, axis)


class TestAxisPremise:
    @pytest.mark.parametrize(
        "make,args", HALFPLANE_CORPUS,
        ids=[f"{m.__name__}{a}" for m, a in HALFPLANE_CORPUS])
    def test_corpus(self, make, args):
        assert_axis_premise(make(*args))

    @pytest.mark.parametrize("n", range(6, 41, 2))
    def test_thinned_sweep(self, n):
        """The 90 graphs of ``TestHalvesOnG.test_thinned_sweep``."""
        for s in range(1, 31):
            for keep in (0.3, 0.45, 0.6):
                assert_axis_premise(thinned_triangulation(n, s, keep))


def locked(rot, yset, apex):
    """Free vertices (neither on the axis nor the apex) with no path
    through free vertices to a neighbor of the apex: the vertices the
    helper-edge repair used to pull off the axis."""
    free_ = [v for v in range(len(rot)) if v not in yset and v != apex]
    reached = set()
    stack = [v for v in free_ if apex in rot[v]]
    reached.update(stack)
    while stack:
        v = stack.pop()
        for u in rot[v]:
            if u in yset or u == apex or u in reached:
                continue
            reached.add(u)
            stack.append(u)
    return sorted(v for v in free_ if v not in reached)


def outer_paths(g):
    """Every axis that can be drawn on g: each path of two or more distinct
    vertices along the outer walk, in both directions, with no edge between
    two axis vertices that are not consecutive (it would lie on the axis)."""
    walk = [u for u, _ in g.faces[g.outer_face].walk]
    k = len(walk)
    axes = set()
    for start in range(k):
        for length in range(2, k + 1):
            run = tuple(walk[(start + i) % k] for i in range(length))
            if len(set(run)) == length and not any(
                    g.has_edge(run[i], run[j])
                    for i in range(length) for j in range(i + 2, length)):
                axes.update((run, run[::-1]))
    return sorted(axes)


THINNED_GRAPHS = [(n, s, keep) for n in range(5, 9) for s in range(1, 25)
                for keep in (0.3, 0.4, 0.5)]


class TestAugmentationInvariant:
    """The chords alone pull every free vertex off the axis: each has
    degree three or more and reaches the apex through free vertices.  The
    augmented graph meets the lemma of ``_HalfPlane``: its outer face is
    exactly axis + apex, and every face that touches a free vertex is a
    triangle."""

    @staticmethod
    def assert_pulled(hp):
        yset = set(hp.y)
        free_ = {v for v in range(len(hp.rot))
                 if v not in yset and v != hp.apex}
        assert all(len(hp.rot[v]) >= 3 for v in free_)
        assert locked(hp.rot, yset, hp.apex) == []
        outer = {cyclic_form([hp.apex, *hp.y]),
                 cyclic_form([hp.apex, *hp.y[::-1]])}
        faces = [[u for u, _ in w] for w in _trace_faces(hp.rot)[0]]
        assert any(cyclic_form(f) in outer for f in faces)
        for f in faces:
            if free_.isdisjoint(f):
                assert cyclic_form(f) in outer
            else:
                assert len(f) == 3 and len(set(f)) == 3

    @pytest.mark.parametrize(
        "make,args", HALFPLANE_CORPUS,
        ids=[f"{m.__name__}{a}" for m, a in HALFPLANE_CORPUS])
    def test_collinear_halves(self, make, args):
        for hp in halfplanes(make(*args)):
            self.assert_pulled(hp)

    @pytest.mark.parametrize("g", [path(n) for n in range(2, 7)]
                             + [fan(n) for n in range(3, 8)]
                             + [thinned_triangulation(*a)
                                for a in THINNED_GRAPHS],
                             ids=[f"path{n}" for n in range(2, 7)]
                             + [f"fan{n}" for n in range(3, 8)]
                             + [f"thinned{a}" for a in THINNED_GRAPHS])
    def test_every_outer_axis(self, g):
        for axis in outer_paths(g):
            hp = half_plane(g, axis)
            half_drawing(g, hp, range(len(axis)), "below")
            self.assert_pulled(hp)

    def test_locked_detected(self):
        # 2 hangs off the axis 0-1 with no link to the apex 3
        assert locked([[1, 3, 2], [0, 3], [0], [0, 1]], {0, 1}, 3) == [2]


class TestRealizeCollinear:
    def test_single_edge(self):
        g = path(2)
        fs = planar_freeset(g)
        d = realize_collinear(g, fs, [0, 1])
        assert d.verified
        assert sorted(d.pos.values()) == [(F(0), F(0)), (F(1), F(0))]

    def test_k4_antichain(self, k4):
        fs = antichain_pair(k4)
        d = realize_collinear(k4, fs, [0, 1])
        assert d.pos[3] == (F(0), F(0))
        assert d.pos[2] == (F(1), F(0))
        assert list(d.bend_xy) == [(0, 1)]
        # below-half strictly below, above-half strictly above
        ys = {v: d.pos[v][1] for v in (0, 1)}
        assert min(ys.values()) < 0 < max(ys.values())

    def test_axis_edges_disjoint(self):
        g = random_triangulation(30, 21)
        fs = planar_freeset(g)
        xs = list(range(len(fs.order)))
        d = realize_collinear(g, fs, xs)
        axis = sorted(p for p in d.pos.values() if p[1] == 0)
        assert len(set(axis)) == len(axis)

    def test_sides_match_partition(self):
        from freeset.curves import side_partition
        g = random_triangulation(40, 33)
        fs = planar_freeset(g)
        sp = side_partition(g, fs.certificate)
        d = realize_collinear(g, fs, list(range(len(fs.order))))
        for v in sp.X:
            assert d.pos[v][1] < 0
        for v in sp.Z:
            assert d.pos[v][1] > 0
        for v in sp.Y:
            assert d.pos[v][1] == 0

    def test_wrong_count(self, k4):
        fs = antichain_pair(k4)
        with pytest.raises(SizeMismatch):
            realize_collinear(k4, fs, [0, 1, 2])

    @pytest.mark.parametrize("xs", [[1, 0], [0, 0]])
    def test_positions_not_increasing(self, k4, xs):
        with pytest.raises(SizeMismatch, match="^x positions must be "
                           "strictly increasing$"):
            realize_collinear(k4, antichain_pair(k4), xs)

    def test_free_set_of_another_graph(self, k4, octa):
        with pytest.raises(SizeMismatch, match="^free set does not belong "
                           "to this graph$"):
            realize_collinear(octa, antichain_pair(k4), [0, 1])

    def test_one_curve_vertex(self):
        # valid on path(2): the curve spikes through the one corner of 0
        g = path(2)
        fs = OrderedFreeSet(g, (0,), CurveCertificate((VertexItem(0),), (0,)),
                            "test", "-")
        with pytest.raises(InvalidCurve, match="^collinear realization "
                           "needs at least two curve vertices$"):
            realize_collinear(g, fs, [0])

    def test_certificate_starting_after_an_along_item(self):
        # item 0 of the rotated certificate follows an along item, so its
        # last and first vertex items are joined by an along edge; the axis
        # starts at the first item that follows a face passage
        g = random_triangulation(30, 1)
        fs = planar_freeset(g)
        cert = fs.certificate.rotated(2)
        start = next(i for i, p in enumerate(cert.passages) if p is not None)
        assert cert.passages[-1] is None and start > 0
        members = set(fs.order)
        rotated = OrderedFreeSet(
            graph=g, certificate=cert, provenance="rotated", bound_met="",
            order=tuple(v for v in cert.vertex_order() if v in members))
        axis = [v for v in cert.rotated(start + 1).vertex_order()
                if v in members]
        assert axis != list(rotated.order)
        rng = random.Random(7)
        pts = [(F(k, 3), F(rng.randint(-90, 90), 7)) for k in range(len(axis))]
        d = free_realize(g, rotated, pts)
        assert d.verified and verify_drawing(g, d) is None
        assert [d.pos[v] for v in axis] == pts


def least_shear(pts) -> int:
    """The least t >= 0 with distinct x + t*y over the points, by trying
    t = 0, 1, 2, ... in turn: the reference for ``_shear_keys``."""
    t = 0
    while len({x + t * y for x, y in pts}) < len(pts):
        t += 1
    return t


def two_rows(k: int, y=1) -> list:
    """(ik, 0) and (-j, y) for i, j < k: for y = 1 every t below k² sends
    two of them to one x + t*y."""
    return [(F(i * k), F(0)) for i in range(k)] + \
        [(F(-j), F(y)) for j in range(k)]


class TestPerturbAndFree:
    def test_zero_targets_identity(self, k4):
        fs = antichain_pair(k4)
        d = realize_collinear(k4, fs, [0, 1])
        d2 = perturb_scale(d, fs, [0, 0])
        assert d2.pos == d.pos

    @pytest.mark.parametrize("targets", [[1], [1, 2, 3]])
    def test_target_count(self, k4, targets):
        fs = antichain_pair(k4)
        d = realize_collinear(k4, fs, [0, 1])
        with pytest.raises(SizeMismatch, match="^one target height per "
                           "free-set member$"):
            perturb_scale(d, fs, targets)

    def test_k4_exact_targets(self, k4):
        fs = antichain_pair(k4)
        d = realize_collinear(k4, fs, [0, 1])
        d2 = perturb_scale(d, fs, [3, -2])
        assert d2.pos[3] == (F(0), F(3))
        assert d2.pos[2] == (F(1), F(-2))
        assert d2.verified

    def test_extreme_target_hits_exactly(self, k4):
        fs = antichain_pair(k4)
        d = realize_collinear(k4, fs, [0, 1])
        d2 = perturb_scale(d, fs, [F(22, 7), F(-1, 3)])
        assert d2.pos[3] == (F(0), F(22, 7))
        assert d2.pos[2] == (F(1), F(-1, 3))

    def test_free_set_off_axis_rejected(self, k4):
        # the lift's bound assumes the free set starts on the axis
        fs = antichain_pair(k4)
        d = realize_collinear(k4, fs, [0, 1])
        lifted = GridDrawing.from_points(k4, {**d.pos, 3: (F(0), F(1, 2))},
                                         bends=bend_points(d))
        for targets in ([3, -2], [0, 0]):
            with pytest.raises(SizeMismatch, match="vertex 3 is not on"):
                perturb_scale(lifted, fs, targets)

    def test_free_realize_duplicate_x(self, k4):
        fs = antichain_pair(k4)
        d = free_realize(k4, fs, [(0, 0), (0, 1)])
        assert {d.pos[3], d.pos[2]} == {(F(0), F(0)), (F(0), F(1))}

    def test_shear_is_least_t(self):
        # t = 0 repeats x = 0 and x = 1; t = 1 sends (0, 1) and (1, 0) to 1
        pts = [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(2))]
        t, keys, den = _shear_keys(pts)
        assert t == 2
        sheared = [(F(x + t * y, den), F(y, den)) for x, y in keys]
        assert sheared == [(F(0), F(0)), (F(2), F(1)), (F(1), F(0)),
                           (F(5), F(2))]
        assert [(x - t * y, y) for x, y in sheared] == pts

    def test_shear_drawing_round_trip(self):
        g = path(3)
        d = GridDrawing(graph=g, xy=[(0, 0), (4, 1), (8, 0)],
                        bend_xy={(1, 2): ((6, 2),)}, dx=2, dy=1, verified=True)
        sheared = _shear_drawing(d, 3)
        assert sheared.pos[1] == (F(5), F(1))
        assert bend_points(sheared)[(1, 2)] == ((F(9), F(2)),)
        assert sheared.verified and verify_drawing(g, sheared) is None
        assert _shear_drawing(sheared, -3) == d
        assert _shear_drawing(d, 0) is d

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(st.lists(st.tuples(st.integers(-2, 2),
                              st.fractions(-3, 3, max_denominator=3)),
                    min_size=1, max_size=12, unique=True))
    def test_shear_property(self, pts):
        # few x values force repeats; the least t is at most the pair count
        t, keys, den = _shear_keys(pts)
        sheared = [(F(x + t * y, den), F(y, den)) for x, y in keys]
        assert 0 <= t <= len(pts) * (len(pts) - 1) // 2
        assert len({x for x, _ in sheared}) == len(pts)
        assert [(x - t * y, y) for x, y in sheared] == pts
        for s in range(t):
            assert len({x + s * y for x, y in pts}) < len(pts)

    def test_shear_of_dense_rows_matches_the_loop(self):
        # two rows of x's dense near 0, y = 0 and y = 1, so that x + t*y
        # collides for most small t, and a stray point or two off them
        past = 0
        for seed in range(80):
            rng = random.Random(seed)
            a, b = rng.randint(1, 8), rng.randint(1, 8)
            pts = {(F(x), F(0)) for x in
                   {0, *rng.sample(range(1, 2 * a), a - 1)}}
            pts |= {(F(-x), F(1)) for x in
                    {0, *rng.sample(range(1, 2 * b), b - 1)}}
            pts |= {(F(rng.randint(-9, 9)), F(rng.randint(-3, 3), 2))
                    for _ in range(rng.randint(0, 2))}
            t = least_shear(pts)
            assert _shear_keys(sorted(pts))[0] == t
            past += t >= len(pts)
        assert past > 0  # some sets need more tries than they have points

    @pytest.mark.parametrize("y", [1, 2, -3, F(1, 2), F(4, 3)])
    def test_shear_of_two_rows_matches_the_loop(self, y):
        for k in range(1, 9):
            pts = two_rows(k, y)
            assert _shear_keys(pts)[0] == least_shear(pts)

    def test_shear_of_two_rows_of_200(self):
        # t = 200² = 40,000; the loop alone would build that many sets of
        # 400 keys, and a set of the pairs' values would hold 40,000 ints
        # (3.3 MiB under tracemalloc)
        pts = two_rows(200)
        tracemalloc.start()
        try:
            t = _shear_keys(pts)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == 200 ** 2
        assert peak < 2 ** 20  # one byte per pair: 79,800 bytes

    def test_free_realize_mismatch(self, k4):
        fs = antichain_pair(k4)
        with pytest.raises(SizeMismatch):
            free_realize(k4, fs, [(0, 0)])
        for pts in ([(0, 0), (0, 0)], [(1, F(1, 2)), (F(2, 2), F(2, 4))]):
            with pytest.raises(SizeMismatch, match="^points must be distinct$"):
                free_realize(k4, fs, pts)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pointsets(self, seed):
        rng = random.Random(seed)
        g = random_triangulation(rng.randint(8, 40), seed + 100)
        fs = planar_freeset(g)
        pts = set()
        while len(pts) < len(fs.order):
            pts.add((F(rng.randint(-60, 60), rng.randint(1, 9)),
                     F(rng.randint(-60, 60), rng.randint(1, 9))))
        d = free_realize(g, fs, sorted(pts))
        assert d.verified
        assert {d.pos[v] for v in fs.order} == pts

    @pytest.mark.parametrize("n", range(6, 41, 2))
    def test_thinned_end_to_end(self, n):
        """planar_freeset's own certificate realizes on every thinned
        triangulation: 90 graphs per n, one general point set each.  Each
        drawing, checked on its halves' triangles, passes the sweep too."""
        failed = []
        for s in range(1, 31):
            for keep in (0.3, 0.45, 0.6):
                g = thinned_triangulation(n, s, keep)
                fs = planar_freeset(g)
                pts = point_set("general", len(fs.order), random.Random(5))
                try:
                    d = free_realize(g, fs, pts)
                except FreesetError as exc:
                    failed.append((s, keep, type(exc).__name__))
                    continue
                assert d.verified and verify_drawing(g, d) is None
                assert [d.pos[v] for v in fs.order] == pts
        assert failed == []


# family -> (least n, graph of about n vertices from a seed); a grid has
# 2 to 4 rows of at most n / 3 cells, and a fixed solid ignores n and the
# seed
ROUND_TRIP_FAMILIES = {
    "path": (2, lambda n, seed: path(n)),
    "cycle": (3, lambda n, seed: cycle(n)),
    "star": (2, lambda n, seed: star(n)),
    "fan": (3, lambda n, seed: fan(n)),
    "tree": (2, _random_tree),
    "outerplanar": (3, maximal_outerplanar),
    "triangulation": (3, random_triangulation),
    "grid": (4, lambda n, seed: grid(2 + seed % 3, max(2, n // 3))),
    "stacked": (3, stacked_3tree),
    "octahedron": (6, lambda n, seed: octahedron()),
    "icosahedron": (12, lambda n, seed: icosahedron()),
    "goldner-harary": (11, lambda n, seed: goldner_harary()),
}


@st.composite
def realization_inputs(draw):
    """A graph of one of the families with at most 30 vertices, its
    extracted free set and distinct rational points, one per member."""
    low, make = ROUND_TRIP_FAMILIES[draw(st.sampled_from(
        sorted(ROUND_TRIP_FAMILIES)))]
    g = make(draw(st.integers(low, 30)), draw(st.integers(0, 999)))
    fs = planar_freeset(g)
    coord = st.fractions(-50, 50, max_denominator=9)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=len(fs.order),
                        max_size=len(fs.order), unique=True))
    return g, fs, pts


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(realization_inputs())
def test_realized_drawing_round_trips(inputs):
    # extract, realize on the points, print, and parse with the sweep
    g, fs, pts = inputs
    d = free_realize(g, fs, pts)
    back = parse_drawing(serialize_drawing(d), g, verify=True)
    assert back.pos == d.pos and bend_points(back) == bend_points(d)
    assert {back.pos[v] for v in fs.order} == set(pts)


class TestVerifyOnce:
    """Each public entry point runs one exact check on success: the
    halves' triangle check (``_checked_halves``) on the realization path,
    the sweep (``verify_drawing``) on the drawings of ``tutte_solve`` and
    of a lone half-plane."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The checks that passed, in order: ("sweep", provenance) per
        sweep, and per triangle check a ``TriangleCheck``, whose first two
        fields are "triangles" and the stage."""
        seen = []
        sweep = realize.verify_drawing

        def counting_sweep(g, d):
            seen.append(("sweep", d.provenance))
            return sweep(g, d)

        monkeypatch.setattr(realize, "verify_drawing", counting_sweep)
        with triangle_checks(seen):
            yield seen

    @pytest.fixture
    def failing(self, monkeypatch):
        """Checks that reject the first ``budget[0]`` drawings."""
        import freeset.realize as realize
        budget = [0]
        seen = []
        sweep, triangles = realize.verify_drawing, realize._checked_halves

        def fake_sweep(g, d):
            seen.append(d.provenance)
            if len(seen) <= budget[0]:
                return DrawingViolation("crossing", "injected")
            return sweep(g, d)

        def fake_triangles(pts, sysm, stage):
            seen.append(stage)
            if len(seen) <= budget[0]:
                raise realize._degenerate(stage, DrawingViolation(
                    "crossing", "injected"))
            return triangles(pts, sysm, stage)

        monkeypatch.setattr(realize, "verify_drawing", fake_sweep)
        monkeypatch.setattr(realize, "_checked_halves", fake_triangles)
        return budget, seen

    def test_free_realize_once(self, k4, calls):
        fs = antichain_pair(k4)
        d = free_realize(k4, fs, [(0, 3), (1, -2)])
        assert d.verified and [c[:2] for c in calls] == [("triangles",
                                                          "perturb")]
        assert calls[0].drawing.xy == d.xy

    def test_free_realize_once_larger(self, calls):
        g = random_triangulation(60, 5)
        fs = planar_freeset(g)
        pts = [(F(i), F((-1) ** i * (i + 1))) for i in range(len(fs.order))]
        d = free_realize(g, fs, pts)
        assert d.verified and [c[0] for c in calls] == ["triangles"]

    @pytest.mark.parametrize("make,n", [(maximal_outerplanar, 150),
                                        (random_triangulation, 1200)],
                             ids=["outerplanar150", "triangulation1200"])
    def test_free_realize_once_nested_and_large(self, make, n, calls):
        # nested half drawings, and a size at which the float estimate of
        # epsilon ran out of halvings
        g = make(n, 1)
        fs = planar_freeset(g)
        pts = point_set("general", len(fs.order), random.Random(5))
        d = free_realize(g, fs, pts)
        assert d.verified and [c[0] for c in calls] == ["triangles"]
        assert {d.pos[v] for v in fs.order} == set(pts)

    @pytest.mark.parametrize("targets,stage,provenance", [
        ([3, -2], "perturb", "collinear[antichain]+perturbed"),
        ([0, 0], "collinear", "collinear[antichain]")], ids=["lift", "zero"])
    def test_perturb_scale_once(self, k4, calls, targets, stage, provenance):
        fs = antichain_pair(k4)
        base = realize_collinear(k4, fs, [0, 1])
        calls.clear()
        d = perturb_scale(base, fs, targets)
        assert d.verified and [c[:2] for c in calls] == [("triangles",
                                                          stage)]
        assert calls[0].drawing.xy == d.xy
        assert d.provenance == provenance

    def test_zero_targets_check_base_once(self, k4, calls):
        fs = antichain_pair(k4)
        d = free_realize(k4, fs, [(0, 0), (1, 0)])
        assert d.verified and [c[:2] for c in calls] == [("triangles",
                                                          "collinear")]

    def test_realize_collinear_once(self, k4, calls):
        d = realize_collinear(k4, antichain_pair(k4), [0, 1])
        assert [c[:2] for c in calls] == [("triangles", "collinear")]
        assert d.provenance == "collinear[antichain]"

    def test_halfplane_draw_once(self, calls):
        draw_half(path(4), [0, 1, 2, 3], [0, 1, 2, 3], side="below")
        assert calls == [("sweep", "halfplane")]

    def test_base_checked_after_rejected_candidate(self, k4, failing):
        # epsilon comes from the triangles: a rejected candidate raises at
        # once, and the base is not checked after it
        budget, seen = failing
        budget[0] = 1
        with pytest.raises(DegenerateOutput,
                           match="perturb drawing failed verification: "
                                 "crossing: injected"):
            free_realize(k4, antichain_pair(k4), [(0, 3), (1, -2)])
        assert len(seen) == 1

    def test_one_rejection_names_stage(self, k4, failing):
        # each entry point solves once and checks once: one rejected check
        # raises, naming the stage (zero targets: the base check is the one)
        budget, seen = failing
        fs = antichain_pair(k4)
        cases = [
            ("collinear", lambda: free_realize(k4, fs, [(0, 0), (1, 0)])),
            ("collinear", lambda: realize_collinear(k4, fs, [0, 1])),
            ("halfplane", lambda: draw_half(path(3), [0, 1, 2], [0, 1, 2])),
            ("tutte", lambda: tutte_solve(k4, [0, 1, 2],
                                          [(0, 0), (4, 0), (0, 4)])),
        ]
        for stage, call in cases:
            seen.clear()
            budget[0] = 1
            with pytest.raises(DegenerateOutput,
                               match=f"{stage} drawing failed verification: "
                                     "crossing: injected"):
                call()
            assert len(seen) == 1

    def test_wrong_side_is_a_flipped_triangle(self, k4, calls, monkeypatch):
        # the inside half drawn above the axis: its triangles turn
        # clockwise; free_realize's lift finds that before any check, and
        # realize_collinear's zero lift in the pass that sizes its rounding,
        # before the one check
        real = _HalfPlane.solve

        def upside_down(hp, xs, den, side):
            return real(hp, xs, den, "above" if side == "below" else side)

        monkeypatch.setattr(_HalfPlane, "solve", upside_down)
        fs = antichain_pair(k4)
        for call in (lambda: free_realize(k4, fs, [(0, 3), (1, -2)]),
                     lambda: realize_collinear(k4, fs, [0, 1])):
            calls.clear()
            with pytest.raises(DegenerateOutput,
                               match="^collinear drawing failed verification: "
                                     "flipped-triangle: the inside half's "
                                     "triangle "):
                call()
            assert calls == []

    def test_forged_verified_flag_is_checked(self, k4):
        # a drawing marked verified with vertex 0 on vertex 1: the flag is
        # not read, and zero targets check it as any others do
        fs = antichain_pair(k4)
        d = realize_collinear(k4, fs, [0, 1])
        forged = replace(GridDrawing.from_points(
            k4, {**d.pos, 0: d.pos[1]}, bends=bend_points(d)), verified=True)
        assert verify_drawing(k4, forged).kind == "coincident-vertices"
        for targets in ([0, 0], [3, -2]):
            with pytest.raises(DegenerateOutput,
                               match="^collinear drawing failed verification: "
                                     "flipped-triangle: the inside half's "
                                     "triangle 0, 2, 3 is clockwise$"):
                perturb_scale(forged, fs, targets)

    def test_unverified_broken_base_is_not_halved(self, k4, calls):
        # a vertex on another in the base: a triangle of the inside half
        # turns clockwise, so perturbation raises before any check
        fs = antichain_pair(k4)
        d = realize_collinear(k4, fs, [0, 1])
        broken = GridDrawing.from_points(k4, {**d.pos, 0: d.pos[1]},
                                         bends=bend_points(d))
        calls.clear()
        with pytest.raises(DegenerateOutput,
                           match="^collinear drawing failed verification: "
                                 "flipped-triangle: the inside half's "
                                 "triangle 0, 2, 3 is clockwise$"):
            perturb_scale(broken, fs, [3, -2])
        assert calls == []


class TestLiftsPerRealization:
    """Exact lifts (``FractionFreeSolver.solve`` calls) per entry point.

    Each half-plane lifts its heights once when it is built; a solve for
    new axis positions then lifts only the x's."""

    @pytest.fixture
    def lifts(self, monkeypatch):
        seen = []
        real = realize.FractionFreeSolver.solve

        def counting(solver, *args):
            seen.append(1)
            return real(solver, *args)

        monkeypatch.setattr(realize.FractionFreeSolver, "solve", counting)
        return seen

    def test_warm_free_realize_lifts_x_only(self, lifts):
        g = random_triangulation(60, 5)
        fs = planar_freeset(g)
        rng = random.Random(5)
        cold = free_realize(g, fs, point_set("general", len(fs.order), rng))
        assert cold.verified and len(lifts) == 4
        lifts.clear()
        warm = free_realize(g, fs, point_set("repeated-x", len(fs.order),
                                             rng))
        assert warm.verified and len(lifts) == 2

    def test_halfplane_draw_two_lifts(self, lifts):
        draw_half(path(4), [0, 1], [0, 1], side="above")
        assert len(lifts) == 2

    def test_tutte_solve_two_lifts(self, k4, lifts):
        tutte_solve(k4, [0, 1, 2], [(0, 0), (4, 0), (0, 4)])
        assert len(lifts) == 2


class TestChecksPerRealization:
    """Sweeps, face traces and disk checks per entry point.

    The sweep runs only on drawings the program did not build, so untangle
    sweeps its input once and realization sweeps nothing.  Each half's
    faces are traced twice when the collinear system is built, once before
    the augmentation (``_half_embedding``) and once after, when they are
    checked to be a triangulated disk: four traces and two disk checks for
    a cold realization, none for a warm one."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"sweep": 0, "trace": 0, "disk": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        sweep = counting("sweep", realize.verify_drawing)
        monkeypatch.setattr(realize, "verify_drawing", sweep)
        monkeypatch.setattr(applications, "verify_drawing", sweep)
        monkeypatch.setattr(realize, "_trace_faces",
                            counting("trace", realize._trace_faces))
        monkeypatch.setattr(realize, "_half_triangles",
                            counting("disk", realize._half_triangles))
        return seen

    def test_free_realize(self, counts):
        g = random_triangulation(60, 8)
        fs = planar_freeset(g)
        rng = random.Random(8)
        for style, cost in (("general", 2), ("repeated-x", 0),
                            ("coprime", 0)):
            for k in counts:
                counts[k] = 0
            d = free_realize(g, fs, point_set(style, len(fs.order), rng))
            assert d.verified
            assert counts == {"sweep": 0, "trace": 2 * cost, "disk": cost}

    def test_realize_collinear(self, counts):
        g = random_triangulation(40, 9)
        fs = planar_freeset(g)
        for cost in (2, 0):
            for k in counts:
                counts[k] = 0
            assert realize_collinear(g, fs, range(len(fs.order))).verified
            assert counts == {"sweep": 0, "trace": 2 * cost, "disk": cost}

    def test_psge_two(self, counts):
        res = psge_two(random_triangulation(30, 10),
                       random_triangulation(30, 11))
        assert all(d.verified for d in res.drawings)
        assert counts == {"sweep": 0, "trace": 8, "disk": 4}

    def test_untangle(self, counts):
        g = random_triangulation(40, 12)
        rng = random.Random(12)
        pos = {v: (F(rng.randint(-99, 99)), F(rng.randint(-99, 99)))
               for v in range(g.n)}
        res = untangle(g, pos)
        assert res.drawing.verified and len(res.fixed) < g.n
        assert counts == {"sweep": 1, "trace": 4, "disk": 2}


class TestNoFractionsPerRealization:
    """A realized drawing stays on its integer grid up to the printed text.

    ``GridDrawing.pos`` is the only place that builds Fractions of a
    realized drawing, and printing a drawing does not read it: a
    realization followed by ``serialize_drawing`` builds none, and checks
    each realized drawing once, on the triangles of its halves."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"pos": 0, "triangles": 0, "sweep": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        pos = GridDrawing.__dict__["pos"].func
        monkeypatch.setattr(GridDrawing, "pos",
                            property(counting("pos", pos)))
        monkeypatch.setattr(realize, "_checked_halves",
                            counting("triangles", realize._checked_halves))
        sweep = counting("sweep", realize.verify_drawing)
        monkeypatch.setattr(realize, "verify_drawing", sweep)
        monkeypatch.setattr(applications, "verify_drawing", sweep)
        return seen

    def test_free_realize_then_print(self, counts):
        g = random_triangulation(60, 8)
        fs = planar_freeset(g)
        rng = random.Random(8)
        for style in ("general", "collinear", "repeated-x", "coprime"):
            for k in counts:
                counts[k] = 0
            d = free_realize(g, fs, point_set(style, len(fs.order), rng))
            assert isinstance(d, GridDrawing) and d.verified
            assert serialize_drawing(d).startswith("P 0 ")
            assert counts == {"pos": 0, "triangles": 1, "sweep": 0}

    def test_untangle_then_print(self, counts):
        g = random_triangulation(40, 12)
        rng = random.Random(12)
        pos = {v: (F(rng.randint(-99, 99)), F(rng.randint(-99, 99)))
               for v in range(g.n)}
        res = untangle(g, pos)
        assert isinstance(res.drawing, GridDrawing) and len(res.fixed) < g.n
        serialize_drawing(res.drawing)
        # the sweep is of the input drawing
        assert counts == {"pos": 0, "triangles": 1, "sweep": 1}

    def test_psge_two_then_print(self, counts):
        res = psge_two(random_triangulation(30, 10),
                       random_triangulation(30, 11))
        for d in res.drawings:
            assert isinstance(d, GridDrawing)
            serialize_drawing(d)
        assert counts == {"pos": 0, "triangles": 2, "sweep": 0}


class TestOneAnalysis:
    """A certificate is analyzed once, when its free set is made.

    Realization reads the analysis the free set carries and keeps its
    collinear system on it, so a restriction or a second realization of
    the same set analyzes and builds nothing."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        seen = []
        analyze = curves._analyze

        def counting(g, cert):
            seen.append(cert)
            return analyze(g, cert)

        monkeypatch.setattr(curves, "_analyze", counting)
        return seen

    def test_extract_then_realize(self, analyses):
        g = random_triangulation(40, 3)
        fs = planar_freeset(g)
        rng = random.Random(3)
        free_realize(g, fs, point_set("general", len(fs.order), rng))
        assert analyses == [fs.certificate]
        free_realize(g, fs, point_set("repeated-x", len(fs.order), rng))
        assert len(analyses) == 1

    def test_parse_then_realize(self, analyses):
        g = random_triangulation(40, 4)
        text = serialize_freeset(planar_freeset(g))
        analyses.clear()
        fs = parse_freeset(text, g)
        free_realize(g, fs, point_set("general", len(fs.order),
                                      random.Random(4)))
        assert analyses == [fs.certificate]

    @pytest.mark.parametrize("sign", [1, -1], ids=["increasing", "reversed"])
    def test_untangle(self, analyses, sign):
        # the free set's x's run one way, every other vertex sits far off
        # to the right: untangle keeps the set, and realizes it on the
        # half-turned points when the x's decrease along it
        g = random_triangulation(40, 5)
        order = planar_freeset(g).order
        analyses.clear()
        rng = random.Random(5)
        rank = {v: k for k, v in enumerate(order)}
        pos = {v: (F(sign * rank[v]) if v in rank else F(1000 + v),
                   F(rng.randint(-50, 50))) for v in range(g.n)}
        res = untangle(g, pos)
        assert res.fixed and len(res.fixed) < g.n
        assert len(analyses) == 1

    def test_round_robin_builds_each_system_once(self, monkeypatch):
        built = []
        real = realize._CollinearSystem

        def counting(**kwargs):
            built.append(1)
            return real(**kwargs)

        monkeypatch.setattr(realize, "_CollinearSystem", counting)
        sets = [(g, planar_freeset(g)) for g in
                (random_triangulation(12, s) for s in range(30))]
        rng = random.Random(6)
        for _ in range(2):
            for g, fs in sets:
                d = free_realize(g, fs, point_set("general", len(fs.order),
                                                  rng))
                assert d.verified
        assert len(built) == 30
