from __future__ import annotations

import itertools

import pytest

from freeset.curves import (
    AlongItem,
    CrossItem,
    CurveCertificate,
    VertexItem,
    _chords_cross,
    analyze_curve,
    caressed_vertices,
    dual_cycle_certificate,
    reroute_caressed,
    route_open_curve,
    side_partition,
    validate_curve,
)
from freeset.errors import (
    InconsistentSides,
    InvalidCurve,
    NotCaressed,
    NotIndependent,
    TooFew,
)
from freeset.extractors import OrderedFreeSet
from freeset.generators import cycle, star

from conftest import edge_classes


def leaf_curve(g):
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    return CurveCertificate(
        items=tuple(VertexItem(v) for v in leaves),
        passages=tuple(0 for _ in leaves),
    )


def hamiltonian_dual_cycle(g):
    adj = {f.id: set() for f in g.faces}
    for f in g.faces:
        for (u, v) in f.walk:
            adj[f.id].add(g.face_of(v, u))
    n = len(g.faces)
    path, used = [0], {0}

    def ext():
        if len(path) == n:
            return path[0] in adj[path[-1]]
        for nxt in sorted(adj[path[-1]]):
            if nxt not in used:
                used.add(nxt)
                path.append(nxt)
                if ext():
                    return True
                used.remove(nxt)
                path.pop()
        return False

    assert ext()
    return path


class TestValidate:
    def test_star_leaf_curve_ok(self):
        g = star(4)
        assert validate_curve(g, leaf_curve(g)) is None

    def test_edge_crossed_twice_rejected(self):
        g = star(4)
        cert = CurveCertificate(
            items=(CrossItem((0, 1)), CrossItem((0, 1))), passages=(0, 0))
        v = validate_curve(g, cert)
        assert v is not None and v.kind == "edge-twice"

    def test_cross_incident_to_vertex_item_rejected(self):
        g = star(4)
        cert = CurveCertificate(
            items=(CrossItem((0, 1)), VertexItem(0)), passages=(0, 0))
        v = validate_curve(g, cert)
        assert v is not None and v.kind == "not-proper"

    def test_missing_passage_rejected(self):
        g = star(4)
        cert = CurveCertificate(
            items=(VertexItem(1), VertexItem(2)), passages=(0, None))
        assert validate_curve(g, cert) is not None

    def test_along_needs_flanking_vertices(self):
        g = cycle(4)
        cert = CurveCertificate(
            items=(AlongItem((0, 1)), CrossItem((2, 3))), passages=(0, 1))
        assert validate_curve(g, cert) is not None

    def test_reversal_stays_valid(self):
        g = star(5)
        cert = leaf_curve(g)
        assert validate_curve(g, cert.reversed()) is None

    @pytest.mark.parametrize("items,passages,text", [
        ((), (), "empty: certificate has no items"),
        ((VertexItem(0), AlongItem((0, 1)), VertexItem(2)), (None, None, 0),
         "bad-along: along edge (0, 1) not flanked by its endpoints"),
        ((VertexItem(0), AlongItem((0, 1)), VertexItem(1)), (0, None, 0),
         "bad-along: along edge (0, 1) must not carry face passages"),
    ], ids=["empty", "not-flanked", "along-with-passage"])
    def test_structural_violation_text(self, items, passages, text):
        cert = CurveCertificate(items, passages)
        assert str(validate_curve(cycle(4), cert)) == text


def reference_chords_cross(a1, b1, a2, b2, size):
    """The earlier ``_chords_cross``, with its closure and two sets."""
    if len({a1, b1} & {a2, b2}) > 0:
        return False
    if a1 == b1 or a2 == b2:
        return False

    def inside(x, lo, hi):
        return (x - lo) % size < (hi - lo) % size and x != lo

    return inside(a2, a1, b1) != inside(b2, a1, b1)


def test_chords_cross_matches_reference():
    # every pair of chords on the boundary circle of a face of 1 to 6 darts
    pairs = 0
    for size in range(2, 13, 2):
        for a1, b1, a2, b2 in itertools.product(range(size), repeat=4):
            assert _chords_cross(a1, b1, a2, b2, size) == \
                reference_chords_cross(a1, b1, a2, b2, size)
            pairs += 1
    assert pairs == 36400


class TestSidePartition:
    def test_star_center_inside_or_outside(self):
        g = star(4)
        sp = side_partition(g, leaf_curve(g))
        assert sp.Y == (1, 2, 3)
        assert {frozenset(sp.X), frozenset(sp.Z)} == \
            {frozenset({0}), frozenset()}

    def test_triangle_triple_cross_inconsistent(self):
        # one violation, one exception: the analysis, the side partition and
        # a free set made from the certificate all raise InconsistentSides,
        # which is an InvalidCurve
        g = cycle(3)
        f1 = g.face_of(0, 1)
        f0 = g.face_of(1, 0)
        cert = CurveCertificate(
            items=(CrossItem((0, 1)), CrossItem((1, 2)), CrossItem((0, 2))),
            passages=(f1, f0, f1))
        makers = (analyze_curve, side_partition,
                  lambda g, cert: OrderedFreeSet(g, (), cert, "test", "-"))
        for make in makers:
            with pytest.raises(InconsistentSides):
                make(g, cert)
        assert issubclass(InconsistentSides, InvalidCurve)

    def test_crossed_edge_written_high_low(self):
        g = cycle(4)
        sps = []
        for written in (((0, 1), (2, 3)), ((1, 0), (3, 2))):
            cert = CurveCertificate(items=tuple(map(CrossItem, written)),
                                    passages=(0, 1))
            assert validate_curve(g, cert) is None
            sps.append(side_partition(g, cert))
        assert sps[1] == sps[0]
        for u, v in ((0, 1), (2, 3)):  # each crossing separates its ends
            assert (u in sps[1].X) != (v in sps[1].X)

    def test_k4_antichain_partition(self, k4):
        from freeset.canonical import canonical_order
        from freeset.extractors import antichain_freeset
        cs = canonical_order(k4)
        cert, _ = antichain_freeset(k4, cs, (3, 2))
        sp = side_partition(k4, cert)
        # the crossed edge ab separates a from b
        assert {frozenset(sp.X), frozenset(sp.Z)} == \
            {frozenset({0}), frozenset({1})}

    def test_uncrossed_edges_do_not_straddle(self, octa):
        cyc = hamiltonian_dual_cycle(octa)
        car = caressed_vertices(octa, cyc)
        pair = next(p for p in itertools.combinations(car, 2)
                    if not octa.has_edge(*p))
        cert = reroute_caressed(octa, cyc, pair)
        sp = side_partition(octa, cert)
        for e, cls in edge_classes(octa, cert, sp).items():
            if cls in ("inside", "outside"):
                for v in e:
                    if v not in set(sp.Y):
                        side = "inside" if v in sp.X else "outside"
                        assert side == cls


def interior_route(nt, a, b):
    """route_open_curve through the inner faces of a near-triangulation,
    crossing only inner edges."""
    outer = nt.faces[nt.outer_face]
    inner = {f.id for f in nt.faces if not f.is_outer}
    return route_open_curve(nt, a, b, inner, nt.edges - outer.edge_set())


class TestInteriorCurve:
    def test_vertex_to_midpoint_crosses_one_spoke(self, k4):
        oc = interior_route(k4, 0, (1, 2))
        crossed = [it.edge for it in oc.items]
        assert len(crossed) == 1
        assert crossed[0] in [(1, 3), (2, 3)]

    def test_fan_boundary_pair_validates(self, fan6):
        oc = interior_route(fan6, 1, 4)
        assert oc.items
        # close through the outer face and validate
        items = (VertexItem(1),) + oc.items + (VertexItem(4),)
        passages = oc.passages + (fan6.outer_face,)
        cert = CurveCertificate(items, passages)
        assert validate_curve(fan6, cert) is None


class TestCaressing:
    def test_k4_inner_dual_cycle_caresses_everything(self, k4):
        inner = [f.id for f in k4.faces if not f.is_outer]
        cert = dual_cycle_certificate(k4, inner)
        assert validate_curve(k4, cert) is None
        assert set(caressed_vertices(k4, inner)) == {0, 1, 2, 3}

    def test_octahedron_hamiltonian_cycle(self, octa):
        cyc = hamiltonian_dual_cycle(octa)
        car = caressed_vertices(octa, cyc)
        assert car

    def test_split_rotation_not_caressed(self, octa):
        # a 4-cycle in the dual around two opposite faces crosses, at some
        # vertex, edges that are not consecutive in its rotation
        cyc = hamiltonian_dual_cycle(octa)
        car = set(caressed_vertices(octa, cyc))
        assert car != set(range(octa.n))

    def test_reroute_validates(self, octa):
        cyc = hamiltonian_dual_cycle(octa)
        car = caressed_vertices(octa, cyc)
        pair = next(p for p in itertools.combinations(car, 2)
                    if not octa.has_edge(*p))
        cert = reroute_caressed(octa, cyc, pair)
        assert validate_curve(octa, cert) is None
        assert set(cert.vertex_order()) == set(pair)
        crossed = set(cert.crossed_edges())
        for v in pair:
            for u in octa.rot[v]:
                assert (min(u, v), max(u, v)) not in crossed

    def test_reroute_guards(self, octa, k4):
        cyc = hamiltonian_dual_cycle(octa)
        with pytest.raises(TooFew):
            reroute_caressed(octa, cyc, [0])
        car = caressed_vertices(octa, cyc)
        adjacent = next(p for p in itertools.combinations(car, 2)
                        if octa.has_edge(*p))
        with pytest.raises(NotIndependent):
            reroute_caressed(octa, cyc, adjacent)
        inner = [f.id for f in k4.faces if not f.is_outer]
        with pytest.raises(NotCaressed):
            reroute_caressed(octa, cyc, [v for v in range(6)
                                         if v not in car][:2] or [0, 5])


class TestSerializationShape:
    def test_rotate_and_reverse_roundtrip(self, octa):
        cyc = hamiltonian_dual_cycle(octa)
        cert = dual_cycle_certificate(octa, cyc)
        assert cert.rotated(3).rotated(len(cert.items) - 3) == cert
        assert cert.reversed().reversed() == cert
