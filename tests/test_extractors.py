from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from freeset.canonical import antichain_bound, canonical_order
from freeset.curves import validate_curve
from freeset.embedding import build_embedded, norm_edge
from freeset.errors import (
    AntichainTooShort,
    BadLevelAssignment,
    ChainTooShort,
    InvalidCurve,
    NoIndependentPair,
    NotMaximalOuterplane,
    NotSpanningTree,
    TooSmall,
    UnknownElement,
)
from freeset.extractors import (
    LevelAssignment,
    _collar_certificate,
    _fill_polygon_chords,
    antichain_freeset,
    bfs_levels,
    chain_freeset,
    dualcycle_freeset,
    level_freeset,
    maxleaf_tree,
    onebend_freeset,
    outerplanar_greedy,
    planar_freeset,
)
from freeset.generators import (
    grid,
    icosahedron,
    maximal_outerplanar,
    path,
    random_triangulation,
    star,
)
from freeset.realize import free_realize

from conftest import comparable, thinned_triangulation


class TestOuterplanar:
    def test_fan6(self, fan6):
        res = outerplanar_greedy(fan6)
        s = res.free_set.order
        assert len(s) == 5 and 0 not in s
        assert res.n0 + res.n1 + res.n2 == len(s)
        assert res.n0 + 2 * res.n1 + 3 * res.n2 == 6
        assert res.n0 - res.n2 >= 2

    def test_four_vertices(self):
        res = outerplanar_greedy(maximal_outerplanar(4, 0))
        assert len(res.free_set.order) == 3

    def test_triangle_too_small(self):
        with pytest.raises(TooSmall):
            outerplanar_greedy(maximal_outerplanar(3, 0))

    def test_not_maximal_rejected(self):
        from freeset.generators import cycle
        with pytest.raises(NotMaximalOuterplane):
            outerplanar_greedy(cycle(5))

    def test_independence_in_chords(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(4, 40)
            g = maximal_outerplanar(n, rng.randrange(10 ** 6))
            res = outerplanar_greedy(g)
            s = set(res.free_set.order)
            outer_edges = g.faces[g.outer_face].edge_set()
            for (u, v) in g.edges:
                if (u, v) not in outer_edges:
                    assert not (u in s and v in s)


def reference_fill_polygon_chords(k, chords):
    """The ear-insertion loop that ``_fill_polygon_chords`` replaced: join
    the first and third vertex of the first inner face of more than three
    darts, rebuild the embedding, repeat."""
    adj = [{(v - 1) % k, (v + 1) % k} for v in range(k)]
    for u, v in chords:
        adj[u].add(v)
        adj[v].add(u)
    filled = set(chords)
    while True:
        rot = [sorted(adj[v], key=lambda u: (u - v) % k) for v in range(k)]
        g = build_embedded(k, rot, outer_face_hint=range(k))
        target = next((f for f in g.faces if not f.is_outer and f.size > 3),
                      None)
        if target is None:
            return filled
        a, b = target.walk[0][0], target.walk[2][0]
        filled.add(norm_edge(a, b))
        adj[a].add(b)
        adj[b].add(a)


def polygon_chords(k, seed):
    """A random subset of the chords of a random triangulated k-gon."""
    rng = random.Random(seed)
    keep = rng.choice([0.0, 0.3, 0.7, 1.0])
    g = maximal_outerplanar(k, seed)
    return {e for e in sorted(g.edges)
            if (e[1] - e[0]) % k not in (1, k - 1) and rng.random() < keep}


class TestFillPolygonChords:
    @pytest.mark.parametrize("k", [3, 4, 5, 8, 13, 30, 60])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ear_insertion(self, k, seed):
        chords = polygon_chords(k, seed)
        assert _fill_polygon_chords(k, set(chords)) == \
            reference_fill_polygon_chords(k, chords)

    def test_traces_once(self, trace_calls):
        filled = _fill_polygon_chords(300, set())
        assert filled == {(0, v) for v in range(2, 299)}
        assert trace_calls[0] <= 3  # the ear-insertion loop made 298


class TestChainAntichain:
    def test_k4_chain_gives_pair(self, k4):
        cs = canonical_order(k4)
        cert, order = chain_freeset(k4, cs, (0, 2, 1))
        assert len(order) == 2
        assert validate_curve(k4, cert) is None

    def test_chain_too_short(self, k4):
        cs = canonical_order(k4)
        with pytest.raises(ChainTooShort):
            chain_freeset(k4, cs, (0, 1))

    def test_k4_antichain_matches_spec_example(self, k4):
        cs = canonical_order(k4)
        cert, order = antichain_freeset(k4, cs, (3, 2))
        assert order == (3, 2)
        kinds = [type(it).__name__ for it in cert.items]
        assert kinds.count("CrossItem") == 1
        assert kinds.count("AlongItem") == 1
        assert validate_curve(k4, cert) is None

    def test_antichain_too_short(self, k4):
        cs = canonical_order(k4)
        with pytest.raises(AntichainTooShort):
            antichain_freeset(k4, cs, (2,))

    def test_octahedron_antichain(self, octa):
        from freeset.canonical import chain_or_antichain
        cs = canonical_order(octa)
        pair = next((a, b) for a in range(6) for b in range(a + 1, 6)
                    if not comparable(cs, a, b))
        kind, data = chain_or_antichain(cs, pair)
        assert kind == "antichain"
        cert, order = antichain_freeset(octa, cs, data)
        assert len(order) == len(data)
        assert validate_curve(octa, cert) is None

    def test_collar_needs_an_outer_cycle_edge(self, octa):
        outer = octa.faces[octa.outer_face].vertex_set()
        inner = next(f for f in octa.faces if not f.vertex_set() & outer)
        cycle = list(inner.vertices)
        with pytest.raises(InvalidCurve, match="no edge on the outer face"):
            _collar_certificate(octa, cycle, {cycle[0]})

    def test_k4_chain_curve_sides(self, k4):
        from freeset.curves import side_partition
        cs = canonical_order(k4)
        cert, _ = chain_freeset(k4, cs, (0, 2, 1))
        sp = side_partition(k4, cert)
        # the cycle interior (the chord side) sits on one side, nothing on
        # the other: vertex 3 and the skipped cycle vertex 2
        inside = sp.X if sp.X else sp.Z
        assert inside == {2, 3}

    def test_hamiltonian_frame_path_large_set(self):
        t = random_triangulation(40, 11)
        cs = canonical_order(t)
        from freeset.canonical import chain_or_antichain
        kind, data = chain_or_antichain(cs, range(40))
        if kind == "chain" and len(data) >= 4:
            _, order = chain_freeset(t, cs, data)
            assert 2 * len(order) >= len(data) + 2


class TestPlanarFreeset:
    def test_k4(self, k4):
        fs = planar_freeset(k4)
        assert len(fs.order) == 2

    def test_one_vertex_too_small(self):
        # the one face has no corner, so no certificate carries the vertex
        with pytest.raises(TooSmall, match="^planar extraction needs at "
                           "least 2 vertices, got 1$"):
            planar_freeset(build_embedded(1, [[]]))

    def test_icosahedron(self):
        fs = planar_freeset(icosahedron())
        assert len(fs.order) >= 3  # ceil(sqrt(6))

    @pytest.mark.parametrize("n,seed", [(10, 4), (50, 7), (120, 9)])
    def test_random_bound(self, n, seed):
        g = random_triangulation(n, seed)
        fs = planar_freeset(g)
        assert len(fs.order) >= antichain_bound(n)
        assert validate_curve(g, fs.certificate) is None

    def test_thousand_vertices(self):
        # deeper than the recursion limit: one chord-search level per
        # certificate item
        g = random_triangulation(1000, 1)
        fs = planar_freeset(g)
        assert len(fs.order) >= antichain_bound(1000)
        assert validate_curve(g, fs.certificate) is None

    def test_certificate_on_original_graph(self):
        g = path(6)  # triangulation happens internally
        fs = planar_freeset(g)
        assert validate_curve(g, fs.certificate) is None
        for it in fs.certificate.items:
            if hasattr(it, "edge"):
                assert it.edge in g.edges

    def test_restricted_target(self):
        g = random_triangulation(40, 2)
        xs = list(range(0, 40, 3))
        fs = planar_freeset(g, xs)
        assert set(fs.order) <= set(xs)
        assert len(fs.order) >= 2

    @pytest.mark.parametrize("g", [
        random_triangulation(200, 1),  # triangulated: no pull-back
        grid(10, 10),
        maximal_outerplanar(150, 4),
    ], ids=["triangulation", "grid", "outerplanar"])
    def test_validated_once_per_graph(self, g, monkeypatch):
        import freeset.curves as curves
        seen = []
        analyze = curves._analyze

        def counting(graph, cert):
            seen.append(graph)
            return analyze(graph, cert)

        monkeypatch.setattr(curves, "_analyze", counting)
        fs = planar_freeset(g)
        assert len(seen) == 1 and seen[0] is g
        assert validate_curve(g, fs.certificate) is None

    @pytest.mark.parametrize("g", [
        random_triangulation(12, 3),
        grid(3, 4),
        maximal_outerplanar(9, 2),
        thinned_triangulation(14, 5),
        path(5),
    ], ids=["triangulation", "grid", "outerplanar", "thinned", "path"])
    def test_every_single_target(self, g):
        # the canonical source and sink used to raise AntichainTooShort
        for v in range(g.n):
            fs = planar_freeset(g, [v])
            assert fs.order == (v,)
            assert validate_curve(g, fs.certificate) is None
            d = free_realize(g, fs, [(F(3), F(-2))])
            assert d.verified and d.pos[v] == (3, -2)

    def test_order_is_certificate_subsequence(self):
        g = random_triangulation(30, 13)
        fs = planar_freeset(g)
        vo = list(fs.certificate.vertex_order())
        it = iter(vo)
        assert all(v in it for v in fs.order)


@pytest.mark.parametrize("extract,bad", [
    (lambda xs: planar_freeset(random_triangulation(12, 5), xs), 999),
    (lambda xs: planar_freeset(random_triangulation(12, 5), xs), -1),
    (lambda xs: level_freeset(path(5), bfs_levels(path(5)), xs), 9),
], ids=["planar-999", "planar-minus-1", "level-9"])
def test_unknown_target_rejected(extract, bad):
    with pytest.raises(UnknownElement, match=f"vertex {bad} "):
        extract([1, bad])


class TestLevel:
    def test_path5(self):
        fs = level_freeset(path(5), bfs_levels(path(5)))
        assert fs.order == (0, 2, 4)

    def test_star(self):
        fs = level_freeset(star(6), bfs_levels(star(6)))
        assert len(fs.order) == 5

    def test_grid_rows(self):
        g = grid(3, 3)
        la = LevelAssignment(levels={v: v // 3 for v in range(9)}, span=1,
                             order={r: tuple(range(3 * r, 3 * r + 3))
                                    for r in range(3)})
        fs = level_freeset(g, la)
        assert len(fs.order) == 6

    def test_bad_assignment_rejected(self):
        g = grid(3, 3)
        la = LevelAssignment(levels={v: 0 for v in range(9)}, span=1,
                             order={0: tuple(range(9))})
        with pytest.raises(BadLevelAssignment):
            level_freeset(g, la)

    def test_restricted_target_bound(self):
        from freeset.bench import _random_tree
        t = _random_tree(30, 3)
        xs = list(range(0, 30, 2))
        fs = level_freeset(t, bfs_levels(t), xs)
        assert set(fs.order) <= set(xs)
        assert 2 * len(fs.order) >= len(xs)


class TestTrees:
    def test_star_tree_leaves(self):
        g = star(7)
        tree = maxleaf_tree(g)
        assert tree.leaf_count == 6

    def test_path_two_leaves(self):
        tree = maxleaf_tree(path(8))
        assert tree.leaf_count == 2

    def test_octahedron_spans(self, octa):
        tree = maxleaf_tree(octa)
        assert len(tree.edges) == 5
        seen = {0}
        stack = [0]
        adj = {v: tree.neighbors(octa, v) for v in range(6)}
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert seen == set(range(6))

    def test_onebend_k4_star_tree(self, k4):
        from freeset.extractors import SpanningTree
        tree = SpanningTree(edges=frozenset({(0, 1), (0, 2), (0, 3)}),
                            leaf_count=3)
        fs = onebend_freeset(k4, tree)
        assert set(fs.order) == {1, 2, 3}
        assert fs.order[0] == 1  # rotation order around the hub, from b
        assert validate_curve(fs.graph, fs.certificate) is None

    def test_onebend_crossings_cover_nontree_halves(self, octa):
        tree = maxleaf_tree(octa)
        fs = onebend_freeset(octa, tree)
        assert validate_curve(fs.graph, fs.certificate) is None
        crossed = set(fs.certificate.crossed_edges())
        assert len(crossed) == len(set(crossed))
        # leaves exactly the vertex items
        leaves = {v for v in range(octa.n)
                  if len(tree.neighbors(octa, v)) == 1}
        assert set(fs.order) == leaves

    def test_goldner_harary_ceiling(self, gh):
        for seed in range(10):
            tree = maxleaf_tree(gh, seed=seed)
            fs = onebend_freeset(gh, tree)
            assert len(fs.order) <= 10

    def test_not_spanning_rejected(self, k4):
        from freeset.extractors import SpanningTree
        with pytest.raises(NotSpanningTree):
            onebend_freeset(k4, SpanningTree(edges=frozenset({(0, 1)}),
                                             leaf_count=2))


class TestDualCycle:
    def test_octahedron(self, octa):
        from tests.test_curves import hamiltonian_dual_cycle
        fs = dualcycle_freeset(octa, hamiltonian_dual_cycle(octa))
        assert len(fs.order) >= 2
        assert validate_curve(octa, fs.certificate) is None

    def test_k4_no_independent_pair(self, k4):
        inner = [f.id for f in k4.faces if not f.is_outer]
        with pytest.raises(NoIndependentPair):
            dualcycle_freeset(k4, inner)
