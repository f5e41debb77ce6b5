from __future__ import annotations

import gc
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from freeset.applications import (
    lis_lds,
    psge_many,
    psge_two,
    sge_nomap,
    untangle,
)
from freeset.bench import _random_tree
from freeset.embedding import EmbeddedGraph
from freeset.errors import MergeConflict, TooLarge, VertexSetMismatch
from freeset.extractors import planar_freeset
from freeset.generators import path, random_triangulation
from freeset.realize import _shear_keys, tutte_solve


class TestLisLds:
    def test_increasing(self):
        assert lis_lds([1, 2, 3]) == ([0, 1, 2], "increasing")

    def test_decreasing(self):
        assert lis_lds([3, 2, 1]) == ([0, 1, 2], "decreasing")

    def test_square_bound(self):
        idx, _ = lis_lds([2, 4, 1, 3])
        assert len(idx) == 2

    def test_erdos_szekeres_floor(self):
        rng = random.Random(0)
        for n in (9, 16, 25):
            vals = list(range(n))
            rng.shuffle(vals)
            idx, _ = lis_lds(vals)
            assert len(idx) >= math.isqrt(n)


class TestUntangle:
    def test_planar_input_unchanged(self):
        g = random_triangulation(12, 1)
        outer = [u for u, _ in g.faces[g.outer_face].walk]
        pos = tutte_solve(g, outer, [(0, 0), (64, 0), (0, 64)]).pos
        res = untangle(g, pos)
        assert len(res.fixed) == 12
        assert res.drawing.pos == {v: (F(x), F(y))
                                   for v, (x, y) in pos.items()}

    def test_tangled_path(self):
        g = path(4)
        tangled = {0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (3, 0)}
        res = untangle(g, tangled)
        assert res.drawing.verified
        assert len(res.fixed) >= 2
        for v in res.fixed:
            x, y = tangled[v]
            assert res.drawing.pos[v] == (F(x), F(y))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_bounds(self, seed):
        rng = random.Random(seed)
        n = rng.randint(10, 50)
        g = random_triangulation(n, seed + 50)
        used, pos = set(), {}
        for v in range(n):
            while True:
                p = (F(rng.randint(-99, 99)), F(rng.randint(-99, 99)))
                if p not in used:
                    used.add(p)
                    pos[v] = p
                    break
        res = untangle(g, pos)
        k = res.free_set_size
        assert len(res.fixed) >= math.isqrt(max(k - 1, 0)) + 1
        assert len(res.fixed) >= math.ceil((n / 2) ** 0.25)
        for v in res.fixed:
            assert res.drawing.pos[v] == pos[v]
        assert res.moved + len(res.fixed) == n

    def test_duplicate_x_rotation_path(self):
        # edges 0-1 and 2-3 cross at (1, 1); x = 0 and x = 2 repeat, so the
        # realization runs in a sheared frame and is sheared back
        g = path(5)
        pos = {0: (0, 0), 1: (2, 2), 2: (0, 2), 3: (2, 0), 4: (1, 3)}
        t = _shear_keys([(F(x), F(y)) for x, y in pos.values()])[0]
        assert t >= 1
        res = untangle(g, pos)
        assert res.drawing.verified
        assert res.drawing.provenance == "untangled"
        assert any(pos[v][1] != 0 for v in res.fixed)
        for v in res.fixed:
            x, y = pos[v]
            assert res.drawing.pos[v] == (F(x), F(y))

    def test_dropped_results_leave_no_graph_alive(self):
        # realization keeps its state on the graph and the free set, so
        # nothing outlives the results once they are dropped
        def graphs() -> list:
            gc.collect()
            return [o for o in gc.get_objects()
                    if isinstance(o, EmbeddedGraph)]

        before = graphs()  # held, so that no new graph reuses an id
        known = {id(g) for g in before}
        for seed in range(30):
            rng = random.Random(seed)
            pts = rng.sample([(x, y) for x in range(20) for y in range(20)],
                             60)
            res = untangle(random_triangulation(60, seed),
                           dict(enumerate(pts)))
            assert res.drawing.verified and res.moved > 0
        del res
        assert [g for g in graphs() if id(g) not in known] == []

    @pytest.mark.parametrize("keys", [(1, 2, 3), (0, 1, 3), (0, 1)],
                             ids=["shifted", "gap", "missing"])
    def test_position_keys_not_the_vertices(self, keys):
        pos = {v: (i, i * i) for i, v in enumerate(keys)}
        with pytest.raises(VertexSetMismatch):
            untangle(path(3), pos)


class TestSgeNomap:
    def test_triangle_into_triangulation(self):
        from freeset import build_embedded
        g1 = random_triangulation(50, 7)
        g2 = build_embedded(3, [[1, 2], [2, 0], [0, 1]])
        res = sge_nomap(g1, g2)
        assert all(d.verified for d in res.drawings)
        p2 = {res.drawings[1].pos[v] for v in range(3)}
        p1 = {res.drawings[0].pos[v] for v in range(50)}
        assert p2 <= p1
        assert len(res.shared_points) == 50

    def test_one_check_per_drawing(self, monkeypatch):
        # the sweep for the Tutte drawing of G2, the triangle check for the
        # realized G1
        import freeset.realize as realize
        sweep, triangles = realize.verify_drawing, realize._checked_halves
        calls = []

        def counting_sweep(g, d):
            calls.append(("sweep", d.provenance))
            return sweep(g, d)

        def counting_triangles(d, *args):
            calls.append(("triangles", d.provenance))
            return triangles(d, *args)

        monkeypatch.setattr(realize, "verify_drawing", counting_sweep)
        monkeypatch.setattr(realize, "_checked_halves", counting_triangles)
        res = sge_nomap(random_triangulation(30, 3),
                        random_triangulation(5, 4))
        assert all(d.verified for d in res.drawings)
        assert [c for c, _ in calls] == ["sweep", "triangles"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_vertices(self, n):
        # too small to triangulate: G2 goes on (0, 0) and (4096, 0)
        from freeset import build_embedded
        g2 = build_embedded(1, [[]]) if n == 1 else path(2)
        res = sge_nomap(random_triangulation(30, 3), g2)
        d1, d2 = res.drawings
        assert d1.verified and d2.verified
        p2 = [d2.pos[v] for v in range(n)]
        assert p2 == [(F(0), F(0)), (F(4096), F(0))][:n]
        assert set(p2) <= set(res.shared_points)
        assert len(res.shared_points) == 30

    def test_too_large(self, k4):
        g2 = random_triangulation(6, 1)
        with pytest.raises(TooLarge):
            sge_nomap(k4, g2)  # K4's free set has size 2 < 6


class TestPsge:
    def test_pair_positions_identical(self):
        g1 = random_triangulation(32, 5)
        g2 = random_triangulation(32, 6)
        res = psge_two(g1, g2)
        assert len(res.shared_vertices) >= 2
        for i, v in enumerate(res.shared_vertices):
            assert res.drawings[0].pos[v] == res.shared_points[i]
            assert res.drawings[1].pos[v] == res.shared_points[i]

    def test_same_graph_pair(self):
        g = random_triangulation(24, 9)
        res = psge_two(g, g)
        fs = planar_freeset(g)
        assert len(res.shared_vertices) == len(fs.order)

    def test_vertex_set_mismatch(self, k4):
        with pytest.raises(VertexSetMismatch):
            psge_two(k4, random_triangulation(5, 0))

    def test_triple_trees(self):
        gs = [_random_tree(16, s) for s in (11, 12, 13)]
        res = psge_many(gs)
        assert len(res.shared_vertices) >= 2
        assert len(res.drawings) == 3
        for i, v in enumerate(res.shared_vertices):
            for d in res.drawings:
                assert d.pos[v] == res.shared_points[i]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_two_is_many_of_two(self, seed):
        g1 = random_triangulation(20, seed)
        g2 = random_triangulation(20, seed + 50)
        two = psge_two(g1, g2)
        many = psge_many([g1, g2])
        assert replace(two, bound_met=many.bound_met) == many
        assert two.bound_met == f"|V'|={len(two.shared_vertices)}"

    def test_two_graph_reduction(self):
        g1 = random_triangulation(16, 21)
        g2 = random_triangulation(16, 22)
        res = psge_many([g1, g2])
        assert len(res.drawings) == 2
        assert len(res.shared_vertices) >= 2


class TestTypedErrors:
    """Broken invariants raise MergeConflict, which survives ``python -O``."""

    def test_untangle_fixed_vertex_moved(self, monkeypatch):
        import freeset.applications as apps
        real = apps.free_realize

        def shifted(g, fs, points):
            d = real(g, fs, points)
            xy = list(d.xy)
            x, y = xy[fs.order[0]]
            xy[fs.order[0]] = (x + d.dx, y)
            return replace(d, xy=xy)

        monkeypatch.setattr(apps, "free_realize", shifted)
        g = path(4)
        with pytest.raises(MergeConflict, match="left its position"):
            untangle(g, {0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (3, 0)})

    def test_sge_nomap_targets_missing(self, monkeypatch):
        import freeset.applications as apps
        real = apps.free_realize

        def shifted(g, fs, points):
            d = real(g, fs, points)
            return replace(d, xy=[(x + d.dx, y) for x, y in d.xy])

        monkeypatch.setattr(apps, "free_realize", shifted)
        with pytest.raises(MergeConflict):
            sge_nomap(random_triangulation(40, 3), path(3))
