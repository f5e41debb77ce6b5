from __future__ import annotations

import gc
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from freeset.applications import (
    _iroot_ceiling,
    lis_lds,
    psge_many,
    psge_two,
    sge_nomap,
    untangle,
)
from freeset.bench import _random_tree
from freeset.embedding import EmbeddedGraph
from freeset.errors import MergeConflict, TooLarge, VertexSetMismatch
from freeset.extractors import OrderedFreeSet, planar_freeset
from freeset.generators import path, random_triangulation
from freeset.realize import (
    _shear_drawing,
    _shear_keys,
    free_realize,
    tutte_solve,
)
from freeset.textio import serialize_drawing

from conftest import triangle_checks


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
        sweep = realize.verify_drawing
        calls = []

        def counting_sweep(g, d):
            calls.append(("sweep", d.provenance))
            return sweep(g, d)

        monkeypatch.setattr(realize, "verify_drawing", counting_sweep)
        with triangle_checks(calls):
            res = sge_nomap(random_triangulation(30, 3),
                            random_triangulation(5, 4))
        assert all(d.verified for d in res.drawings)
        assert [c[0] for c in calls] == ["sweep", "triangles"]

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


# ---------------------------------------------------------------------------
# Orientation: the same drawings as a pipeline that reverses the certificate
# ---------------------------------------------------------------------------

def _reversed(fs: OrderedFreeSet) -> OrderedFreeSet:
    """fs in the opposite order, witnessed by its reversed certificate (a
    second validation)."""
    return OrderedFreeSet(fs.graph, fs.order[::-1],
                          fs.certificate.reversed(), fs.provenance,
                          fs.bound_met)


def _untangle_input(seed: int):
    """A random triangulation with 20-40 vertices at distinct points of a
    12 x 12 grid, so that x repeats and the input is sheared."""
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    pts = rng.sample([(F(x), F(y)) for x in range(-6, 6)
                      for y in range(-6, 6)], n)
    return random_triangulation(n, seed + 300), dict(enumerate(pts))


def _reference_untangle(g, pos):
    """untangle's text, fixed vertices and direction, realizing a
    decreasing subsequence on its reversed certificate."""
    t, keys, den = _shear_keys([pos[v] for v in range(g.n)])
    sheared = [(F(x + t * y, den), F(y, den)) for x, y in keys]
    fs = planar_freeset(g)
    idx, direction = lis_lds([sheared[v][0] for v in fs.order])
    if direction == "decreasing":
        fs = _reversed(fs)
        idx = sorted(len(fs.order) - 1 - i for i in idx)
    sub = fs.restricted([fs.order[i] for i in idx])
    d = _shear_drawing(free_realize(g, sub, [sheared[v] for v in sub.order]),
                       -t)
    return serialize_drawing(d), sub.order, direction


def _reference_psge(graphs):
    """psge_many's texts and how many free sets it reversed, realizing a
    falling shared order on its reversed certificate."""
    free_sets, xs = [], None
    for g in graphs:
        free_sets.append(planar_freeset(g, xs))
        xs = free_sets[-1].order
    common = set(free_sets[-1].order)
    shared = [v for v in free_sets[1].order if v in common]
    for fs in free_sets[2:]:
        at = {v: j for j, v in enumerate(fs.order)}
        idx, _ = lis_lds([at[v] for v in shared])
        shared = [shared[j] for j in idx]
    rank = {v: j for j, v in enumerate(shared)}
    ord1 = [v for v in free_sets[0].order if v in rank]
    target = {v: (F(i + 1), F(rank[v] + 1)) for i, v in enumerate(ord1)}
    drawings = [free_realize(graphs[0], free_sets[0].restricted(ord1),
                             [target[v] for v in ord1])]
    reversals = 0
    for g, fs in zip(graphs[1:], free_sets[1:]):
        ordered = [v for v in fs.order if v in rank]
        seq = [rank[v] for v in ordered]
        if any(a > b for a, b in zip(seq, seq[1:])):
            fs, ordered = _reversed(fs), ordered[::-1]
            reversals += 1
        d = free_realize(g, fs.restricted(ordered),
                         [(target[v][1], -target[v][0]) for v in ordered])
        # (x, y) -> (-y, x), the axis denominators swapped
        drawings.append(replace(
            d, xy=[(-y, x) for x, y in d.xy],
            bend_xy={e: tuple((-y, x) for x, y in b)
                     for e, b in d.bend_xy.items()}, dx=d.dy, dy=d.dx))
    return [serialize_drawing(d) for d in drawings], reversals


def _psge_input(r: int, seed: int):
    return [random_triangulation(24, 1000 * r + 10 * seed + i)
            for i in range(r)]


class TestOrientation:
    @pytest.mark.parametrize("seed, direction",
                             [(0, "decreasing"), (5, "decreasing"),
                              (11, "decreasing"), (1, "increasing")])
    def test_untangle_as_reversed_certificate(self, seed, direction):
        g, pos = _untangle_input(seed)
        text, fixed, got = _reference_untangle(g, pos)
        assert got == direction
        res = untangle(g, pos)
        assert serialize_drawing(res.drawing) == text
        assert res.fixed == fixed

    @pytest.mark.parametrize("r, seed, reversals",
                             [(3, 5, 1), (4, 6, 1), (4, 7, 2), (3, 0, 0)])
    def test_psge_many_as_reversed_certificate(self, r, seed, reversals):
        graphs = _psge_input(r, seed)
        texts, got = _reference_psge(graphs)
        assert got == reversals
        res = psge_many(graphs)
        assert [serialize_drawing(d) for d in res.drawings] == texts

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_untangle_validates_one_certificate(self, seed, monkeypatch):
        # the subsequence decreases (above), yet only the extracted
        # certificate is analysed
        calls = _counted_analyses(monkeypatch)
        untangle(*_untangle_input(seed))
        assert len(calls) == 1

    @pytest.mark.parametrize("r, seed", [(3, 5), (4, 6), (4, 7)])
    def test_psge_many_validates_one_certificate_per_graph(self, r, seed,
                                                          monkeypatch):
        calls = _counted_analyses(monkeypatch)
        psge_many(_psge_input(r, seed))
        assert len(calls) == r


def _counted_analyses(monkeypatch) -> list:
    """The graphs of every ``analyze_curve`` call made from now on."""
    import freeset.extractors as extractors
    real, calls = extractors.analyze_curve, []

    def counting(g, cert):
        calls.append(g)
        return real(g, cert)

    monkeypatch.setattr(extractors, "analyze_curve", counting)
    return calls


@pytest.mark.parametrize("roots", range(7))
def test_iroot_ceiling_matches_brute_force(roots):
    # psge_many of r graphs takes r - 2 roots: r <= 8 here
    for value in range(301):
        want = next(k for k in range(value + 1)
                    if k ** (2 ** roots) >= value)
        assert _iroot_ceiling(value, roots) == want


def test_iroot_ceiling_of_forty_graphs():
    # 2**(2**38) is never built: 38 square roots bring any value to 2
    assert _iroot_ceiling(10 ** 100, 38) == 2
    assert _iroot_ceiling(2, 38) == 2 and _iroot_ceiling(1, 38) == 1
