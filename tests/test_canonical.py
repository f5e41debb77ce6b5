from __future__ import annotations

import math

import pytest

from freeset.canonical import (
    antichain_bound,
    canonical_order,
    chain_or_antichain,
)
from freeset.errors import NotTriangulation
from freeset.generators import random_triangulation

from conftest import (
    canonical_fans,
    comparable,
    frame_edges,
    frame_successors,
    induce,
    prefix_boundaries,
)


def is_near_triangulation(g) -> bool:
    """Inner faces all triangles and a simple outer boundary cycle."""
    tails = [u for u, _ in g.faces[g.outer_face].walk]
    if len(set(tails)) != len(tails):
        return False
    return all(f.size == 3 for f in g.faces if not f.is_outer)


def chain_bound(x_size: int) -> int:
    """ceil(sqrt(2 x)) for x >= 1."""
    return math.isqrt(2 * x_size - 1) + 1


class TestCanonicalOrder:
    def test_triangle(self):
        from freeset.generators import cycle
        t, _ = __import__("freeset").triangulate(cycle(3))
        cs = canonical_order(t)
        assert len(cs.order) == 3
        assert len(frame_edges(cs)) == 2
        assert frame_successors(cs, cs.v1) == [cs.vn]
        assert frame_successors(cs, cs.vn) == [cs.v2]

    def test_k4_matches_expected_frame(self, k4):
        cs = canonical_order(k4)
        assert cs.order == (0, 1, 3, 2)
        assert frame_edges(cs) == {(0, 3), (3, 1), (0, 2), (2, 1)}
        assert [frame_successors(cs, v) for v in range(4)] == \
            [[2, 3], [], [1], [1]]
        assert canonical_fans(cs) == {3: (0, 1), 2: (0, 3, 1)}

    def test_octahedron_structure(self, octa):
        cs = canonical_order(octa)
        boundaries = prefix_boundaries(cs)
        for i in range(3, octa.n + 1):
            prefix, _ = induce(octa, cs.order[:i],
                               outer_face_hint=boundaries[i])
            assert is_near_triangulation(prefix)
        assert all(len(fan) >= 2 for fan in canonical_fans(cs).values())

    @pytest.mark.parametrize("n,seed", [(10, 0), (25, 1), (60, 2), (120, 3)])
    def test_random_prefixes_are_near_triangulations(self, n, seed):
        t = random_triangulation(n, seed)
        cs = canonical_order(t)
        assert cs.order[0] == cs.v1 and cs.order[1] == cs.v2
        assert cs.order[-1] == cs.vn
        boundaries = prefix_boundaries(cs)
        for i in range(3, n + 1, max(1, n // 7)):
            prefix, _ = induce(t, cs.order[:i],
                               outer_face_hint=boundaries[i])
            assert is_near_triangulation(prefix)

    def test_rejects_non_triangulation(self):
        from freeset.generators import cycle
        with pytest.raises(NotTriangulation):
            canonical_order(cycle(4))

    def test_frame_acyclic_single_source_sink(self, octa):
        cs = canonical_order(octa)
        indeg = {v: 0 for v in range(octa.n)}
        outdeg = {v: 0 for v in range(octa.n)}
        for a, b in frame_edges(cs):
            outdeg[a] += 1
            indeg[b] += 1
        assert [v for v in range(octa.n) if indeg[v] == 0] == [cs.v1]
        assert [v for v in range(octa.n) if outdeg[v] == 0] == [cs.v2]


class TestDilworth:
    def test_k4_chain(self, k4):
        cs = canonical_order(k4)
        kind, data = chain_or_antichain(cs, range(4))
        assert kind == "chain"
        assert data[0] == cs.v1 and data[-1] == cs.v2
        assert len(data) == 3

    def test_single_path_frame_returns_whole_chain(self):
        # fan-like: the random triangulation at this seed is chain-heavy
        t = random_triangulation(12, 5)
        cs = canonical_order(t)
        kind, data = chain_or_antichain(cs, range(12))
        if kind == "chain":
            in_x = len(data)
            assert in_x * in_x >= 2 * 12 or in_x >= 2

    def test_mutually_unreachable_gives_antichain(self, octa):
        cs = canonical_order(octa)
        # find two incomparable vertices and restrict X to them
        pair = None
        for a in range(6):
            for b in range(a + 1, 6):
                if not comparable(cs, a, b):
                    pair = (a, b)
                    break
            if pair:
                break
        kind, data = chain_or_antichain(cs, pair)
        assert kind == "antichain"
        assert set(pair) <= set(data)
        assert data[-1] == cs.vn

    @pytest.mark.parametrize("n,seed", [(30, 7), (80, 8)])
    def test_dichotomy_counting(self, n, seed):
        """(chain length) x (antichain bound) covers X."""
        t = random_triangulation(n, seed)
        cs = canonical_order(t)
        kind, data = chain_or_antichain(cs, range(n))
        if kind == "chain":
            members = [v for v in data]
            assert len(members) >= chain_bound(n) or len(set(data)) >= \
                chain_bound(n)
        else:
            assert len(data) >= antichain_bound(n)


class TestBounds:
    def test_chain_bound_values(self):
        assert chain_bound(4) == 3  # ceil(sqrt(8))
        assert chain_bound(2) == 2
        assert chain_bound(8) == 4

    def test_antichain_bound_values(self):
        assert antichain_bound(2) == 1
        assert antichain_bound(8) == 2
        assert antichain_bound(9) == 3
        assert antichain_bound(50) == 5
        assert antichain_bound(51) == 6
