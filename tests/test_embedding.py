from __future__ import annotations

import random
import re
import sys

import pytest

from freeset import (
    build_embedded,
    dual_graph,
    subdivide,
    triangulate,
)
from freeset.bench import _random_tree
from freeset.embedding import (
    _chord_positions,
    _trace_faces,
    insert_chords,
    norm_edge,
)
from freeset.errors import (
    Disconnected,
    FreesetError,
    MultiEdgeOrLoop,
    NonPlanarRotation,
    TooSmall,
    UnknownElement,
)
from freeset.generators import (
    cycle,
    fan,
    generate,
    GeneratorSpec,
    grid,
    icosahedron,
    maximal_outerplanar,
    octahedron,
    path,
    random_triangulation,
    stacked_3tree,
    star,
)

from conftest import induce, thinned_triangulation
from test_extraction_oracle import cycle_sides


def check_consistency(g):
    """Euler identity, face-size sum, and rotation/face agreement."""
    m = len(g.edges)
    assert g.n - m + len(g.faces) == 2
    assert sum(f.size for f in g.faces) == 2 * m
    for f in g.faces:
        k = len(f.walk)
        for i, (u, v) in enumerate(f.walk):
            nu, nv = f.walk[(i + 1) % k]
            assert nu == v
            assert nv == g.rot[v][g.rot_index(v, u) - 1]
            assert g.face_of(u, v) == f.id


class TestBuild:
    def test_k4_has_four_faces(self, k4):
        assert len(k4.faces) == 4
        check_consistency(k4)

    def test_k5_rejected(self):
        rot = [[u for u in range(5) if u != v] for v in range(5)]
        with pytest.raises(NonPlanarRotation):
            build_embedded(5, rot)

    def test_octahedron_eight_triangles(self, octa):
        assert len(octa.faces) == 8
        assert all(f.size == 3 for f in octa.faces)
        check_consistency(octa)

    def test_loop_rejected(self):
        with pytest.raises(MultiEdgeOrLoop):
            build_embedded(2, [[1, 1], [0, 0]])

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            build_embedded(4, [[1], [0], [3], [2]])

    def test_asymmetric_rejected(self):
        with pytest.raises(UnknownElement):
            build_embedded(3, [[1, 2], [0, 2], [0]])

    def test_outer_hint_resolution(self, k4):
        assert k4.faces[k4.outer_face].vertex_set() == frozenset({0, 1, 2})

    def test_single_vertex(self):
        g = build_embedded(1, [[]])
        assert len(g.faces) == 1


class TestDual:
    def test_k4_self_dual(self, k4):
        d = dual_graph(k4)
        assert d.n == 4
        assert all(d.degree(v) == 3 for v in range(4))
        check_consistency(d)
        assert len(d.edges) == 6

    def test_octahedron_dual_is_cube(self, octa):
        d = dual_graph(octa)
        assert d.n == 8
        assert all(d.degree(v) == 3 for v in range(8))
        assert all(f.size == 4 for f in d.faces)
        check_consistency(d)

    def test_tree_dual_rejected(self):
        with pytest.raises(MultiEdgeOrLoop):
            dual_graph(path(3))

    @pytest.mark.parametrize("g", [octahedron(), icosahedron(),
                                   stacked_3tree(12, 9),
                                   random_triangulation(30, 2)],
                             ids=["octahedron", "icosahedron", "stacked-12",
                                  "triangulation-30"])
    def test_dual_vertex_is_face(self, g):
        # vertex i is face i; its rotation lists the faces across the darts
        # of face i's walk, so each dual edge crosses one edge of g
        d = dual_graph(g)
        assert d.n == len(g.faces)
        for f in g.faces:
            assert d.rot[f.id] == tuple(g.face_of(v, u) for u, v in f.walk)
        for i, j in d.edges:
            assert g.faces[i].edge_set() & g.faces[j].edge_set()


class TestTriangulate:
    def test_c4_to_k4(self):
        g = cycle(4)
        t, added = triangulate(g)
        assert len(t.edges) == 6
        assert t.is_triangulation()
        assert len(added) == 2
        # one diagonal inside, one outside: they must be the two distinct ones
        assert set(added) == {(0, 2), (1, 3)}
        check_consistency(t)

    def test_identity_on_triangulation(self, k4):
        t, added = triangulate(k4)
        assert added == []
        assert t.rot == k4.rot

    def test_path_to_triangle(self):
        t, _ = triangulate(path(3))
        assert t.is_triangulation()
        assert len(t.edges) == 3
        for e in path(3).edges:
            assert e in t.edges

    def test_too_small(self):
        with pytest.raises(TooSmall):
            triangulate(path(2))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_inputs(self, seed):
        import random
        rng = random.Random(seed)
        g = maximal_outerplanar(rng.randint(4, 12), seed)
        # drop some chords by inducing on everything (keeps graph) then
        # triangulate the original: must reach 3n-6 and stay simple
        t, added = triangulate(g)
        assert len(t.edges) == 3 * t.n - 6
        assert t.is_triangulation()
        check_consistency(t)
        # idempotence
        assert triangulate(t)[1] == []
        # removing added edges recovers the input's face count
        assert len(t.faces) == len(g.faces) + len(added)


def reference_triangulate(g):
    """The re-trace loop that ``triangulate`` replaced: insert one chord
    into the first face of more than three darts, then trace every face
    again.  Returns the rotation, the outer face id and the chords."""
    rot = [list(r) for r in g.rot]
    marker = g.faces[g.outer_face].walk[0]
    edges = set(g.edges)
    added = []
    while True:
        target = next((w for w in _trace_faces(rot)[0] if len(w) > 3), None)
        if target is None:
            break
        verts = [u for u, _ in target]
        k = len(verts)
        pairs = [(i, (i + 2) % k) for i in range(k)]
        pairs += [(i, j) for i in range(k) for j in range(i + 2, k)
                  if (i, j) != (0, k - 1)]
        i, j = next((i, j) for i, j in pairs
                    if verts[i] != verts[j]
                    and norm_edge(verts[i], verts[j]) not in edges)
        a, b = verts[i], verts[j]
        rot[a].insert(rot[a].index(verts[i - 1]), b)
        rot[b].insert(rot[b].index(verts[j - 1]), a)
        edges.add(norm_edge(a, b))
        added.append(norm_edge(a, b))
    walks = _trace_faces(rot)[0]
    outer = next(i for i, w in enumerate(walks) if marker in w)
    return tuple(tuple(r) for r in rot), outer, tuple(added)


TRIANGULATE_CORPUS = (
    [("grid", (r, c)) for r, c in ((2, 2), (3, 5), (6, 6), (9, 12))]
    + [("outerplanar", (n, s)) for n in (4, 9, 40, 120) for s in (1, 2)]
    + [("triangulation", (n, s)) for n in (4, 12, 60) for s in (1, 2)]
    + [("thinned", (n, s)) for n in (8, 20, 50, 120) for s in range(4)]
)
FAMILIES = {"grid": grid, "outerplanar": maximal_outerplanar,
            "triangulation": random_triangulation,
            "thinned": thinned_triangulation}


class TestTriangulateInPlace:
    @pytest.mark.parametrize("family,args", TRIANGULATE_CORPUS,
                             ids=[f"{f}{a}" for f, a in TRIANGULATE_CORPUS])
    def test_matches_retrace_loop(self, family, args):
        g = FAMILIES[family](*args)
        t, added = triangulate(g)
        assert (t.rot, t.outer_face, tuple(added)) == reference_triangulate(g)
        # the added edges are t.edges - g.edges, each listed once
        assert set(added) == t.edges - g.edges
        assert len(added) == len(set(added))

    def test_corpus_repeats_vertices_on_faces(self):
        # the in-place split must also hold where a walk revisits a vertex
        g = thinned_triangulation(50, 0)
        assert any(len(f.vertex_set()) < f.size for f in g.faces)

    @pytest.mark.parametrize("g", [grid(20, 20), maximal_outerplanar(400, 1)],
                             ids=["grid-20x20", "outerplanar-400"])
    def test_traces_once(self, g, trace_calls):
        t, _ = triangulate(g)
        assert t.is_triangulation()
        assert trace_calls[0] <= 3  # the re-trace loop made 437 and 400


def reference_chord_positions(walk_vertices, edges):
    """The earlier chooser: an ear when one is valid, else any valid pair
    of walk positions that are not consecutive."""
    k = len(walk_vertices)

    def valid(i, j):
        a, b = walk_vertices[i], walk_vertices[j]
        return a != b and norm_edge(a, b) not in edges

    for i in range(k):
        j = (i + 2) % k
        if k > 3 and valid(i, j):
            return (i, j)
    for i in range(k):
        for j in range(i + 2, k):
            if (i, j) == (0, k - 1):
                continue
            if valid(i, j):
                return (i, j)
    return None


def spanning_subgraph(g, keep, rng):
    """A random connected spanning subgraph of g in g's embedding: a random
    spanning tree and each other edge with probability ``keep``."""
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    kept = set()
    for u, v in rng.sample(sorted(g.edges), len(g.edges)):
        if find(u) != find(v):
            root[find(u)] = find(v)
            kept.add((u, v))
        elif rng.random() < keep:
            kept.add((u, v))
    return build_embedded(g.n, [[u for u in r if norm_edge(v, u) in kept]
                                for v, r in enumerate(g.rot)])


def sweep_graphs(seed, count):
    """Seeded random connected plane graphs: spanning subgraphs of random
    triangulations, maximal outerplanar graphs and stacked 3-trees keeping
    0-60% of the non-tree edges, and random trees."""
    rng = random.Random(seed)
    makers = (random_triangulation, maximal_outerplanar, stacked_3tree)
    for k in range(count):
        n = rng.randint(4, 40)
        if k % 4 == 3:
            yield _random_tree(n, rng.randrange(10 ** 6))
        else:
            g = makers[k % 4](n, rng.randrange(10 ** 6))
            yield spanning_subgraph(g, rng.choice((0, 0.2, 0.4, 0.6)), rng)


@pytest.mark.parametrize("seed", range(4))
def test_every_offered_face_has_an_ear(seed):
    # the earlier chooser's fallback past the ears is never needed, so
    # triangulate, which keeps only the ear search, splits every face the
    # same way
    offered = 0
    for g in sweep_graphs(seed, 250):
        def choose(verts, edges):
            nonlocal offered
            offered += 1
            pos = reference_chord_positions(verts, edges)
            assert pos is not None and (pos[1] - pos[0]) % len(verts) == 2
            assert _chord_positions(verts, edges) == pos
            return pos

        rot, added = insert_chords(
            g.rot, (f.vertices for f in g.faces if f.size > 3), g.edges,
            choose)
        t, t_added = triangulate(g)
        assert (t.rot, t_added) == (tuple(map(tuple, rot)), added)
        assert t.is_triangulation()
    assert offered > 5000


def _cyclic_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = list(a) + list(a)
    bl = list(b)
    return any(doubled[i:i + len(bl)] == bl for i in range(len(a)))


def reference_build_embedded(n, rotations, hint=None):
    """The scans that ``build_embedded`` replaced: each edge's reverse
    looked up in the neighbour's rotation list, and the outer hint matched
    cyclically against every face before the vertex-set match.  Returns the
    rotation, the face walks and the outer face id, or raises as
    ``build_embedded`` does."""
    if n <= 0:
        raise TooSmall("graph must have at least one vertex")
    if len(rotations) != n:
        raise UnknownElement(
            f"expected {n} rotation lines, got {len(rotations)}")
    rot = tuple(tuple(r) for r in rotations)
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if not 0 <= u < n:
                raise UnknownElement(
                    f"vertex {u} out of range in rotation of {v}")
            if u == v:
                raise MultiEdgeOrLoop(f"loop at vertex {v}")
        if len(set(nbrs)) != len(nbrs):
            raise MultiEdgeOrLoop(f"repeated neighbor in rotation of {v}")
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if v not in rot[u]:
                raise UnknownElement(
                    f"edge {v}-{u} missing from rotation of {u}")
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for u in rot[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise Disconnected(f"{n - len(seen)} vertices unreachable from 0")
    walks = _trace_faces(rot)[0]
    m = sum(len(r) for r in rot) // 2
    f = len(walks) if m > 0 else 1
    if n - m + f != 2:
        raise NonPlanarRotation(
            f"V-E+F = {n}-{m}+{f} = {n - m + f}, expected 2")
    if not walks:
        return rot, [()], 0
    outer = None
    if hint is not None:
        hint = list(hint)
        for i, w in enumerate(walks):
            tails = [u for u, _ in w]
            if len(tails) == len(hint) and _cyclic_equal(tails, hint):
                outer = i
                break
        if outer is None:
            hset = frozenset(hint)
            outer = next((i for i, w in enumerate(walks)
                          if frozenset(u for u, _ in w) == hset), None)
        if outer is None:
            raise UnknownElement(f"no face matches outer hint {hint}")
    else:
        outer = max(range(len(walks)), key=lambda i: (len(walks[i]), -i))
    return rot, [tuple(w) for w in walks], outer


def _hints(g):
    """Outer hints for g: no hint, every face's walk from each of two
    starts, reversed, as a sorted vertex set, and lists no face matches."""
    yield None
    for f in g.faces:
        tails = [u for u, _ in f.walk]
        yield tails
        yield tails[len(tails) // 2:] + tails[:len(tails) // 2]
        yield tails[::-1]
        yield sorted(set(tails))
    yield [0]
    yield []
    yield [0, *g.rot[0][:1], 0]


VALID_ROTATIONS = [
    ("path", path(6)), ("star", star(5)), ("cycle", cycle(7)),
    ("fan", fan(9)), ("grid", grid(3, 4)),
    ("outerplanar", maximal_outerplanar(12, 3)),
    ("triangulation", random_triangulation(15, 2)),
    ("thinned", thinned_triangulation(20, 4)),
    ("single", build_embedded(1, [[]])),
]
INVALID_ROTATIONS = [
    ("missing-reverse", ((1, 2), (2,), (0, 1))),
    ("repeated", ((1, 1), (0,))),
    ("loop", ((0, 1), (0,))),
    ("out-of-range", ((1,), (0, 5))),
    ("disconnected", ((1,), (0,), (3,), (2,))),
    ("k4-twisted", ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))),
]


def _assert_same_build(rot, hint) -> None:
    n = len(rot)
    try:
        want = reference_build_embedded(n, rot, hint)
    except FreesetError as exc:  # then the same error
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            build_embedded(n, rot, outer_face_hint=hint)
        return
    g = build_embedded(n, rot, outer_face_hint=hint)
    assert (g.rot, [f.walk for f in g.faces], g.outer_face) == want
    for f in g.faces:
        assert all(g.face_of(u, v) == f.id for u, v in f.walk)
    for v in range(n):
        assert [g.rot_index(v, u) for u in g.rot[v]] == \
            list(range(len(g.rot[v])))


class TestBuildEmbeddedOracle:
    """The shared rotation index and the one-face hint match against the
    scans they replaced: the same faces, face ids and outer face, or the
    same error."""

    @pytest.mark.parametrize("name,g", VALID_ROTATIONS,
                             ids=[name for name, _ in VALID_ROTATIONS])
    def test_every_hint(self, name, g):
        for hint in _hints(g):
            _assert_same_build(g.rot, hint)

    @pytest.mark.parametrize("name,rot", INVALID_ROTATIONS,
                             ids=[name for name, _ in INVALID_ROTATIONS])
    def test_invalid_rotation(self, name, rot):
        for hint in (None, [0, 1]):
            _assert_same_build(rot, hint)


class TestDerive:
    def test_subdivide_k3_gives_c6(self):
        g = cycle(3)
        h = subdivide(g, list(g.edges))
        assert h.n == 6
        assert all(h.degree(v) == 2 for v in range(6))
        assert len(h.faces) == 2
        check_consistency(h)

    def test_subdivide_one_edge_of_k4(self, k4):
        h = subdivide(k4, [(0, 1)])
        assert h.n == 5
        assert len(h.edges) == 7
        assert h.rot[4] == (0, 1)
        assert not h.has_edge(0, 1)
        check_consistency(h)

    @pytest.mark.parametrize("g", [octahedron(), grid(3, 4),
                                   thinned_triangulation(20, 1)],
                             ids=["octahedron", "grid-3x4", "thinned-20"])
    def test_midpoint_of_kth_edge(self, g):
        # the midpoint of edges[k] = (u, w) is g.n + k with rotation [u, w],
        # in the slots of w at u and of u at w, whichever way (u, w) is given
        edges = sorted(g.edges, key=lambda e: (e[1] * 7 + e[0]) % 11)[::2]
        h = subdivide(g, [(w, u) for u, w in edges])
        assert h.n == g.n + len(edges)
        for k, (u, w) in enumerate(edges):
            mid = g.n + k
            assert h.rot[mid] == (u, w)
            assert h.rot[u][g.rot_index(u, w)] == mid
            assert h.rot[w][g.rot_index(w, u)] == mid
        check_consistency(h)

    def test_subdivide_unknown_edge(self, k4):
        with pytest.raises(UnknownElement):
            subdivide(k4, [(0, 5)])

    def test_subdivide_edge_listed_twice(self, k4):
        with pytest.raises(UnknownElement, match=r"^edge \(0, 1\) listed "
                           "twice$"):
            subdivide(k4, [(0, 1), (1, 0)])

    def test_induce_triangle_from_k4(self, k4):
        h, relabel = induce(k4, [0, 3, 1])
        assert h.n == 3
        assert len(h.edges) == 3
        assert relabel == {0: 0, 1: 1, 3: 2}

    def test_induce_disconnected(self, octa):
        with pytest.raises(Disconnected):
            induce(octa, [0, 5])  # opposite poles share no edge


class TestCycleSides:
    def test_k4_outer_cycle(self, k4):
        cs = cycle_sides(k4, [0, 1, 2])
        inner = cs.left if 3 in cs.left else cs.right
        assert inner == {3}
        spokes = [norm_edge(3, u) for u in (0, 1, 2)]
        sides = {cs.edge_side[e] for e in spokes}
        assert len(sides) == 1

    def test_octahedron_equator(self, octa):
        cs = cycle_sides(octa, [1, 2, 3, 4])
        assert {0, 5} == set(cs.left) | set(cs.right)
        assert len(cs.left) == 1 and len(cs.right) == 1
        assert len(cs.faces_left) + len(cs.faces_right) == 8


class TestGenerators:
    def test_goldner_harary_counts(self, gh):
        assert gh.n == 11
        assert len(gh.edges) == 27
        assert gh.is_triangulation()
        check_consistency(gh)

    def test_icosahedron(self):
        g = icosahedron()
        assert g.n == 12
        assert len(g.edges) == 30
        assert len(g.faces) == 20
        assert all(g.degree(v) == 5 for v in range(12))
        check_consistency(g)

    def test_grid_3x3(self):
        g = grid(3, 3)
        assert g.n == 9
        assert len(g.edges) == 12
        inner = [f for f in g.faces if not f.is_outer]
        assert all(f.size == 4 for f in inner)
        check_consistency(g)

    @pytest.mark.parametrize("n,seed", [(5, 1), (10, 2), (25, 3), (50, 7)])
    def test_random_triangulation(self, n, seed):
        g = random_triangulation(n, seed)
        assert g.n == n
        assert len(g.edges) == 3 * n - 6
        assert g.is_triangulation()
        check_consistency(g)

    def test_random_triangulation_deterministic(self):
        assert random_triangulation(50, 7).rot == random_triangulation(50, 7).rot

    @pytest.mark.parametrize("n,seed", [(4, 0), (9, 4), (30, 5)])
    def test_maximal_outerplanar(self, n, seed):
        g = maximal_outerplanar(n, seed)
        assert len(g.edges) == 2 * n - 3
        outer = g.faces[g.outer_face]
        assert outer.size == n
        assert all(f.size == 3 for f in g.faces if not f.is_outer)
        check_consistency(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_maximal_outerplanar_stack_stays_flat(self, seed):
        # the split tree of a random 3000-gon is about 30 levels deep; split
        # on an explicit stack, generating needs a few frames beyond ours
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 15)
        try:
            g = maximal_outerplanar(3000, seed)
        finally:
            sys.setrecursionlimit(limit)
        assert len(g.edges) == 2 * 3000 - 3

    @pytest.mark.parametrize("n,seed", [(4, 0), (12, 9)])
    def test_stacked_3tree(self, n, seed):
        g = stacked_3tree(n, seed)
        assert g.is_triangulation()
        assert len(g.edges) == 3 * n - 6
        check_consistency(g)

    def test_simple_families(self):
        for g in (path(5), cycle(6), star(6), fan(6)):
            check_consistency(g)

    def test_generate_dispatch(self):
        g = generate(GeneratorSpec("goldner-harary"))
        assert g.n == 11
        from freeset.errors import BadSpec
        with pytest.raises(BadSpec):
            generate(GeneratorSpec("random-triangulation", n=10))  # no seed
        with pytest.raises(BadSpec):
            generate(GeneratorSpec("moebius", n=10))
