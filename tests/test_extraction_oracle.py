"""Near-linear extraction against the quadratic code it replaced.

The references below are the earlier implementations, kept verbatim in
spirit: the boundary-rescan canonical ordering, descendant bitmasks for
frame reachability, all-pairs Mirsky layers and the chain/antichain
dichotomy built on them, the ``min``-scan independent-set greedy (on
outerplane chords and on dualcycle_freeset's caressed vertices), the
``cycle_sides`` flood for the inside of a prefix boundary, the O(n^2)
monotone-subsequence DP and the collar curve that took its outer side from
a ``cycle_sides`` flood and tried both rotation directions at every cycle
vertex.  Each is compared with the program on a seeded corpus; a few
deterministic work counts bound the new code.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import pytest

from freeset import canonical, extractors
from freeset.applications import lis_lds
from freeset.canonical import (
    CanonicalStructure,
    antichain_bound,
    canonical_order,
    chain_or_antichain,
)
from freeset.curves import (
    AlongItem,
    CrossItem,
    CurveCertificate,
    VertexItem,
    validate_curve,
)
from freeset.embedding import norm_edge, triangulate
from freeset.errors import (
    AntichainTooShort,
    InvalidCurve,
    NoIndependentPair,
    NotACycle,
)
from freeset.extractors import (
    _collar_certificate,
    _crescents,
    _fill_polygon_chords,
    _independent_greedy_on_chords,
    _rotate_to_vertex_start,
    outerplanar_greedy,
    planar_freeset,
)
from freeset.generators import grid, maximal_outerplanar, random_triangulation

from conftest import (
    canonical_fans,
    frame_edges,
    prefix_boundaries,
    thinned_triangulation,
)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleSides:
    """Partition of a graph relative to a directed embedded cycle.

    ``left``/``right`` hold the non-cycle vertices on each side of the
    traversal; ``edge_side`` maps every non-cycle edge to "left" or "right";
    ``faces_left``/``faces_right`` partition the face ids.
    """

    cycle: tuple[int, ...]
    left: frozenset[int]
    right: frozenset[int]
    edge_side: dict
    faces_left: frozenset[int]
    faces_right: frozenset[int]


def cycle_sides(g, cycle) -> CycleSides:
    """Classify vertices, edges and faces as left or right of a cycle by
    flooding from its stubs; no extraction uses it any more.

    The cycle is given as a vertex sequence (closed implicitly); consecutive
    vertices must be adjacent and all cycle vertices distinct.
    """
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        raise NotACycle(f"{cycle} is not a simple cycle")
    on_cycle = {v: i for i, v in enumerate(cycle)}
    cyc_edges = set()
    for i, v in enumerate(cycle):
        w = cycle[(i + 1) % k]
        if not g.has_edge(v, w):
            raise NotACycle(f"{v}-{w} is not an edge")
        cyc_edges.add(norm_edge(v, w))

    # stub sides: at x_i, neighbors strictly ccw between next and prev are left
    stub_side: dict[tuple[int, int], str] = {}
    for i, v in enumerate(cycle):
        prev, nxt = cycle[i - 1], cycle[(i + 1) % k]
        nbrs = g.rot[v]
        d = len(nbrs)
        j = g.rot_index(v, nxt)
        side = "left"
        for step in range(1, d):
            u = nbrs[(j + step) % d]
            if u == prev:
                side = "right"
                continue
            stub_side[(v, u)] = side

    # flood vertex sides through non-cycle edges
    vert_side: dict[int, str] = {}
    for (v, u), side in stub_side.items():
        if u in on_cycle:
            continue
        if u in vert_side:
            if vert_side[u] != side:
                raise NotACycle(f"vertex {u} lies on both sides of the cycle")
            continue
        vert_side[u] = side
        stack = [u]
        while stack:
            w = stack.pop()
            for z in g.rot[w]:
                if z in on_cycle or z in vert_side:
                    if z in vert_side and vert_side[z] != side:
                        raise NotACycle(
                            f"vertex {z} lies on both sides of the cycle")
                    continue
                vert_side[z] = side
                stack.append(z)

    edge_side: dict[tuple[int, int], str] = {}
    for (u, v) in g.edges:
        e = norm_edge(u, v)
        if e in cyc_edges:
            continue
        if u in on_cycle and v in on_cycle:
            s1, s2 = stub_side[(u, v)], stub_side[(v, u)]
            if s1 != s2:
                raise NotACycle(f"chord {e} crosses the cycle")
            edge_side[e] = s1
        elif u in on_cycle:
            edge_side[e] = vert_side[v]
        elif v in on_cycle:
            edge_side[e] = vert_side[u]
        else:
            edge_side[e] = vert_side[u]

    # flood face sides in the dual, blocked at cycle edges
    face_side: dict[int, str] = {}
    stack2: list[tuple[int, str]] = []
    for i, v in enumerate(cycle):
        w = cycle[(i + 1) % k]
        stack2.append((g.face_of(v, w), "left"))
        stack2.append((g.face_of(w, v), "right"))
    while stack2:
        fid, side = stack2.pop()
        if fid in face_side:
            if face_side[fid] != side:
                raise NotACycle("face reachable from both sides of the cycle")
            continue
        face_side[fid] = side
        for (u, v) in g.faces[fid].walk:
            if norm_edge(u, v) in cyc_edges:
                continue
            stack2.append((g.face_of(v, u), side))

    return CycleSides(
        cycle=tuple(cycle),
        left=frozenset(v for v, s in vert_side.items() if s == "left"),
        right=frozenset(v for v, s in vert_side.items() if s == "right"),
        edge_side=edge_side,
        faces_left=frozenset(f for f, s in face_side.items() if s == "left"),
        faces_right=frozenset(f for f, s in face_side.items() if s == "right"),
    )


def reference_canonical_order(t, v1, v2, vn):
    """Reverse deletion rescanning the whole boundary for the smallest
    chord-free vertex at every step.  Returns (order, attach,
    boundary_after)."""
    n = t.n
    adj = [set(t.rot[v]) for v in range(n)]
    alive = [True] * n
    boundary = [v1, vn, v2]
    on_boundary = set(boundary)
    order = [0] * n
    order[0], order[1], order[n - 1] = v1, v2, vn
    attach = {}
    boundary_after = {n: tuple(boundary)}
    for step in range(n, 2, -1):
        pick = None
        for j in range(1, len(boundary) - 1):
            v = boundary[j]
            chord = any(u in on_boundary and u != boundary[j - 1]
                        and u != boundary[j + 1] for u in adj[v])
            if not chord and (pick is None or v < boundary[pick]):
                pick = j
        v = boundary[pick]
        left, right = boundary[pick - 1], boundary[pick + 1]
        ring = [u for u in t.rot[v] if alive[u]]
        k = ring.index(left)
        fan = ring[k:] + ring[:k]
        assert fan[-1] == right
        order[step - 1] = v
        attach[v] = tuple(fan)
        alive[v] = False
        on_boundary.discard(v)
        for u in adj[v]:
            adj[u].discard(v)
        boundary[pick:pick + 1] = fan[1:-1]
        on_boundary.update(fan[1:-1])
        boundary_after[step - 1] = tuple(boundary)
    return tuple(order), attach, boundary_after


def reference_reach(cs):
    """Descendant bitmasks of the frame, from a Kahn topological order."""
    n = cs.graph.n
    succ = {v: [] for v in range(n)}
    indeg = [0] * n
    for a, b in frame_edges(cs):
        succ[a].append(b)
        indeg[b] += 1
    topo = [v for v in range(n) if indeg[v] == 0]
    for u in topo:
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                topo.append(w)
    assert len(topo) == n
    reach = {v: 1 << v for v in range(n)}
    for u in reversed(topo):
        for w in succ[u]:
            reach[u] |= reach[w]

    def precedes(a, b):
        return a != b and bool(reach[a] >> b & 1)
    return topo, precedes


def reference_mirsky_layers(topo, precedes, xs):
    in_x = set(xs)
    layer = {}
    for v in topo:
        if v in in_x:
            layer[v] = 1 + max((layer[u] for u in layer if precedes(u, v)),
                               default=0)
    return layer


def reference_frame_path(cs, precedes, a, b):
    edges = frame_edges(cs)
    path = [a]
    while a != b:
        a = min(w for a0, w in edges
                if a0 == a and (w == b or precedes(w, b)))
        path.append(a)
    return path


def reference_chain_or_antichain(cs, topo, precedes, xs, force=None):
    """The dichotomy on all-pairs layers and an all-pairs maximalization."""
    xs = sorted(set(xs))
    layer = reference_mirsky_layers(topo, precedes, xs)
    depth = max(layer.values())
    kind = force or ("chain" if depth * depth >= 2 * len(xs)
                     else "antichain")
    if kind == "chain":
        chain, cur = [], None
        for d in range(depth, 0, -1):
            cur = min(u for u in xs if layer[u] == d
                      and (cur is None or precedes(u, cur)))
            chain.append(cur)
        stops = [cs.v1] + [v for v in reversed(chain)
                           if v not in (cs.v1, cs.v2)] + [cs.v2]
        path = [cs.v1]
        for a, b in zip(stops, stops[1:]):
            path.extend(reference_frame_path(cs, precedes, a, b)[1:])
        return "chain", tuple(path)
    best = max(range(1, depth + 1),
               key=lambda d: (sum(1 for v in xs if layer[v] == d), -d))
    anti = {v for v in xs if layer[v] == best}
    for v in range(cs.graph.n):
        if v not in anti and all(not precedes(v, u) and not precedes(u, v)
                                 for u in anti):
            anti.add(v)
    pos = {v: i for i, v in enumerate(cs.order)}
    ordered = tuple(sorted(anti, key=lambda v: pos[v]))
    if ordered[-1] != cs.vn:
        raise AntichainTooShort("maximal antichains must end at the apex")
    return "antichain", ordered


def reference_greedy(n, chords):
    adj = {v: set() for v in range(n)}
    for u, v in chords:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    chosen, degrees = [], []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        chosen.append(v)
        degrees.append(len(adj[v] & alive))
        alive -= {v} | adj[v]
    return chosen, degrees


def reference_dualcycle_picks(t, caressed):
    """The ``min``-scan over the caressed vertices that dualcycle_freeset
    used, with degrees counted in t among the living ones."""
    alive = set(caressed)
    chosen = []
    while alive:
        v = min(alive, key=lambda u: (sum(1 for w in t.rot[u] if w in alive),
                                      u))
        chosen.append(v)
        alive -= {v} | set(t.rot[v])
    return chosen


def reference_inside(t, cycle):
    """Faces and edges strictly inside a prefix boundary, by flooding."""
    sides = cycle_sides(t, cycle)
    label = "left" if t.outer_face in sides.faces_right else "right"
    faces = sides.faces_left if label == "left" else sides.faces_right
    return set(faces), {e for e, s in sides.edge_side.items() if s == label}


def reference_collar(g, cycle, s):
    """The collar curve built from a ``cycle_sides`` flood: at every cycle
    vertex both rotation directions are tried against the flood, and the
    cycle is walked twice so that the first walk fills in the face pending
    from the last vertex."""
    cs = cycle_sides(g, cycle)
    if g.outer_face in cs.faces_left:
        out_faces, out_label = cs.faces_left, "left"
    else:
        out_faces, out_label = cs.faces_right, "right"
    k = len(cycle)
    in_s = [cycle[i] in s for i in range(k)]

    def vertex_plan(i):
        u = cycle[i]
        rot = g.rot[u]
        d = len(rot)
        ip = g.rot_index(u, cycle[i - 1])
        inx = g.rot_index(u, cycle[(i + 1) % k])
        for sign in (1, -1):
            stubs = []
            idx = ip
            while True:
                idx = (idx + sign) % d
                if idx == inx:
                    break
                if cs.edge_side.get(norm_edge(u, rot[idx])) != out_label:
                    break
                stubs.append((idx, rot[idx]))
            if idx != inx:
                continue
            faces = [g.corner_face(u, j if sign == 1 else (j + 1) % d)
                     for j, _ in stubs]
            exit_face = g.corner_face(u, inx if sign == 1 else (inx + 1) % d)
            if all(f in out_faces for f in faces) and exit_face in out_faces:
                return stubs, faces, exit_face
        raise InvalidCurve(f"no outward corridor around cycle vertex {u}")

    items, before = [], []
    pending = None
    for lap in range(2):
        for i in range(k):
            u = cycle[i]
            stubs, faces, exit_face = vertex_plan(i)
            if in_s[i]:
                if lap == 1:
                    items.append(VertexItem(u))
                    before.append(pending)
                if in_s[(i + 1) % k]:
                    if lap == 1:
                        items.append(AlongItem(norm_edge(u, cycle[(i + 1) % k])))
                        before.append(None)
                    pending = None
                else:
                    pending = exit_face
            else:
                for (_, w), face in zip(stubs, faces):
                    if lap == 1:
                        items.append(CrossItem(norm_edge(u, w)))
                        before.append(face)
                pending = exit_face
    passages = tuple(before[1:] + before[:1])
    return _rotate_to_vertex_start(CurveCertificate(tuple(items), passages))


def reference_lis_lds(vals):
    n = len(vals)

    def longest(cmp):
        best, prev = [1] * n, [-1] * n
        for i in range(n):
            for j in range(i):
                if cmp(vals[j], vals[i]) and best[j] + 1 > best[i]:
                    best[i], prev[i] = best[j] + 1, j
        end = max(range(n), key=lambda i: (best[i], -i))
        out = []
        while end != -1:
            out.append(end)
            end = prev[end]
        return out[::-1]

    inc = longest(lambda a, b: a < b)
    dec = longest(lambda a, b: a > b)
    return (inc, "increasing") if len(inc) >= len(dec) else (dec, "decreasing")


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

CORPUS = {
    "triangulation": [(4, 1), (12, 2), (40, 3), (90, 4), (160, 5)],
    "grid": [(2, 3), (4, 5), (7, 7), (9, 12)],
    "outerplanar": [(5, 1), (17, 2), (60, 3), (150, 4)],
    "thinned": [(20, 1), (60, 2), (120, 3), (180, 4)],
}
FAMILIES = {
    "triangulation": random_triangulation,
    "grid": grid,
    "outerplanar": maximal_outerplanar,
    "thinned": thinned_triangulation,
}
CASES = [(f, a) for f, args in CORPUS.items() for a in args]
IDS = [f"{f}{a}" for f, a in CASES]


def structure(family, args):
    t, _ = triangulate(FAMILIES[family](*args))
    return t, canonical_order(t)


def target_sets(n, seed):
    """The full vertex set and seeded random subsets of several sizes."""
    rng = random.Random(seed)
    sizes = sorted({1, 2, 3, max(1, n // 10), n // 3, n // 2} - {0})
    return [list(range(n))] + [rng.sample(range(n), k) for k in sizes]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,args", CASES, ids=IDS)
def test_canonical_order_matches_boundary_rescan(family, args):
    t, cs = structure(family, args)
    order, attach, boundary_after = reference_canonical_order(
        t, cs.v1, cs.v2, cs.vn)
    assert cs.order == order
    assert canonical_fans(cs) == attach
    assert prefix_boundaries(cs) == boundary_after


@pytest.mark.parametrize("family,args", CASES, ids=IDS)
def test_precedes_matches_bitmasks(family, args):
    t, cs = structure(family, args)
    _, precedes = reference_reach(cs)
    n = t.n
    assert [[cs.precedes(a, b) for b in range(n)] for a in range(n)] == \
        [[precedes(a, b) for b in range(n)] for a in range(n)]
    edges = frame_edges(cs)
    for v in range(n):
        assert list(cs.succ[v]) == sorted(b for a, b in edges if a == v)


@pytest.mark.parametrize("family,args", CASES, ids=IDS)
def test_dichotomy_matches_all_pairs(family, args):
    t, cs = structure(family, args)
    topo, precedes = reference_reach(cs)
    for xs in target_sets(t.n, t.n):
        xs = sorted(xs)
        layer = canonical.patience_layers(
            [(cs.left_rank[v], cs.right_rank[v]) for v in xs])
        assert dict(zip(xs, layer)) == \
            reference_mirsky_layers(topo, precedes, xs)
        for force in (None, "chain", "antichain"):
            try:
                want = reference_chain_or_antichain(cs, topo, precedes, xs,
                                                    force)
            except AntichainTooShort:
                with pytest.raises(AntichainTooShort):
                    chain_or_antichain(cs, xs, force=force)
                continue
            assert chain_or_antichain(cs, xs, force=force) == want


@pytest.mark.parametrize("family,args", CASES, ids=IDS)
def test_crescents_match_cycle_floods(family, args):
    t, cs = structure(family, args)
    pos = {v: i for i, v in enumerate(cs.order)}
    boundaries = prefix_boundaries(cs)
    for xs in target_sets(t.n, t.n + 1):
        try:
            _, ys = chain_or_antichain(cs, xs, force="antichain")
        except AntichainTooShort:
            continue
        faces, edges = _crescents(t, pos, list(ys))
        prev_faces, prev_edges, prev_cycle = set(), set(), []
        for j, y in enumerate(ys):
            cycle = list(boundaries[pos[y] + 1])
            faces_in, edges_in = reference_inside(t, cycle)
            cycle_edges = {norm_edge(a, b)
                           for a, b in zip(prev_cycle,
                                           prev_cycle[1:] + prev_cycle[:1])}
            assert faces[j] == faces_in - prev_faces
            assert edges[j] == edges_in - prev_edges - cycle_edges
            prev_faces, prev_edges, prev_cycle = faces_in, edges_in, cycle


@pytest.mark.parametrize("k", [3, 4, 7, 20, 61, 150])
@pytest.mark.parametrize("seed", range(5))
def test_greedy_matches_min_scan(k, seed):
    rng = random.Random(seed)
    g = maximal_outerplanar(k, seed)
    chords = {e for e in g.edges
              if (e[1] - e[0]) % k not in (1, k - 1) and rng.random() < 0.6}
    for cs in (chords, _fill_polygon_chords(k, set(chords))):
        assert _independent_greedy_on_chords(k, cs) == \
            reference_greedy(k, cs)


class _Picked(Exception):
    pass


@pytest.mark.parametrize("n", [8, 40, 150])
@pytest.mark.parametrize("seed", range(4))
def test_dualcycle_greedy_matches_min_scan(n, seed, monkeypatch):
    """dualcycle_freeset's picks on seeded induced subgraphs, standing in
    for the caressed vertices of a dual cycle."""
    rng = random.Random(seed)
    t = random_triangulation(n, seed)
    picks = []

    def capture(g, cycle, chosen):
        picks.append(list(chosen))
        raise _Picked

    monkeypatch.setattr(extractors, "reroute_caressed", capture)
    for density in (0.2, 0.5, 0.9):
        ground = tuple(v for v in range(n) if rng.random() < density)
        monkeypatch.setattr(extractors, "caressed_vertices",
                            lambda g, cycle: ground)
        want = reference_dualcycle_picks(t, ground)
        if len(want) < 2:
            with pytest.raises(NoIndependentPair):
                extractors.dualcycle_freeset(t, None)
            continue
        with pytest.raises(_Picked):
            extractors.dualcycle_freeset(t, None)
        assert picks.pop() == want


@pytest.mark.parametrize("n", [1, 2, 3, 8, 50, 300])
@pytest.mark.parametrize("seed", range(6))
def test_lis_lds_matches_quadratic_dp(n, seed):
    rng = random.Random(seed)
    for vals in (rng.sample(range(-5 * n, 5 * n), n), sorted(range(n)),
                 sorted(range(n), reverse=True)):
        assert lis_lds(vals) == reference_lis_lds(vals)


def _collar_calls(monkeypatch):
    """Record the (graph, cycle, S) of every collar the extractors build."""
    calls = []

    def recording(g, cycle, s):
        calls.append((g, list(cycle), set(s)))
        return _collar_certificate(g, cycle, s)

    monkeypatch.setattr(extractors, "_collar_certificate", recording)
    return calls


@pytest.mark.parametrize("family,args", CASES, ids=IDS)
def test_collar_matches_cycle_flood(family, args, monkeypatch):
    """Every collar of planar_freeset (full and restricted targets) and of
    outerplanar_greedy, and the same cycles with seeded random subsets S,
    item for item and passage for passage."""
    g = FAMILIES[family](*args)
    calls = _collar_calls(monkeypatch)
    for xs in target_sets(g.n, g.n + 2):
        planar_freeset(g, xs)
    if family == "outerplanar" and g.n >= 4:
        outerplanar_greedy(g)
    assert calls
    rng = random.Random(g.n)
    for t, cycle, s in list(calls):
        sets = [s] + [set(rng.sample(cycle, rng.randint(1, len(cycle))))
                      for _ in range(3)]
        for s_ in sets:
            assert _collar_certificate(t, cycle, s_) == \
                reference_collar(t, cycle, s_)


def test_antichain_makes_no_cycle_floods():
    """No extraction floods a cycle: not the antichain branch (one flood
    per antichain vertex made 200 here), not the chain branch's collar and
    not outerplanar_greedy's.  The flood, ``cycle_sides``, lives here only,
    and no program module binds it."""
    assert not [name for name, module in list(sys.modules.items())
                if name.startswith("freeset") and
                hasattr(module, "cycle_sides")]
    kinds = set()
    for g in (maximal_outerplanar(400, 1), random_triangulation(200, 1),
              grid(10, 10)):
        kinds.add(planar_freeset(g).provenance)
    assert kinds == {"planar/antichain", "planar/chain"}
    outerplanar_greedy(maximal_outerplanar(400, 1))


def test_dichotomy_precedes_calls_are_linear(monkeypatch):
    n = 2000
    t, cs = structure("triangulation", (n, 1))
    calls = [0]
    precedes = CanonicalStructure.precedes

    def counting(self, a, b):
        calls[0] += 1
        return precedes(self, a, b)

    monkeypatch.setattr(CanonicalStructure, "precedes", counting)
    for force in ("chain", "antichain"):
        calls[0] = 0
        chain_or_antichain(cs, range(n), force=force)
        assert calls[0] <= 4 * n


def test_three_thousand_vertices():
    n = 3000
    g = random_triangulation(n, 1)
    fs = planar_freeset(g)
    assert len(fs.order) >= antichain_bound(n)
    assert validate_curve(g, fs.certificate) is None
