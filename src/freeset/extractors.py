"""Free-set extractors.

Each extractor returns an OrderedFreeSet: an ordered vertex list together
with a curve certificate witnessing it, the extractor name, and the size
bound actually met.  The certificate is validated once, when the free set
is made; the extractors themselves check nothing, and no set is reversed.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace

from .canonical import (
    CanonicalStructure,
    antichain_bound,
    canonical_order,
    chain_or_antichain,
)
from .curves import (
    AlongItem,
    CrossItem,
    CurveCertificate,
    OpenCurve,
    VertexItem,
    _Analysis,
    analyze_curve,
    caressed_vertices,
    reroute_caressed,
    route_open_curve,
)
from .embedding import (
    EmbeddedGraph,
    _trace_faces,
    norm_edge,
    subdivide,
    triangulate,
    vertex_ids,
)
from .errors import (
    AntichainTooShort,
    BadLevelAssignment,
    ChainTooShort,
    InvalidCurve,
    NoIndependentPair,
    NotMaximalOuterplane,
    NotSpanningTree,
    TooSmall,
)


@dataclass(frozen=True)
class OrderedFreeSet:
    """An ordered free set with its witnessing certificate.

    The certificate may pass through more vertices than the set itself; the
    set is always a subsequence of the certificate's vertex items.  Making a
    free set checks that and validates the certificate (``analyze_curve``,
    InvalidCurve on failure), its one check; the analysis stays on the set
    for realization.  A restriction shares it; nothing reverses a set.
    """

    graph: EmbeddedGraph
    order: tuple[int, ...]
    certificate: CurveCertificate
    provenance: str
    bound_met: str
    _analysis: _Analysis | None = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        items = self.certificate.vertex_order()
        it = iter(items)
        if not all(v in it for v in self.order):
            raise InvalidCurve(
                "free set is not a subsequence of the curve's vertex items")
        an = self._analysis
        if an is None or an.g is not self.graph or \
                an.cert is not self.certificate:
            object.__setattr__(self, "_analysis",
                               analyze_curve(self.graph, self.certificate))

    def restricted(self, keep) -> "OrderedFreeSet":
        """Subsequence of the set (any subsequence stays free)."""
        keep = set(keep)
        return replace(self, order=tuple(v for v in self.order if v in keep),
                       bound_met="restriction: no bound asserted")


def _rotate_to_vertex_start(cert: CurveCertificate) -> CurveCertificate:
    """Start the item list at a vertex item that follows a face passage,
    preferring the smallest vertex id (deterministic base point)."""
    best = None
    for i, it in enumerate(cert.items):
        if isinstance(it, VertexItem) and cert.passages[i - 1] is not None:
            if best is None or it.v < cert.items[best].v:
                best = i
    if best is None or best == 0:
        return cert
    return cert.rotated(best)


# ---------------------------------------------------------------------------
# Collar curves around an embedded cycle
# ---------------------------------------------------------------------------

def _collar_certificate(g: EmbeddedGraph, cycle: list[int], s: set[int],
                        ) -> CurveCertificate:
    """Closed curve tracing a cycle from its outer side.

    The curve passes through the cycle vertices in S, runs along cycle edges
    joining consecutive S-members, and crosses the outward edges of the
    other cycle vertices.  The outer side is the one containing the graph's
    outer face, which must lie on a cycle edge; all chords of the cycle
    must lie on the inner side.
    """
    k = len(cycle)
    darts = [(u, cycle[(i + 1) % k]) for i, u in enumerate(cycle)]
    # the face on one side of a cycle edge lies on that side of the cycle
    left = next((g.face_of(u, w) == g.outer_face for u, w in darts
                 if g.outer_face in (g.face_of(u, w), g.face_of(w, u))), None)
    if left is None:
        raise InvalidCurve("collar cycle has no edge on the outer face")
    # the outward stubs lie between prev and next: clockwise from prev when
    # the outer side is on the left of the walk
    step = -1 if left else 1

    def outward(a: int, b: int) -> int:
        """Face on the outer-side hand of the dart a -> b."""
        return g.face_of(a, b) if left else g.face_of(b, a)

    # passages[j] is the face after item j: after a vertex, the face outside
    # the next cycle edge; after a crossed stub, the corner that follows it,
    # which for the last stub is the face outside the next cycle edge
    items: list = []
    passages: list[int | None] = []
    for i, (u, nxt) in enumerate(darts):
        if u in s:
            items.append(VertexItem(u))
            if nxt in s:
                items.append(AlongItem(norm_edge(u, nxt)))
                passages += [None, None]
            else:
                passages.append(outward(u, nxt))
            continue
        rot = g.rot[u]
        j, stop = g.rot_index(u, cycle[i - 1]), g.rot_index(u, nxt)
        while (j := (j + step) % len(rot)) != stop:
            items.append(CrossItem(norm_edge(u, rot[j])))
            passages.append(outward(rot[j], u))
    return _rotate_to_vertex_start(
        CurveCertificate(tuple(items), tuple(passages)))


# ---------------------------------------------------------------------------
# Outerplanar greedy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OuterplanarResult:
    free_set: OrderedFreeSet
    n0: int
    n1: int
    n2: int


def _independent_greedy_on_chords(n: int, chords: set[tuple[int, int]],
                                  ) -> tuple[list[int], list[int]]:
    """Greedy independent set in the chord graph: repeatedly take the
    minimum-degree vertex (ties by id) and delete it with its neighbors.
    Returns the picks in order and each pick's degree when it was taken.

    Degrees only fall and each fall pushes a new (degree, id) entry, so a
    living vertex's current entry pops before its stale ones; entries of
    deleted vertices are skipped."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in chords:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    alive = [True] * n
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    chosen, degrees = [], []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v]:
            continue
        chosen.append(v)
        degrees.append(d)
        for u in [v] + adj[v]:
            if alive[u]:
                alive[u] = False
                for w in adj[u]:
                    if alive[w]:
                        deg[w] -= 1
                        heapq.heappush(heap, (deg[w], w))
    return chosen, degrees


def _fill_polygon_chords(k: int, chords: set[tuple[int, int]],
                         ) -> set[tuple[int, int]]:
    """Complete a set of non-crossing chords of the convex k-gon 0..k-1 to
    a triangulation: each inner face gets the fan of chords from its
    smallest vertex.

    The faces are traced once.  The rotation lists each vertex's
    neighbours counter-clockwise, so the outer face walks 0, k-1, ..., 1
    (with no chords the other face has the same vertices and fan).  The fan
    is the chord set that ear insertion from the first dart of each face
    (its smallest vertex) would produce.
    """
    adj: list[set[int]] = [set() for _ in range(k)]
    for i in range(k):
        adj[i].add((i + 1) % k)
        adj[(i + 1) % k].add(i)
    for u, v in chords:
        adj[u].add(v)
        adj[v].add(u)
    rot = [sorted(adj[v], key=lambda u: (u - v) % k) for v in range(k)]
    filled = set(chords)
    for walk in _trace_faces(rot)[0]:
        if walk[0] == (0, k - 1):
            continue
        s = walk[0][0]  # a walk starts at its smallest vertex
        filled.update(norm_edge(s, u) for u, _ in walk[2:-1])
    return filled


def outerplanar_greedy(og: EmbeddedGraph) -> OuterplanarResult:
    """Free set of size at least n/2 + 1 in an edge-maximal outerplane graph.

    The curve stays in the closed outer face: it passes through the chosen
    vertices and runs along the boundary edges between consecutive ones.
    """
    n = og.n
    if n < 4:
        raise TooSmall("outerplanar extraction needs n >= 4")
    outer = og.faces[og.outer_face]
    boundary = [u for u, _ in outer.walk]
    if len(set(boundary)) != n or outer.size != n:
        raise NotMaximalOuterplane("outer face must visit every vertex once")
    if len(og.edges) != 2 * n - 3 or \
            any(f.size != 3 for f in og.faces if not f.is_outer):
        raise NotMaximalOuterplane("inner faces must triangulate the polygon")

    pos = {v: i for i, v in enumerate(boundary)}
    boundary_edges = outer.edge_set()
    chords = {(pos[u], pos[v]) for (u, v) in og.edges
              if norm_edge(u, v) not in boundary_edges}
    chords = {norm_edge(a, b) for a, b in chords}
    chosen_pos, degrees = _independent_greedy_on_chords(n, chords)
    # each pick has at most two living chords in an outerplane chord graph
    s = {boundary[i] for i in chosen_pos}
    if 2 * len(s) < n + 2:
        raise NotMaximalOuterplane(
            f"greedy free set of size {len(s)} < n/2+1 for n={n}")

    cert = _collar_certificate(og, boundary, s)
    order = tuple(v for v in cert.vertex_order() if v in s)
    ofs = OrderedFreeSet(
        graph=og,
        order=order,
        certificate=cert,
        provenance="outerplanar-greedy",
        bound_met=f"|S|={len(s)} >= n/2+1={n // 2 + 1}",
    )
    return OuterplanarResult(ofs, degrees.count(0), degrees.count(1),
                             degrees.count(2))


# ---------------------------------------------------------------------------
# Chain and antichain extraction in triangulations
# ---------------------------------------------------------------------------

def chain_freeset(t: EmbeddedGraph, cs: CanonicalStructure,
                  chain: tuple[int, ...],
                  ) -> tuple[CurveCertificate, tuple[int, ...]]:
    """Free set from a source-to-sink frame path: the path plus the base
    edge is a cycle whose chords are all interior, so the outerplanar
    greedy applies to the cycle.  Returns the certificate and the set in
    its order, unchecked: planar_freeset makes the free set on g, which
    validates the pulled-back certificate once."""
    k = len(chain)
    if k < 3:
        raise ChainTooShort("frame path needs at least 3 vertices")
    if chain[0] != cs.v1 or chain[-1] != cs.v2:
        raise ChainTooShort("chain must run from the source to the sink")
    cycle = list(chain)

    if k == 3:
        s = {chain[0], chain[-1]}
    else:
        pos = {v: i for i, v in enumerate(cycle)}
        cyc_edges = {norm_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
        chords = set()
        for i, u in enumerate(cycle):
            for w in t.rot[u]:
                if w in pos and norm_edge(u, w) not in cyc_edges:
                    chords.add(norm_edge(pos[u], pos[w]))
        filled = _fill_polygon_chords(k, chords)
        chosen_pos, _ = _independent_greedy_on_chords(k, filled)
        s = {cycle[i] for i in chosen_pos}

    cert = _collar_certificate(t, cycle, s)
    return cert, tuple(v for v in cert.vertex_order() if v in s)


def _crescents(t: EmbeddedGraph, pos: dict, ys: list[int],
               ) -> tuple[list[set], list[set]]:
    """Faces and edges between consecutive prefix boundaries.

    The boundary of G_{p+1}, with p the canonical position of y_j, encloses
    the canonical prefix: the inner faces whose largest vertex position is
    at most p.  Group j holds the faces first enclosed at y_j and the edges
    with both faces in group j, so group 0 is the inside of the first
    boundary and group j > 0 the crescent between the boundaries at y_{j-1}
    and y_j; the outer face makes group len(ys).
    """
    k = len(ys)
    cut = [pos[y] for y in ys]
    group = [bisect_left(cut, max(pos[u] for u, _ in f.walk))
             for f in t.faces]
    group[t.outer_face] = k
    faces: list[set] = [set() for _ in range(k + 1)]
    edges: list[set] = [set() for _ in range(k + 1)]
    for f in t.faces:
        faces[group[f.id]].add(f.id)
    for u, v in t.edges:
        j = group[t.face_of(u, v)]
        if j == group[t.face_of(v, u)]:
            edges[j].add((u, v))
    return faces, edges


def antichain_freeset(t: EmbeddedGraph, cs: CanonicalStructure,
                      antichain: tuple[int, ...],
                      ) -> tuple[CurveCertificate, tuple[int, ...]]:
    """Free set from a maximal frame antichain: the curve threads the
    nested prefix boundaries, entering through the base edge and returning
    through the outer face.  Returns the certificate and the set in its
    order, unchecked, as chain_freeset does."""
    k = len(antichain)
    if k < 2:
        raise AntichainTooShort("antichain needs at least 2 vertices")
    pos = {v: i for i, v in enumerate(cs.order)}
    ys = sorted(antichain, key=pos.__getitem__)
    if ys[-1] != cs.vn:
        raise AntichainTooShort("maximal antichains must end at the apex")

    outer_fid = t.outer_face
    base_edge = norm_edge(cs.v1, cs.v2)
    faces, edges = _crescents(t, pos, ys)

    items: list = []
    passages: list[int | None] = []

    def extend(fragment: OpenCurve, end_vertex: int) -> None:
        items.extend(fragment.items)
        passages.extend(fragment.passages)
        items.append(VertexItem(end_vertex))

    # opening crossing of the base edge, then a route from its midpoint to
    # y_1 inside the first boundary
    items.append(CrossItem(base_edge))
    extend(route_open_curve(t, base_edge, ys[0], faces[0], edges[0]), ys[0])
    for j in range(1, k):
        prev_y, y = ys[j - 1], ys[j]
        e = norm_edge(prev_y, y)
        if e in edges[j]:
            passages.append(None)
            items.append(AlongItem(e))
            passages.append(None)
            items.append(VertexItem(y))
        else:
            extend(route_open_curve(t, prev_y, y, faces[j], edges[j]), y)

    # return from the apex to the base point through the outer face
    passages.append(outer_fid)
    cert = CurveCertificate(tuple(items), tuple(passages))
    cert = _rotate_to_vertex_start(cert)
    in_ys = set(ys)
    return cert, tuple(v for v in cert.vertex_order() if v in in_ys)


# ---------------------------------------------------------------------------
# General planar graphs
# ---------------------------------------------------------------------------

def _face_groups(g: EmbeddedGraph, t: EmbeddedGraph, added) -> dict[int, int]:
    """Map each face of the triangulated graph to the face of the original
    graph it lies in (faces merge across added edges)."""
    parent = list(range(len(t.faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in added:
        a, b = find(t.face_of(u, v)), find(t.face_of(v, u))
        parent[a] = b
    group_face: dict[int, int] = {}
    for f in t.faces:
        root = find(f.id)
        if root in group_face:
            continue
        for (u, v) in f.walk:
            if norm_edge(u, v) not in added:
                group_face[root] = g.face_of(u, v)
                break
    return {f.id: group_face[find(f.id)] for f in t.faces}


def _restrict_certificate(g: EmbeddedGraph, t: EmbeddedGraph,
                          added, cert: CurveCertificate) -> CurveCertificate:
    """Pull a certificate on a triangulated supergraph back to the original
    graph: crossings of added edges dissolve into face passages, along items
    on added edges become passages through the containing face."""
    added = set(added)
    if not added:
        return cert
    fmap = _face_groups(g, t, added)
    items, passages = cert.items, cert.passages
    m = len(items)
    new_items: list = []
    new_pass: list[int | None] = []
    pending_override: int | None = None

    for i in range(m):
        it = items[i]
        if isinstance(it, CrossItem) and it.edge in added:
            continue  # both neighbor passages map into the same face
        if isinstance(it, AlongItem) and it.edge in added:
            u, v = it.edge
            pending_override = fmap[t.face_of(u, v)]
            continue
        new_items.append(it)
        p = passages[i]
        new_pass.append(fmap[p] if p is not None else None)
        if pending_override is not None and len(new_items) >= 2:
            new_pass[-2] = pending_override
            pending_override = None

    if pending_override is not None and new_items:
        new_pass[-1] = pending_override

    return CurveCertificate(tuple(new_items), tuple(new_pass))


def planar_freeset(g: EmbeddedGraph, xs=None) -> OrderedFreeSet:
    """Free set of size at least ceil(sqrt(n/2)) in any embedded planar
    graph; with a target set X the extraction is restricted to X (the bound
    is only asserted for the full vertex set).

    The graph is triangulated, a canonical frame poset built, and the
    Dilworth dichotomy dispatched to the chain or antichain construction;
    the certificate is then pulled back through the triangulation and
    validated once, on g.
    """
    full = xs is None
    xs = vertex_ids(g, range(g.n) if full else xs)
    if not xs:
        raise TooSmall("target set is empty")
    if g.n == 1:
        # the one face of a lone vertex has no corner for a curve to use
        raise TooSmall("planar extraction needs at least 2 vertices, got 1")
    if g.n == 2:
        # two vertices are trivially free (any drawing can be mapped onto
        # the targets by a similarity); emit the direct certificate
        cert = CurveCertificate(
            (VertexItem(0), AlongItem((0, 1)), VertexItem(1)),
            (None, None, g.face_of(0, 1)))
        return OrderedFreeSet(graph=g, order=tuple(range(g.n)),
                              certificate=cert, provenance="trivial",
                              bound_met=f"|S|={g.n} (whole graph)")
    t, added = triangulate(g)
    cs = canonical_order(t)
    if len(xs) == 1 and xs[0] in (cs.v1, cs.v2):
        # the source and the sink are comparable to every vertex, so no
        # maximal antichain through them reaches the apex; the target and a
        # neighbour are a free pair on a common face
        v = xs[0]
        return _common_face_pair(g, [v, g.rot[v][0]]).restricted((v,))

    def run(kind: str, data: tuple[int, ...]):
        if kind == "chain":
            return chain_freeset(t, cs, data)
        return antichain_freeset(t, cs, data)

    kind, data = chain_or_antichain(cs, xs)
    cert, order = run(kind, data)
    in_x = set(xs)
    picked = [v for v in order if v in in_x]
    if len(picked) < 2 and not full:
        # the dispatched branch may waste X; try the other one
        other = "antichain" if kind == "chain" else "chain"
        try:
            alt, alt_order = run(other,
                                 chain_or_antichain(cs, xs, force=other)[1])
        except AntichainTooShort:  # the forced antichain is one vertex
            pass
        else:
            alt_picked = [v for v in alt_order if v in in_x]
            if len(alt_picked) > len(picked):
                kind, cert, picked = other, alt, alt_picked
    if len(picked) < 2 and not full:
        pair = _common_face_pair(g, xs)
        if pair is not None:
            return pair

    cert = _restrict_certificate(g, t, added, cert)
    in_picked = set(picked)
    order = tuple(v for v in cert.vertex_order() if v in in_picked)
    bound = antichain_bound(len(xs))
    return OrderedFreeSet(
        graph=g,
        order=order,
        certificate=cert,
        provenance=f"planar/{kind}",
        bound_met=(f"|S|={len(order)} >= ceil(sqrt(n/2))={bound}" if full
                   else f"|S|={len(order)} within X of size {len(xs)}"),
    )


def _common_face_pair(g: EmbeddedGraph, xs) -> OrderedFreeSet | None:
    """Two target vertices on a common face form a free set: the curve dips
    through both and closes inside the face."""
    xs = sorted(set(xs))
    for f in g.faces:
        on_face = [v for v in xs if v in f.vertex_set()]
        if len(on_face) >= 2:
            a, b = on_face[0], on_face[1]
            if g.has_edge(a, b):
                items = (VertexItem(a), AlongItem(norm_edge(a, b)),
                         VertexItem(b))
                passages = (None, None, f.id)
            else:
                items = (VertexItem(a), VertexItem(b))
                passages = (f.id, f.id)
            try:
                return OrderedFreeSet(
                    graph=g, order=(a, b),
                    certificate=CurveCertificate(items, passages),
                    provenance="common-face-pair",
                    bound_met="|S|=2 (fallback)",
                )
            except InvalidCurve:
                continue
    return None


# ---------------------------------------------------------------------------
# Level assignments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelAssignment:
    """Vertex levels with a left-to-right order inside each level."""

    levels: dict            # vertex -> level
    span: int
    order: dict             # level -> tuple of vertices, left to right

    def check(self, g: EmbeddedGraph) -> None:
        if set(self.levels) != set(range(g.n)):
            raise BadLevelAssignment("levels must cover every vertex")
        index = {}
        for lvl, row in self.order.items():
            for i, v in enumerate(row):
                if self.levels[v] != lvl:
                    raise BadLevelAssignment(f"vertex {v} listed on level {lvl}")
                index[v] = i
        if len(index) != g.n:
            raise BadLevelAssignment("level orders must cover every vertex")
        for (u, v) in g.edges:
            du = self.levels[u] - self.levels[v]
            if du == 0:
                if abs(index[u] - index[v]) != 1:
                    raise BadLevelAssignment(
                        f"horizontal edge {u}-{v} joins non-consecutive "
                        "vertices of its level")
            elif abs(du) > self.span:
                raise BadLevelAssignment(
                    f"edge {u}-{v} spans {abs(du) + 1} levels "
                    f"(span {self.span} allows {self.span + 1})")


def bfs_levels(g: EmbeddedGraph) -> LevelAssignment:
    """Breadth-first leveling of a tree from vertex 0, rows ordered by the
    embedding."""
    if len(g.edges) != g.n - 1:
        raise BadLevelAssignment("automatic leveling is for trees only")
    levels = {0: 0}
    rows: dict[int, list[int]] = {0: [0]}
    # depth-first in rotation order keeps each row in planar order
    stack = [(0, None)]
    while stack:
        v, parent = stack.pop()
        children = [u for u in g.rot[v] if u != parent]
        if parent is not None:
            j = g.rot_index(v, parent)
            d = len(g.rot[v])
            children = [g.rot[v][(j + k) % d] for k in range(1, d)]
        for u in reversed(children):
            stack.append((u, v))
        if v not in levels:
            levels[v] = levels[parent] + 1
            rows.setdefault(levels[v], []).append(v)
    return LevelAssignment(levels=levels, span=1,
                           order={lvl: tuple(row) for lvl, row in rows.items()})


def level_freeset(g: EmbeddedGraph, la: LevelAssignment,
                  xs=None) -> OrderedFreeSet:
    """Free set from an s-span weakly level planar structure.

    Picks the residue class of levels richest in X, threads a curve through
    every vertex of those levels (boustrophedon), and crosses each edge
    spanning a chosen level exactly once.
    """
    la.check(g)
    xs = vertex_ids(g, range(g.n) if xs is None else xs)
    mod = la.span + 1
    lvls = sorted(la.order)
    best_r = max(range(mod), key=lambda r: (
        sum(1 for v in xs if la.levels[v] % mod == r), -r))
    chosen = [l for l in lvls if l % mod == best_r]

    snake: list[int] = []
    for i, lvl in enumerate(chosen):
        row = list(la.order[lvl])
        if i % 2 == 1:
            row.reverse()
        snake.extend(row)
    if not snake:
        raise BadLevelAssignment("chosen levels contain no vertices")

    curve_set = set(snake)
    crossable = {e for e in g.edges
                 if e[0] not in curve_set and e[1] not in curve_set}
    allowed = {f.id for f in g.faces}
    used: set = set()

    items: list = []
    passages: list[int | None] = []
    m = len(snake)
    for i, v in enumerate(snake):
        items.append(VertexItem(v))
        w = snake[(i + 1) % m]
        if g.has_edge(v, w):
            passages.append(None)
            items.append(AlongItem(norm_edge(v, w)))
            passages.append(None)
            continue
        frag = route_open_curve(g, v, w, allowed, crossable - used)
        used.update(it.edge for it in frag.items)
        for it, p in zip(frag.items, frag.passages[:-1]):
            passages.append(p)
            items.append(it)
        passages.append(frag.passages[-1])

    cert = CurveCertificate(tuple(items), tuple(passages))
    in_x = set(xs)
    order = tuple(v for v in cert.vertex_order() if v in in_x)
    need = -(-len(xs) // mod)  # ceil
    try:
        fs = OrderedFreeSet(
            graph=g,
            order=order,
            certificate=cert,
            provenance="level",
            bound_met=f"|S|={len(order)} >= ceil(|X|/(s+1))={need}",
        )
    except InvalidCurve as exc:
        raise BadLevelAssignment(
            f"level structure does not yield a proper curve: {exc}") from None
    if len(order) < need:
        raise BadLevelAssignment(
            f"free set of size {len(order)} misses ceil(|X|/(s+1))={need}")
    return fs


# ---------------------------------------------------------------------------
# Spanning trees with many leaves, one-bend free sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanningTree:
    edges: frozenset
    leaf_count: int

    def neighbors(self, g: EmbeddedGraph, v: int) -> list[int]:
        return [u for u in g.rot[v] if norm_edge(u, v) in self.edges]


def maxleaf_tree(g: EmbeddedGraph, seed: int | None = None) -> SpanningTree:
    """Greedy many-leaf spanning tree (no guarantee asserted).

    Grows from a maximum-degree vertex, always attaching the vertex whose
    attachment adds the most leaves, then improves by 1-swaps until none
    adds a leaf.  Each accepted swap adds one leaf, so that takes at most
    n rounds.
    """
    n = g.n
    rng = random.Random(seed) if seed is not None else None
    if rng is None:
        start = max(range(n), key=lambda v: (g.degree(v), -v))
    else:
        top = max(g.degree(v) for v in range(n))
        start = rng.choice([v for v in range(n) if g.degree(v) == top])
    parent: dict[int, int | None] = {start: None}
    deg_t = [0] * n

    def jitter(u: int, t: int) -> tuple:
        if rng is None:
            return (u, t)
        return (rng.random(), u, t)

    while len(parent) < n:
        best = None
        for t in parent:
            for u in g.rot[t]:
                if u in parent:
                    continue
                delta = 1
                if deg_t[t] == 1:
                    delta -= 1
                elif deg_t[t] == 0:
                    delta += 1
                key = (-delta, jitter(u, t))
                if best is None or key < best[0]:
                    best = (key, u, t)
        _, u, t = best
        parent[u] = t
        deg_t[u] += 1
        deg_t[t] += 1

    def in_subtree(x: int, root_of: int) -> bool:
        while x is not None:
            if x == root_of:
                return True
            x = parent[x]
        return False

    improved = True
    while improved:
        improved = False
        for u in range(n):
            if parent[u] is None:
                continue
            p = parent[u]
            for t in g.rot[u]:
                if t == p or in_subtree(t, u):
                    continue
                delta = (1 if deg_t[p] == 2 else 0) - (1 if deg_t[t] == 1 else 0)
                if delta > 0:
                    deg_t[p] -= 1
                    deg_t[t] += 1
                    parent[u] = t
                    improved = True
                    p = t

    edges = frozenset(norm_edge(u, p) for u, p in parent.items()
                      if p is not None)
    leaves = sum(1 for v in range(n) if deg_t[v] == 1)
    return SpanningTree(edges=edges, leaf_count=leaves)


def onebend_freeset(g: EmbeddedGraph, tree: SpanningTree) -> OrderedFreeSet:
    """The leaves of a spanning tree as a free set of the fully subdivided
    graph (a one-bend collinear set of the original graph).

    The curve follows the tree contour, passing through each leaf and
    crossing the near half of every non-tree edge met between consecutive
    tree edges in a rotation.  The free set's graph is ``g`` with every
    edge subdivided: the k-th edge in sorted order gets the midpoint
    g.n + k (``subdivide``).
    """
    n = g.n
    tset = set(tree.edges)
    if len(tset) != n - 1 or any(e not in g.edges for e in tset):
        raise NotSpanningTree("edge set is not a spanning tree of the graph")
    t_deg = [0] * n
    for u, v in tset:
        t_deg[u] += 1
        t_deg[v] += 1
    if 0 in t_deg and n > 1:
        raise NotSpanningTree("tree does not span every vertex")

    edges = sorted(g.edges)
    gp = subdivide(g, edges)
    mid = {e: k for k, e in enumerate(edges, n)}

    leaves = [v for v in range(n) if t_deg[v] == 1]
    l0 = min(leaves)
    v0 = next(u for u in g.rot[l0] if norm_edge(l0, u) in tset)

    def rot_idx(y: int, other: int) -> int:
        return gp.rot_index(y, mid[norm_edge(y, other)])

    d0 = len(gp.rot[l0])
    pending = gp.corner_face(l0, (rot_idx(l0, v0) + 1) % d0)
    collected: list[tuple] = []  # (item, face before it)
    cur = (l0, v0)
    while True:
        x, y = cur
        rp = gp.rot[y]
        d = len(rp)
        i0 = rot_idx(y, x)
        if t_deg[y] == 1:
            collected.append((VertexItem(y), pending))
            pending = gp.corner_face(y, (i0 + 1) % d)
            nxt = (y, x)
        else:
            i = i0
            while True:
                i = (i - 1) % d
                w = g.rot[y][i]
                if norm_edge(y, w) in tset:
                    nxt = (y, w)
                    break
                collected.append(
                    (CrossItem(norm_edge(y, mid[norm_edge(y, w)])), pending))
                pending = gp.corner_face(y, i)
        if nxt == (l0, v0):
            break
        cur = nxt

    items = tuple(it for it, _ in collected)
    before = [p for _, p in collected]
    passages = tuple(before[1:] + before[:1])
    cert = _rotate_to_vertex_start(CurveCertificate(items, passages))
    order = cert.vertex_order()
    return OrderedFreeSet(
        graph=gp,
        order=order,
        certificate=cert,
        provenance="onebend-tree-leaves",
        bound_met=f"|S|={len(order)} = leaf count (no ratio asserted)",
    )


# ---------------------------------------------------------------------------
# Dual-cycle extraction
# ---------------------------------------------------------------------------

def dualcycle_freeset(t: EmbeddedGraph, dual_cycle) -> OrderedFreeSet:
    """Free set from a simple cycle of faces: greedy independent subset of
    the caressed vertices, rerouted through each of them.

    The four-coloring bound k/4 is not asserted; the achieved size is
    reported.
    """
    caressed = caressed_vertices(t, dual_cycle)
    index = {v: i for i, v in enumerate(caressed)}
    edges = {norm_edge(index[u], index[w]) for u in caressed
             for w in t.rot[u] if w in index}
    picks, _ = _independent_greedy_on_chords(len(caressed), edges)
    chosen = [caressed[i] for i in picks]
    if len(chosen) < 2:
        raise NoIndependentPair(
            f"only {len(chosen)} independent caressed vertices")
    cert = reroute_caressed(t, dual_cycle, chosen)
    cert = _rotate_to_vertex_start(cert)
    order = cert.vertex_order()
    return OrderedFreeSet(
        graph=t,
        order=order,
        certificate=cert,
        provenance="dual-cycle",
        bound_met=f"|S|={len(order)} of {len(caressed)} caressed "
                  "(k/4 not asserted)",
    )
