"""Canonical vertex orderings of triangulations and their frame DAG.

The ordering is computed by reverse deletion: repeatedly remove a boundary
vertex (never the two base vertices) that is not an endpoint of a chord of
the current boundary cycle.  Each step records the neighbor fan along the
previous boundary, whose first and last edges form the frame; reachability
in the frame is the partial order driving the chain/antichain dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .embedding import EmbeddedGraph
from .errors import AntichainTooShort, NotTriangulation

Chain = tuple[int, ...]
Antichain = tuple[int, ...]


@dataclass(frozen=True)
class CanonicalStructure:
    graph: EmbeddedGraph
    order: tuple[int, ...]                 # v_1 .. v_n
    attach: dict                           # v_i -> neighbor fan in G_{i-1}
    frame_edges: frozenset                 # directed (a, b)
    boundary_after: dict                   # step i -> boundary path of G_i
    topo: tuple[int, ...]                  # a topological order of the frame
    reach: dict = field(repr=False)        # v -> bitmask of descendants

    @property
    def v1(self) -> int:
        return self.order[0]

    @property
    def v2(self) -> int:
        return self.order[1]

    @property
    def vn(self) -> int:
        return self.order[-1]

    def position(self, v: int) -> int:
        return self.order.index(v)

    def precedes(self, a: int, b: int) -> bool:
        """True when the frame has a directed path from a to b."""
        return a != b and bool(self.reach[a] >> b & 1)

    def comparable(self, a: int, b: int) -> bool:
        return self.precedes(a, b) or self.precedes(b, a)

    def frame_successors(self, v: int) -> list[int]:
        return sorted(b for a, b in self.frame_edges if a == v)


def canonical_order(t: EmbeddedGraph,
                    outer_triple: tuple[int, int, int] | None = None,
                    ) -> CanonicalStructure:
    """Canonical ordering of a triangulation with designated outer triangle.

    outer_triple is (v1, v2, vn); by default v1 is the smallest outer vertex,
    vn its successor on the outer walk and v2 its predecessor.
    """
    if not t.is_triangulation():
        raise NotTriangulation("canonical ordering needs a triangulation")
    outer_walk = [u for u, _ in t.faces[t.outer_face].walk]
    if outer_triple is None:
        v1 = min(outer_walk)
        i = outer_walk.index(v1)
        vn = outer_walk[(i + 1) % 3]
        v2 = outer_walk[(i - 1) % 3]
    else:
        v1, v2, vn = outer_triple
        if {v1, v2, vn} != set(outer_walk):
            raise NotTriangulation(
                f"({v1},{v2},{vn}) is not the outer face {outer_walk}")

    n = t.n
    adj = [set(t.rot[v]) for v in range(n)]
    alive = [True] * n
    boundary = [v1, vn, v2]
    on_boundary = set(boundary)
    order = [0] * n
    order[0], order[1], order[n - 1] = v1, v2, vn
    attach: dict[int, tuple[int, ...]] = {}
    boundary_after: dict[int, tuple[int, ...]] = {n: tuple(boundary)}

    for step in range(n, 2, -1):
        pick = None
        for j in range(1, len(boundary) - 1):
            v = boundary[j]
            chord = any(u in on_boundary and u != boundary[j - 1]
                        and u != boundary[j + 1] for u in adj[v])
            if not chord and (pick is None or v < boundary[pick]):
                pick = j
        if pick is None:
            raise NotTriangulation("no removable boundary vertex; "
                                   "input is not a valid triangulation")
        v = boundary[pick]
        left, right = boundary[pick - 1], boundary[pick + 1]

        # fan of v in the current graph, ordered along the new boundary:
        # the restricted rotation is the fan w_1..w_d with one empty arc
        # between the two boundary neighbors
        ring = [u for u in t.rot[v] if alive[u]]
        li = ring.index(left)
        fan = []
        for k in range(len(ring)):
            fan.append(ring[(li + k) % len(ring)])
            if fan[-1] == right:
                break
        if fan[-1] != right:  # the empty arc is on the other side
            ri = ring.index(right)
            fan = []
            for k in range(len(ring)):
                fan.append(ring[(ri + k) % len(ring)])
                if fan[-1] == left:
                    break
            fan.reverse()
        if fan[0] != left or fan[-1] != right or len(fan) != len(ring):
            raise NotTriangulation(f"fan of {v} does not span the boundary")

        order[step - 1] = v
        attach[v] = tuple(fan)
        alive[v] = False
        on_boundary.discard(v)
        for u in adj[v]:
            adj[u].discard(v)
        adj[v].clear()
        boundary[pick:pick + 1] = fan[1:-1]
        on_boundary.update(fan[1:-1])
        boundary_after[step - 1] = tuple(boundary)

    if boundary != [v1, v2]:
        raise NotTriangulation("boundary did not reduce to the base edge")

    frame = set()
    for v, fan in attach.items():
        frame.add((fan[0], v))
        frame.add((v, fan[-1]))

    # reachability over the frame DAG (descendant bitmasks)
    succ: dict[int, list[int]] = {v: [] for v in range(n)}
    indeg = {v: 0 for v in range(n)}
    for a, b in frame:
        succ[a].append(b)
        indeg[b] += 1
    topo = [v for v in range(n) if indeg[v] == 0]
    qi = 0
    while qi < len(topo):
        u = topo[qi]
        qi += 1
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                topo.append(w)
    if len(topo) != n:
        raise NotTriangulation("frame is not acyclic")
    reach = {v: 1 << v for v in range(n)}
    for u in reversed(topo):
        for w in succ[u]:
            reach[u] |= reach[w]

    return CanonicalStructure(
        graph=t,
        order=tuple(order),
        attach=attach,
        frame_edges=frozenset(frame),
        boundary_after=boundary_after,
        topo=tuple(topo),
        reach=reach,
    )


def is_near_triangulation(g: EmbeddedGraph) -> bool:
    """Inner faces all triangles and a simple outer boundary cycle."""
    outer = g.faces[g.outer_face]
    tails = [u for u, _ in outer.walk]
    if len(set(tails)) != len(tails):
        return False
    return all(f.size == 3 for f in g.faces if not f.is_outer)


# ---------------------------------------------------------------------------
# Chain / antichain dichotomy
# ---------------------------------------------------------------------------

def _mirsky_layers(cs: CanonicalStructure, xs: list[int]) -> dict[int, int]:
    """Longest-path strata of the frame poset restricted to X."""
    in_x = set(xs)
    layer: dict[int, int] = {}
    for v in cs.topo:
        if v not in in_x:
            continue
        layer[v] = 1 + max((layer[u] for u in layer if cs.precedes(u, v)),
                           default=0)
    return layer


def _frame_path(cs: CanonicalStructure, a: int, b: int) -> list[int]:
    """Some directed frame path from a to b (both included)."""
    path = [a]
    v = a
    while v != b:
        nxt = None
        for w in sorted(cs.frame_successors(v)):
            if w == b or cs.precedes(w, b):
                nxt = w
                break
        if nxt is None:  # pragma: no cover - guarded by precedes
            raise NotTriangulation(f"no frame path {a} -> {b}")
        path.append(nxt)
        v = nxt
    return path


def chain_or_antichain(cs: CanonicalStructure, xs,
                       ) -> tuple[str, tuple[int, ...]]:
    """Dilworth dichotomy on the frame poset restricted to X.

    Returns ("chain", path) where path is a full source-to-sink frame path
    containing at least sqrt(2|X|) members of X, or ("antichain", ys) with a
    maximal antichain containing at least sqrt(|X|/2) members of X, ordered
    by canonical position.
    """
    xs = sorted(set(xs))
    if not xs:
        raise ValueError("X must be nonempty")
    layer = _mirsky_layers(cs, xs)
    depth = max(layer.values())

    if depth * depth >= 2 * len(xs):
        # recover a chain of X-members, one per layer, top down
        by_layer: dict[int, list[int]] = {}
        for v in xs:
            by_layer.setdefault(layer[v], []).append(v)
        chain: list[int] = []
        cur = None
        for d in range(depth, 0, -1):
            v = min(u for u in by_layer[d]
                    if cur is None or cs.precedes(u, cur))
            chain.append(v)
            cur = v
        chain.reverse()
        # stitch into one source-to-sink frame path
        path: list[int] = []
        stops = [cs.v1] + [v for v in chain if v not in (cs.v1, cs.v2)] + [cs.v2]
        for i in range(len(stops) - 1):
            seg = _frame_path(cs, stops[i], stops[i + 1])
            path.extend(seg if i == 0 else seg[1:])
        return "chain", tuple(path)

    # otherwise the largest layer is a big antichain within X
    best = max(range(1, depth + 1),
               key=lambda d: (sum(1 for v in xs if layer[v] == d), -d))
    anti = {v for v in xs if layer[v] == best}
    # maximalize over all vertices (guarantees v_n joins the antichain)
    for v in sorted(range(cs.graph.n)):
        if v not in anti and all(not cs.comparable(v, u) for u in anti):
            anti.add(v)
    pos = {v: i for i, v in enumerate(cs.order)}
    ordered = tuple(sorted(anti, key=lambda v: pos[v]))
    if ordered[-1] != cs.vn:
        raise AntichainTooShort("maximal antichains must end at the apex")
    return "antichain", ordered


def chain_bound(x_size: int) -> int:
    """ceil(sqrt(2 x)) for x >= 1."""
    return math.isqrt(2 * x_size - 1) + 1


def antichain_bound(x_size: int) -> int:
    """ceil(sqrt(x / 2)): the smallest k with 2 k^2 >= x."""
    if x_size <= 0:
        return 0
    return math.isqrt((x_size - 1) // 2) + 1
