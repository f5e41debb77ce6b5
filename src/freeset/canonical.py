"""Canonical vertex orderings of triangulations and their frame DAG.

The ordering is computed by reverse deletion: repeatedly remove the smallest
boundary vertex (never the two base vertices) that is not an endpoint of a
chord of the current boundary cycle; chord counts and a heap of chord-free
vertices replace boundary scans.  Each step walks the neighbor fan along
the previous boundary and adds its first and last edges to the frame.  The
frame is a planar st-graph, so its reachability is dominance in two
depth-first orders (Kameda 1975); that partial order drives the
chain/antichain dichotomy.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .embedding import EmbeddedGraph
from .errors import AntichainTooShort, NotTriangulation


@dataclass(frozen=True)
class CanonicalStructure:
    """A canonical order and its frame: for each v_i, i > 2, an edge from
    the first vertex of its fan in G_{i-1} to v_i and one from v_i to the
    last.  The frame is kept as successor lists and the two depth-first
    ranks that decide reachability; the fans are not kept."""

    graph: EmbeddedGraph
    order: tuple[int, ...]                 # v_1 .. v_n
    succ: tuple = field(repr=False)        # v -> frame successors, by id
    left_rank: tuple = field(repr=False)   # v -> place in the left-first order
    right_rank: tuple = field(repr=False)  # v -> place in the right-first order

    @property
    def v1(self) -> int:
        return self.order[0]

    @property
    def v2(self) -> int:
        return self.order[1]

    @property
    def vn(self) -> int:
        return self.order[-1]

    def precedes(self, a: int, b: int) -> bool:
        """True when the frame has a directed path from a to b."""
        return (self.left_rank[a] < self.left_rank[b]
                and self.right_rank[a] < self.right_rank[b])


def _fan(t: EmbeddedGraph, v: int, left: int, right: int, alive) -> list[int]:
    """Neighbors of v in the current graph from left to right: its
    restricted rotation starting at left, which must end at right (the
    empty arc lies between the two boundary neighbors)."""
    ring = [u for u in t.rot[v] if alive[u]]
    i = ring.index(left)
    fan = ring[i:] + ring[:i]
    if fan[-1] != right:
        raise NotTriangulation(f"fan of {v} does not span the boundary")
    return fan


def _dfs_ranks(root: int, children: list[list[int]]) -> list[int]:
    """Reverse postorder of a depth-first search visiting each children
    list in order: a topological order of a DAG, as ranks 0 .. n-1."""
    rank = [0] * len(children)
    seen = [False] * len(children)
    seen[root] = True
    left = len(children)
    stack = [(root, iter(children[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not seen[w]:
                seen[w] = True
                stack.append((w, iter(children[w])))
                break
        else:
            stack.pop()
            left -= 1
            rank[v] = left
    return rank


def canonical_order(t: EmbeddedGraph) -> CanonicalStructure:
    """Canonical ordering of a triangulation.

    v1 is the smallest outer vertex, vn its successor on the outer walk and
    v2 its predecessor.
    """
    if not t.is_triangulation():
        raise NotTriangulation("canonical ordering needs a triangulation")
    outer_walk = [u for u, _ in t.faces[t.outer_face].walk]
    v1 = min(outer_walk)
    i = outer_walk.index(v1)
    vn = outer_walk[(i + 1) % 3]
    v2 = outer_walk[(i - 1) % 3]

    n = t.n
    alive = [True] * n
    # the boundary path v1 .. v2 as a linked list, with the number of
    # boundary chords at each vertex (kept for all but v1 and v2)
    prev = [-1] * n
    nxt = [-1] * n
    on_boundary = [False] * n
    chords = [0] * n
    for a, b in ((v1, vn), (vn, v2)):
        nxt[a], prev[b] = b, a
    for u in (v1, vn, v2):
        on_boundary[u] = True
    free = [vn]  # chord-free inner boundary vertices; stale entries skipped
    order = [0] * n
    order[0], order[1], order[n - 1] = v1, v2, vn
    frame: set[tuple[int, int]] = set()  # directed (a, b)

    for step in range(n, 2, -1):
        while free and not (alive[free[0]] and chords[free[0]] == 0):
            heapq.heappop(free)
        if not free:
            raise NotTriangulation("no removable boundary vertex; "
                                   "input is not a valid triangulation")
        v = heapq.heappop(free)
        left, right = prev[v], nxt[v]
        fan = _fan(t, v, left, right, alive)
        order[step - 1] = v
        frame.add((left, v))
        frame.add((v, right))
        alive[v] = False

        for a, b in zip(fan, fan[1:]):
            nxt[a], prev[b] = b, a
        if len(fan) == 2:  # the chord left-right became a boundary edge
            for u in fan:
                chords[u] -= 1
                if chords[u] == 0 and u != v1 and u != v2:
                    heapq.heappush(free, u)
        # each new chord is counted at both ends when its later end joins
        inner = fan[1:-1]
        for w in inner:
            on_boundary[w] = True
            for u in t.rot[w]:
                if alive[u] and on_boundary[u] and u != prev[w] \
                        and u != nxt[w]:
                    chords[w] += 1
                    chords[u] += 1
        for w in inner:
            if chords[w] == 0:
                heapq.heappush(free, w)

    if nxt[v1] != v2:
        raise NotTriangulation("boundary did not reduce to the base edge")

    # out-edges in rotation order after the in-edge block (after v2 at the
    # source, where the base edge closes the outer face)
    out: list[list[int]] = []
    for v in range(n):
        rot = t.rot[v]
        start = next((i for i, u in enumerate(rot) if (u, v) in frame),
                     t.rot_index(v1, v2))
        ring = rot[start + 1:] + rot[:start + 1]
        out.append([u for u in ring if (v, u) in frame])

    return CanonicalStructure(
        graph=t,
        order=tuple(order),
        succ=tuple(tuple(sorted(s)) for s in out),
        left_rank=tuple(_dfs_ranks(v1, out)),
        right_rank=tuple(_dfs_ranks(v1, [s[::-1] for s in out])),
    )


# ---------------------------------------------------------------------------
# Chain / antichain dichotomy
# ---------------------------------------------------------------------------

def patience_layers(points) -> list[int]:
    """Longest-chain layers, from 1, of points (a, b) ordered by a < a' and
    b < b' together, the a distinct.  Patience sorting (Fredman 1975): taken
    in order of a, a point's layer is one more than the number of chain
    ends with a smaller b; ``tails[d]`` is the least b ending a chain of
    d + 1 points."""
    tails: list = []
    layer = [0] * len(points)
    for i in sorted(range(len(points)), key=lambda i: points[i][0]):
        b = points[i][1]
        d = bisect_left(tails, b)
        tails[d:d + 1] = [b]
        layer[i] = d + 1
    return layer


def chain_by_layers(items: list, layer: list[int], precedes) -> list:
    """A longest chain of items with the given layers: the first item of the
    top layer, then on each layer down the first item preceding the last
    pick.  Returned bottom up."""
    depth = max(layer)
    by_layer: list[list] = [[] for _ in range(depth + 1)]
    for item, d in zip(items, layer):
        by_layer[d].append(item)
    chain: list = []
    for d in range(depth, 0, -1):
        chain.append(next(u for u in by_layer[d]
                          if not chain or precedes(u, chain[-1])))
    return chain[::-1]


def _frame_path(cs: CanonicalStructure, a: int, b: int) -> list[int]:
    """The directed frame path from a to b (both included) that always takes
    the smallest successor still reaching b."""
    path = [a]
    while a != b:
        a = next(w for w in cs.succ[a] if w == b or cs.precedes(w, b))
        path.append(a)
    return path


def chain_or_antichain(cs: CanonicalStructure, xs, force: str | None = None,
                       ) -> tuple[str, tuple[int, ...]]:
    """Dilworth dichotomy on the frame poset restricted to X.

    Returns ("chain", path) where path is a full source-to-sink frame path
    containing at least sqrt(2|X|) members of X, or ("antichain", ys) with a
    maximal antichain containing at least sqrt(|X|/2) members of X, ordered
    by canonical position.  ``force`` ("chain" or "antichain") returns that
    branch without the size guarantee.
    """
    xs = sorted(set(xs))
    if not xs:
        raise ValueError("X must be nonempty")
    lr, rr = cs.left_rank, cs.right_rank
    layer = patience_layers([(lr[v], rr[v]) for v in xs])
    depth = max(layer)
    if force is None:
        force = "chain" if depth * depth >= 2 * len(xs) else "antichain"

    if force == "chain":
        # one X-member per layer, stitched into a source-to-sink frame path
        chain = chain_by_layers(xs, layer, cs.precedes)
        path: list[int] = []
        stops = [cs.v1] + [v for v in chain if v not in (cs.v1, cs.v2)] + [cs.v2]
        for i in range(len(stops) - 1):
            seg = _frame_path(cs, stops[i], stops[i + 1])
            path.extend(seg if i == 0 else seg[1:])
        return "chain", tuple(path)

    # otherwise the largest layer is a big antichain within X
    sizes = Counter(layer)
    best = max(range(1, depth + 1), key=lambda d: (sizes[d], -d))
    members = {v for v, d in zip(xs, layer) if d == best}
    # maximalize over all vertices in id order (guarantees v_n joins the
    # antichain).  Sorted by left rank an antichain falls in right rank, so
    # a vertex is incomparable to it when it is to both of its neighbors.
    row = sorted(members, key=lr.__getitem__)
    keys = [lr[u] for u in row]
    for v in range(cs.graph.n):
        if v in members:
            continue
        i = bisect_left(keys, lr[v])
        if (i and cs.precedes(row[i - 1], v)) or \
                (i < len(row) and cs.precedes(v, row[i])):
            continue
        members.add(v)
        row.insert(i, v)
        keys.insert(i, lr[v])
    pos = {v: i for i, v in enumerate(cs.order)}
    ordered = tuple(sorted(members, key=pos.__getitem__))
    if ordered[-1] != cs.vn:
        raise AntichainTooShort("maximal antichains must end at the apex")
    return "antichain", ordered


def antichain_bound(x_size: int) -> int:
    """ceil(sqrt(x / 2)): the smallest k with 2 k^2 >= x."""
    if x_size <= 0:
        return 0
    return math.isqrt((x_size - 1) // 2) + 1
