"""Independent brute-force ground truth for tests and derived values.

The searches share no logic with the extractors beyond certificate
validation itself, and they fail loudly (TooLarge) instead of silently
truncating when an input exceeds the declared bounds.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .curves import (
    AlongItem,
    CrossItem,
    CurveCertificate,
    VertexItem,
    validate_curve,
)
from .embedding import EmbeddedGraph, norm_edge, vertex_ids
from .errors import FreesetError, TooLarge
from .realize import free_realize

F = Fraction

_MAX_EDGES = 14
_MAX_VERTICES = 20
_MAX_GROUND = 24
_NODE_CAP = 4_000_000


@dataclass(frozen=True)
class OracleReport:
    query: str
    result: object
    search_space: int
    elapsed: float


def exhaustive_curve_search(g: EmbeddedGraph, target,
                            ) -> OracleReport:
    """Search for a proper-good curve whose vertex items are exactly the
    target set (in any cyclic order); None result proves none exists.

    Enumerates item sequences face-by-face and filters candidates through
    the full certificate validation.
    """
    s = vertex_ids(g, target)
    if len(g.edges) > _MAX_EDGES:
        raise TooLarge(f"{len(g.edges)} edges exceeds the bound {_MAX_EDGES}")
    if not s:
        raise TooLarge("target set must be nonempty")
    t0 = time.time()
    sset = set(s)
    crossable = sorted(e for e in g.edges if e[0] not in sset
                       and e[1] not in sset)
    along_ok = {e for e in g.edges if e[0] in sset and e[1] in sset}

    nodes = 0
    found: list[CurveCertificate] = []

    def faces_of_item(it):
        if isinstance(it, VertexItem):
            return sorted(set(g.faces_at(it.v)))
        u, v = it.edge
        return sorted({g.face_of(u, v), g.face_of(v, u)})

    def on_face(it, fid) -> bool:
        f = g.faces[fid]
        if isinstance(it, VertexItem):
            return it.v in f.vertex_set()
        return norm_edge(*it.edge) in f.edge_set()

    start = VertexItem(s[0])

    def dfs(items, passages, used_edges, used_vertices):
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_CAP:
            raise TooLarge("curve search exceeded the node cap")
        if found:
            return
        last = items[-1]
        # try closing the curve back to the start
        if used_vertices == sset:
            for fid in faces_of_item(last):
                if on_face(start, fid):
                    cert = CurveCertificate(tuple(items),
                                            tuple(passages + [fid]))
                    if validate_curve(g, cert) is None:
                        found.append(cert)
                        return
            # closing with an along edge back to the start
            if isinstance(last, VertexItem):
                e = norm_edge(last.v, s[0])
                if e in along_ok and e not in used_edges and len(items) > 1:
                    cert = CurveCertificate(tuple(items + [AlongItem(e)]),
                                            tuple(passages + [None, None]))
                    if validate_curve(g, cert) is None:
                        found.append(cert)
                        return
        # extend with an along edge to an unused target vertex
        if isinstance(last, VertexItem):
            for w in g.rot[last.v]:
                if w in sset and w not in used_vertices:
                    e = norm_edge(last.v, w)
                    if e in along_ok and e not in used_edges:
                        dfs(items + [AlongItem(e), VertexItem(w)],
                            passages + [None, None],
                            used_edges | {e}, used_vertices | {w})
                        if found:
                            return
        # extend through a face passage
        for fid in faces_of_item(last):
            for w in sorted(g.faces[fid].vertex_set()):
                if w in sset and w not in used_vertices:
                    dfs(items + [VertexItem(w)], passages + [fid],
                        used_edges, used_vertices | {w})
                    if found:
                        return
            for e in sorted(g.faces[fid].edge_set()):
                if e not in used_edges and e[0] not in sset \
                        and e[1] not in sset:
                    dfs(items + [CrossItem(e)], passages + [fid],
                        used_edges | {e}, used_vertices)
                    if found:
                        return

    dfs([start], [], set(), {s[0]})
    result = found[0] if found else None
    return OracleReport(
        query=f"proper-good curve through {s}",
        result=result,
        search_space=nodes,
        elapsed=time.time() - t0,
    )


def max_proper_good_size(g: EmbeddedGraph) -> OracleReport:
    """Largest target-set size admitting a proper-good curve, by exhaustive
    search over vertex subsets in decreasing size."""
    t0 = time.time()
    nodes = 0
    for size in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), size):
            rep = exhaustive_curve_search(g, sub)
            nodes += rep.search_space
            if rep.result is not None:
                return OracleReport(
                    query="maximum proper-good set size",
                    result=(size, sub, rep.result),
                    search_space=nodes,
                    elapsed=time.time() - t0,
                )
    return OracleReport("maximum proper-good set size", (0, (), None),
                        nodes, time.time() - t0)


def brute_cycles(g: EmbeddedGraph, mode: str = "longest") -> OracleReport:
    """Exact longest cycle length, or a Hamiltonian cycle / None."""
    if g.n > _MAX_VERTICES:
        raise TooLarge(f"{g.n} vertices exceeds the bound {_MAX_VERTICES}")
    if mode not in ("longest", "hamiltonian"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.time()
    n = g.n
    adj = [set(g.rot[v]) for v in range(n)]
    best_len = 0
    best_cycle: list[int] | None = None
    nodes = 0

    def extend(path, used):
        nonlocal best_len, best_cycle, nodes
        nodes += 1
        v = path[-1]
        if len(path) >= 3 and path[0] in adj[v]:
            if len(path) > best_len:
                best_len = len(path)
                best_cycle = list(path)
        if mode == "hamiltonian" and best_len == n:
            return
        for w in sorted(adj[v]):
            if w in used or w < path[0]:
                continue
            path.append(w)
            used.add(w)
            extend(path, used)
            path.pop()
            used.remove(w)

    for start in range(n):
        if mode == "hamiltonian" and best_len == n:
            break
        extend([start], {start})

    if mode == "hamiltonian":
        result = best_cycle if best_len == n else None
    else:
        result = best_len
    return OracleReport(f"{mode} cycle", result, nodes, time.time() - t0)


def brute_independent_set(g: EmbeddedGraph, ground) -> OracleReport:
    """Exact maximum independent subset of a ground set, branch and bound."""
    ground = vertex_ids(g, ground)
    if len(ground) > _MAX_GROUND:
        raise TooLarge(f"ground set of {len(ground)} exceeds {_MAX_GROUND}")
    t0 = time.time()
    gset = set(ground)
    adj = {v: set(g.rot[v]) & gset for v in ground}
    best: list[int] = []
    nodes = 0

    def search(cands: list[int], chosen: list[int]):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) + len(cands) <= len(best):
            return
        if not cands:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        v = max(cands, key=lambda u: (len(adj[u] & set(cands)), -u))
        rest = [u for u in cands if u != v]
        search([u for u in rest if u not in adj[v]], chosen + [v])
        search(rest, chosen)

    search(ground, [])
    return OracleReport("maximum independent set", tuple(sorted(best)),
                        nodes, time.time() - t0)


def random_points(rng: random.Random, k: int) -> list:
    """k distinct rational points, sorted, in one of four styles drawn from
    ``rng``: general, a collinear cluster, repeated x-coordinates, or
    denominators 997 and 991; every point is scaled by one power of ten
    from 10^-2 to 10^2."""
    pts: set = set()
    styles = rng.randrange(4)
    scale = F(10) ** rng.randint(-2, 2)
    while len(pts) < k:
        if styles == 0:
            pts.add((scale * F(rng.randint(-400, 400), rng.randint(1, 9)),
                     scale * F(rng.randint(-400, 400), rng.randint(1, 9))))
        elif styles == 1:  # collinear cluster
            t = F(rng.randint(-200, 200), rng.randint(1, 5))
            pts.add((scale * t, scale * (3 * t - 2)))
        elif styles == 2:  # repeated x-coordinates
            pts.add((scale * F(rng.randint(-4, 4)),
                     scale * F(rng.randint(-400, 400), rng.randint(1, 9))))
        else:
            pts.add((scale * F(rng.randint(-10 ** 6, 10 ** 6), 997),
                     scale * F(rng.randint(-10 ** 6, 10 ** 6), 991)))
    return sorted(pts)


def falsify_free_realize(g: EmbeddedGraph, fs, trials: int, seed: int,
                         ) -> OracleReport:
    """Sampled falsification of the free-set property: trial i realizes
    ``fs`` on ``random_points`` drawn with the seed (seed << 20) ^ i.
    Returns every failing trial (expected empty) as (trial, points, why),
    where why is "targets missed" or the repr of the FreesetError raised."""
    t0 = time.time()
    failures = []
    for trial in range(trials):
        pts = random_points(random.Random((seed << 20) ^ trial),
                            len(fs.order))
        try:
            d = free_realize(g, fs, pts)
            placed = {d.pos[v] for v in fs.order}
            if not d.verified or placed != set(pts):
                failures.append((trial, pts, "targets missed"))
        except FreesetError as exc:
            failures.append((trial, pts, repr(exc)))
    return OracleReport(
        query=f"falsify free realization ({trials} trials, seed {seed})",
        result=failures,
        search_space=trials,
        elapsed=time.time() - t0,
    )
