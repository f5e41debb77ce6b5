"""Applications of free sets: untangling, simultaneous embeddings.

All results carry exactly-verified drawings on their integer grids;
shared vertices are placed at bit-identical rational coordinates across
drawings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from .canonical import chain_by_layers, patience_layers
from .embedding import EmbeddedGraph, triangulate
from .errors import MergeConflict, TooLarge, VertexSetMismatch
from .extractors import planar_freeset
from .rational import Point
from .realize import (
    GridDrawing,
    _checked,
    _grid_map,
    _shear_drawing,
    _shear_keys,
    free_realize,
    tutte_solve,
    verify_drawing,
)

F = Fraction


@dataclass(frozen=True)
class UntangleResult:
    drawing: GridDrawing
    fixed: tuple[int, ...]
    free_set_size: int

    @property
    def moved(self) -> int:
        return self.drawing.graph.n - len(self.fixed)


@dataclass(frozen=True)
class SimultaneousResult:
    """Drawings agreeing on a shared vertex set (with map) or point set."""

    drawings: tuple[GridDrawing, ...]
    shared_vertices: tuple[int, ...] | None
    shared_points: tuple[Point, ...]
    bound_met: str


def lis_lds(seq) -> tuple[list[int], str]:
    """Longest monotone subsequence of distinct values (indices returned).

    The longer of the increasing and decreasing subsequences wins, ties go
    to increasing; the result has length at least ceil(sqrt(len))."""
    vals = list(seq)
    if len(set(vals)) != len(vals):
        raise ValueError("values must be distinct")
    if not vals:
        return [], "increasing"

    def longest(sign: int) -> list[int]:
        points = [(i, sign * v) for i, v in enumerate(vals)]
        return chain_by_layers(
            range(len(vals)), patience_layers(points),
            lambda i, j: i < j and points[i][1] < points[j][1])

    inc, dec = longest(1), longest(-1)
    if len(inc) >= len(dec):
        return inc, "increasing"
    return dec, "decreasing"


def untangle(g: EmbeddedGraph, positions) -> UntangleResult:
    """Crossing-free redrawing keeping at least ceil(sqrt(k)) vertices of a
    size-k free set bit-exactly at their input positions.

    The drawing comes back on its integer grid: as given, with every vertex
    fixed, when it is crossing-free already.  Otherwise the positions are
    sheared by the least integer t that makes (x + t*y) distinct, the
    monotone subsequence of the free set is taken in that frame, and the
    realized drawing is sheared back by -t on its grid, which is exact.
    A decreasing subsequence is realized on the half-turned points and
    turned back; the fixed vertices are listed by increasing x + t*y.
    """
    pos = {v: (F(x), F(y)) for v, (x, y) in dict(positions).items()}
    given = GridDrawing.from_points(g, pos, provenance="input")
    if len(set(given.xy)) != g.n:
        raise VertexSetMismatch("need one distinct position per vertex")
    if verify_drawing(g, given) is None:
        return UntangleResult(drawing=replace(given, verified=True),
                              fixed=tuple(range(g.n)),
                              free_set_size=g.n)

    t, keys, den = _shear_keys([pos[v] for v in range(g.n)])
    sheared = [(F(x + t * y, den), F(y, den)) for x, y in keys]

    fs = planar_freeset(g)
    idx, direction = lis_lds([sheared[v][0] for v in fs.order])
    chosen = [fs.order[i] for i in idx]
    k = 2 if direction == "decreasing" else 0
    d = free_realize(g, fs.restricted(chosen),
                     [_turned_point(sheared[v], k) for v in chosen])
    d = _shear_drawing(_turned(d, -k), -t)
    for v in chosen:
        if not d.places(v, pos[v]):
            raise MergeConflict(f"fixed vertex {v} left its position")
    return UntangleResult(drawing=replace(d, provenance="untangled"),
                          fixed=tuple(chosen[::-1] if k else chosen),
                          free_set_size=len(fs.order))


def _plain_drawing(g: EmbeddedGraph) -> GridDrawing:
    """Any verified straight-line drawing: one or two vertices on (0, 0)
    and (4096, 0), checked once; else Tutte on a triangulated copy, its
    outer triangle at (0, 0), (4096, 0) and (0, 4096).

    ``tutte_solve`` verified these positions with a superset of g's edges,
    so the drawing of g is crossing-free too."""
    if g.n <= 2:  # too small to triangulate
        return _checked(GridDrawing(graph=g, xy=[(0, 0), (4096, 0)][:g.n],
                                    bend_xy={}, dx=1, dy=1,
                                    provenance="plain-base"), "plain")
    t, _ = triangulate(g)
    outer = [u for u, _ in t.faces[t.outer_face].walk]
    return replace(tutte_solve(t, outer, [(0, 0), (4096, 0), (0, 4096)]),
                   graph=g, provenance="tutte-base")


def sge_nomap(g1: EmbeddedGraph, g2: EmbeddedGraph) -> SimultaneousResult:
    """Simultaneous embedding without mapping: a point set of size |V(G1)|
    hosting crossing-free drawings of both graphs.

    G2 is drawn first; a free set of G1 is then realized onto G2's points,
    so G2's point set is a subset of G1's.  Both drawings are returned on
    their integer grids.
    """
    fs = planar_freeset(g1)
    if g2.n > len(fs.order):
        raise TooLarge(f"G2 has {g2.n} vertices but the free set found in "
                       f"G1 has size {len(fs.order)}")
    d2 = _plain_drawing(g2)
    targets = list(d2.pos.values())
    sub = fs.restricted(fs.order[:g2.n])
    d1 = free_realize(g1, sub, targets)
    points = tuple(sorted(d1.pos.values()))
    if not set(targets) <= set(points):
        raise MergeConflict("G2's points are not all among G1's")
    return SimultaneousResult(
        drawings=(d1, d2),
        shared_vertices=None,
        shared_points=points,
        bound_met=f"|V(G2)|={g2.n} <= free set {len(fs.order)}",
    )


# (x, y) -> (a*x + b*y, c*x + e*y) as (a, b, c, e), per quarter turn
_TURNS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


def _turned_point(p, k: int):
    """The point p turned by k quarter turns counter-clockwise."""
    x, y = p
    for _ in range(k % 4):
        x, y = -y, x
    return x, y


def _turned(d: GridDrawing, k: int) -> GridDrawing:
    """d turned by k quarter turns counter-clockwise, on its grid; an odd k
    swaps the axis denominators.  A turn keeps every orientation sign, so
    the verified flag carries over."""
    if k % 4 == 0:
        return d
    dx, dy = (d.dy, d.dx) if k % 2 else (d.dx, d.dy)
    return _grid_map(d, *_TURNS[k % 4], dx, dy)


def psge_two(g1: EmbeddedGraph, g2: EmbeddedGraph) -> SimultaneousResult:
    """Partial simultaneous geometric embedding with mapping for two graphs
    on the same vertex set."""
    res = psge_many([g1, g2])
    return replace(res, bound_met=f"|V'|={len(res.shared_vertices)}")


def psge_many(graphs) -> SimultaneousResult:
    """Partial simultaneous geometric embedding with mapping for r >= 2
    graphs on the same vertex set.

    A common free set is found by iterated restriction, then refined by
    monotone subsequences against each further graph's order; the achieved
    size is at least |S|^(1/2^(r-2)) for the common set S found.

    Each free set is realized in its own order on the targets turned so
    that x rises along it, then turned back: by no quarter turn for G1, by
    three for a later graph whose shared order rises along it, else by one.
    """
    graphs = list(graphs)
    r = len(graphs)
    if r < 2:
        raise VertexSetMismatch("need at least two graphs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise VertexSetMismatch("graphs must share their vertex set")

    free_sets, xs = [], None
    for g in graphs:
        free_sets.append(planar_freeset(g, xs))
        xs = free_sets[-1].order
    s_size = len(xs)

    # refine so the shared order is monotone for every graph beyond the two
    # realized directly
    common = set(xs)
    shared = [v for v in free_sets[1].order if v in common]
    for fs in free_sets[2:]:
        at = {v: j for j, v in enumerate(fs.order)}
        idx, _ = lis_lds([at[v] for v in shared])
        shared = [shared[j] for j in idx]

    # the shared set at (rank in G1's order, rank in the shared order)
    rank = {v: j for j, v in enumerate(shared)}
    ord1 = [v for v in free_sets[0].order if v in rank]
    target = {v: (F(i + 1), F(rank[v] + 1)) for i, v in enumerate(ord1)}
    drawings = []
    for i, (g, fs) in enumerate(zip(graphs, free_sets)):
        ordered = [v for v in fs.order if v in rank]
        seq = [rank[v] for v in ordered]
        falls = any(a > b for a, b in zip(seq, seq[1:]))
        k = (1 if falls else 3) if i else 0
        d = free_realize(g, fs.restricted(ordered),
                         [_turned_point(target[v], k) for v in ordered])
        drawings.append(_turned(d, -k))
    for d in drawings:
        for v in shared:
            if not d.places(v, target[v]):
                raise MergeConflict(f"shared vertex {v} mismatch")

    bound = max(1, _iroot_ceiling(s_size, r - 2)) if shared else 1
    return SimultaneousResult(
        drawings=tuple(drawings),
        shared_vertices=tuple(shared),
        shared_points=tuple(target[v] for v in shared),
        bound_met=f"|V'|={len(shared)} >= ceil(|S|^(1/2^(r-2)))={bound} "
                  f"for |S|={s_size}",
    )


def _iroot_ceiling(value: int, roots: int) -> int:
    """Smallest k >= 0 with k**(2**roots) >= value, by ``roots`` integer
    ceiling square roots: ceil(sqrt(ceil(sqrt(x)))) = ceil(x**(1/4))."""
    for _ in range(roots):
        if value <= 2:
            break
        value = isqrt(value - 1) + 1
    return value
