"""Applications of free sets: untangling, simultaneous embeddings.

All results carry exactly-verified drawings on their integer grids;
shared vertices are placed at bit-identical rational coordinates across
drawings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .canonical import chain_by_layers, patience_layers
from .embedding import EmbeddedGraph, triangulate
from .errors import MergeConflict, TooLarge, VertexSetMismatch
from .extractors import planar_freeset
from .rational import Point
from .realize import (
    GridDrawing,
    _checked,
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
    xs = [sheared[v][0] for v in fs.order]
    idx, direction = lis_lds(xs)
    if direction == "decreasing":
        fs = fs.reversed()
        m = len(fs.order)
        idx = sorted(m - 1 - i for i in idx)
    chosen = [fs.order[i] for i in idx]
    sub = fs.restricted(chosen)

    d = _shear_drawing(free_realize(g, sub, [sheared[v] for v in sub.order]),
                       -t)
    for v in chosen:
        if not d.places(v, pos[v]):
            raise MergeConflict(f"fixed vertex {v} left its position")
    return UntangleResult(drawing=replace(d, provenance="untangled"),
                          fixed=tuple(sub.order),
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


def _rot90(d: GridDrawing) -> GridDrawing:
    # (x, y) -> (-y, x) keeps every orientation sign, so the verified flag
    # carries over; on the grid the axes swap their denominators
    return replace(d, xy=[(-y, x) for x, y in d.xy],
                   bend_xy={e: tuple((-y, x) for x, y in b)
                            for e, b in d.bend_xy.items()}, dx=d.dy, dy=d.dx)


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
    """
    graphs = list(graphs)
    r = len(graphs)
    if r < 2:
        raise VertexSetMismatch("need at least two graphs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise VertexSetMismatch("graphs must share their vertex set")

    free_sets = []
    xs = None
    for g in graphs:
        fs = planar_freeset(g, xs)
        free_sets.append(fs)
        xs = fs.order
    common = list(free_sets[-1].order)
    s_size = len(common)

    # refine so the shared order is monotone for every graph beyond the two
    # realized directly
    in_common = set(common)
    order2 = [v for v in free_sets[1].order if v in in_common]
    current = order2
    for i in range(2, r):
        pos_i = {v: j for j, v in enumerate(free_sets[i].order)}
        idx, _ = lis_lds([pos_i[v] for v in current])
        current = [current[j] for j in idx]
    shared = current

    # the shared set at (rank in G1's order, rank in the shared order)
    in_shared = set(shared)
    ord1 = [v for v in free_sets[0].order if v in in_shared]
    rank1 = {v: i + 1 for i, v in enumerate(ord1)}
    target = {v: (F(rank1[v]), F(i + 1)) for i, v in enumerate(shared)}
    drawings = [free_realize(graphs[0], free_sets[0].restricted(ord1),
                             [target[v] for v in ord1])]
    rank = {v: j for j, v in enumerate(shared)}
    for i in range(1, r):
        fs = free_sets[i]
        ordered = [v for v in fs.order if v in in_shared]
        seq = [rank[v] for v in ordered]
        if any(a > b for a, b in zip(seq, seq[1:])):
            fs = fs.reversed()
            ordered = ordered[::-1]
        # swap the axis roles, then rotate back
        pre = [(target[v][1], -target[v][0]) for v in ordered]
        drawings.append(_rot90(free_realize(graphs[i],
                                            fs.restricted(ordered), pre)))
    for d in drawings:
        for v in shared:
            if not d.places(v, target[v]):
                raise MergeConflict(f"shared vertex {v} mismatch")

    bound = 1
    if shared:
        bound = max(1, _iroot_ceiling(s_size, 2 ** (r - 2)))
    return SimultaneousResult(
        drawings=tuple(drawings),
        shared_vertices=tuple(shared),
        shared_points=tuple(target[v] for v in shared),
        bound_met=f"|V'|={len(shared)} >= ceil(|S|^(1/2^(r-2)))={bound} "
                  f"for |S|={s_size}",
    )


def _iroot_ceiling(value: int, power: int) -> int:
    """Smallest k with k**power >= value."""
    if value <= 1:
        return value
    k = max(1, round(value ** (1.0 / power)))
    while k ** power >= value:
        k -= 1
    while k ** power < value:
        k += 1
    return k
