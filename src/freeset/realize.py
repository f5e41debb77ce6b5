"""Exact-rational geometric realization of curve certificates.

The pipeline follows the constructive side of the proper-good/free
equivalence: read the analysis of the certificate on its own graph g that
the free set carries (made once, when the free set was made), and split g
along the curve into two halves, rotation lists read off g's with one
midpoint per crossed edge (no graph is built, and each half is checked
once, as a disk); draw each side in a half-plane with the curve vertices
and midpoints on the x-axis (a Tutte system on the side joined to an apex
and filled with chords, built in one pass with no face trace, solved
exactly by a sparse LDLᵀ factor modulo a prime and p-adic lifting), then
lift the free vertices off the axis and scale every height, in one step, so
that they land exactly on arbitrary targets (the collinear-is-free argument
of Dujmović, Frati, Gonçalves, Morin & Rote 2020).  Every returned drawing
has passed an exact crossing-free check, and each public entry point runs
that check once, on the drawing it returns.  A realized drawing is checked
on the triangles of its two augmented halves, traced once per system and
checked there to form one disk (``_checked_halves``: one orientation sign
per triangle); the sweep (``verify_drawing``) checks drawings the program
did not build, and those of ``tutte_solve``.  The lift, the rounding and
the check work on one list of the triangles' points, and a realized drawing
is built from it only once it has passed.  Each system is solved once and
the lift is sized by the same triangles: each
one's orientation is affine in the lift, so the largest safe lift is read
off them in one pass and nothing is retried.  Every point but the free
vertices is then rounded to the coarsest power-of-two grid on which the
triangles certifiably keep their signs, read off them in one more pass, so
a realized drawing carries few bits and its free vertices stay exact.  A
drawing that fails its check raises DegenerateOutput naming the stage and
the violation.  Nothing that the validated certificate or the triangle
check decides is checked again, and a drawing's ``verified`` flag is output
only: no check is skipped because a drawing given in is marked verified.

Every drawing is a ``GridDrawing``: integer numerators over one positive
denominator per axis, on which it is merged, lifted, scaled, rounded,
sheared, checked, printed and parsed; ``from_points`` reads rational points
onto it, and only ``GridDrawing.pos`` builds its Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm

from .curves import (
    AlongItem,
    CurveCertificate,
    VertexItem,
    _Analysis,
    _side_partition_of,
)
from .embedding import (
    EmbeddedGraph,
    Edge,
    _trace_faces,
    insert_chords,
    norm_edge,
)
from .errors import (
    DegenerateOutput,
    InvalidCurve,
    MergeConflict,
    SizeMismatch,
    VertexSetMismatch,
    YNotOnOuterFace,
)
from .extractors import OrderedFreeSet
from .rational import (
    FractionFreeSolver,
    Point,
    common_denominator,
    integer_grid,
)

F = Fraction


@dataclass(frozen=True)
class DrawingViolation:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class GridDrawing:
    """A drawing on one integer grid: the integer point (x, y) stands for
    (x / dx, y / dy), with dx and dy positive.

    ``xy[v]`` is vertex v's point and ``bend_xy`` maps an edge to its bend
    points, in order from its smaller end; the edges without bends are left
    out.  ``pos`` is the rational view, built on first use, and the one
    place that builds Fractions of a drawing."""

    graph: EmbeddedGraph
    xy: list
    bend_xy: dict
    dx: int
    dy: int
    provenance: str = ""
    verified: bool = False

    @classmethod
    def from_points(cls, graph: EmbeddedGraph, pos, bends=None,
                    provenance: str = "") -> GridDrawing:
        """Vertex v at the rational ``pos[v]``, for v in 0..n-1 and no other
        key (else VertexSetMismatch), and the normal edge e bent at
        ``bends[e]``, over each axis's least common denominator."""
        n = graph.n
        if pos.keys() != set(range(n)):
            raise VertexSetMismatch(f"positions must be keyed by the "
                                    f"vertices 0..{n - 1}")
        edges = [e for e in sorted(bends or ()) if bends[e]]
        pts, dx, dy = integer_grid([pos[v] for v in range(n)] +
                                   [p for e in edges for p in bends[e]])
        rest = iter(pts[n:])
        return cls(graph=graph, xy=pts[:n], dx=dx, dy=dy,
                   bend_xy={e: tuple([next(rest) for _ in bends[e]])
                            for e in edges}, provenance=provenance)

    @cached_property
    def pos(self) -> dict:
        """Vertex v's point as two Fractions, per vertex."""
        dx, dy = self.dx, self.dy
        return {v: (F(x, dx), F(y, dy)) for v, (x, y) in enumerate(self.xy)}

    def bend_count(self) -> int:
        return sum(len(b) for b in self.bend_xy.values())

    def places(self, v: int, point) -> bool:
        """Whether vertex v is exactly at the rational ``point``."""
        (x, y), (px, py) = self.xy[v], point
        return x * px.denominator == px.numerator * self.dx and \
            y * py.denominator == py.numerator * self.dy


def verify_drawing(g: EmbeddedGraph, d: GridDrawing,
                   ) -> DrawingViolation | None:
    """Exact crossing-free check: distinct vertices, no vertex on any piece
    of an edge other than as an endpoint of a piece of its own edge, no two
    pieces meeting outside a shared endpoint, and pieces of two different
    edges sharing an endpoint only at a vertex of both.  ``d`` must be a
    drawing of g (SizeMismatch otherwise).

    After the pre-checks (no two vertices at one point, no zero-length
    piece) one Shamos-Hoey sweep (Shamos & Hoey 1976) runs
    over the integer grid of the drawing in lexicographic (x, y) order.  The
    verdict is the same on any grid with positive axis scales, since the
    sweep order and every orientation sign are.

    The points are numbered once: vertex v is point v, and a bend is the
    point of an equal vertex or bend seen before, or the next new one.  So
    each point is hashed once, no coordinate tuple is hashed per piece, and
    two points coincide exactly when their ids are equal.  The events are
    the point ids, sorted once by coordinate.  A piece is its left and
    right end ids in sweep order, its edge, and its left end and direction,
    (x, y, dx, dy), on which its orientation tests are evaluated inline;
    the pieces starting and the piece ending at each point are lists
    indexed by id.  The status is the list of pieces crossing the sweep
    line, bottom to top, ordered by orientation.  Coordinates are read only
    by the orientation tests and the slope key; the run walk, the vertex
    test (an id below g.n) and the shared-end skip compare ids.

    At each event point the pieces through it form one run of the status.
    Until the first violation the status stays ordered and holds every
    piece that ends at a later event, so where some piece ends at the point
    the run is found from that piece: ``list.index`` locates it (a scan of
    small integers in C) and the run is walked down and up from there, one
    orientation test at each end of the run.  Only where no piece ends is
    the status bisected.  The pieces starting at the point are sorted by an
    integer slope key, floor(2^64·dy/dx) with the vertical pieces last,
    which never decreases as the slope grows; where two neighbouring keys
    are equal the pieces are sorted again by exact orientation, and equal
    slopes there are an overlap.  The pieces that end or start at the point
    and those through it are compared locally (vertex on an edge, touches
    at a vertex of both edges, pieces leaving the point in one direction);
    the pieces at a vertex all belong to its edges, and those at a bend to
    the bend's edge, unless some bend took the id of a point numbered
    before, so only then are they compared with the point's vertex or edge.
    The only other test is for a proper crossing between pieces that become
    neighbours in the status, skipped when the two share an endpoint.  So
    an event costs about two orientation tests and at most two crossing
    tests, O(m) orientation tests in all for m pieces, plus one bisection
    per event where no piece ends and one ``list.index`` per other event,
    which is linear in the size of the status but makes no big-integer
    product.

    The first violation in sweep order is returned: the leftmost event
    wins, and at one event point a vertex on an edge comes before a
    crossing.
    """
    if d.graph is not g and d.graph != g:
        raise SizeMismatch("the drawing is of another graph")

    pts = list(d.xy)  # point id -> point; vertex v is point v
    n = len(pts)
    ids = {p: v for v, p in enumerate(pts)}
    if len(ids) != n:
        return DrawingViolation("coincident-vertices",
                                "two vertices share a position")

    # per piece: its end ids in sweep order, its edge, and (x, y, dx, dy),
    # its left end and its direction
    left: list[int] = []
    right: list[int] = []
    edge: list[Edge] = []
    geo = []
    starts: list[list[int]] = [[] for _ in pts]  # per point
    ends = [-1] * n  # per point: one piece ending there, or -1
    shared = False  # whether a bend is at a point numbered before
    bends = d.bend_xy
    for e in sorted(g.edges):
        links = (e,)
        if bends.get(e):
            chain = [e[0]]
            for p in bends[e]:
                k = ids.setdefault(p, len(pts))
                if k == len(pts):
                    pts.append(p)
                    starts.append([])
                    ends.append(-1)
                else:
                    shared = True
                chain.append(k)
            chain.append(e[1])
            links = zip(chain, chain[1:])
        for a, b in links:
            if a == b:
                return DrawingViolation("degenerate-segment",
                                        f"edge {e} has a zero-length piece")
            p, q = pts[a], pts[b]
            if q < p:
                a, b, p, q = b, a, q, p
            starts[a].append(len(left))
            ends[b] = len(left)
            left.append(a)
            right.append(b)
            edge.append(e)
            geo.append((p[0], p[1], q[0] - p[0], q[1] - p[1]))

    status: list[int] = []  # pieces crossing the sweep line, bottom to top
    for k in sorted(range(len(pts)), key=pts.__getitem__):
        px, py = pts[k]
        # status[:lo] passes strictly below the point, status[lo:hi] through
        # it: piece i is below when the point is left of its direction
        i = ends[k]
        if i < 0:
            lo, hi = 0, len(status)
            while lo < hi:
                mid = (lo + hi) // 2
                ax, ay, ux, uy = geo[status[mid]]
                if ux * (py - ay) > uy * (px - ax):
                    lo = mid + 1
                else:
                    hi = mid
        else:
            lo = status.index(i)
            while lo:
                i = status[lo - 1]
                if right[i] != k:
                    ax, ay, ux, uy = geo[i]
                    if ux * (py - ay) != uy * (px - ax):
                        break
                lo -= 1
        inner = []  # the pieces through the point that do not end there
        hi = lo
        while hi < len(status):
            i = status[hi]
            if right[i] != k:
                ax, ay, ux, uy = geo[i]
                if ux * (py - ay) != uy * (px - ax):
                    break
                inner.append(i)
            hi += 1
        new = starts[k]

        if inner or shared:
            # unless a bend took the id of an earlier point, the pieces at a
            # vertex are of its edges and those at a bend of the bend's edge
            here = [i for i in status[lo:hi] if right[i] == k] + new
            if inner:
                t = inner[0]
                if k < n:
                    return DrawingViolation(
                        "vertex-on-edge",
                        f"vertex {k} lies on edge {edge[t]}")
                others = here + inner[1:]
                ends_t = (left[t], right[t])
                j = next((j for j in others if left[j] in ends_t
                          or right[j] in ends_t), others[0])
                return _crossing(t, j, left, right, edge, geo, n)
            if k < n:
                for i in here:
                    if k not in edge[i]:
                        return DrawingViolation(
                            "vertex-on-edge",
                            f"vertex {k} lies on edge {edge[i]}")
            else:
                for i in here:
                    if edge[i] != edge[here[0]]:
                        return _crossing(here[0], i, left, right, edge, geo,
                                         n)

        if len(new) > 1:
            # bottom to top just after the point, by the slope key
            # floor(2^64·dy/dx), vertical pieces last, which never decreases
            # as the slope grows; the ties of the key sort go by piece
            # index, as in a stable sort
            keyed = sorted([((0, (uy << 64) // ux) if ux else (1, 0), i)
                            for i in new for _, _, ux, uy in (geo[i],)])
            new = [i for _, i in keyed]
            for (a, _), (b, _) in zip(keyed, keyed[1:]):
                if a == b:  # sort again by exact orientation
                    def turn(i: int, j: int) -> int:
                        """Negative when piece j leaves the point above i."""
                        _, _, ux, uy = geo[i]
                        _, _, wx, wy = geo[j]
                        return uy * wx - ux * wy

                    new = sorted(starts[k], key=cmp_to_key(turn))
                    for i, j in zip(new, new[1:]):
                        if turn(i, j) == 0:  # equal directions overlap
                            return _crossing(i, j, left, right, edge, geo, n)
                    break

        status[lo:hi] = new
        # the pieces that become neighbours: at the bottom of the new run
        # and at its top, or below and above the point where none starts
        top = lo + len(new)
        for s in (lo, top) if new else (lo,):
            if 0 < s < len(status):
                i, j = status[s - 1], status[s]
                a, b, c, e = left[i], right[i], left[j], right[j]
                if a == c or a == e or b == c or b == e:
                    continue
                if _cross_properly(geo[i], geo[j]):
                    return _crossing(i, j, left, right, edge, geo, n)
    return None


def _cross_properly(s, t) -> bool:
    """Whether two pieces, each given as (x, y, dx, dy), meet in one point
    interior to both: the ends of each lie strictly on opposite sides of
    the other.  Two pieces with a common endpoint never do (they meet only
    there, or run along one line), so the sweep tests no such pair."""
    ax, ay, ux, uy = s
    cx, cy, vx, vy = t
    wx, wy = cx - ax, cy - ay
    cross = ux * vy - uy * vx
    o1 = ux * wy - uy * wx  # t's first end against s, then its second
    o2 = o1 + cross
    if not (o1 < 0 < o2 or o2 < 0 < o1):
        return False
    o3 = vy * wx - vx * wy  # s's first end against t, then its second
    o4 = o3 - cross
    return o3 < 0 < o4 or o4 < 0 < o3


def _crossing(i: int, j: int, left: list, right: list, edge: list, geo: list,
              n: int) -> DrawingViolation:
    """The violation of pieces i and j, known to meet where they may not;
    ``verify_drawing``'s pieces, on point ids of which the first n are
    the vertices.

    Pieces sharing an endpoint meet elsewhere only by running on in one
    direction: a fold-back for one edge, an overlap for two edges at a
    vertex of both.  The piece that starts further right is named first.
    """
    i, j = sorted((i, j), key=lambda k: (geo[k][0], k), reverse=True)
    e, f = edge[i], edge[j]
    for x in (left[i], right[i]):
        if x == left[j] or x == right[j]:
            if e == f:
                return DrawingViolation(
                    "crossing", f"edge {e} folds back on itself")
            if x < n and x in e and x in f:
                return DrawingViolation(
                    "crossing", f"edges {e} and {f} overlap")
    return DrawingViolation("crossing", f"edges {e} and {f} intersect")


def _degenerate(stage: str, violation: DrawingViolation) -> DegenerateOutput:
    return DegenerateOutput(f"{stage} drawing failed verification: {violation}")


def _checked(d: GridDrawing, stage: str) -> GridDrawing:
    """``d`` after one exact check; a failure raises DegenerateOutput
    naming the stage."""
    violation = verify_drawing(d.graph, d)
    if violation is not None:
        raise _degenerate(stage, violation)
    return replace(d, verified=True)


# ---------------------------------------------------------------------------
# Barycentric (Tutte) systems
# ---------------------------------------------------------------------------

class _Barycentric:
    """Laplacian of the non-fixed vertices of a rotation system (only its
    adjacency is read), as sparse integer rows: the degree on the diagonal,
    -1 for each non-fixed neighbour.  It is factored once; ``solve`` solves
    it exactly for one coordinate of the fixed vertices.

    A right-hand side entry is the sum of an interior vertex's fixed
    neighbours.  It is built on integers: the fixed values are numerators
    over one denominator L, and the solver divides by L once."""

    def __init__(self, rot, fixed):
        self.interior = [v for v in range(len(rot)) if v not in fixed]
        index = {v: i for i, v in enumerate(self.interior)}
        rows = []
        self.fixed_nbrs = []  # per interior vertex: its fixed neighbours
        for i, v in enumerate(self.interior):
            row = {i: len(rot[v])}
            fx = []
            for u in rot[v]:
                if u in fixed:
                    fx.append(u)
                else:
                    row[index[u]] = -1
            rows.append(row)
            self.fixed_nbrs.append(fx)
        self.solver = FractionFreeSolver(rows)

    def solve(self, values: dict[int, int],
              den: int) -> tuple[list[int], int]:
        """One coordinate of every interior vertex, in ``interior`` order,
        at the barycenter of its neighbors, as numerators over one
        denominator; ``values[u] / den`` is that coordinate of each fixed
        vertex u."""
        return self.solver.solve([sum(values[u] for u in fx)
                                  for fx in self.fixed_nbrs], den)


def tutte_solve(h: EmbeddedGraph, boundary_cycle,
                boundary_positions) -> GridDrawing:
    """Barycentric drawing with a fixed boundary polygon, on its integer
    grid and marked verified.

    The system is the plain integer Laplacian (``_Barycentric``), solved
    once exactly over the rationals and checked once by the exact
    crossing-free verification; a failed check raises DegenerateOutput
    naming the stage and the violation.  A 3-connected graph with its outer
    face on a convex polygon always passes (Tutte 1963).
    """
    cycle = list(boundary_cycle)
    positions = [(F(x), F(y)) for x, y in boundary_positions]
    if len(cycle) != len(positions):
        raise SizeMismatch("one position per boundary vertex")
    if len(cycle) < 3:
        raise SizeMismatch("the boundary cycle needs at least three vertices")
    if len(set(cycle)) != len(cycle):
        raise SizeMismatch("boundary cycle repeats a vertex")
    system = _Barycentric(h.rot, set(cycle))
    axes = []  # per axis: every vertex's numerator and their denominator
    for c in (0, 1):
        fixed, den = common_denominator([p[c] for p in positions])
        inner, d = system.solve(dict(zip(cycle, fixed)), den)
        col = [0] * h.n
        for v, a in zip(cycle, fixed):
            col[v] = a * (d // den)
        for v, a in zip(system.interior, inner):
            col[v] = a
        axes.append((col, d))
    (xs, dx), (ys, dy) = axes
    grid = GridDrawing(graph=h, xy=list(zip(xs, ys)), bend_xy={}, dx=dx,
                       dy=dy, provenance="tutte")
    return _checked(grid, "tutte")


# ---------------------------------------------------------------------------
# Half-plane drawings
# ---------------------------------------------------------------------------

def _with_apex(rot, walks, outer: int, y: list[int]):
    """Rotation lists, face walks (vertex lists) and edges of a half plus
    an apex, vertex len(rot), joined to both ends of the axis y.

    The axis is found as a run of consecutive vertices of ``walks[outer]``,
    in either direction (the first match in walk order); YNotOnOuterFace
    if it is none.  The apex goes into the corner where the walk enters
    the run and the corner where it leaves it, which cuts the walk into
    the faces [apex] + run and [apex] + the rest of the walk; the other
    faces stay as they are, so nothing is traced."""
    walk = [u for u, _ in walks[outer]]
    k, m = len(walk), len(y)
    runs = (y, y[::-1])
    i = next((i for i in range(k) for run in runs
              if all(walk[(i + t) % k] == run[t] for t in range(m))), None)
    if i is None:
        raise YNotOnOuterFace(f"axis {y} is not a run of the outer walk")
    walk = walk[i:] + walk[:i]  # the run first
    apex = len(rot)
    rot = [list(r) for r in rot] + [[y[0], y[-1]]]
    # the walk enters v from u through the corner just before u in rot[v]
    for u, v in ((walk[-1], walk[0]), (walk[m - 2], walk[m - 1])):
        rot[v].insert(rot[v].index(u), apex)
    faces = [[u for u, _ in w] for i, w in enumerate(walks) if i != outer]
    faces += [[apex] + walk[:m], [apex] + walk[m - 1:] + walk[:1]]
    edges = {norm_edge(u, v) for w in walks for u, v in w}
    return rot, faces, edges | {(y[0], apex), (y[-1], apex)}


class _HalfPlane:
    """Augmented barycentric system for one side of a collinear drawing.

    The half is its rotation lists, face walks and outer walk's index
    (``_half_embedding``).  The augmentation cuts an apex into the outer
    walk where it runs along the axis (``_with_apex``) and fills every face
    with chords, chords from the fixed vertices (the axis and the apex)
    first.  It is built in one pass: ``insert_chords`` splits the faces in
    place, so no face is traced.

    Lemma.  The augmented outer face is exactly axis + apex, a weakly convex
    polygon once the axis is on a line and the apex off it.  No other edge
    joins two fixed vertices.  The premise comes from the validated
    certificate the half is read off (``_collinear_system``), and is not
    checked again here: the rotation lists are symmetric and simple, as g's
    are, with a midpoint for each crossed neighbour, the other side's left
    out and the axis neighbours added; the axis has at least two vertices,
    all distinct (no curve vertex twice, and the midpoints are new ids); the
    curve runs along every edge between two curve vertices, so the half
    joins axis vertices only where they are consecutive, and never the two
    ends, since the axis starts after a face passage (``_axis_items``).  No
    chord joins two fixed vertices.  When, besides, every face that touches
    a free vertex is a triangle, the barycentric drawing with any positive
    edge weights is an embedding (Tutte 1963; Floater 2003 for a weakly
    convex boundary).  The chords make every inner face a triangle on every
    input tested, every outer axis of small thinned triangulations among
    them; it is not proved, so it is checked once per collinear system, when
    ``_half_triangles`` traces the augmented faces, and a half that breaks
    it raises DegenerateOutput there.  So the system is the plain integer
    Laplacian, and the triangles that the check traced are the ones every
    realized drawing is checked on.  The interior system is factored once
    (sparse LDLᵀ modulo a prime, in minimum-degree order), so a solve for
    new axis positions is only p-adic lifting with that factor.

    The heights do not depend on the axis positions.  The axis is at
    height 0 and the apex at b, so the interior heights are b·φ, where φ
    solves the system with the apex at 1: the system is linear and its
    solution unique.  φ is lifted once, here, and kept as integer
    numerators over one denominator; ``solve`` lifts only the x's and
    returns the half's integer points with the apex at height ±1.  That
    drawing is the one with the apex at ±b scaled by 1/b along y, which
    keeps every orientation sign, so the caller applies b when it next
    scales the heights.  ``solve`` only solves; the caller checks the
    drawing it assembles.
    """

    def __init__(self, rot, walks, outer: int, y_order: list[int]):
        self.y = list(y_order)
        self.apex = len(rot)
        self.rot, self.helper_edges = self._fill_content_faces(
            *_with_apex(rot, walks, outer, self.y))
        self._base = _Barycentric(self.rot, set(self.y) | {self.apex})
        heights = dict.fromkeys(self.y, 0)
        heights[self.apex] = 1
        self._phi, self._phi_den = self._base.solve(heights, 1)

    def _fill_content_faces(self, rot: list[list[int]], faces: list,
                            edges: frozenset,
                            ) -> tuple[list[list[int]], list[Edge]]:
        """Fill the faces with chords, preferring chords from fixed
        vertices: hanging clusters then anchor to spread positions instead
        of collapsing onto a line; the chords only shape the solve."""
        fixed = set(self.y) | {self.apex}

        def choose(target: list[int], edges: set) -> tuple[int, int] | None:
            """The first walk positions (i, j), in row-major order, of a
            chord from a fixed to a non-fixed vertex, else of one between
            two non-fixed vertices.  A chord between two fixed vertices adds
            no pull, and on the axis it would seal a flat pocket."""
            k = len(target)
            is_fixed = [v in fixed for v in target]
            pinned = [i for i in range(k) if is_fixed[i]]
            loose = [i for i in range(k) if not is_fixed[i]]

            def first(i: int, candidates: list[int]) -> int | None:
                a = target[i]
                for j in candidates:
                    b = target[j]
                    if a != b and (j - i) % k not in (0, 1, k - 1) \
                            and norm_edge(a, b) not in edges:
                        return j
                return None

            for i in range(k):
                j = first(i, loose if is_fixed[i] else pinned)
                if j is not None:
                    return (i, j)
            for i in loose:
                j = first(i, loose)
                if j is not None:
                    return (i, j)
            return None  # face already saturated for our purposes

        return insert_chords(rot, faces, edges, choose)

    def solve(self, xs: list[int], den: int, side: str) -> tuple:
        """(pos, dx, dy): unverified integer points of the half's vertices
        but the apex, over x and y denominators, with the axis at
        x = xs[i] / den, increasing, and heights -φ ("below") or φ."""
        fixed = {v: 2 * x for v, x in zip(self.y, xs)}
        fixed[self.apex] = xs[0] + xs[-1]  # the midpoint, over 2·den
        inner, dx = self._base.solve(fixed, 2 * den)
        sign = -1 if side == "below" else 1
        pos = [None] * self.apex
        for v, x in zip(self.y, xs):
            pos[v] = (x * (dx // den), 0)
        for v, x, phi in zip(self._base.interior, inner, self._phi):
            pos[v] = (x, sign * phi)
        return pos, dx, self._phi_den


# ---------------------------------------------------------------------------
# Collinear realization of curve certificates
# ---------------------------------------------------------------------------

def _axis_items(cert: CurveCertificate) -> list:
    """The vertex and cross items of ``cert`` with their indices, in axis
    order: from the first item, counting cyclically from item 0, that
    follows a face passage.  So the two ends of the axis are never joined
    by an along edge."""
    m = len(cert.items)
    start = next(i for i in range(m) if cert.passages[i - 1] is not None)
    return [(i % m, cert.items[i % m]) for i in range(start, start + m)
            if not isinstance(cert.items[i % m], AlongItem)]


def _half_embedding(an, sp, mids: dict, y_order, which: str):
    """One half (side content, axis vertices, axis edges), read off g's
    rotations and the analysis of the certificate on g: the arguments of
    ``_HalfPlane`` (rotation lists, their walks from one trace, the outer
    walk's index, the axis) and each vertex's point id (``keep``).

    The k-th crossed edge (u, w), u < w, in sorted order becomes the
    midpoint g.n + k with rotation [u, w]; its corner on a face is the half
    of the dart the analysis placed there, slot 0 for a dart from u and 1
    for one from w.  A side vertex keeps every neighbour, a midpoint in
    place of each crossed one; a curve vertex or midpoint keeps every
    neighbour not on the other side, with the axis neighbours inserted at
    its entry and exit corners."""
    g, cert = an.g, an.cert
    side, other = (sp.X, sp.Z) if which == "inside" else (sp.Z, sp.X)
    m = len(y_order)

    rot_map: dict[int, list[int]] = {}
    for v in sorted(side):
        rot_map[v] = [mids.get(norm_edge(v, u), u) for u in g.rot[v]]
    for yi, (i, it) in enumerate(_axis_items(cert)):
        y = y_order[yi]
        if isinstance(it, VertexItem):
            base = list(g.rot[y])
            entry, exit_ = an.entry_corner[i], an.exit_corner[i]
        else:
            base = list(norm_edge(*it.edge))
            entry, exit_ = (
                0 if g.faces[f].walk[p // 2][0] == base[0] else 1
                for f, p in ((cert.passages[i - 1], an.entry_pos[i]),
                             (cert.passages[i], an.exit_pos[i])))
        inserts = []  # (slot, neighbor, tiebreak)
        if yi + 1 < m and exit_ is not None:
            inserts.append((exit_, y_order[yi + 1], 0))
        if yi > 0 and entry is not None:
            inserts.append((entry, y_order[yi - 1], 1))
        # when entry and exit share a corner the curve spikes through it and
        # this half's stubs all lie on one side of the axis; the two axis
        # neighbors then sit together in that corner, ordered oppositely in
        # the two halves (they are mirror images of each other)
        flip = 1 if which == "inside" else -1
        for slot, nbr, tie in sorted(inserts,
                                     key=lambda t: (-t[0], flip * t[2])):
            base.insert(slot, nbr)
        rot_map[y] = [u for u in base if u not in other]

    keep = sorted(rot_map)
    rel = {v: i for i, v in enumerate(keep)}
    rot = [[rel[u] for u in rot_map[v]] for v in keep]
    walks, face_of = _trace_faces(rot)
    # the outer face is the curve's complement side at the first axis edge
    y0r, y1r = rel[y_order[0]], rel[y_order[1]]
    outer = face_of[(y1r, y0r) if which == "inside" else (y0r, y1r)]
    return (rot, walks, outer, [rel[y] for y in y_order]), keep


@dataclass
class _CollinearSystem:
    mids: dict                    # crossed edge -> its midpoint, g.n + k
    y_order: tuple[int, ...]      # curve vertices and midpoints, in order
    halves: dict                  # "inside"/"outside" -> (_HalfPlane, keep)
    # point-id triples, each counter-clockwise in a plane drawing: the
    # inside half's triangles, the outside half's, then the corners of the
    # quadrilateral that bounds both
    triples: list
    parts: tuple                  # (end index in triples, what they are)


def _point_name(i: int, n: int, mids: dict) -> str:
    """A point id as error texts name it: a vertex by its id, a midpoint
    by its edge, an apex by the side of the axis it lies on."""
    if i < n:
        return str(i)
    if i < n + len(mids):
        return f"m{list(mids)[i - n]}"
    return "the lower apex" if i == n + len(mids) else "the upper apex"


def _half_triangles(hp: _HalfPlane, points: list[int], which: str,
                    name) -> list[tuple[int, int, int]]:
    """The triangles of the augmented half ``hp``, as point ids
    (``points[i]`` is the point of the half's vertex i, its apex last),
    each ordered to turn counter-clockwise in a drawing with the apex
    below the axis ("inside") or above it ("outside").

    The faces are traced from ``hp.rot`` by the face-on-the-left rule, so
    each dart lies on exactly one face, and the rotation system is checked
    to be a triangulated disk bounded by apex + axis, trusting nothing of
    how the chords were chosen:
    - no vertex is its own neighbour or repeats one, every vertex is
      reached from the apex, and u is in rot[v] exactly when v is in
      rot[u] (else the trace meets a dart it cannot follow)
    - one face is the cycle apex + axis, and every other face is a triangle
      on three distinct vertices; so every inner edge lies on two
      triangles, once in each direction, and every boundary edge on one
    - V - E + F = 1, counting the triangles as F.
    A connected oriented surface with one boundary cycle and Euler
    characteristic 1 is a disk.  The one other shape allowed is a half
    with nothing but its axis: its two faces are both apex + axis, and the
    triangles are then a fan from the apex.  A face of any other shape
    raises DegenerateOutput naming the half and the face.

    The triangles turn against the boundary walk.  Walked from the first
    axis vertex to the last and on to an apex above the axis, the boundary
    turns counter-clockwise, so each triangle is put in clockwise order
    then, and so on for the other three cases."""
    rot, y, apex = hp.rot, hp.y, hp.apex

    def bad(detail: str) -> DegenerateOutput:
        return _degenerate("collinear", DrawingViolation(
            "not-a-disk", f"the {which} half {detail}"))

    index = []
    for v, nbrs in enumerate(rot):
        at = {u: i for i, u in enumerate(nbrs)}
        if len(at) != len(nbrs) or v in at:
            raise bad(f"repeats a neighbour of {name(points[v])}")
        index.append(at)
    seen, todo = {apex}, [apex]
    while todo:
        for u in rot[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    if len(seen) != len(rot):
        raise bad("is not connected")

    try:
        walks = _trace_faces(rot, index)[0]
    except KeyError:  # the trace met a dart (v, u) with v not in rot[u]
        raise bad("has an edge in one rotation only") from None
    forward, backward = y + [apex], y[::-1] + [apex]
    tris, ends = [], []
    for walk in walks:
        verts = [u for u, _ in walk]
        if len(verts) == len(forward) and apex in verts:
            p = verts.index(apex)
            run = verts[p + 1:] + verts[:p + 1]
            if run == forward or run == backward:
                ends.append(1 if run == forward else -1)
                continue
        if len(verts) != 3 or len(set(verts)) != 3:
            raise bad("has the face " + ", ".join(name(points[u])
                                                   for u in verts)
                      + ", which is not a triangle")
        tris.append(verts)
    if len(ends) == 2 and not tris:
        # nothing but the axis: a fan from the apex, whose triangles turn
        # like those of a half walked from the last axis vertex
        ends, tris = [-1], [[apex, a, b] for a, b in zip(y, y[1:])]
    if len(ends) != 1:
        raise bad("is not bounded by one cycle apex + axis")
    edges = sum(map(len, rot)) // 2
    if len(rot) - edges + len(walks) - 1 != 1:
        raise bad("is not a disk: V - E + F is not 1")
    side = -1 if which == "inside" else 1
    if side * ends[0] > 0:
        return [(points[a], points[c], points[b]) for a, b, c in tris]
    return [(points[a], points[b], points[c]) for a, b, c in tris]


def _collinear_system(an: _Analysis) -> _CollinearSystem:
    """The collinear system of an analyzed certificate, built on the first
    call and kept on the analysis, so every free set sharing the analysis
    (a restriction shares it) reuses it, and it goes when they go.

    With the halves it keeps the triples that every drawing it realizes is
    checked on, as point ids: the vertices of g, then the midpoints, then
    the lower apex L and the upper apex U.  They are each half's triangles
    (``_half_triangles``, which checks that the half is a triangulated
    disk), then the corners (P₀, L, P₋₁), (L, P₋₁, U), (P₋₁, U, P₀) and
    (U, P₀, L) of the quadrilateral of the chain's ends (P is
    ``y_order``) and the apexes.  The two halves share only the chain, and
    glued along it they are one disk bounded by that quadrilateral: the
    triangles of both, each in its counter-clockwise order, use every
    chain edge once each way and the apexes' sides once, in the order
    P₀ → L → P₋₁ → U → P₀.  Every edge of g must be an edge of a half, or
    be split at its midpoint into two.  A system that breaks any of this
    raises DegenerateOutput."""
    if an.collinear is not None:
        return an.collinear
    g, cert = an.g, an.cert
    sp = _side_partition_of(an)
    crossed = sorted(norm_edge(*e) for e in cert.crossed_edges())
    mids = {e: g.n + k for k, e in enumerate(crossed)}
    y_order = tuple(it.v if isinstance(it, VertexItem)
                    else mids[norm_edge(*it.edge)]
                    for _, it in _axis_items(cert))
    if len(y_order) < 2:
        raise InvalidCurve("collinear realization needs at least two "
                           "curve vertices")

    def name(i: int) -> str:
        return _point_name(i, g.n, mids)

    halves, triples, parts = {}, [], []
    for which, apex in (("inside", g.n + len(mids)),
                        ("outside", g.n + len(mids) + 1)):
        half, keep = _half_embedding(an, sp, mids, y_order, which)
        hp = _HalfPlane(*half)
        halves[which] = (hp, keep)
        triples += _half_triangles(hp, keep + [apex], which, name)
        parts.append((len(triples), f"the {which} half's triangle"))
    first, last = y_order[0], y_order[-1]
    lower, upper = g.n + len(mids), g.n + len(mids) + 1
    darts = set()  # every edge of a half lies on one of its triangles
    for a, b, c in triples:
        darts.update(((a, b), (b, c), (c, a)))
    rim = {(u, v) for u, v in darts if (v, u) not in darts}
    if len(darts) != 3 * len(triples) or rim != {
            (first, lower), (lower, last), (last, upper), (upper, first)}:
        raise _degenerate("collinear", DrawingViolation(
            "not-a-disk", "the halves do not close up along the axis"))
    for e in sorted(g.edges):
        mid = mids.get(e)
        if (e not in darts and e[::-1] not in darts) if mid is None else \
                not ({(e[0], mid), (mid, e[0])} & darts
                     and {(e[1], mid), (mid, e[1])} & darts):
            raise _degenerate("collinear", DrawingViolation(
                "not-a-disk", f"edge {e} is not drawn by the halves"))
    triples += [(first, lower, last), (lower, last, upper),
                (last, upper, first), (upper, first, lower)]
    parts.append((len(triples), "the outer quadrilateral's corner"))
    an.collinear = _CollinearSystem(mids=mids, y_order=y_order,
                                    halves=halves, triples=triples,
                                    parts=tuple(parts))
    return an.collinear


def _system_of(g: EmbeddedGraph, fs: OrderedFreeSet) -> _CollinearSystem:
    """The collinear system of a free set of g."""
    if g != fs.graph:
        raise SizeMismatch("free set does not belong to this graph")
    if fs._analysis is None:  # a set built without its constructor
        raise InvalidCurve("the free set's certificate was never validated")
    return _collinear_system(fs._analysis)


def _axis_positions(y_order, s_order, xs: list[int],
                    den: int) -> tuple[list[int], int]:
    """x positions for every curve vertex, as numerators over one
    denominator: the free set gets xs[i] / den, the rest are interpolated
    uniformly (ends padded by one)."""
    spos = dict(zip(s_order, xs))
    anchors = [i for i, v in enumerate(y_order) if v in spos]
    first, last = anchors[0], anchors[-1]
    tail = len(y_order) - last - 1
    # one denominator for every step: the padded ends and each gap
    m = lcm(first + 1, tail + 1,
            *(b - a for a, b in zip(anchors, anchors[1:])))
    out = [0] * len(y_order)
    for i in anchors:
        out[i] = spos[y_order[i]] * m
    for j in range(first):
        out[j] = out[first] - den * m + den * (j + 1) * (m // (first + 1))
    for k, j in enumerate(range(last + 1, len(y_order))):
        out[j] = out[last] + den * (k + 1) * (m // (tail + 1))
    for a, b in zip(anchors, anchors[1:]):
        step = (out[b] - out[a]) // (b - a)
        for k, j in enumerate(range(a + 1, b)):
            out[j] = out[a] + step * (k + 1)
    return out, den * m


def _apex_rise(x0: int, x1: int) -> int:
    """How far the apexes stand off the axis, over the middle of the chain's
    ends x0 < x1: four times their distance, over the same denominator."""
    return 4 * (x1 - x0)


def _collinear_base(g: EmbeddedGraph, fs: OrderedFreeSet, xs: list[int],
                    den: int) -> tuple[GridDrawing, list[int]]:
    """Unverified collinear drawing with the free set at x = xs[i] / den
    in axis order, and the free set in that order: both halves of the
    collinear system kept on the free set's analysis solved and merged on
    integer columns, the crossed edges bent at their midpoints.  The side
    of the axis each vertex lands on is not checked here: the triangle
    check decides it (``realize_collinear``)."""
    if not fs.order:
        raise SizeMismatch("the free set is empty")
    if len(xs) != len(fs.order):
        raise SizeMismatch(f"need {len(fs.order)} x positions")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise SizeMismatch("x positions must be strictly increasing")
    sysm = _system_of(g, fs)
    members = set(fs.order)
    s_axis = [v for v in sysm.y_order if v in members]
    axis_x, axis_den = _axis_positions(sysm.y_order, s_axis, xs, den)

    halves = [(*hp.solve(axis_x, axis_den, side), keep)
              for (hp, keep), side in ((sysm.halves["inside"], "below"),
                                       (sysm.halves["outside"], "above"))]
    dx = lcm(*(hdx for _, hdx, _, _ in halves))
    dphi = lcm(*(hdy for _, _, hdy, _ in halves))
    # a half's heights are ±φ; the apex goes to b, over axis_den, and b
    # goes into each half's column factor.  Only axis vertices lie in both
    # halves, and both put one at column x·dx/axis_den, height 0.
    b = _apex_rise(axis_x[0], axis_x[-1])
    merged: dict[int, tuple[int, int]] = {}
    for pos, hdx, hdy, keep in halves:
        cx, cy = dx // hdx, b * (dphi // hdy)
        for v, (x, y) in zip(keep, pos):
            merged[v] = (x * cx, y * cy)
    return GridDrawing(graph=g, xy=[merged[v] for v in range(g.n)],
                       bend_xy={e: (merged[mid],)
                                for e, mid in sysm.mids.items()},
                       dx=dx, dy=axis_den * dphi,
                       provenance=f"collinear[{fs.provenance}]"), s_axis


def realize_collinear(g: EmbeddedGraph, fs: OrderedFreeSet,
                      xs) -> GridDrawing:
    """Straight-line drawing (bends only on curve-crossed edges) with the
    free set exactly at (x_i, 0) in axis order, everything inside the curve
    strictly below the axis and everything outside strictly above.

    The axis runs along the curve from its first item, counting from item
    0, that follows a face passage.  Every extracted certificate starts
    there, so the axis order is the set's own order; for another
    certificate it is a rotation of it.  The merged drawing goes through
    the zero lift (``perturb_scale`` with every target 0): every point but
    the free set is rounded toward zero to the coarsest power-of-two grid
    that the halves' triangles certify, and the rounded points are checked
    once, on those triangles (``_checked_halves``), before the drawing is
    built; a failure raises DegenerateOutput.  That check also decides the
    sides: glued along the axis, the halves are one disk, embedded inside
    the quadrilateral P₀, L, P₋₁, U of the chain's ends and the apexes, and
    the inside half is the part of it bounded by the chain and L, so its
    vertices off the chain lie strictly inside the triangle P₀, L, P₋₁,
    below the axis."""
    base, _ = _collinear_base(g, fs, *common_denominator([F(x) for x in xs]))
    return perturb_scale(base, fs, [0] * len(fs.order))


# ---------------------------------------------------------------------------
# Perturb and scale
# ---------------------------------------------------------------------------

def _apex_points(d: GridDrawing, sysm: _CollinearSystem) -> tuple:
    """(pts, dx, dy): a new list of the triples' points on d's grid, or one
    finer where the apexes need it: the vertices, the midpoints (the bends
    of the crossed edges), the lower apex and the upper, where
    ``_collinear_base`` puts them (``_apex_rise``), on whose grid they are
    grid points already.  DegenerateOutput for the stage "collinear" unless
    d bends every crossed edge once and no other edge."""
    if len(d.bend_xy) != len(sysm.mids) or any(
            len(d.bend_xy.get(e, ())) != 1 for e in sysm.mids):
        raise _degenerate("collinear", DrawingViolation(
            "bends", "the bends are not one per crossed edge"))
    pts = [*d.xy, *(d.bend_xy[e][0] for e in sysm.mids)]
    x0, x1 = pts[sysm.y_order[0]][0], pts[sysm.y_order[-1]][0]
    # the rise over dx, times dy: integral once y is ky times finer; x is
    # twice as fine when the middle is not on the grid
    rise = _apex_rise(x0, x1) * d.dy
    common = gcd(d.dx, rise)
    kx, ky = 1 + (x0 + x1) % 2, d.dx // common
    if kx != 1 or ky != 1:
        pts = [(kx * x, ky * y) for x, y in pts]
    x, y = kx * (x0 + x1) // 2, rise // common
    return pts + [(x, -y), (x, y)], d.dx * kx, d.dy * ky


def _flipped(sysm: _CollinearSystem, pts: list, i: int,
             stage: str) -> DegenerateOutput:
    """The error for triple i, which does not turn counter-clockwise."""
    n = len(pts) - len(sysm.mids) - 2
    a, b, c = sysm.triples[i]
    (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    what = next(w for end, w in sysm.parts if i < end)
    names = ", ".join(_point_name(p, n, sysm.mids) for p in (a, b, c))
    return _degenerate(stage, DrawingViolation(
        "flipped-triangle", f"{what} {names} is "
        f"{'degenerate' if det == 0 else 'clockwise'}"))


def _checked_halves(pts: list, sysm: _CollinearSystem, stage: str) -> None:
    """Check the points of a drawing of the collinear system, as
    ``_apex_points`` lists them, on the system's halves: a failure raises
    DegenerateOutput naming the stage and the first condition broken.

    When the system was built, its two halves were checked to be
    triangulated disks that, glued along the axis chain, form one disk
    bounded by the quadrilateral P₀, L, P₋₁, U of the chain's ends and the
    apexes, and every edge of g to be an edge of that disk or split at its
    midpoint into two.  The drawing bends each crossed edge once, at the
    point of its midpoint, and no other edge (``_apex_points`` checks that
    once).  It is then plane when every triple turns counter-clockwise:
    each triangle of either half, and each corner of the quadrilateral,
    which is then convex.  A piecewise-linear map of a triangulated disk
    that keeps the orientation of every triangle and takes the boundary to
    a simple polygon is injective (Lipman, "Bijective mappings of meshes
    with boundary and the degree in mesh processing", SIAM J. Imaging Sci.
    2014; Floater 2003 for a convex boundary): a point inside the polygon
    is covered by as many triangles as the boundary winds around it, once.
    So the disk is drawn without a crossing, and so is g.  The apexes are
    part of the certificate: any two points for which the conditions hold
    would do.  The points off the free set may move too while the
    conditions hold, which lets realization round them before its one
    check (``_rounded``).  That is one orientation sign per triple, on the
    grid's numerators: no sort and no sweep."""
    for i, (a, b, c) in enumerate(sysm.triples):
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        if (bx - ax) * (cy - ay) <= (by - ay) * (cx - ax):
            raise _flipped(sysm, pts, i, stage)


def _pow2_below(num: int, den: int) -> int:
    """The k with 2^k < num / den <= 2^(k + 1), for positive num and den."""
    k = num.bit_length() - den.bit_length()
    # now 2^(k - 1) < num / den < 2^(k + 1)
    at = num << -k if k < 0 else num
    if at <= (den << k if k > 0 else den):
        k -= 1
    return k


def _lift_exponent(pts: list, sysm: _CollinearSystem, heights: list,
                   dy: int, ymax: int) -> int:
    """The k of epsilon = 2^k: the largest power of two below the lift at
    which a triple first stops turning counter-clockwise.

    Only free vertices move, and only vertically: point p goes up by
    epsilon·heights[p]/ymax, or ``dy`` times that on the grid.  So each
    triple's orientation is affine in epsilon, det₀ + epsilon·lin, where
    det₀ is its orientation on the axis.  A det₀ <= 0 raises
    DegenerateOutput for the stage "collinear", naming the triple; a lin
    >= 0 sets no bound; every other triple turns until epsilon reaches
    -det₀/lin, or (det₀·ymax)/(-lin·dy) in units of the lift, and k is the
    least of their exponents.  With no bound at all, k is 0.  A triple's
    exponent is within two of its bit lengths' difference, so it is
    computed only where that could make it the least."""
    k = None
    off = ymax.bit_length() - dy.bit_length()
    for i, (a, b, c) in enumerate(sysm.triples):
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if det <= 0:
            raise _flipped(sysm, pts, i, "collinear")
        ha, hb, hc = heights[a], heights[b], heights[c]
        if ha or hb or hc:
            lin = (cx - bx) * ha - (cx - ax) * hb + (bx - ax) * hc
            if lin < 0 and (k is None or det.bit_length() -
                            (-lin).bit_length() + off - 2 < k):
                at = _pow2_below(det * ymax, -lin * dy)
                if k is None or at < k:
                    k = at
    return 0 if k is None else k


def _fits(det: int, t: int, dxdy: int, j: int) -> bool:
    """Whether det > 2·delta·t + 8·delta²·dxdy for delta = 2^-j, in
    integers: both sides times 4^j when j >= 0, and as they are when
    j < 0."""
    if j >= 0:
        return det << 2 * j > (t << j + 1) + (dxdy << 3)
    return det > (t << 1 - j) + (dxdy << 3 - 2 * j)


def _snap_exponent(pts: list, sysm: _CollinearSystem, dx: int, dy: int,
                   stage: str) -> int:
    """The j of delta = 2^-j: the largest power of two such that every
    triple still turns counter-clockwise when any of its points moves by
    less than delta along each axis.  ``pts`` are on a grid with the
    denominators dx and dy.

    Take a triple (a, b, c) with u = b - a, w = c - a and doubled area D.
    Moving the points changes u and w by less than 2·delta per axis, so D
    changes by less than 2·delta·(|u|₁ + |w|₁) + 8·delta²; D > that bound
    keeps the sign.  On the grid this is det > 2·delta·t + 8·delta²·dx·dy,
    with det the orientation of the numerators and
    t = dy·(|ux| + |wx|) + dx·(|uy| + |wy|).  A det <= 0 raises
    DegenerateOutput for ``stage``, naming the triple, as
    ``_checked_halves`` does.

    A triple's least j is at least bt - bd and at most bt - bd + 4, where
    bd is the bit length of det and 2^(bt - 2) <= t < 2^(bt + 1): at that j,
    each term of the bound is below D/2.  For the second term this follows
    from D <= (|u|₁ + |w|₁)²/4.  The bit lengths of u and w bound bt, so t
    is formed and the exact condition tested only where a triple's j could
    exceed the greatest so far."""
    dxdy = dx * dy
    bdx, bdy = dx.bit_length(), dy.bit_length()
    j = -(1 << 64)  # below any triple's j: the first triple sets it
    kx, ky = j - 5 - bdy, j - 5 - bdx
    for i, (a, b, c) in enumerate(sysm.triples):
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        ux = bx - ax
        uy = by - ay
        wx = cx - ax
        wy = cy - ay
        det = ux * wy - uy * wx
        if det <= 0:
            raise _flipped(sysm, pts, i, stage)
        bd = det.bit_length()
        if ux.bit_length() > bd + kx or wx.bit_length() > bd + kx or \
                uy.bit_length() > bd + ky or wy.bit_length() > bd + ky:
            sx, sy = abs(ux) + abs(wx), abs(uy) + abs(wy)
            # 2^(bt - 2) <= t < 2^(bt + 1); det > 0, so neither sum is 0
            bt = max(sx.bit_length() + bdy, sy.bit_length() + bdx)
            t = dy * sx + dx * sy
            k = max(bt - bd, j)
            while not _fits(det, t, dxdy, k):
                k += 1
            j = k
            kx, ky = j - 5 - bdy, j - 5 - bdx
    return j


def _rounded(pts: list, sysm: _CollinearSystem, free, dx: int, dy: int,
             stage: str) -> tuple[list, int, int]:
    """(pts, dx, dy): the triples' points on the grid dx, dy, each
    coordinate of each point but the free vertices rounded in place toward
    zero to a multiple of delta = 2^-j (``_snap_exponent``), on a new grid.
    A triple that does not turn counter-clockwise raises DegenerateOutput
    for ``stage``.

    Each coordinate is rounded from its value, not from its numerator, so
    the points come out the same from any grid of them, and the free
    vertices keep their values exactly.  Rounding toward zero moves a
    coordinate by less than delta and commutes with negation, so the lower
    apex is still the mirror image of the upper one, and a drawing realized
    on turned points and turned back (``untangle``, ``psge_many``) is the
    one realized on the points themselves.  The new grid of each axis is
    the least common multiple of 2^j and the free vertices' least
    denominator on that axis."""
    j = _snap_exponent(pts, sysm, dx, dy, stage)
    ndx = lcm(dx // gcd(dx, *(pts[v][0] for v in free)), 1 << max(0, j))
    ndy = lcm(dy // gcd(dy, *(pts[v][1] for v in free)), 1 << max(0, j))
    exact = [(v, pts[v][0] * ndx // dx, pts[v][1] * ndy // dy) for v in free]
    # c / den / delta rounded toward zero, times delta over new: |c| << sh
    # divided by den << m, times new >> j, or times new << m when j = -m < 0
    sh, m = max(0, j), max(0, -j)
    ex, fx, ey, fy = dx << m, (ndx >> sh) << m, dy << m, (ndy >> sh) << m
    for p, (x, y) in enumerate(pts):
        pts[p] = ((x << sh) // ex * fx if x >= 0 else -((-x << sh) // ex * fx),
                  (y << sh) // ey * fy if y >= 0 else -((-y << sh) // ey * fy))
    for v, x, y in exact:
        pts[v] = (x, y)
    return pts, ndx, ndy


def perturb_scale(d: GridDrawing, fs: OrderedFreeSet,
                  targets) -> GridDrawing:
    """Move the free set, on the axis in ``d``, to the target heights:
    ``targets[i]`` for ``fs.order[i]``.  ``d`` is a drawing of the collinear
    system kept on ``fs``'s analysis, on its integer grid, as
    ``realize_collinear`` or ``_collinear_base`` builds it
    (``GridDrawing.from_points`` puts a rational drawing on one); its
    ``verified`` flag is not read.  It must bend every crossed edge once and
    no other edge (else DegenerateOutput for the stage "collinear").

    All of it works in place on one list of the triples' points
    (``_apex_points``).  The triples turn counter-clockwise in d (else
    DegenerateOutput for the stage "collinear"), and with epsilon from
    ``_lift_exponent`` they still do once the free set is lifted to
    epsilon·y_i/ymax.  Every y is then scaled by ymax/epsilon, which keeps
    every orientation sign, so the points are lifted scaled: the free
    vertices exactly at y_i, and every other height times one integer,
    ymax/epsilon over the new y denominator.  All-zero targets lift
    nothing.

    Only the free vertices must land where they are put; any other point
    may move as long as every triple keeps turning counter-clockwise.  So
    every vertex off the free set, every bend and the apexes are rounded
    toward zero to the coarsest power-of-two grid that the triples of the
    lifted points certify, in one pass over them that also raises on a
    triple that does not turn, and the free vertices stay exact
    (``_rounded``).  The rounded points are checked once on the halves'
    triangles (``_checked_halves``), for the stage "perturb" after a lift
    and "collinear" without one, and only then is the drawing built."""
    order = list(fs.order)
    ys = [y if type(y) is F else F(y) for y in targets]
    if len(ys) != len(order):
        raise SizeMismatch("one target height per free-set member")
    for v in order:
        if d.xy[v][1] != 0:
            raise SizeMismatch(f"free-set vertex {v} is not on the axis")
    sysm = _system_of(d.graph, fs)
    pts, dx, dy = _apex_points(d, sysm)
    stage, provenance = "collinear", d.provenance
    if any(ys):
        ys, tden = common_denominator(ys)
        ymax = max(abs(y) for y in ys)
        heights = [0] * len(pts)
        for v, y in zip(order, ys):
            heights[v] = y
        k = _lift_exponent(pts, sysm, heights, dy, ymax)
        # ymax / eps = scale / (tden * eps numerator), over the new denominator
        scale = ymax << max(0, -k)
        lift = dy << max(0, k)
        for p, (x, y) in enumerate(pts):  # y or the height is 0
            pts[p] = (x, y * scale + heights[p] * lift)
        dy = lift * tden
        stage, provenance = "perturb", provenance + "+perturbed"
    pts, dx, dy = _rounded(pts, sysm, order, dx, dy, stage)
    _checked_halves(pts, sysm, stage)
    n = len(d.xy)
    return GridDrawing(graph=d.graph, xy=pts[:n], dx=dx, dy=dy,
                       bend_xy={e: (pts[n + k],)
                                for k, e in enumerate(sysm.mids)},
                       provenance=provenance, verified=True)


# ---------------------------------------------------------------------------
# Free realization
# ---------------------------------------------------------------------------

def _shear_keys(points: list[Point]) -> tuple[int, list[tuple[int, int]], int]:
    """Least integer t >= 0 after which the points have distinct x + t*y,
    with the points as integer keys over one common denominator.  Two
    points with equal y never collide, and two with distinct y collide at
    one t only, (x_q - x_p)/(y_p - y_q), so t is at most the number of
    point pairs.  The first k tries, for k points, are made one by one, in
    O(k) each; past them t is read off the pairs, in O(k²) time and one
    byte per pair however large t is.  Two equal points raise
    SizeMismatch."""
    flat, den = common_denominator([c for p in points for c in p])
    keys = list(zip(flat[::2], flat[1::2]))
    k = len(keys)
    if len(set(keys)) != k:
        raise SizeMismatch("points must be distinct")
    for t in range(k):
        if len({x + t * y for x, y in keys}) == k:
            return t, keys, den
    # the pairs take at most k(k-1)/2 values, so t - k is below that + 1
    hit = bytearray(k * (k - 1) // 2 + 1)
    for i, (xp, yp) in enumerate(keys):
        for xq, yq in keys[i + 1:]:
            if yp != yq:
                t, r = divmod(xq - xp, yp - yq)
                if not r and 0 <= t - k < len(hit):
                    hit[t - k] = 1
    return k + hit.index(0), keys, den


def _grid_map(d: GridDrawing, a, b, c, e, dx, dy) -> GridDrawing:
    """``d`` with every vertex and bend point (x, y) of its grid sent to
    (a*x + b*y, c*x + e*y), over the denominators dx and dy."""
    return replace(d, xy=[(a * x + b * y, c * x + e * y) for x, y in d.xy],
                   bend_xy={k: tuple([(a * x + b * y, c * x + e * y)
                                      for x, y in pts])
                            for k, pts in d.bend_xy.items()}, dx=dx, dy=dy)


def _shear_drawing(d: GridDrawing, t: int) -> GridDrawing:
    """``d`` sheared by (x, y) -> (x + t*y, y).

    A shear has determinant 1, so every orientation sign is kept and the
    verified flag carries over; shearing by -t undoes it exactly."""
    if t == 0:
        return d
    dx = lcm(d.dx, d.dy)
    return _grid_map(d, dx // d.dx, t * (dx // d.dy), 0, 1, dx, d.dy)


def free_realize(g: EmbeddedGraph, fs: OrderedFreeSet, points) -> GridDrawing:
    """Drawing on its integer grid with the free set exactly at the points.

    Point sets with repeated x-coordinates are sheared by the least integer
    t that makes (x + t*y) distinct before realization, and by -t
    afterwards.  The free vertices take the points in axis order
    (``realize_collinear``; for an extracted set, the set's own order): the
    k-th of them goes to the point with the k-th least x + t*y.

    Only the returned drawing is checked, once, on the halves' triangles
    (``_checked_halves``); the lift raises first on a triangle of the
    unchecked base that is flat or clockwise.  Either raises
    DegenerateOutput.
    """
    pts = [(x if type(x) is F else F(x), y if type(y) is F else F(y))
           for x, y in points]
    if len(pts) != len(fs.order):
        raise SizeMismatch(f"need {len(fs.order)} points")

    t, keys, den = _shear_keys(pts)
    sheared = [x + t * y for x, y in keys]
    order = sorted(range(len(pts)), key=sheared.__getitem__)
    xs = [sheared[i] for i in order]
    common = gcd(den, *xs)  # the x's over their least denominator

    base, s_axis = _collinear_base(g, fs, [x // common for x in xs],
                                   den // common)
    heights = dict(zip(s_axis, (pts[i][1] for i in order)))
    d = _shear_drawing(perturb_scale(base, fs,
                                     [heights[v] for v in fs.order]), -t)
    for v, i in zip(s_axis, order):
        if not d.places(v, pts[i]):  # pragma: no cover
            raise MergeConflict(f"vertex {v} missed its target point")
    return replace(d, provenance=f"free[{fs.provenance}]")
