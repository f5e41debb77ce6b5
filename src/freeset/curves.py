"""Combinatorial certificates for closed proper-good curves.

A certificate is a cyclic sequence of items (vertices the curve passes
through, edges it crosses once, edges it runs along entirely) together with
the face traversed between consecutive items.  Validation checks that the
data describes a simple closed curve meeting every edge at most once: the
local properness rules, and for every face a non-crossing placement of the
passage chords on the face's boundary circle.  Nothing more is needed.  The
placed chords draw the curve through each face, the curve meets each vertex
and edge at most once, and chords in one face do not cross, so the curve is
simple.  By the Jordan curve theorem it then has two sides, which
``side_partition`` reads off from local seeds and one flood.

Boundary circle coordinates: a face of size L gets 2L cyclic positions;
position 2t is the interior of the walk edge at index t, position 2t+1 the
corner at its head.  The walk order runs counter-clockwise around the face
interior, so the region to the left of a directed passage chord (a -> b) is
the one bordering the arc that starts just after b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .embedding import EmbeddedGraph, Edge, norm_edge
from .errors import (
    InconsistentSides,
    InvalidCurve,
    NotACycle,
    NotCaressed,
    NotIndependent,
    NotOnBoundary,
    TooFew,
)

_SEARCH_CAP = 2_000_000


@dataclass(frozen=True)
class VertexItem:
    v: int

    def __str__(self):
        return f"CV {self.v}"


@dataclass(frozen=True)
class CrossItem:
    edge: Edge

    def __str__(self):
        return f"CX {self.edge[0]} {self.edge[1]}"


@dataclass(frozen=True)
class AlongItem:
    edge: Edge

    def __str__(self):
        return f"CA {self.edge[0]} {self.edge[1]}"


Item = VertexItem | CrossItem | AlongItem


@dataclass(frozen=True)
class CurveCertificate:
    """Cyclic item list; passages[i] is the face crossed between items i and
    i+1 (None exactly when that pair is joined by an along-edge)."""

    items: tuple[Item, ...]
    passages: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.items) != len(self.passages):
            raise InvalidCurve("need one passage slot per item")

    def vertex_order(self) -> tuple[int, ...]:
        return tuple(it.v for it in self.items if isinstance(it, VertexItem))

    def crossed_edges(self) -> tuple[Edge, ...]:
        return tuple(it.edge for it in self.items if isinstance(it, CrossItem))

    def rotated(self, k: int) -> "CurveCertificate":
        m = len(self.items)
        k %= m
        return CurveCertificate(self.items[k:] + self.items[:k],
                                self.passages[k:] + self.passages[:k])

    def reversed(self) -> "CurveCertificate":
        m = len(self.items)
        items = tuple(reversed(self.items))
        passages = tuple(self.passages[(m - 2 - i) % m] for i in range(m))
        return CurveCertificate(items, passages)


@dataclass(frozen=True)
class SidePartition:
    """Vertices strictly inside the curve (X), on it in curve order (Y),
    and strictly outside (Z).  An edge's class follows: along or crossed
    as the certificate lists it, else inside or outside as its end off the
    curve (properness leaves it one)."""

    X: frozenset[int]
    Y: tuple[int, ...]
    Z: frozenset[int]


@dataclass(frozen=True)
class CurveViolation:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


# ---------------------------------------------------------------------------
# Analysis: structure, corner assignment, chord placement
# ---------------------------------------------------------------------------

class _Bad(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.violation = CurveViolation(kind, detail)


class _FaceGeometry:
    """Lazy boundary-circle indexing for one face."""

    def __init__(self, g: EmbeddedGraph, fid: int):
        self.fid = fid
        walk = g.faces[fid].walk
        self.size = 2 * len(walk)
        self.edge_pos = {d: 2 * t for t, d in enumerate(walk)}
        corner_pos: dict[tuple[int, int], int] = {}
        for t, (u, v) in enumerate(walk):
            # corner at v between the walk edges t and t+1; in rotation terms
            # this is the corner whose ccw-later edge is u
            corner_pos[(v, u)] = 2 * t + 1
        self.corner_pos = corner_pos  # (vertex, ccw-later neighbor) -> pos


def _chords_cross(a1: int, b1: int, a2: int, b2: int, size: int) -> bool:
    """True when chord (a2, b2) has one end strictly inside the arc from a1
    to b1 and one strictly outside; chords sharing an end, and spikes
    (a == b), never cross."""
    if a1 in (a2, b2) or b1 in (a2, b2) or a1 == b1 or a2 == b2:
        return False
    span = (b1 - a1) % size
    return ((a2 - a1) % size < span) != ((b2 - a1) % size < span)


class _Analysis:
    """Successful validation result, reused by side_partition and realize."""

    def __init__(self, g: EmbeddedGraph, cert: CurveCertificate):
        self.g = g
        self.cert = cert
        self.collinear = None  # the collinear system realize builds from it
        self.geom: dict[int, _FaceGeometry] = {}
        # per item index: (entry_pos, exit_pos) on the faces of the adjacent
        # passages (None when the neighbor is an along item), plus the entry
        # and exit corner slot for vertex items (rotation index, or None)
        self.entry_pos: list[int | None] = []
        self.exit_pos: list[int | None] = []
        self.entry_corner: list[int | None] = []
        self.exit_corner: list[int | None] = []

    def geometry(self, fid: int) -> _FaceGeometry:
        geo = self.geom.get(fid)
        if geo is None:
            geo = _FaceGeometry(self.g, fid)
            self.geom[fid] = geo
        return geo


def _structural_check(g: EmbeddedGraph, cert: CurveCertificate) -> None:
    items, passages = cert.items, cert.passages
    m = len(items)
    if m == 0:
        raise _Bad("empty", "certificate has no items")

    seen_edges: set[Edge] = set()
    seen_vertices: set[int] = set()
    for i, it in enumerate(items):
        if isinstance(it, VertexItem):
            if not 0 <= it.v < g.n:
                raise _Bad("unknown-element", f"vertex {it.v} not in graph")
            if it.v in seen_vertices:
                raise _Bad("vertex-twice", f"vertex {it.v} appears twice")
            seen_vertices.add(it.v)
        else:
            e = norm_edge(*it.edge)
            if e not in g.edges:
                raise _Bad("unknown-element", f"edge {e} not in graph")
            if e in seen_edges:
                raise _Bad("edge-twice", f"edge {e} used twice")
            seen_edges.add(e)

    y = {it.v for it in items if isinstance(it, VertexItem)}
    for it in items:
        if isinstance(it, CrossItem):
            u, v = it.edge
            if u in y or v in y:
                raise _Bad("not-proper",
                           f"crossed edge {it.edge} touches a curve vertex")

    # every edge joining two curve vertices must be run along
    along = {norm_edge(*it.edge) for it in items if isinstance(it, AlongItem)}
    for u in y:
        for v in g.rot[u]:
            if v in y and norm_edge(u, v) not in along:
                raise _Bad("not-proper",
                           f"edge {norm_edge(u, v)} joins two curve vertices "
                           "but is not an along item")

    # along items sit between their endpoint vertex items, without passages
    for i, it in enumerate(items):
        if not isinstance(it, AlongItem):
            continue
        if m < 3:
            raise _Bad("bad-along", "along item needs flanking vertex items")
        prev_it, next_it = items[i - 1], items[(i + 1) % m]
        u, v = it.edge
        ok = (isinstance(prev_it, VertexItem) and isinstance(next_it, VertexItem)
              and {prev_it.v, next_it.v} == {u, v})
        if not ok:
            raise _Bad("bad-along",
                       f"along edge {it.edge} not flanked by its endpoints")
        if passages[i - 1] is not None or passages[i] is not None:
            raise _Bad("bad-along",
                       f"along edge {it.edge} must not carry face passages")

    # a passage beside an along item was rejected above, so a passage is
    # None exactly beside one; a cross item has a face on each side
    for i in range(m):
        joined = isinstance(items[i], AlongItem) or \
            isinstance(items[(i + 1) % m], AlongItem)
        if passages[i] is None and not joined:
            raise _Bad("missing-passage",
                       f"items {i} and {(i + 1) % m} need a shared face")
        if passages[i] is not None and not 0 <= passages[i] < len(g.faces):
            raise _Bad("unknown-element", f"face {passages[i]} not in graph")

    if all(p is None for p in passages):
        raise _Bad("no-passage", "certificate needs at least one face passage")


def _item_slots(an: _Analysis, i: int, side: str) -> list[tuple[int, int | None]]:
    """Candidate (position, corner_slot) choices for one end of an item.

    side "entry" uses the passage before the item, "exit" the one after.
    """
    g, cert = an.g, an.cert
    m = len(cert.items)
    it = cert.items[i]
    fid = cert.passages[i - 1] if side == "entry" else cert.passages[i]
    if fid is None:
        return [(-1, None)]
    geo = an.geometry(fid)
    if isinstance(it, CrossItem):
        u, v = it.edge
        out = []
        for d in ((u, v), (v, u)):
            if g.face_of(*d) == fid:
                out.append((geo.edge_pos[d], None))
        if not out:
            raise _Bad("off-face",
                       f"edge {it.edge} is not on face {fid} (item {i})")
        return out
    # vertex item: one candidate per corner of the face at v
    v = it.v
    out = []
    for slot, u in enumerate(g.rot[v]):
        pos = geo.corner_pos.get((v, u))
        if pos is not None:
            out.append((pos, slot))
    if not out:
        raise _Bad("off-face", f"vertex {v} is not on face {fid} (item {i})")
    return out


def _assign_chords(an: _Analysis) -> None:
    """Choose corners/occurrences so all passage chords are non-crossing.

    Backtracking over the (usually singleton) choice sets, bounded by a
    global step cap; iterative, so its depth is not bounded by Python's
    recursion limit.
    """
    cert = an.cert
    m = len(cert.items)
    entry_choices = [_item_slots(an, i, "entry") for i in range(m)]
    exit_choices = [_item_slots(an, i, "exit") for i in range(m)]

    # a crossing lies on both its passages' faces (``_item_slots``), so
    # with two distinct side faces it must leave the one it entered
    for i, it in enumerate(cert.items):
        if isinstance(it, CrossItem):
            u, v = it.edge
            f_in = cert.passages[i - 1]
            if an.g.face_of(u, v) != an.g.face_of(v, u) and \
                    f_in == cert.passages[i]:
                raise _Bad("inconsistent-sides",
                           f"crossing {it.edge} re-enters face {f_in}")

    chords_by_face: dict[int, list[tuple[int, int]]] = {}
    steps = 0
    an.entry_pos = [None] * m
    an.exit_pos = [None] * m
    an.entry_corner = [None] * m
    an.exit_corner = [None] * m

    def ok_to_place(fid: int, a: int, b: int) -> bool:
        size = an.geometry(fid).size
        return all(not _chords_cross(a, b, a2, b2, size)
                   for a2, b2 in chords_by_face.get(fid, ()))

    def bridge_conflict(idx: int, pos: int, side: str) -> bool:
        # a cross item whose two passages run through the same (bridge) face
        # must use its two distinct edge occurrences
        if not isinstance(cert.items[idx], CrossItem):
            return False
        if cert.passages[idx - 1] != cert.passages[idx]:
            return False
        other = an.entry_pos[idx] if side == "exit" else an.exit_pos[idx]
        return other is not None and other == pos

    def placements(i: int):
        """Place each chord passage i may take, in search order; yields the
        next passage and undoes the placement when resumed."""
        nonlocal steps
        fid = cert.passages[i]
        j = (i + 1) % m
        for a, slot_a in exit_choices[i]:
            if bridge_conflict(i, a, "exit"):
                continue
            for b, slot_b in entry_choices[j]:
                steps += 1
                if steps > _SEARCH_CAP:
                    raise _Bad("search-cap",
                               "chord placement search exceeded bounds")
                if bridge_conflict(j, b, "entry"):
                    continue
                if not ok_to_place(fid, a, b):
                    continue
                chords_by_face.setdefault(fid, []).append((a, b))
                an.exit_pos[i], an.entry_pos[j] = a, b
                an.exit_corner[i], an.entry_corner[j] = slot_a, slot_b
                yield i + 1
                chords_by_face[fid].pop()
                an.exit_pos[i] = an.entry_pos[j] = None
                an.exit_corner[i] = an.entry_corner[j] = None

    # depth-first search with an explicit stack of the placed passages'
    # generators; a passage without a face takes no chord
    stack = []
    i = 0
    while True:
        while i < m and cert.passages[i] is None:
            i += 1
        if i == m:
            break
        stack.append(placements(i))
        i = next(stack[-1], None)
        while i is None:
            stack.pop()
            if not stack:
                raise _Bad("self-crossing",
                           "no corner assignment avoids curve self-crossings")
            i = next(stack[-1], None)


def _analyze(g: EmbeddedGraph, cert: CurveCertificate) -> _Analysis:
    """Full validation; raises _Bad with the first violated invariant."""
    _structural_check(g, cert)
    an = _Analysis(g, cert)
    _assign_chords(an)
    return an


def analyze_curve(g: EmbeddedGraph, cert: CurveCertificate) -> _Analysis:
    """Full validation; raises InvalidCurve with the first violated
    invariant, InconsistentSides when a crossing re-enters the face it
    left."""
    try:
        return _analyze(g, cert)
    except _Bad as exc:
        bad = (InconsistentSides if exc.violation.kind == "inconsistent-sides"
               else InvalidCurve)
        raise bad(str(exc)) from None


def validate_curve(g: EmbeddedGraph, cert: CurveCertificate,
                   ) -> CurveViolation | None:
    """Check all certificate invariants; None when the curve is valid."""
    try:
        _analyze(g, cert)
    except _Bad as exc:
        return exc.violation
    return None


# ---------------------------------------------------------------------------
# Side partition
# ---------------------------------------------------------------------------

def side_partition(g: EmbeddedGraph, cert: CurveCertificate) -> SidePartition:
    """Split the graph into inside / on-curve / outside of the curve.

    Inside (X) is the region to the left of the traversal.  A valid
    certificate is a simple closed curve, so by the Jordan curve theorem
    each side is decided locally and spread by one flood:

    - a crossed edge entered through its dart (u, v) on the entry face has v
      on the left and u on the right;
    - at a curve vertex whose entry and exit differ, the neighbours strictly
      counter-clockwise from the exit to the entry are on the left, the rest
      on the right (the entry and exit are corners, or along edges);
    - at a spike (the curve enters and leaves through the same corner p)
      every neighbour is on the left when the entry chord's far end comes
      before the exit chord's far end going forward from p, else on the
      right.

    The flood runs through G - Y and flips sides at crossed edges; G is
    connected, so it reaches every vertex.  Raises as ``analyze_curve``.
    """
    return _side_partition_of(analyze_curve(g, cert))


_OTHER_SIDE = {"X": "Z", "Z": "X"}


def _rotation_cut(an: _Analysis, i: int, corner: int | None, step: int) -> int:
    """Where the curve meets vertex item i's rotation, on a circle of 2d
    slots with neighbour j at 2j and the corner before neighbour s at
    2s - 1; without a corner the curve runs along the edge to the vertex
    item i + step."""
    items = an.cert.items
    rot = an.g.rot[items[i].v]
    if corner is not None:
        return (2 * corner - 1) % (2 * len(rot))
    return 2 * rot.index(items[(i + step) % len(items)].v)


def _side_partition_of(an: _Analysis) -> SidePartition:
    """The side partition of an analyzed (hence valid) certificate."""
    g, cert = an.g, an.cert
    items, passages = cert.items, cert.passages
    m = len(items)
    y_order = cert.vertex_order()
    y = set(y_order)
    crossed = set(norm_edge(*e) for e in cert.crossed_edges())

    side: dict[int, str] = {}
    for i, it in enumerate(items):
        if isinstance(it, CrossItem):
            walk = g.faces[passages[i - 1]].walk
            u, v = walk[an.entry_pos[i] // 2]
            side[u], side[v] = "Z", "X"
        elif isinstance(it, VertexItem):
            rot = g.rot[it.v]
            circle = 2 * len(rot)
            entry = _rotation_cut(an, i, an.entry_corner[i], -2)
            exit_ = _rotation_cut(an, i, an.exit_corner[i], 2)
            if entry == exit_:
                p = an.entry_pos[i]
                size = an.geometry(passages[i]).size
                a, b = an.exit_pos[i - 1], an.entry_pos[(i + 1) % m]
                s = "X" if (a - p) % size < (b - p) % size else "Z"
                side.update((u, s) for u in rot)
                continue
            span = (entry - exit_) % circle
            for j, u in enumerate(rot):
                if u not in y:
                    side[u] = "X" if 0 < (2 * j - exit_) % circle < span \
                        else "Z"

    pending = list(side)
    while pending:
        u = pending.pop()
        for v in g.rot[u]:
            if v not in y and v not in side:
                flip = norm_edge(u, v) in crossed
                side[v] = _OTHER_SIDE[side[u]] if flip else side[u]
                pending.append(v)

    return SidePartition(
        X=frozenset(v for v, s in side.items() if s == "X"),
        Y=y_order,
        Z=frozenset(v for v, s in side.items() if s == "Z"),
    )


# ---------------------------------------------------------------------------
# Open curves through face interiors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpenCurve:
    """Curve fragment between two anchors (not included as items).

    passages has one more entry than items: passages[0] leads from the first
    anchor to items[0], passages[-1] from items[-1] to the second anchor.
    A pure along-edge fragment has items == (AlongItem,) and (None, None).
    """

    items: tuple[Item, ...]
    passages: tuple[int | None, ...]


Anchor = int | Edge  # vertex id, or an edge whose midpoint is the endpoint


def _anchor_faces(g: EmbeddedGraph, anchor: Anchor, allowed: set[int],
                  ) -> list[int]:
    if isinstance(anchor, tuple):
        u, v = anchor
        out = {g.face_of(u, v), g.face_of(v, u)}
    else:
        out = set(g.faces_at(anchor))
    return sorted(out & allowed)


def route_open_curve(g: EmbeddedGraph, a: Anchor, b: Anchor,
                     allowed_faces: Iterable[int],
                     crossable: Iterable[Edge]) -> OpenCurve:
    """Shortest proper open curve from anchor a to anchor b.

    BFS over the allowed faces, stepping only through crossable edges; the
    result crosses each edge at most once and no edge incident to a vertex
    anchor (those are excluded from crossable by the caller or here).
    """
    allowed = set(allowed_faces)
    ok_edges = set(crossable)
    for anchor in (a, b):
        if isinstance(anchor, int):
            for u in g.rot[anchor]:
                ok_edges.discard(norm_edge(anchor, u))
        else:
            ok_edges.discard(norm_edge(*anchor))

    sources = _anchor_faces(g, a, allowed)
    targets = set(_anchor_faces(g, b, allowed))
    if not sources or not targets:
        raise NotOnBoundary(f"anchors {a}, {b} do not reach the allowed faces")

    prev: dict[int, tuple[int, Edge] | None] = {f: None for f in sources}
    queue = list(sources)
    goal = None
    for f in sources:
        if f in targets:
            goal = f
            break
    qi = 0
    while goal is None and qi < len(queue):
        f = queue[qi]
        qi += 1
        for (u, v) in g.faces[f].walk:
            e = norm_edge(u, v)
            if e not in ok_edges:
                continue
            nf = g.face_of(v, u)
            if nf not in allowed or nf in prev:
                continue
            prev[nf] = (f, e)
            if nf in targets:
                goal = nf
                break
            queue.append(nf)

    if goal is None:
        raise NotOnBoundary(f"no proper route from {a} to {b}")

    faces = [goal]
    crossings: list[Edge] = []
    while prev[faces[-1]] is not None:
        f, e = prev[faces[-1]]
        crossings.append(e)
        faces.append(f)
    faces.reverse()
    crossings.reverse()
    return OpenCurve(items=tuple(CrossItem(e) for e in crossings),
                     passages=tuple(faces))


# ---------------------------------------------------------------------------
# Caressed vertices and rerouting
# ---------------------------------------------------------------------------

def _cycle_crossings(g: EmbeddedGraph, dual_cycle: Sequence[int],
                     ) -> list[Edge]:
    """Primal edges crossed by a simple cycle of faces, in cycle order."""
    k = len(dual_cycle)
    if k < 3 or len(set(dual_cycle)) != k:
        raise NotACycle("dual cycle must be simple with at least 3 faces")
    out: list[Edge] = []
    for i, f in enumerate(dual_cycle):
        nf = dual_cycle[(i + 1) % k]
        if not 0 <= f < len(g.faces):
            raise NotACycle(f"face {f} not in graph")
        shared = sorted(g.faces[f].edge_set() & g.faces[nf].edge_set())
        if not shared:
            raise NotACycle(f"faces {f} and {nf} share no edge")
        out.append(shared[0])
    if len(set(out)) != len(out):
        raise NotACycle("cycle reuses a primal edge")
    return out


def dual_cycle_certificate(g: EmbeddedGraph, dual_cycle: Sequence[int],
                           ) -> CurveCertificate:
    """The proper-good curve tracing a simple cycle of faces."""
    crossings = _cycle_crossings(g, dual_cycle)
    k = len(dual_cycle)
    items = tuple(CrossItem(e) for e in crossings)
    passages = tuple(dual_cycle[(i + 1) % k] for i in range(k))
    return CurveCertificate(items, passages)


def caressed_vertices(g: EmbeddedGraph, dual_cycle: Sequence[int],
                      ) -> tuple[int, ...]:
    """Vertices whose crossed incident edges form one consecutive arc in
    their rotation (and at least one edge is crossed)."""
    crossed = set(_cycle_crossings(g, dual_cycle))
    out = []
    for v in range(g.n):
        nbrs = g.rot[v]
        d = len(nbrs)
        hits = [i for i, u in enumerate(nbrs) if norm_edge(v, u) in crossed]
        if not hits or len(hits) == d:
            if len(hits) == d and d > 0:
                out.append(v)
            continue
        # consecutive modulo d: exactly one gap in the sorted index list
        gaps = sum(1 for j in range(len(hits))
                   if (hits[(j + 1) % len(hits)] - hits[j]) % d != 1)
        if gaps <= 1:
            out.append(v)
    return tuple(out)


def reroute_caressed(g: EmbeddedGraph, dual_cycle: Sequence[int],
                     s: Iterable[int], ) -> CurveCertificate:
    """Pull the dual-cycle curve through each caressed vertex of S.

    S must be independent, caressed, and of size at least two; the result is
    a certificate whose vertex items are exactly S.  It is not checked
    here: making a free set of it validates it.
    """
    s = sorted(set(s))
    if len(s) < 2:
        raise TooFew("need at least two vertices to reroute through")
    sset = set(s)
    for u in s:
        for v in g.rot[u]:
            if v in sset:
                raise NotIndependent(f"{u} and {v} are adjacent")
    caressed = set(caressed_vertices(g, dual_cycle))
    for u in s:
        if u not in caressed:
            raise NotCaressed(f"vertex {u} is not caressed by the cycle")

    base = dual_cycle_certificate(g, dual_cycle)
    items = list(base.items)
    passages = list(base.passages)
    owner = []
    for it in items:
        u, v = it.edge
        owner.append(u if u in sset else (v if v in sset else None))

    # rotate so position 0 starts a run boundary
    m = len(items)
    start = next((i for i in range(m) if owner[i] != owner[i - 1]), 0)
    items = items[start:] + items[:start]
    passages = passages[start:] + passages[:start]
    owner = owner[start:] + owner[:start]

    new_items: list[Item] = []
    new_passages: list[int | None] = []
    i = 0
    while i < m:
        if owner[i] is None:
            new_items.append(items[i])
            new_passages.append(passages[i])
            i += 1
            continue
        v = owner[i]
        j = i
        while j < m and owner[j] == v:
            j += 1
        new_items.append(VertexItem(v))
        new_passages.append(passages[j - 1])
        i = j

    return CurveCertificate(tuple(new_items), tuple(new_passages))
