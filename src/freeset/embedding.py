"""Embedded planar graphs given as rotation systems.

A graph is described purely combinatorially: for every vertex a
counter-clockwise cyclic order of its neighbors.  Faces are traced with the
face-on-the-left rule (the successor of the directed edge (u, v) is
(v, w) where w precedes u in the rotation at v), and the Euler identity
V - E + F = 2 certifies that the rotation system describes a sphere
embedding.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Iterable, Sequence

from .errors import (
    Disconnected,
    MultiEdgeOrLoop,
    NonPlanarRotation,
    TooSmall,
    UnknownElement,
)

Edge = tuple[int, int]          # normalized: (min, max)
DirectedEdge = tuple[int, int]  # (tail, head)
# (face walk vertices, current edges) -> two walk positions to join, or None
ChordChooser = Callable[[list[int], set[Edge]], "tuple[int, int] | None"]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Face:
    """One face of an embedding: a closed walk of directed edges."""

    id: int
    walk: tuple[DirectedEdge, ...]
    is_outer: bool

    @property
    def size(self) -> int:
        return len(self.walk)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(u for u, _ in self.walk)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(u for u, _ in self.walk)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(norm_edge(u, v) for u, v in self.walk)


def _trace_faces(rot: Sequence[Sequence[int]],
                 index: Sequence[dict[int, int]] | None = None,
                 ) -> tuple[list[list[DirectedEdge]], dict[DirectedEdge, int]]:
    """The face walks of a rotation system (face-on-the-left rule), and the
    walk number of the face on the left of each dart.  ``index`` maps each
    vertex's neighbours to their rotation slots; it is built when not
    given."""
    if index is None:
        index = [{u: i for i, u in enumerate(nbrs)} for nbrs in rot]
    face_of: dict[DirectedEdge, int] = {}
    walks: list[list[DirectedEdge]] = []
    for v0 in range(len(rot)):
        for u0 in rot[v0]:
            if (v0, u0) in face_of:
                continue
            walk = []
            dart = (v0, u0)
            while dart not in face_of:
                face_of[dart] = len(walks)
                walk.append(dart)
                u, v = dart
                dart = (v, rot[v][index[v][u] - 1])
            walks.append(walk)
    return walks, face_of


class EmbeddedGraph:
    """A simple connected planar graph with a fixed combinatorial embedding.

    Construct through :func:`build_embedded`, which validates the rotation
    system; the constructor itself trusts its inputs: ``rot_index`` maps
    each vertex's neighbours to their rotation slots, and ``face_of`` each
    dart to the id of the face on its left.
    """

    __slots__ = ("n", "rot", "faces", "outer_face", "_edges", "_face_of",
                 "_rot_index", "_hash")

    def __init__(self, rot: tuple[tuple[int, ...], ...],
                 faces: tuple[Face, ...], outer_face: int,
                 rot_index: Sequence[dict[int, int]],
                 face_of: dict[DirectedEdge, int]):
        self.n = len(rot)
        self.rot = rot
        self.faces = faces
        self.outer_face = outer_face
        self._edges = frozenset(
            norm_edge(u, v) for v in range(self.n) for u in rot[v])
        self._rot_index = tuple(rot_index)
        self._face_of = face_of
        self._hash = None

    # -- basic accessors ----------------------------------------------------

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    def degree(self, v: int) -> int:
        return len(self.rot[v])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self._edges

    def rot_index(self, v: int, u: int) -> int:
        return self._rot_index[v][u]

    def face_of(self, u: int, v: int) -> int:
        """Id of the face on the left of the directed edge (u, v)."""
        return self._face_of[(u, v)]

    def corner_face(self, v: int, j: int) -> int:
        """Face in the angular sector from rot[v][j-1] ccw to rot[v][j]."""
        return self._face_of[(self.rot[v][j], v)]

    def faces_at(self, v: int) -> tuple[int, ...]:
        """Faces around v, one per corner, in rotation order."""
        return tuple(self.corner_face(v, j) for j in range(len(self.rot[v])))

    def is_triangulation(self) -> bool:
        return self.n >= 3 and all(f.size == 3 for f in self.faces)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, EmbeddedGraph)
                and self.rot == other.rot
                and self.outer_face == other.outer_face)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rot, self.outer_face))
        return self._hash

    def __repr__(self) -> str:
        return (f"EmbeddedGraph(n={self.n}, m={len(self._edges)}, "
                f"f={len(self.faces)})")


def vertex_ids(g: EmbeddedGraph, vs: Iterable[int]) -> list[int]:
    """The distinct ids in ``vs``, sorted; UnknownElement names one that is
    not a vertex of g."""
    out = sorted(set(vs))
    if out and (out[0] < 0 or out[-1] >= g.n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise UnknownElement(f"vertex {bad} not in a graph of {g.n} vertices")
    return out


def _checked_rotation(n: int, rotations: Sequence[Sequence[int]]) -> tuple:
    """Validate a rotation system; return it as tuples with its rotation
    index, its face walks and the walk number of each dart's face
    (``_trace_faces``).  The index is built once and makes every check
    linear."""
    if n <= 0:
        raise TooSmall("graph must have at least one vertex")
    if len(rotations) != n:
        raise UnknownElement(f"expected {n} rotation lines, got {len(rotations)}")
    rot = tuple(tuple(r) for r in rotations)
    index = []
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if not 0 <= u < n:
                raise UnknownElement(f"vertex {u} out of range in rotation of {v}")
            if u == v:
                raise MultiEdgeOrLoop(f"loop at vertex {v}")
        slots = {u: i for i, u in enumerate(nbrs)}
        if len(slots) != len(nbrs):
            raise MultiEdgeOrLoop(f"repeated neighbor in rotation of {v}")
        index.append(slots)
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if v not in index[u]:
                raise UnknownElement(f"edge {v}-{u} missing from rotation of {u}")

    # connectivity
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in rot[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise Disconnected(f"{n - len(seen)} vertices unreachable from 0")

    walks, face_of = _trace_faces(rot, index)
    m = sum(len(r) for r in rot) // 2
    f = len(walks) if m > 0 else 1
    if n - m + f != 2:
        raise NonPlanarRotation(
            f"V-E+F = {n}-{m}+{f} = {n - m + f}, expected 2")
    return rot, index, walks, face_of


def build_embedded(vertex_count: int,
                   rotations: Sequence[Sequence[int]],
                   outer_face_hint: Iterable[int] | None = None,
                   ) -> EmbeddedGraph:
    """Validate a rotation system and derive its faces.

    The outer face is the face whose vertex set equals the hint; without a
    hint the largest face is chosen, ties broken by smallest face id.

    Raises MultiEdgeOrLoop, Disconnected or NonPlanarRotation when the input
    is not a simple connected genus-0 rotation system.
    """
    rot, index, walks, face_of = _checked_rotation(vertex_count, rotations)
    if not walks:
        return EmbeddedGraph(rot, (Face(0, (), True),), 0, index, face_of)

    outer = None
    if outer_face_hint is not None:
        hint = list(outer_face_hint)
        # prefer an exact cyclic match of the boundary walk, fall back to a
        # vertex-set match (the text format only records the walk).  Each
        # dart lies on one face, so only the face of the dart (hint[0],
        # hint[1]) can match cyclically.
        dart = tuple(hint[:2])
        if dart in face_of:
            w = walks[face_of[dart]]
            at = w.index(dart)
            if [u for u, _ in w[at:] + w[:at]] == hint:
                outer = face_of[dart]
        if outer is None:
            hset = frozenset(hint)
            for i, w in enumerate(walks):
                if frozenset(u for u, _ in w) == hset:
                    outer = i
                    break
        if outer is None:
            raise UnknownElement(f"no face matches outer hint {hint}")
    else:
        outer = max(range(len(walks)), key=lambda i: (len(walks[i]), -i))

    faces = tuple(Face(i, tuple(w), i == outer) for i, w in enumerate(walks))
    return EmbeddedGraph(rot, faces, outer, index, face_of)


def _rebuild(rot: Sequence[Sequence[int]], outer_marker: DirectedEdge,
             ) -> EmbeddedGraph:
    """Build a graph whose outer face is the one containing a marker edge."""
    rot, index, walks, face_of = _checked_rotation(len(rot), rot)
    outer = face_of[outer_marker]
    faces = tuple(Face(i, tuple(w), i == outer) for i, w in enumerate(walks))
    return EmbeddedGraph(rot, faces, outer, index, face_of)


def embed_from_faces(vertex_count: int,
                     oriented_faces: Sequence[Sequence[int]],
                     outer: Sequence[int] | None = None) -> EmbeddedGraph:
    """Build an embedding from a consistently oriented face list.

    Every directed edge must appear exactly once across all face walks; the
    rotation at each vertex is recovered by chaining the face corners.
    """
    succ: list[dict[int, int]] = [dict() for _ in range(vertex_count)]
    for face in oriented_faces:
        k = len(face)
        for i, v in enumerate(face):
            x, y = face[i - 1], face[(i + 1) % k]
            # walk fragment x -> v -> y puts y immediately before x at v,
            # so x is the ccw successor of y
            if y in succ[v]:
                raise MultiEdgeOrLoop(
                    f"directed edge ({v},{y}) appears on two faces")
            succ[v][y] = x
    rot = []
    for v in range(vertex_count):
        if not succ[v]:
            raise Disconnected(f"vertex {v} on no face")
        start = next(iter(succ[v]))
        order = [start]
        while True:
            nxt = succ[v][order[-1]]
            if nxt == start:
                break
            order.append(nxt)
            if len(order) > len(succ[v]):
                raise NonPlanarRotation(f"corners at vertex {v} do not chain")
        if len(order) != len(succ[v]):
            raise NonPlanarRotation(f"corners at vertex {v} do not chain")
        rot.append(order)
    return build_embedded(vertex_count, rot, outer_face_hint=outer)


# ---------------------------------------------------------------------------
# Dual graphs
# ---------------------------------------------------------------------------

def dual_graph(g: EmbeddedGraph) -> EmbeddedGraph:
    """Dual of an embedding: vertex i is face i, and one edge joins each
    pair of faces sharing a primal edge.

    The dual must be simple: a bridge (same face on both sides) or two
    faces sharing more than one edge raise MultiEdgeOrLoop.
    """
    rot_dual: list[list[int]] = [[] for _ in g.faces]
    for f in g.faces:
        for (u, v) in f.walk:
            other = g.face_of(v, u)
            if other == f.id:
                raise MultiEdgeOrLoop(
                    f"edge {norm_edge(u, v)} has face {f.id} on both sides")
            rot_dual[f.id].append(other)
    for fid, nbrs in enumerate(rot_dual):
        if len(set(nbrs)) != len(nbrs):
            raise MultiEdgeOrLoop(
                f"faces adjacent to face {fid} share more than one edge")
    return build_embedded(len(g.faces), rot_dual)


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------

def insert_chords(rot: Sequence[Sequence[int]],
                  faces: Iterable[Sequence[int]], edges: Iterable[Edge],
                  choose: ChordChooser,
                  ) -> tuple[list[list[int]], list[Edge]]:
    """Split faces by chords until ``choose`` declines every face.

    ``rot`` is a rotation system, ``faces`` its face walks as vertex
    sequences (in any order, each starting anywhere; shorter faces may be
    left out) and ``edges`` its edge set; none of them is changed.  The
    faces longer than three darts are offered in the order in which a fresh
    trace would list them after each insertion: first the face whose first
    dart comes first in (tail vertex, rotation slot) order, with its walk
    starting at that dart.  ``choose(walk_vertices, edges)`` returns two
    walk positions to join by a chord inside the face, or None to leave the
    face as it is for good; its ``edges`` is the current edge set.

    A chord splits only its own face, so the faces are never traced and
    each insertion costs O(face length).  The order needs no trace either:
    inserting a chord never changes the relative order of the darts already
    at a vertex, so a face keeps its first dart; only its rotation slot can
    grow, and a face whose key went stale is re-queued when it surfaces.  A
    declined face never changes again.

    Returns the grown rotation lists and the chords in insertion order.
    """
    rot = [list(r) for r in rot]
    edges = set(edges)
    added: list[Edge] = []
    heap: list[tuple[int, int, int, list[int]]] = []
    tick = count()

    def push(verts: list[int]) -> None:
        t = min(verts)
        if verts.count(t) == 1:
            p = verts.index(t)
        else:
            k = len(verts)
            p = min((i for i in range(k) if verts[i] == t),
                    key=lambda i: rot[t].index(verts[(i + 1) % k]))
        verts = verts[p:] + verts[:p]
        heappush(heap, (t, rot[t].index(verts[1]), next(tick), verts))

    for walk in faces:
        if len(walk) > 3:
            push(list(walk))
    while heap:
        t, slot, _, verts = heappop(heap)
        now = rot[t].index(verts[1])
        if now != slot:
            # slots only grow, so every queued key is a lower bound
            heappush(heap, (t, now, next(tick), verts))
            continue
        pos = choose(verts, edges)
        if pos is None:
            continue
        i, j = sorted(pos)
        a, b = verts[i], verts[j]
        # at walk position i the face corner lies between verts[i+1] and
        # verts[i-1], so the chord goes right before verts[i-1]
        rot[a].insert(rot[a].index(verts[i - 1]), b)
        rot[b].insert(rot[b].index(verts[j - 1]), a)
        e = norm_edge(a, b)
        edges.add(e)
        added.append(e)
        for part in (verts[i:j + 1], verts[j:] + verts[:i + 1]):
            if len(part) > 3:
                push(part)
    return rot, added


def _chord_positions(walk_vertices: list[int], edges: set[Edge],
                     ) -> tuple[int, int] | None:
    """The first ear of a face: walk positions (i, i + 2) whose vertices
    differ and are not adjacent yet, or None.

    A face of more than three darts in a simple connected plane graph has
    one.  w_i = w_{i+2} only when w_{i+1} is a leaf, and then
    (w_{i+1}, w_{i+3}) is an ear: a leaf occurs once on the walk, and its
    one neighbour is w_{i+2}.  Without a leaf, since the walk uses each
    dart once, some w_i .. w_{i+3} are four distinct vertices.  The ears
    at i and i + 1 have interleaved ends on the face boundary, so if both
    were edges, each closed by its ear through the face would make two
    closed curves crossing exactly once, which the Jordan curve theorem
    forbids.
    """
    k = len(walk_vertices)
    for i in range(k):
        j = (i + 2) % k
        a, b = walk_vertices[i], walk_vertices[j]
        if a != b and norm_edge(a, b) not in edges:
            return (i, j)
    return None


def triangulate(g: EmbeddedGraph) -> tuple[EmbeddedGraph, list[Edge]]:
    """Add edges until every face (the outer one included) is a triangle.

    Output has exactly 3V-6 edges and stays simple; a triangulation is
    returned as it is.  Returns the triangulation and the added edges in
    insertion order; vertices and the input's edges keep their ids.  Each
    face is split by :func:`insert_chords` at its first ear
    (``_chord_positions``, which proves one exists), so the faces are
    traced once (for the result) and a chord costs O(face length).
    """
    if g.n < 3:
        raise TooSmall("triangulation needs at least 3 vertices")

    def choose(verts: list[int], edges: set[Edge]) -> tuple[int, int]:
        pos = _chord_positions(verts, edges)
        if pos is None:
            raise MultiEdgeOrLoop(
                "face cannot be split without a parallel edge")
        return pos

    rot, added = insert_chords(
        g.rot, (f.vertices for f in g.faces if f.size > 3), g.edges, choose)
    result = _rebuild(rot, g.faces[g.outer_face].walk[0]) if added else g
    return result, added


# ---------------------------------------------------------------------------
# Subdivision
# ---------------------------------------------------------------------------

def subdivide(g: EmbeddedGraph, edge_list: Sequence[Edge]) -> EmbeddedGraph:
    """Insert one degree-2 vertex in each listed edge, preserving rotations.

    The midpoint of ``edge_list[k]`` = (u, w), u < w, is vertex g.n + k,
    with rotation [u, w]; the other vertices keep their ids.
    """
    todo = []
    seen: set[Edge] = set()
    for u, v in edge_list:
        e = norm_edge(u, v)
        if e not in g.edges:
            raise UnknownElement(f"edge {e} not in graph")
        if e in seen:
            raise UnknownElement(f"edge {e} listed twice")
        seen.add(e)
        todo.append(e)

    rot = [list(r) for r in g.rot]
    for mid, (u, v) in enumerate(todo, g.n):
        rot[u][rot[u].index(v)] = mid
        rot[v][rot[v].index(u)] = mid
        rot.append([u, v])

    outer_walk = g.faces[g.outer_face].walk
    u0, v0 = outer_walk[0]
    marker = (u0, v0)
    if norm_edge(u0, v0) in seen:
        marker = (u0, g.n + todo.index(norm_edge(u0, v0)))
    return _rebuild(rot, marker)
