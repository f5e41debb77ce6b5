"""Embedded-graph generators.

Every family emits a validated rotation system; random families are
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .embedding import EmbeddedGraph, build_embedded, embed_from_faces
from .errors import BadSpec

FAMILIES = ("path", "cycle", "star", "fan", "maximal-outerplanar", "grid",
            "random-triangulation", "stacked-3tree", "octahedron",
            "icosahedron", "goldner-harary")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int = 0
    rows: int = 0
    cols: int = 0
    seed: int | None = None


def path(n: int) -> EmbeddedGraph:
    if n < 2:
        raise BadSpec("path needs n >= 2")
    rot = [[1]] + [[i - 1, i + 1] for i in range(1, n - 1)] + [[n - 2]]
    return build_embedded(n, rot)


def cycle(n: int) -> EmbeddedGraph:
    if n < 3:
        raise BadSpec("cycle needs n >= 3")
    rot = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    return build_embedded(n, rot)


def star(n: int) -> EmbeddedGraph:
    if n < 2:
        raise BadSpec("star needs n >= 2")
    rot = [list(range(1, n))] + [[0] for _ in range(1, n)]
    return build_embedded(n, rot)


def _convex_rotation(n: int, adj: list[set[int]]) -> list[list[int]]:
    """Rotations for vertices in convex position labelled 0..n-1 ccw."""
    return [sorted(adj[v], key=lambda u: (u - v) % n) for v in range(n)]


def fan(n: int) -> EmbeddedGraph:
    """Maximal outerplanar fan: a path 1..n-1 plus vertex 0 joined to all."""
    if n < 3:
        raise BadSpec("fan needs n >= 3")
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adj[i].add(j)
        adj[j].add(i)
    for i in range(2, n - 1):
        adj[0].add(i)
        adj[i].add(0)
    rot = _convex_rotation(n, adj)
    return build_embedded(n, rot, outer_face_hint=range(n))


def maximal_outerplanar(n: int, seed: int) -> EmbeddedGraph:
    """Random triangulation of a convex n-gon (vertices 0..n-1 ccw)."""
    if n < 3:
        raise BadSpec("maximal outerplanar needs n >= 3")
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adj[i].add(j)
        adj[j].add(i)

    # split the polygon 0..n-1 at a random k, the part (i, k) first, so the
    # draws come in the order of a recursive split; the stack keeps the
    # depth flat however deep the split tree is
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        k = rng.randint(i + 1, j - 1)
        for a, b in ((i, k), (k, j)):
            if b - a > 1:
                adj[a].add(b)
                adj[b].add(a)
        stack += [(k, j), (i, k)]
    rot = _convex_rotation(n, adj)
    return build_embedded(n, rot, outer_face_hint=range(n))


def grid(rows: int, cols: int) -> EmbeddedGraph:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise BadSpec("grid needs at least 2 vertices")

    def vid(i: int, j: int) -> int:
        return i * cols + j

    rot = []
    for i in range(rows):
        for j in range(cols):
            nbrs = []
            if j + 1 < cols:
                nbrs.append(vid(i, j + 1))   # east
            if i > 0:
                nbrs.append(vid(i - 1, j))   # north
            if j > 0:
                nbrs.append(vid(i, j - 1))   # west
            if i + 1 < rows:
                nbrs.append(vid(i + 1, j))   # south
            rot.append(nbrs)
    return build_embedded(rows * cols, rot)


def random_triangulation(n: int, seed: int) -> EmbeddedGraph:
    """Random triangulation grown by boundary-arc insertion.

    Starts from a triangle and attaches each new vertex to a random
    contiguous arc of the current outer boundary path (from vertex 0 to
    vertex 1); the last vertex takes the whole boundary, so the final outer
    face is the triangle (0, n-1, 1).
    """
    if n < 3:
        raise BadSpec("triangulation needs n >= 3")
    rng = random.Random(seed)
    rot: list[list[int]] = [[1, 2], [2, 0], [0, 1]]
    boundary = [0, 2, 1]  # outer path from vertex 0 to vertex 1

    for v in range(3, n):
        t = len(boundary)
        if v == n - 1:
            p, d = 0, t
        else:
            dmax = min(t, 2 + (rng.randrange(8) // 3))  # mostly small arcs
            d = rng.randint(2, dmax) if dmax > 2 else 2
            p = rng.randint(0, t - d)
        arc = boundary[p:p + d]
        rot.append(list(arc))
        for li, w in enumerate(arc):
            if li > 0:
                prev = arc[li - 1]
            elif p > 0:
                prev = boundary[p - 1]
            else:
                prev = 1  # closing edge of the boundary cycle
            rot[w].insert(rot[w].index(prev), v)
        boundary = boundary[:p + 1] + [v] + boundary[p + d - 1:]

    return build_embedded(n, rot, outer_face_hint=[0, n - 1, 1] if n > 3 else [0, 2, 1])


def stacked_3tree(n: int, seed: int) -> EmbeddedGraph:
    """Random Apollonian network: repeatedly stack a vertex into an inner face."""
    if n < 3:
        raise BadSpec("stacked 3-tree needs n >= 3")
    rng = random.Random(seed)
    rot: list[list[int]] = [[1, 2], [2, 0], [0, 1]]
    # faces kept as oriented triangles (face on the left of each edge);
    # outer face is (1, 0, 2) and never stacked
    inner = [(0, 1, 2)]
    for v in range(3, n):
        idx = rng.randrange(len(inner))
        a, b, c = inner.pop(idx)
        rot.append([a, b, c])
        for x, prev in ((a, c), (b, a), (c, b)):
            rot[x].insert(rot[x].index(prev), v)
        inner.extend([(a, b, v), (b, c, v), (c, a, v)])
    return build_embedded(n, rot, outer_face_hint=[1, 0, 2])


def octahedron() -> EmbeddedGraph:
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
             (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
    return embed_from_faces(6, faces, outer=(5, 1, 4))


def icosahedron() -> EmbeddedGraph:
    faces = []
    for i in range(5):
        u, un = 1 + i, 1 + (i + 1) % 5
        l, ln = 6 + i, 6 + (i + 1) % 5
        faces.append((0, u, un))
        faces.append((u, l, un))
        faces.append((un, l, ln))
        faces.append((11, ln, l))
    return embed_from_faces(12, faces, outer=(11, 7, 6))


def goldner_harary() -> EmbeddedGraph:
    """Stellation of every face of the triangular bipyramid.

    11 vertices, 27 edges; the smallest non-Hamiltonian triangulation.
    """
    bipyramid = [(3, 0, 1), (3, 1, 2), (3, 2, 0),
                 (4, 1, 0), (4, 2, 1), (4, 0, 2)]
    faces = []
    for i, (a, b, c) in enumerate(bipyramid):
        z = 5 + i
        faces.extend([(a, b, z), (b, c, z), (c, a, z)])
    return embed_from_faces(11, faces, outer=(3, 0, 5))


def generate(spec: GeneratorSpec) -> EmbeddedGraph:
    """Instantiate a generator family; BadSpec on invalid parameters."""
    fam = spec.family
    if fam not in FAMILIES:
        raise BadSpec(f"unknown family {fam!r}")
    if fam in ("maximal-outerplanar", "random-triangulation", "stacked-3tree") \
            and spec.seed is None:
        raise BadSpec(f"{fam} requires a seed")
    if fam == "path":
        return path(spec.n)
    if fam == "cycle":
        return cycle(spec.n)
    if fam == "star":
        return star(spec.n)
    if fam == "fan":
        return fan(spec.n)
    if fam == "maximal-outerplanar":
        return maximal_outerplanar(spec.n, spec.seed)
    if fam == "grid":
        return grid(spec.rows or spec.n, spec.cols or spec.n)
    if fam == "random-triangulation":
        return random_triangulation(spec.n, spec.seed)
    if fam == "stacked-3tree":
        return stacked_3tree(spec.n, spec.seed)
    if fam == "octahedron":
        return octahedron()
    if fam == "icosahedron":
        return icosahedron()
    return goldner_harary()
