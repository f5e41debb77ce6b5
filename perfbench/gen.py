"""Seeded input generators that emit the program's text formats directly.

The benchmark owns its inputs: a change to ``freeset.generators`` cannot
change what is measured, and the program only ever sees serialized text.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _graph_text(rot: list[list[int]], outer: list[int] | None) -> str:
    lines = [f"V {len(rot)}"]
    lines += [f"R {v}: " + " ".join(map(str, nbrs)) for v, nbrs in enumerate(rot)]
    if outer is not None:
        lines.append("OUTER: " + " ".join(map(str, outer)))
    return "\n".join(lines) + "\n"


def random_triangulation(n: int, rng: random.Random) -> str:
    """Triangulation grown by attaching each new vertex to a short random
    arc of the outer path from 0 to 1; the last vertex takes the whole path,
    so the outer face is (0, n-1, 1)."""
    rot = [[1, 2], [2, 0], [0, 1]]
    boundary = [0, 2, 1]
    for v in range(3, n):
        t = len(boundary)
        if v == n - 1:
            p, d = 0, t
        else:
            d = rng.randint(2, min(t, rng.choice((2, 2, 2, 3, 3, 3, 4, 4))))
            p = rng.randint(0, t - d)
        arc = boundary[p:p + d]
        rot.append(list(arc))
        for i, w in enumerate(arc):
            prev = arc[i - 1] if i else (boundary[p - 1] if p else 1)
            rot[w].insert(rot[w].index(prev), v)
        boundary = boundary[:p + 1] + [v] + boundary[p + d - 1:]
    return _graph_text(rot, [0, n - 1, 1] if n > 3 else [0, 2, 1])


def maximal_outerplanar(n: int, rng: random.Random) -> str:
    """Random triangulation of a convex n-gon labelled 0..n-1 ccw."""
    adj: list[set[int]] = [{(v - 1) % n, (v + 1) % n} for v in range(n)]
    todo = [(0, n - 1)]
    while todo:
        i, j = todo.pop()
        if j - i < 2:
            continue
        k = rng.randint(i + 1, j - 1)
        for a, b in ((i, k), (k, j)):
            adj[a].add(b)
            adj[b].add(a)
        todo += [(i, k), (k, j)]
    rot = [sorted(adj[v], key=lambda u: (u - v) % n) for v in range(n)]
    return _graph_text(rot, list(range(n)))


def grid(rows: int, cols: int) -> str:
    rot = []
    for i in range(rows):
        for j in range(cols):
            nbrs = []
            if j + 1 < cols:
                nbrs.append(i * cols + j + 1)
            if i > 0:
                nbrs.append((i - 1) * cols + j)
            if j > 0:
                nbrs.append(i * cols + j - 1)
            if i + 1 < rows:
                nbrs.append((i + 1) * cols + j)
            rot.append(nbrs)
    return _graph_text(rot, None)


POINT_STYLES = ("general", "collinear", "repeated-x", "coprime")


def point_set(k: int, style: str, rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """k distinct rational points in one of the criterion-2 styles."""
    F = Fraction
    pts: set = set()
    while len(pts) < k:
        if style == "general":
            pts.add((F(rng.randint(-400, 400), rng.randint(1, 9)),
                     F(rng.randint(-400, 400), rng.randint(1, 9))))
        elif style == "collinear":
            t = F(rng.randint(-200, 200), rng.randint(1, 5))
            pts.add((t, 3 * t - 2))
        elif style == "repeated-x":
            pts.add((F(rng.randint(-4, 4)),
                     F(rng.randint(-400, 400), rng.randint(1, 9))))
        else:
            pts.add((F(rng.randint(-10 ** 6, 10 ** 6), 997),
                     F(rng.randint(-10 ** 6, 10 ** 6), 991)))
    return sorted(pts)


def distinct_positions(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """n distinct integer positions in [-3n, 3n]^2, one per vertex."""
    seen: set = set()
    out = []
    while len(out) < n:
        p = (rng.randint(-3 * n, 3 * n), rng.randint(-3 * n, 3 * n))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def points_text(points) -> str:
    return "".join(f"{Fraction(x).numerator}/{Fraction(x).denominator} "
                   f"{Fraction(y).numerator}/{Fraction(y).denominator}\n"
                   for x, y in points)
