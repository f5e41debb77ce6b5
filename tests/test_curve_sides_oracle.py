"""The side partition of a curve against the three passes it replaced.

Validation is the structural check plus a non-crossing chord placement in
every face; the side partition is local seeds plus one flood.  The
references below are the earlier extra passes, kept as they were: the
parity 2-colouring of G - Y, the per-face boundary-arc labelling, and the
partition seeded from those labels, whose unreached components defaulted
to the outside.  A seeded generator of random certificates (vertex, cross
and along items) on small trees, thinned triangulations, stars, cycles and
grids compares them with the program.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from freeset.bench import _random_tree
from freeset.curves import (
    AlongItem,
    CrossItem,
    CurveCertificate,
    VertexItem,
    _Analysis,
    _assign_chords,
    _Bad,
    _structural_check,
    side_partition,
    validate_curve,
)
from freeset.embedding import norm_edge
from freeset.errors import InconsistentSides
from freeset.generators import cycle, grid, star

from conftest import edge_classes, thinned_triangulation


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def reference_parity_check(g, cert):
    """A closed curve crosses every cycle an even number of times: the
    same-side/opposite-side constraints must be 2-colorable."""
    y = set(cert.vertex_order())
    crossed = set(cert.crossed_edges())
    color = {}
    for s in range(g.n):
        if s in y or s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.rot[u]:
                if v in y:
                    continue
                want = color[u] ^ (1 if norm_edge(u, v) in crossed else 0)
                if v in color:
                    if color[v] != want:
                        raise _Bad("parity",
                                   f"edge {norm_edge(u, v)} closes a cycle "
                                   "crossed an odd number of times")
                else:
                    color[v] = want
                    stack.append(v)


def face_chords(an):
    """Placed chords per face, in passage order."""
    cert = an.cert
    m = len(cert.items)
    chords = {}
    for i, fid in enumerate(cert.passages):
        if fid is not None:
            chords.setdefault(fid, []).append(
                (an.exit_pos[i], an.entry_pos[(i + 1) % m]))
    return chords


def reference_label_arcs(an):
    """Per face: label boundary arcs inside/outside by toggling at chord
    arms; returns face -> [(lo, hi, side)]."""
    arc_side = {}
    for fid, chords in face_chords(an).items():
        size = an.geometry(fid).size
        arms = {}
        real = [(a, b) for a, b in chords if a != b]  # spikes don't separate
        for a, b in real:
            arms[a] = arms.get(a, 0) + 1
            arms[b] = arms.get(b, 0) + 1
        if not arms:
            continue
        pts = sorted(arms)
        at = {p: k for k, p in enumerate(pts)}
        r = len(pts)

        # absolute anchors exist only where the curve passes through the
        # boundary (single-arm endpoints): the arc after a head and the arc
        # before a tail lie to the curve's left
        anchor_arcs = []
        for a, b in real:
            if arms[b] == 1:
                anchor_arcs.append(at[b])
            if arms[a] == 1:
                anchor_arcs.append((at[a] - 1) % r)

        # chords joined head-to-tail at two-arm points form chains; a closed
        # chain is an inscribed polygon whose winding fixes the orientation:
        # boundary arcs lie right of a ccw polygon, left of a cw one
        tail_at = {}
        for ci, (a, b) in enumerate(real):
            if arms[a] == 2:
                tail_at[a] = ci
        chain_checks = []  # (arc index, wanted side)
        seen_chord = [False] * len(real)
        for ci, (a, b) in enumerate(real):
            if seen_chord[ci] or arms[a] != 2:
                continue
            walk = [ci]
            seen_chord[ci] = True
            cur = ci
            closed = False
            while True:
                head = real[cur][1]
                if arms[head] != 2 or head not in tail_at:
                    break
                nxt = tail_at[head]
                if nxt == walk[0]:
                    closed = True
                    break
                if seen_chord[nxt]:
                    break
                seen_chord[nxt] = True
                walk.append(nxt)
                cur = nxt
            if closed:
                winding = sum((real[c][1] - real[c][0]) % size for c in walk)
                if winding % size != 0:
                    raise _Bad("inconsistent-sides",
                               f"face {fid}: chord polygon does not close")
                side = "Z" if winding == size else "X"
                chain_checks.append((at[real[walk[0]][1]], side))

        sides = [None] * r
        if anchor_arcs:
            k0, s0 = anchor_arcs[0], "X"
        elif chain_checks:
            k0, s0 = chain_checks[0]
        else:
            continue
        sides[k0] = s0
        cur_side = s0
        for step in range(1, r + 1):
            k = (k0 + step) % r
            if arms[pts[k]] % 2 == 1:
                cur_side = "Z" if cur_side == "X" else "X"
            if sides[k] is None:
                sides[k] = cur_side
            elif sides[k] != cur_side:
                raise _Bad("inconsistent-sides",
                           f"face {fid}: arc labeling does not close up")
        for k in anchor_arcs:
            if sides[k] != "X":
                raise _Bad("inconsistent-sides",
                           f"face {fid}: passage orientations disagree")
        for k, want in chain_checks:
            if sides[k] != want:
                raise _Bad("inconsistent-sides",
                           f"face {fid}: chord polygon orientation disagrees")
        arc_side[fid] = [(pts[k], pts[(k + 1) % r], sides[k])
                         for k in range(r)]
    return arc_side


def reference_position_side(an, arc_side, fid, pos):
    """Side of a boundary position; None when unlabeled or on the curve."""
    arcs = arc_side.get(fid)
    if not arcs:
        return None
    size = an.geometry(fid).size
    for lo, _, _ in arcs:
        if pos == lo:
            return None
    for lo, hi, side in arcs:
        span = (hi - lo) % size or size
        if 0 < (pos - lo) % size < span:
            return side
    return None


def reference_analyze(g, cert):
    """The earlier validation: (analysis, arc labels), or the violation."""
    try:
        _structural_check(g, cert)
        an = _Analysis(g, cert)
        _assign_chords(an)
        reference_parity_check(g, cert)
        return an, reference_label_arcs(an)
    except _Bad as exc:
        return exc.violation


def reference_side_partition(an, arc_side):
    """(X, Z, edge_class, reached): the earlier partition of a valid
    certificate; ``reached`` is False when some component got no label and
    defaulted to the outside."""
    g, cert = an.g, an.cert
    y = set(cert.vertex_order())
    crossed = set(cert.crossed_edges())
    along = {norm_edge(*it.edge) for it in cert.items
             if isinstance(it, AlongItem)}
    side = {}
    conflicts = []

    def seed(v, s):
        if v in y:
            return
        if v in side and side[v] != s:
            conflicts.append(f"vertex {v} seeded on both sides")
            return
        side[v] = s

    edge_label = {}
    for fid in arc_side:
        geo = an.geometry(fid)
        for d, pos in geo.edge_pos.items():
            e = norm_edge(*d)
            if e in along:
                continue
            if e in crossed:
                s_before = reference_position_side(an, arc_side, fid,
                                                   (pos - 1) % geo.size)
                s_after = reference_position_side(an, arc_side, fid,
                                                  (pos + 1) % geo.size)
                u, v = d
                if s_before is not None:
                    seed(u, s_before)
                if s_after is not None:
                    seed(v, s_after)
                continue
            s = reference_position_side(an, arc_side, fid, pos)
            if s is None:
                continue
            if e in edge_label and edge_label[e] != s:
                conflicts.append(f"edge {e} labeled on both sides")
            edge_label[e] = s
            for w in d:
                seed(w, s)
    if conflicts:
        raise InconsistentSides("; ".join(conflicts))

    pending = list(side)
    while pending:
        u = pending.pop()
        for v in g.rot[u]:
            if v in y:
                continue
            e = norm_edge(u, v)
            want = side[u]
            if e in crossed:
                want = "Z" if want == "X" else "X"
            if v in side:
                if side[v] != want:
                    raise InconsistentSides(
                        f"edge {e} connects both sides without a crossing")
            else:
                side[v] = want
                pending.append(v)

    reached = all(v in y or v in side for v in range(g.n))
    for v in range(g.n):
        if v not in y and v not in side:
            side[v] = "Z"
            for u in g.rot[v]:
                if u not in y and u not in side:
                    side[u] = "Z"

    edge_class = {}
    for e in g.edges:
        u, v = e
        if e in along:
            edge_class[e] = "along"
        elif e in crossed:
            edge_class[e] = "crossed"
        else:
            w = u if u not in y else v
            edge_class[e] = "inside" if side[w] == "X" else "outside"
    return ({v for v, s in side.items() if s == "X"},
            {v for v, s in side.items() if s == "Z"}, edge_class, reached)


# ---------------------------------------------------------------------------
# Random certificates
# ---------------------------------------------------------------------------

def random_certificate(g, rng, max_items=9):
    """A random closed walk of items through the faces of g.

    Starting in a random face, each step takes a vertex or an edge on the
    current face; a vertex item may continue along an edge to a second
    vertex, and the walk goes on in a face at the last vertex (or across
    the crossed edge).  Items that would break properness are mostly
    skipped, so that many, not all, of the certificates are valid.  The
    walk closes once its exit face is the face it started in."""
    f0 = f = rng.randrange(len(g.faces))
    items, before = [], []  # before[i]: the face entered item i from
    y, ends, crossed = set(), set(), set()

    def free(x, allow=None):
        return x not in y and x not in ends and \
            all(w not in y or w == allow for w in g.rot[x])

    for _ in range(4 * max_items):
        u, v = rng.choice(g.faces[f].walk)
        strict = rng.random() < 0.97
        if rng.random() < 0.5:
            if strict and not free(v):
                continue
            items.append(VertexItem(v))
            before.append(f)
            y.add(v)
            if rng.random() < 0.3:
                nxt = [w for w in g.rot[v] if free(w, v)]
                if nxt:
                    w = rng.choice(nxt)
                    items += [AlongItem(norm_edge(v, w)), VertexItem(w)]
                    before += [None, None]
                    y.add(w)
                    v = w
            exits = g.faces_at(v)
            if f0 in exits and rng.random() < 0.6:
                break
            f = rng.choice(exits)
        else:
            e = norm_edge(u, v)
            if strict and (u in y or v in y or e in crossed):
                continue
            items.append(CrossItem(e))
            before.append(f)
            ends |= {u, v}
            crossed.add(e)
            f = g.face_of(v, u)
            if f == f0 and rng.random() < 0.6:
                break
        if len(items) >= max_items and rng.random() < 0.5:
            break
    if not items:
        return None
    m = len(items)
    return CurveCertificate(tuple(items),
                            tuple(before[(i + 1) % m] for i in range(m)))


def corpus_graphs():
    out = []
    for n in range(3, 13):
        for s in range(3):
            out.append(_random_tree(n, 7 * n + s))
    for n in range(6, 15):
        for s in range(1, 5):
            out.append(thinned_triangulation(n, s, (0.3, 0.45, 0.6)[s % 3]))
    out += [star(n) for n in range(3, 8)]
    out += [cycle(n) for n in range(3, 9)]
    out += [grid(r, c) for r in (2, 3) for c in (2, 3, 4)]
    return out


def corpus(seed, per_graph):
    rng = random.Random(seed)
    for g in corpus_graphs():
        for _ in range(per_graph):
            cert = random_certificate(g, rng)
            if cert is not None:
                yield g, cert


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def check_partition(an, sp):
    """The conditions the deleted passes enforced, on a new partition."""
    g, cert = an.g, an.cert
    y = set(cert.vertex_order())
    crossed = set(cert.crossed_edges())
    side = {v: "X" for v in sp.X} | {v: "Z" for v in sp.Z}
    assert sp.X.isdisjoint(sp.Z)
    assert set(side) == set(range(g.n)) - y
    for u, v in g.edges:
        if u in y or v in y:
            continue
        if (u, v) in crossed:
            assert side[u] != side[v], f"crossed edge {(u, v)} one-sided"
        else:
            assert side[u] == side[v], f"edge {(u, v)} straddles the curve"
    # each run of the rotation between two curve neighbours or cuts has one
    # side: the side changes only where the curve passes
    for i, it in enumerate(cert.items):
        if not isinstance(it, VertexItem):
            continue
        rot = g.rot[it.v]
        cuts = {c for c in (an.entry_corner[i], an.exit_corner[i])
                if c is not None}
        for j in range(len(rot)):
            a, b = rot[j - 1], rot[j]
            if j in cuts or a in y or b in y:
                continue
            assert side[a] == side[b], \
                f"rotation run at {it.v} splits between {a} and {b}"


@pytest.mark.parametrize("seed", range(4))
def test_sides_match_reference(seed):
    stats = Counter()
    for g, cert in corpus(seed, 60):
        new = validate_curve(g, cert)
        ref = reference_analyze(g, cert)
        if new is not None:
            assert ref == new, f"verdicts differ on {cert}"
            stats["invalid"] += 1
            continue
        assert not hasattr(ref, "kind"), \
            f"chords placed but the reference rejects {cert}: {ref}"
        an = ref[0]
        sp = side_partition(g, cert)
        check_partition(an, sp)
        x, z, edge_class, reached = reference_side_partition(*ref)
        stats["valid"] += 1
        if not reached:
            stats["defaulted"] += 1
            continue
        assert (set(sp.X), set(sp.Z), edge_classes(g, cert, sp)) == \
            (x, z, edge_class)
        stats["along"] += any(isinstance(it, AlongItem) for it in cert.items)
        stats["spike"] += any(c is not None and c == an.exit_corner[i]
                              for i, c in enumerate(an.entry_corner))
    # the corpus reaches every rule: many valid certificates, some with
    # along edges and spikes, some where the reference guessed
    assert stats["valid"] >= 2000 and stats["invalid"] >= 500, stats
    assert min(stats["along"], stats["spike"], stats["defaulted"]) > 0, stats


# ---------------------------------------------------------------------------
# Mutated certificates
# ---------------------------------------------------------------------------

def mutate(g, cert, rng):
    """One seeded edit of a certificate: a passage set or cleared, two items
    swapped, an item replaced, dropped or repeated, an along step inserted
    after a vertex item (its passages kept or cleared at random), or the
    whole certificate rotated and reversed."""
    items, passages = list(cert.items), list(cert.passages)
    m = len(items)
    i = rng.randrange(m)
    op = rng.randrange(7)
    if op == 0:
        passages[i] = rng.choice((None, rng.randrange(len(g.faces))))
    elif op == 1:
        j = rng.randrange(m)
        items[i], items[j] = items[j], items[i]
    elif op == 2:
        kind = rng.randrange(3)
        if kind == 0:
            items[i] = VertexItem(rng.randrange(g.n))
        else:
            e = rng.choice(sorted(g.edges))
            items[i] = CrossItem(e) if kind == 1 else AlongItem(e)
    elif op == 3 and m > 1:
        del items[i], passages[i]
    elif op == 4:
        items.insert(i, items[i])
        passages.insert(i, passages[i])
    elif op == 5 and isinstance(items[i], VertexItem):
        v = items[i].v
        w = rng.choice(g.rot[v])
        items[i + 1:i + 1] = [AlongItem(norm_edge(v, w)), VertexItem(w)]
        p = passages[i]
        passages[i:i + 1] = [rng.choice((None, p)), rng.choice((None, p)), p]
    else:
        return cert.rotated(rng.randrange(m)).reversed()
    return CurveCertificate(tuple(items), tuple(passages))


def test_mutated_certificates_digest():
    """Verdicts, violation texts and sides of 6,000 seeded mutations of
    random certificates; the digest was recorded before the checks that an
    earlier check decides and the per-edge classes were deleted."""
    rng = random.Random(2024)
    certs = []
    while len(certs) < 6000:
        certs += corpus(rng.randrange(10 ** 6), 1)
    h = hashlib.sha256()
    kinds = Counter()
    for g, cert in certs[:6000]:
        for _ in range(1 + rng.randrange(2)):
            cert = mutate(g, cert, rng)
        bad = validate_curve(g, cert)
        if bad is None:
            sp = side_partition(g, cert)
            line = f"ok {sorted(sp.X)} {sp.Y} {sorted(sp.Z)}"
        else:
            line = str(bad)
        kinds[line.split(":")[0].split()[0]] += 1
        h.update(line.encode() + b"\n")
    # the edits reach the checks whose earlier twins were deleted
    assert kinds["ok"] >= 2000, kinds
    assert min(kinds["bad-along"], kinds["off-face"],
               kinds["inconsistent-sides"]) >= 100, kinds
    assert h.hexdigest()[:16] == "c6a81457c6493038"
