"""Line-based text formats for graphs, certificates, free sets, drawings
and point sets.

Serialization is canonical, parsing tolerates comments and blank lines, and
parse(serialize(x)) reproduces x bit-exactly (rationals included).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

from .curves import AlongItem, CrossItem, CurveCertificate, VertexItem
from .embedding import EmbeddedGraph, build_embedded, norm_edge
from .errors import GraphFormatError, Unverified
from .extractors import OrderedFreeSet
from .realize import DrawingViolation, GridDrawing, verify_drawing


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _fail(no: int, msg: str):
    raise GraphFormatError(f"line {no}: {msg}")


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def serialize_graph(g: EmbeddedGraph) -> str:
    out = [f"V {g.n}"]
    for v in range(g.n):
        nbrs = " ".join(str(u) for u in g.rot[v])
        out.append(f"R {v}: {nbrs}".rstrip())
    walk = [u for u, _ in g.faces[g.outer_face].walk]
    if walk:
        k = walk.index(min(walk))
        walk = walk[k:] + walk[:k]
        out.append("OUTER: " + " ".join(str(v) for v in walk))
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> EmbeddedGraph:
    n = None
    rot: dict[int, list[int]] = {}
    outer = None
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "V":
            if n is not None:
                _fail(no, "duplicate V line")
            try:
                n = int(parts[1])
            except (IndexError, ValueError):
                _fail(no, "V expects a vertex count")
        elif parts[0] == "R":
            if len(parts) < 2 or not parts[1].endswith(":"):
                _fail(no, "rotation line must look like 'R <v>: ...'")
            try:
                v = int(parts[1][:-1])
                nbrs = [int(x) for x in parts[2:]]
            except ValueError:
                _fail(no, "rotation entries must be integers")
            if v in rot:
                _fail(no, f"duplicate rotation for vertex {v}")
            rot[v] = nbrs
        elif parts[0] == "OUTER:":
            try:
                outer = [int(x) for x in parts[1:]]
            except ValueError:
                _fail(no, "outer hint entries must be integers")
        else:
            _fail(no, f"unknown directive {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing V line")
    # the keys are distinct, so n of them in range cover 0..n-1; no set of
    # size n is built before the lines are known to match it
    if len(rot) != n or not all(0 <= v < n for v in rot):
        raise GraphFormatError("rotation lines must cover vertices 0..n-1")
    return build_embedded(n, [rot[v] for v in range(n)],
                          outer_face_hint=outer)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def serialize_certificate(cert: CurveCertificate) -> str:
    out = []
    for it, p in zip(cert.items, cert.passages):
        out.append(str(it))
        if p is not None:
            out.append(f"CF {p}")
    return "\n".join(out) + "\n"


def parse_certificate(text: str) -> CurveCertificate:
    items: list = []
    passages: list[int | None] = []
    for no, line in _lines(text):
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "CV":
                items.append(VertexItem(int(parts[1])))
                passages.append(None)
            elif kind == "CX":
                items.append(CrossItem((int(parts[1]), int(parts[2]))))
                passages.append(None)
            elif kind == "CA":
                items.append(AlongItem((int(parts[1]), int(parts[2]))))
                passages.append(None)
            elif kind == "CF":
                if not items:
                    _fail(no, "face passage before any item")
                if passages[len(items) - 1] is not None:
                    _fail(no, "two passages between the same items")
                passages[len(items) - 1] = int(parts[1])
            else:
                _fail(no, f"unknown certificate directive {kind!r}")
        except (IndexError, ValueError):
            _fail(no, f"malformed {kind} line")
    if not items:
        raise GraphFormatError("certificate has no items")
    return CurveCertificate(tuple(items), tuple(passages))


# ---------------------------------------------------------------------------
# Free sets
# ---------------------------------------------------------------------------

def serialize_freeset(fs: OrderedFreeSet) -> str:
    head = "S: " + " ".join(str(v) for v in fs.order)
    meta = (f"# provenance: {fs.provenance}\n"
            f"# bound-met: {fs.bound_met}\n")
    return meta + head + "\n" + serialize_certificate(fs.certificate)


def parse_freeset(text: str, g: EmbeddedGraph) -> OrderedFreeSet:
    order = None
    cert_lines = []
    for no, line in _lines(text):
        if line.startswith("S:"):
            if order is not None:
                _fail(no, "duplicate S line")
            try:
                order = tuple(int(x) for x in line[2:].split())
            except ValueError:
                _fail(no, "S entries must be integers")
        else:
            cert_lines.append(line)
    if order is None:
        raise GraphFormatError("missing S line")
    cert = parse_certificate("\n".join(cert_lines))
    return OrderedFreeSet(graph=g, order=order, certificate=cert,
                          provenance="parsed", bound_met="parsed")


# ---------------------------------------------------------------------------
# Drawings and point sets
# ---------------------------------------------------------------------------

# CPython refuses to convert an int of more than sys.get_int_max_str_digits()
# decimal digits (4,300 by default, 640 at the least) to or from a string,
# so longer integers are converted in pieces of at most this many digits,
# and the limit itself is left as it is
_DIGITS = 600
_BITS = 1993  # 2^1993 < 10^600: an int of this many bits has <= 600 digits


def _integer(s: str) -> int:
    """``int(s)``, also for an optionally signed run of ASCII digits
    longer than ``_DIGITS``, which is converted in halves."""
    body = s[1:] if s[:1] in ("+", "-") else s
    if len(body) <= _DIGITS or not (body.isascii() and body.isdigit()):
        return int(s)
    k = len(body) // 2
    value = _integer(body[:-k]) * 10 ** k + _integer(body[-k:])
    return -value if s[0] == "-" else value


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size: past ``_BITS`` bits it is split
    at a power of ten into two halves, converted apart."""
    if n.bit_length() <= _BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 15 // 100  # about half of its digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def _ratio(s: str, no: int) -> tuple[int, int]:
    """The rational token s, ``p/q`` or ``p``, as (p, q) with q != 0, not
    reduced; a bad token fails line ``no``."""
    a, slash, b = s.partition("/")
    try:
        p, q = _integer(a), _integer(b) if slash else 1
    except ValueError:
        _fail(no, f"bad rational {s!r}")
    if q == 0:
        _fail(no, f"bad rational {s!r}")
    return p, q


def _fmt(p: int, q: int) -> str:
    """p / q, for q > 0, as ``p/q`` in lowest terms."""
    k = gcd(p, q)
    if k != 1:
        p, q = p // k, q // k
    if p.bit_length() <= _BITS and q.bit_length() <= _BITS:
        return f"{p}/{q}"
    return f"{_decimal(p)}/{_decimal(q)}"


def serialize_drawing(d: GridDrawing) -> str:
    """``P v x y`` per vertex, then ``B u v x y`` per bend, in lowest terms:
    from the grid's integers, one ``gcd`` each against ``dx`` or ``dy``."""
    dx, dy = d.dx, d.dy
    out = [f"P {v} {_fmt(x, dx)} {_fmt(y, dy)}" for v, (x, y) in
           enumerate(d.xy)]
    for e in sorted(d.bend_xy):
        out += [f"B {e[0]} {e[1]} {_fmt(x, dx)} {_fmt(y, dy)}"
                for x, y in d.bend_xy[e]]
    return "\n".join(out) + "\n"


def _axis(coords: list) -> tuple[list[int], int]:
    """Rationals given as (p, q), q != 0, as integer numerators over their
    least common denominator (``lcm`` is positive, so each scale den // q
    carries the sign of q)."""
    qs = {q for _, q in coords}
    den = lcm(*qs)
    scale = {q: den // q for q in qs}
    nums = [p * scale[q] for p, q in coords]
    k = gcd(den, *nums)
    return ([p // k for p in nums] if k > 1 else nums), den // k


def parse_drawing(text: str, g: EmbeddedGraph, verify: bool = True,
                  ) -> GridDrawing:
    """A drawing of g: one ``P v x y`` line per vertex, and ``B u v x y``
    lines for the bends of edge u-v in order from its smaller end.  A bend
    may name its edge either way round; it is stored under the edge's
    normal key, so the exact check sees it.  The points are read onto the
    grid of each axis's least common denominator.  A missing ``P`` line, or
    a failed check when verified, raises Unverified with the violation."""
    at: dict[int, int] = {}  # vertex -> its index in the points
    bends: dict = {}  # edge -> the indices of its bends
    coords: list = []  # per point: (p, q) of x and (p, q) of y
    for no, line in _lines(text):
        parts = line.split()
        kind = parts[0]
        if kind not in ("P", "B"):
            _fail(no, f"unknown drawing directive {kind!r}")
        if len(parts) != (4 if kind == "P" else 5):
            _fail(no, f"malformed {kind} line")
        try:
            ids = [int(t) for t in parts[1:-2]]
        except ValueError:
            _fail(no, f"{kind} expects integer vertex ids")
        point = (_ratio(parts[-2], no), _ratio(parts[-1], no))
        if kind == "P":
            v = ids[0]
            if not 0 <= v < g.n:
                _fail(no, f"vertex {v} is not in the graph")
            if v in at:
                _fail(no, f"duplicate position for vertex {v}")
            at[v] = len(coords)
        else:
            e = norm_edge(*ids)
            if e not in g.edges:
                _fail(no, f"bend on {e}, which is not an edge of the graph")
            bends.setdefault(e, []).append(len(coords))
        coords.append(point)
    violation = None
    if len(at) != g.n:
        violation = DrawingViolation("missing-vertex",
                                     "not every vertex is placed")
    else:
        xs, dx = _axis([x for x, _ in coords])
        ys, dy = _axis([y for _, y in coords])
        pts = list(zip(xs, ys))
        d = GridDrawing(graph=g, xy=[pts[at[v]] for v in range(g.n)],
                        bend_xy={e: tuple([pts[i] for i in b])
                                 for e, b in bends.items()},
                        dx=dx, dy=dy, provenance="parsed")
        if verify:
            violation = verify_drawing(g, d)
    if violation is not None:
        raise Unverified(f"drawing fails verification: {violation}",
                         violation)
    return replace(d, verified=True) if verify else d


def serialize_points(points) -> str:
    return "\n".join(" ".join(_fmt(c.numerator, c.denominator)
                              for c in map(Fraction, p))
                     for p in points) + "\n"


def parse_points(text: str) -> list:
    out = []
    for no, line in _lines(text):
        parts = line.split()
        if len(parts) != 2:
            _fail(no, "point lines carry exactly two rationals")
        out.append(tuple(Fraction(*_ratio(t, no)) for t in parts))
    return out
