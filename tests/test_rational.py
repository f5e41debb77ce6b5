"""The exact sparse solver against the dense fraction-free reference.

``DenseReference`` is the one-step fraction-free Gauss-Jordan elimination
the solver replaced.  Both solve the same half-plane and Tutte systems,
with seeded rational right-hand sides; the solutions are unique, so they
must be identical.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import ceil, gcd, lcm, log2

import pytest

from freeset import realize
from freeset.embedding import norm_edge
from freeset.errors import SingularSystem
from freeset.extractors import planar_freeset
from freeset.generators import (
    goldner_harary,
    grid,
    octahedron,
    random_triangulation,
)
from freeset.rational import _PRIMES, FractionFreeSolver, common_denominator
from freeset.realize import (
    _Barycentric,
    _collinear_system,
    free_realize,
)

from conftest import thinned_triangulation, triangle_checks
from test_realize import HALFPLANE_CORPUS, halfplanes


class DenseReference:
    """One-step fraction-free Gauss-Jordan over the integers.

    Factors a dense integer matrix once; each right-hand side is reduced with
    integer operations only and divided by the determinant at the end, and
    every division is checked to be exact.
    """

    def __init__(self, rows: list[list[int]]):
        n = len(rows)
        m = [list(map(int, r)) for r in rows]
        self.n = n
        steps = []
        prev = 1
        for k in range(n):
            piv_row = next((r for r in range(k, n) if m[r][k] != 0), None)
            if piv_row is None:
                raise SingularSystem(f"no pivot in column {k}")
            if piv_row != k:
                m[k], m[piv_row] = m[piv_row], m[k]
            pivot = m[k][k]
            col = [m[i][k] for i in range(n)]
            for i in range(n):
                if i == k:
                    continue
                fi = col[i]
                if fi == 0 and pivot == prev:
                    continue
                row_i, row_k = m[i], m[k]
                for j in range(k + 1, n):
                    q, r = divmod(pivot * row_i[j] - fi * row_k[j], prev)
                    if r:
                        raise ArithmeticError("fraction-free step not integral")
                    row_i[j] = q
                row_i[k] = 0
            steps.append((piv_row, pivot, prev, col))
            prev = pivot
        self.det = prev
        self.steps = steps

    def solve(self, rhs: list[F]) -> list[F]:
        n = self.n
        scale = 1
        for v in rhs:
            d = F(v).denominator
            scale = scale * d // gcd(scale, d)
        b = [int(F(v) * scale) for v in rhs]
        for k, (piv_row, pivot, prev, col) in enumerate(self.steps):
            if piv_row != k:
                b[k], b[piv_row] = b[piv_row], b[k]
            bk = b[k]
            for i in range(n):
                if i == k:
                    continue
                q, r = divmod(pivot * b[i] - col[i] * bk, prev)
                if r:
                    raise ArithmeticError("fraction-free rhs step not integral")
                b[i] = q
        return [F(bi, self.det * scale) for bi in b]


def fractions(solution: tuple[list[int], int]) -> list[F]:
    """A solution given as numerators over one denominator, as Fractions."""
    num, den = solution
    return [F(x, den) for x in num]


def solve_rational(solver: FractionFreeSolver, rhs: list) -> list[F]:
    """``solver.solve`` on a rational right-hand side, handed over as
    integer numerators over their common denominator."""
    rhs = [F(v) for v in rhs]
    den = lcm(*(v.denominator for v in rhs))
    return fractions(solver.solve(
        [v.numerator * (den // v.denominator) for v in rhs], den))


def dense(rows: list[dict]) -> list[list[int]]:
    return [[r.get(j, 0) for j in range(len(rows))] for r in rows]


def rational_rhs(k: int, rng: random.Random) -> list[F]:
    return [F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
            for _ in range(k)]


def barycentric_rows(rot, fixed, monkeypatch) -> list[dict]:
    """The sparse rows ``_Barycentric`` hands to the solver for the
    rotation lists ``rot``."""
    seen = []

    class Recording(FractionFreeSolver):
        def __init__(self, rows):
            seen.append(rows)
            super().__init__(rows)

    with monkeypatch.context() as mp:
        mp.setattr(realize, "FractionFreeSolver", Recording)
        _Barycentric(rot, fixed)
    return seen[0]


def weighted_rows(rot, fixed, weights: dict) -> list[dict]:
    """Sparse rows of the weighted Laplacian of the non-fixed vertices of
    ``rot``: each vertex's weighted degree on the diagonal, minus the
    weight of each edge to a non-fixed neighbour off it."""
    interior = [v for v in range(len(rot)) if v not in fixed]
    index = {v: i for i, v in enumerate(interior)}
    rows = []
    for i, v in enumerate(interior):
        row = {i: 0}
        for u in rot[v]:
            wt = weights[norm_edge(u, v)]
            row[i] += wt
            if u not in fixed:
                row[index[u]] = -wt
        rows.append(row)
    return rows


# weight draws per system: unit weights, then random positive ones
DRAWS = 3


def drawn_weights(base: dict, seed: int, draw: int) -> dict:
    """Edge weights of one corpus system: ``base`` for draw 0, else the
    draw-th set of random positive weights from a fixed seed."""
    rng = random.Random(seed)
    weights = base
    for _ in range(draw):
        weights = {e: rng.randint(1, 16) for e in base}
    return weights


def weighted_systems(rot, fixed, seed: int, monkeypatch):
    """Rows of one corpus system for each weight draw.  Draw 0, unit
    weights, must be the rows the program hands the solver."""
    unit = dict.fromkeys(
        frozenset(norm_edge(u, v) for v, nbrs in enumerate(rot) for u in nbrs),
        1)
    for draw in range(DRAWS):
        rows = weighted_rows(rot, fixed, drawn_weights(unit, seed, draw))
        if draw == 0:
            assert rows == barycentric_rows(rot, fixed, monkeypatch)
        yield rows


def halfplane_systems(make, args, monkeypatch):
    """Rows of each half-plane system of ``make(*args)``: unit weights and
    two draws of random positive weights."""
    for hp in halfplanes(make(*args)):
        yield from weighted_systems(hp.rot, set(hp.y) | {hp.apex}, 0xA11CE,
                                    monkeypatch)


TUTTE_CORPUS = [
    (octahedron, ()), (goldner_harary, ()), (random_triangulation, (30, 1)),
    (random_triangulation, (60, 2)), (grid, (6, 6)),
    (thinned_triangulation, (40, 3)),
]


def tutte_systems(make, args, monkeypatch):
    """Rows of the ``tutte_solve`` systems of ``make(*args)`` with its outer
    face fixed: unit weights and two draws of random positive weights."""
    g = make(*args)
    fixed = {u for u, _ in g.faces[g.outer_face].walk}
    yield from weighted_systems(g.rot, fixed, 0x5EED, monkeypatch)


def assert_matches_reference(rows, seed: int) -> None:
    solver = FractionFreeSolver(rows)
    ref = DenseReference(dense(rows))
    rng = random.Random(seed)
    for _ in range(2):
        rhs = rational_rhs(len(rows), rng)
        assert solve_rational(solver, rhs) == ref.solve(rhs)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "make,args", HALFPLANE_CORPUS,
        ids=[f"{m.__name__}{a}" for m, a in HALFPLANE_CORPUS])
    def test_halfplane_systems(self, make, args, monkeypatch):
        for i, rows in enumerate(halfplane_systems(make, args, monkeypatch)):
            assert_matches_reference(rows, i)

    @pytest.mark.parametrize(
        "make,args", TUTTE_CORPUS,
        ids=[f"{m.__name__}{a}" for m, a in TUTTE_CORPUS])
    def test_tutte_systems(self, make, args, monkeypatch):
        for i, rows in enumerate(tutte_systems(make, args, monkeypatch)):
            assert_matches_reference(rows, i)

    @pytest.mark.parametrize(
        "systems,make,args",
        [(halfplane_systems, m, a) for m, a in HALFPLANE_CORPUS[:4]] +
        [(tutte_systems, m, a) for m, a in TUTTE_CORPUS[:3]],
        ids=[f"{m.__name__}{a}" for m, a in HALFPLANE_CORPUS[:4] +
             TUTTE_CORPUS[:3]])
    def test_numerators_over_one_denominator(self, systems, make, args,
                                             monkeypatch):
        # solve hands back integer numerators over one positive multiple of
        # the given denominator, and A·num = (d / den)·b holds on integers
        rows = next(systems(make, args, monkeypatch))
        solver = FractionFreeSolver(rows)
        ref = DenseReference(dense(rows))
        rng = random.Random(len(rows))
        for rhs in (rational_rhs(len(rows), rng), [F(0)] * len(rows)):
            b, den = common_denominator(rhs)
            num, d = solver.solve(b, den)
            assert all(isinstance(x, int) for x in num)
            assert d > 0 and d % den == 0
            assert [F(x, d) for x in num] == ref.solve(rhs)
            assert [sum(a * num[j] for j, a in r.items()) for r in rows] \
                == [d // den * bi for bi in b]

    def test_pivot_vanishing_modulo_first_prime(self):
        # the first pivot is the first prime, so it vanishes modulo it
        p = _PRIMES[0]
        rows = [{0: p, 1: 1}, {0: 1, 1: 2, 2: -1}, {1: -1, 2: 3}]
        solver = FractionFreeSolver(rows)
        assert solver.p != p
        rhs = [F(1, 3), F(-7), F(5, 2)]
        assert solve_rational(solver, rhs) == \
            DenseReference(dense(rows)).solve(rhs)

    def test_integer_and_zero_right_hand_sides(self):
        rows = [{0: 2, 1: -1}, {0: -1, 1: 2}]
        solver = FractionFreeSolver(rows)
        assert fractions(solver.solve([1, 1])) == [1, 1]
        assert fractions(solver.solve([0, 0])) == [0, 0]
        assert fractions(solver.solve([3, 3], 6)) == [F(1, 2), F(1, 2)]
        with pytest.raises(ValueError):
            solver.solve([1, 1], 0)


def reference_halfplane_solve(hp, xs: list[F], side: str) -> dict:
    """The two-coordinate solve that ``_HalfPlane.solve`` replaced: the
    apex at height b = 4 * span, and x and y each lifted on right-hand
    sides summed in fractions."""
    span = xs[-1] - xs[0]
    b = 4 * span if span > 0 else F(4)
    fixed = {v: (x, F(0)) for v, x in zip(hp.y, xs)}
    fixed[hp.apex] = ((xs[0] + xs[-1]) / 2, b)
    base = hp._base
    xs_, ys_ = (solve_rational(base.solver,
                               [sum(fixed[u][c] for u in fx)
                                for fx in base.fixed_nbrs])
                for c in (0, 1))
    pos = dict(fixed)
    pos.update(zip(base.interior, zip(xs_, ys_)))
    out = {v: pos[v] for v in range(hp.apex)}
    if side == "below":
        out = {v: (x, -y) for v, (x, y) in out.items()}
    return out


def axis_styles(k: int, rng: random.Random) -> dict[str, list[F]]:
    """Strictly increasing axis x's: integers, mixed denominators, and
    negative values."""
    def walk(start: F, dens: tuple[int, ...]) -> list[F]:
        xs = [start]
        for _ in range(k - 1):
            xs.append(xs[-1] + F(rng.randint(1, 40), rng.choice(dens)))
        return xs

    return {"integer": [F(3 * i - k) for i in range(k)],
            "mixed": walk(F(-7, 3), (1, 2, 3, 5, 12, 64)),
            "negative": walk(F(-10 ** 6, 7), (1, 9, 11))}


class TestHalfPlaneHeights:
    """Heights φ from the one lift made with the half-plane, and x's on
    integer right-hand sides, against lifting both coordinates with the
    apex at b: the half-plane solve draws the apex at ±1, so its heights
    are the reference's over b."""

    @pytest.mark.parametrize(
        "make,args", HALFPLANE_CORPUS,
        ids=[f"{m.__name__}{a}" for m, a in HALFPLANE_CORPUS])
    def test_matches_two_coordinate_solve(self, make, args):
        rng = random.Random(0xAB1E)
        for hp in halfplanes(make(*args)):
            for xs in axis_styles(len(hp.y), rng).values():
                nums, den = common_denominator(xs)
                b = 4 * (xs[-1] - xs[0])
                for side in ("below", "above"):
                    pts, dx, dy = hp.solve(nums, den, side)
                    got = {v: (F(x, dx), F(y, dy))
                           for v, (x, y) in enumerate(pts)}
                    want = reference_halfplane_solve(hp, xs, side)
                    assert list(got.items()) == \
                        [(v, (x, y / b)) for v, (x, y) in want.items()]


class TestFailures:
    def test_singular(self):
        with pytest.raises(SingularSystem):
            FractionFreeSolver([{0: 1, 1: -1}, {0: -1, 1: 1}])

    def test_not_symmetric(self):
        with pytest.raises(ValueError):
            FractionFreeSolver([{0: 2, 1: 1}, {1: 2}])

    @pytest.mark.parametrize("entry", ["pivot", "off-diagonal"])
    def test_corrupted_factor_raises(self, entry, monkeypatch):
        rows = next(halfplane_systems(grid, (7, 7), monkeypatch))
        solver = FractionFreeSolver(rows)
        p = solver.p
        i, (v, inv, col) = next((i, s) for i, s in enumerate(solver.steps)
                                if s[2])
        if entry == "pivot":
            solver.steps[i] = (v, inv * 2 % p, col)
        else:
            u, lu = col[0]
            col[0] = (u, (lu + 1) % p)
        # the first residual shows the wrong factor, before any bound
        with pytest.raises(ArithmeticError, match="not exact"):
            solve_rational(solver,
                           rational_rhs(len(rows), random.Random(1)))


class TestScale:
    @pytest.mark.parametrize("make,args", [(grid, (30, 30)),
                                           (random_triangulation, (800, 2))])
    def test_factor_fill(self, make, args):
        g = make(*args)
        sysm = _collinear_system(planar_freeset(g)._analysis)
        for which in ("inside", "outside"):
            solver = sysm.halves[which][0]._base.solver
            k = len(solver.rows)
            # a dense factor has k(k-1)/2 entries below the diagonal
            assert solver.off_diagonal <= 4 * k * ceil(log2(max(k, 2)))

    def test_cold_free_realize(self, monkeypatch):
        g = random_triangulation(800, 2)
        fs = planar_freeset(g)
        rng = random.Random(5)
        pts: set = set()
        while len(pts) < len(fs.order):
            pts.add((F(rng.randint(-400, 400), rng.randint(1, 9)),
                     F(rng.randint(-400, 400), rng.randint(1, 9))))
        calls = []
        verify = realize.verify_drawing

        def counting(g, d):
            calls.append(("sweep", d.provenance))
            return verify(g, d)

        monkeypatch.setattr(realize, "verify_drawing", counting)
        with triangle_checks(calls):
            d = free_realize(g, fs, sorted(pts))
        assert d.verified and [c[0] for c in calls] == ["triangles"]
        assert verify(g, d) is None
