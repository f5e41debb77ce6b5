"""Exact rational linear algebra and plane predicates.

All verified geometry runs over arbitrary-precision rationals; predicates
are evaluated on integer-scaled coordinates (orientation signs are invariant
under independent positive scaling of the axes).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import SingularSystem

Point = tuple[Fraction, Fraction]


def orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
    """Sign of the cross product (b-a) x (c-a) on integer coordinates."""
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def integer_grid(points: list[Point]) -> list[tuple[int, int]]:
    """Scale rational points to integers, one positive factor per axis."""
    lx = 1
    ly = 1
    for x, y in points:
        lx = lx * x.denominator // gcd(lx, x.denominator)
        ly = ly * y.denominator // gcd(ly, y.denominator)
    return [(int(x * lx), int(y * ly)) for x, y in points]


class FractionFreeSolver:
    """One-step fraction-free Gauss-Jordan over the integers.

    Factors an integer matrix once; each later right-hand side is reduced
    with integer operations only and divided by the determinant at the end.
    Exact divisibility is asserted at every step, so a wrong pivot history
    can never produce silently wrong results.
    """

    def __init__(self, rows: list[list[int]]):
        n = len(rows)
        m = [list(map(int, r)) for r in rows]
        if any(len(r) != n for r in m):
            raise ValueError("matrix must be square")
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
                    num = pivot * row_i[j] - fi * row_k[j]
                    q, r = divmod(num, prev)
                    if r:
                        raise ArithmeticError("fraction-free step not integral")
                    row_i[j] = q
                row_i[k] = 0
            steps.append((piv_row, pivot, prev, col))
            prev = pivot
        self.det = prev
        self.steps = steps

    def solve(self, rhs: list[Fraction]) -> list[Fraction]:
        n = self.n
        scale = 1
        for v in rhs:
            d = Fraction(v).denominator
            scale = scale * d // gcd(scale, d)
        b = [int(Fraction(v) * scale) for v in rhs]
        for k, (piv_row, pivot, prev, col) in enumerate(self.steps):
            if piv_row != k:
                b[k], b[piv_row] = b[piv_row], b[k]
            bk = b[k]
            for i in range(n):
                if i == k:
                    continue
                num = pivot * b[i] - col[i] * bk
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("fraction-free rhs step not integral")
                b[i] = q
        return [Fraction(bi, self.det * scale) for bi in b]
