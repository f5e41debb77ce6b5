"""Exact rational linear algebra and integer grids.

All verified geometry is exact.  Rationals are handled as integer
numerators over one positive common denominator (``common_denominator``,
and ``integer_grid`` for the two axes of a set of points), and
``FractionFreeSolver`` solves sparse integer systems exactly.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt, lcm

from .errors import SingularSystem

Point = tuple[Fraction, Fraction]

# moduli of the factorization, tried in turn (Mersenne primes).  A pivot
# vanishes modulo one of them only when it divides a leading minor.  A
# lifting step costs mostly interpreter time per factor entry, whatever the
# size of p, so a 521-bit p finishes most solves in one step; the factor
# costs about three times what a 61-bit one does.
_PRIMES = (2 ** 521 - 1, 2 ** 607 - 1, 2 ** 1279 - 1, 2 ** 2203 - 1)


def common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def integer_grid(points: list[Point],
                 ) -> tuple[list[tuple[int, int]], int, int]:
    """Scale rational points to integers, one positive factor per axis: the
    integer points and the denominators of their x's and of their y's."""
    xs, lx = common_denominator([x for x, _ in points])
    ys, ly = common_denominator([y for _, y in points])
    return list(zip(xs, ys)), lx, ly


class FractionFreeSolver:
    """Exact solver for a sparse symmetric positive definite integer matrix.

    ``rows[i]`` maps each column j to the entry (i, j), and ``len(rows)``
    is the dimension.  The constructor factors A = L D Lᵀ modulo a prime p,
    eliminating in greedy minimum-degree order, so the Laplacians of planar
    graphs fill little (George & Liu 1981); ``off_diagonal`` counts the
    entries of L below the diagonal.  A positive definite matrix needs no
    pivoting over Q: a pivot that vanishes mod p only means that p divides
    a leading minor, and the next prime is tried.  A zero pivot under every
    prime raises SingularSystem.

    ``solve`` takes an integer right-hand side over one denominator and
    lifts the solution p-adically (Dixon 1982): each step solves
    A c = r (mod p) with the factor.  Rational reconstruction over one
    growing common denominator reads the numerators back, and the solution
    is returned, as those numerators and their one denominator, only when
    A x = b holds exactly.  Otherwise the exact residual r - A c is divided
    by p for the next step.  With p = 2^521 - 1 a step gains 521 bits, so
    most half-plane solves take one step and form no residual.  A residual
    that p does not divide raises ArithmeticError, so a wrong factor can
    never give a wrong answer.
    """

    def __init__(self, rows: list[dict[int, int]]):
        n = len(rows)
        entries = [{j: int(a) for j, a in r.items() if a} for r in rows]
        for i, r in enumerate(entries):
            for j, a in r.items():
                if not 0 <= j < n or entries[j].get(i) != a:
                    raise ValueError("matrix must be square and symmetric")
        self.rows = [sorted(r.items()) for r in entries]
        for p in _PRIMES:
            steps = _ldl_mod(entries, p)
            if steps is not None:
                break
        else:
            raise SingularSystem(
                f"zero pivot modulo every prime in a {n}-row system")
        self.p = p
        self.steps = steps
        self.off_diagonal = sum(len(col) for _, _, col in steps)
        # Hadamard bound on |det A|, in bits
        self._det_bits = sum((sum(a * a for _, a in r).bit_length() + 1) // 2
                             for r in self.rows)

    def _solve_mod(self, r: list[int]) -> list[int]:
        """The solution of A c = r modulo p."""
        p = self.p
        y = list(r)
        for v, inv, col in self.steps:
            yv = y[v] % p
            y[v] = yv * inv
            if yv:
                for u, lu in col:
                    y[u] -= lu * yv
        for v, _, col in reversed(self.steps):
            y[v] = (y[v] - sum(lu * y[u] for u, lu in col)) % p
        return y

    def solve(self, b: list[int], den: int = 1) -> tuple[list[int], int]:
        """The solution of A x = b / den, for integers b and den > 0, as
        integer numerators over one positive denominator."""
        n = len(self.rows)
        if len(b) != n:
            raise ValueError(f"need {n} right-hand side entries")
        if den < 1:
            raise ValueError("the denominator must be positive")
        # Cramer's rule bounds every numerator and the common denominator;
        # residues modulo m > 2 * bound**2 determine them
        b_bits = (sum(x * x for x in b).bit_length() + 1) // 2
        bound_bits = self._det_bits + b_bits
        p = self.p
        r = b
        acc = [0] * n
        m = 1
        while True:
            c = self._solve_mod(r)
            acc = [x + m * ci for x, ci in zip(acc, c)]
            m *= p
            sol = _reconstruct(acc, m)
            if sol is not None:
                num, d = sol
                if all(sum(a * num[j] for j, a in row) == d * bi
                       for row, bi in zip(self.rows, b)):
                    return num, d * den
            # formed only now: a solve that ends here needs no residual
            nxt = []
            for ri, row in zip(r, self.rows):
                q, rem = divmod(ri - sum(a * c[j] for j, a in row), p)
                if rem:
                    raise ArithmeticError("p-adic lifting step is not exact")
                nxt.append(q)
            r = nxt
            if m.bit_length() > 2 * bound_bits + 2:
                raise ArithmeticError("no exact solution within the "
                                      "Hadamard bound")


def _ldl_mod(entries: list[dict[int, int]], p: int) -> list | None:
    """Steps (pivot, 1/d, [(row, l)]) of A = L D Lᵀ modulo p in greedy
    minimum-degree order (ties to the smaller index), or None when a pivot
    vanishes.  The order depends only on the nonzero pattern."""
    a = [{j: x % p for j, x in r.items()} for r in entries]
    heap = [(len(r), v) for v, r in enumerate(a)]
    heapify(heap)
    done = [False] * len(a)
    steps = []
    while heap:
        size, v = heappop(heap)
        row = a[v]
        if done[v] or size != len(row):
            continue
        done[v] = True
        d = row.pop(v, 0)
        if d == 0:
            return None
        inv = pow(d, -1, p)
        nbrs = list(row.items())
        col = []
        for u, au in nbrs:
            ru = a[u]
            del ru[v]
            lu = au * inv % p
            col.append((u, lu))
            for w, aw in nbrs:
                ru[w] = (ru.get(w, 0) - lu * aw) % p
            heappush(heap, (len(ru), u))
        steps.append((v, inv, col))
    return steps


def _reconstruct(residues: list[int], m: int) -> tuple[list[int], int] | None:
    """Numerators over one common denominator d, each x/d congruent to its
    residue modulo m.  Every entry is read back with numerator and
    denominator at most √(m/2) in size, over a denominator that grows as
    needed and ends as d; None when some residue has no such pair."""
    bound = isqrt(m >> 1)
    den = 1
    out = []
    for res in residues:
        y = res * den % m
        if y > m - y:
            y -= m
        if abs(y) <= bound:
            out.append((y, den))
            continue
        # Wang's half extended Euclid on (m, y)
        r0, r1, s0, s1 = m, y % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if s1 < 0:
            r1, s1 = -r1, -s1
        if s1 == 0 or s1 * den > bound:
            return None
        den *= s1
        out.append((r1, den))
    return [x * (den // d) for x, d in out], den
