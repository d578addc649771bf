"""Reference lattice computations used only by the tests: the integer
determinant and the saturation of a lattice, each computed by a route of
its own rather than by the library's orthogonal complements, and the
one-shot exponent congruence solver that cosets.ExponentCongruences
split into a per-matrix and a per-right-hand-side step, kept verbatim."""

from math import lcm

from torsioncosets.arith import TorsionPoint
from torsioncosets.cosets import CongruenceSolutionSet
from torsioncosets.lattices import (
    IntegerLattice,
    _smith_diagonalize,
    mat_inverse_unimodular,
)


def determinant(m) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def saturation(lat: IntegerLattice) -> IntegerLattice:
    """span_Q(lat) cap Z^n.  With W * A * V = D the Smith form of the
    basis rows A, A = W^-1 * D * V^-1, so the rows of A span over Q what
    the first rank(A) rows of the unimodular V^-1 span over Z."""
    if not lat.rows:
        return lat
    _, diag, v = _smith_diagonalize([list(r) for r in lat.rows])
    rank = sum(1 for d in diag if d)
    return IntegerLattice(lat.ambient, mat_inverse_unimodular(v)[:rank])


def solve_exponent_congruences(rows, s) -> CongruenceSolutionSet:
    """Describe all torsion q with R q = s (mod 1) via the Smith normal
    form of R; for square nonsingular R there are exactly |det R|
    solutions.  The right-hand side s is a TorsionPoint, or rationals
    taken modulo 1."""
    rows = [list(r) for r in rows]
    k = len(rows)
    if k == 0:
        raise ValueError("empty congruence system has no ambient dimension")
    n = len(rows[0])
    s = TorsionPoint(s)
    if len(s) != k:
        raise ValueError("right-hand side length mismatch")
    w, diag, v = _smith_diagonalize(rows)
    rank = sum(1 for d in diag if d)
    # with s = nums / m: W s = t / m, and y0 = D^-1 W s over m * lcm(D)
    m = s.order
    t = [sum(a * b for a, b in zip(row, s.nums)) for row in w]
    if any(t[i] % m for i in range(rank, k)):
        return CongruenceSolutionSet(n, False)
    den = m * lcm(*diag[:rank])
    y0 = [t[i] * (den // (m * diag[i])) for i in range(rank)] + [0] * (n - rank)
    q0 = TorsionPoint([sum(a * b for a, b in zip(row, y0)) for row in v], den)
    # R = W^-1 D V^-1, so the saturated row space of R is spanned by the
    # first rank rows of V^-1
    hom = IntegerLattice(n, mat_inverse_unimodular(v)[:rank])
    generators = [([v[row][i] for row in range(n)], diag[i])
                  for i in range(rank) if diag[i] != 1]
    return CongruenceSolutionSet(n, True, q0, hom, generators)
