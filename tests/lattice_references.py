"""Reference lattice computations used only by the tests: the integer
determinant and the saturation of a lattice, each computed by a route of
its own rather than by the library's orthogonal complements."""

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
