"""Integer lattice algorithms: the Hermite normal form with its
transformation matrix, the one integer elimination here; the Smith
form by alternating row HNFs of a matrix and of its transpose;
orthogonal complements, completion of a primitive vector
to a unimodular basis, and the least-weight permutation (assignment)
of a square integer matrix.

All arithmetic is fraction-free over Python integers; matrices are
lists of row lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


def transpose(a):
    if not a:
        return []
    return [[row[i] for row in a] for i in range(len(a[0]))]


def min_assignment(weights) -> int:
    """The least sum_i weights[i][s(i)] over the permutations s of an
    n x n matrix that avoid its forbidden (None) entries: the Hungarian
    method with row and column potentials, O(n^3)."""
    n = len(weights)
    inf = float("inf")
    u, v = [0] * (n + 1), [0] * (n + 1)
    match, way = [0] * (n + 1), [0] * (n + 1)   # match[column] = row, 1-based
    for i in range(1, n + 1):
        match[0], j0 = i, 0
        slack, used = [inf] * (n + 1), [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            row, ui = weights[match[j0] - 1], u[match[j0]]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                w = row[j - 1]
                if w is not None and w - ui - v[j] < slack[j]:
                    slack[j], way[j] = w - ui - v[j], j0
                if slack[j] < delta:
                    delta, j1 = slack[j], j
            if not j1:
                raise ValueError("every permutation meets a forbidden entry")
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sum(weights[match[j] - 1][j - 1] for j in range(1, n + 1))


def mat_inverse_unimodular(u):
    """Exact integer inverse of a matrix with determinant +-1: the row
    HNF of a unimodular matrix is the identity, and its transform T,
    with T * u = I, is the inverse."""
    h, t = hermite_normal_form(u)
    if h != identity_matrix(len(u)):
        raise ValueError("matrix is not unimodular")
    return t


def hermite_normal_form(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Row HNF of an integer matrix.

    Returns (H, T) where H consists of the nonzero rows (upper echelon,
    positive pivots, entries above each pivot reduced into [0, pivot))
    and T is unimodular with T * rows = H padded by zero rows.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    t = identity_matrix(m)
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        t[r], t[piv] = t[piv], t[r]
        for i in range(r + 1, m):
            while a[i][col]:
                p, q = a[r][col], a[i][col]
                if q % p == 0:
                    f = q // p
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                    t[i] = [x - f * y for x, y in zip(t[i], t[r])]
                else:
                    g, x, y = xgcd(p, q)
                    pp, qq = p // g, q // g
                    new_r = [x * u + y * v for u, v in zip(a[r], a[i])]
                    new_i = [-qq * u + pp * v for u, v in zip(a[r], a[i])]
                    a[r], a[i] = new_r, new_i
                    new_tr = [x * u + y * v for u, v in zip(t[r], t[i])]
                    new_ti = [-qq * u + pp * v for u, v in zip(t[r], t[i])]
                    t[r], t[i] = new_tr, new_ti
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
            t[r] = [-x for x in t[r]]
        p = a[r][col]
        for i in range(r):
            f = a[i][col] // p
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        r += 1
    return [row for row in a[:r]], t


def _smith_diagonalize(mat):
    """Smith diagonalization W * mat * V = D of any integer matrix by
    alternating Hermite forms (Kannan and Bachem 1979): (W, diag, V),
    the nonzero entries of diag first, positive, with the divisibility
    chain.  Each round takes a column HNF (a <- a * T^T, V <- V * T^T),
    then a row HNF (a <- T * a, W <- T * W), until a is diagonal; where
    d_i does not divide d_j (i < j), row j is added to row i, and the
    next column HNF drops (i, i) to gcd(d_i, d_j), a proper divisor.

    Termination: each HNF makes a[0][0] the gcd of its row or column
    and zeroes the rest of that line, so a[0][0] only moves to its own
    divisors.  An HNF after the first that leaves it unchanged keeps
    the other line zero too, and both stay zero; the rounds then act on
    the trailing block alone, where the same holds.  The result is the
    Smith form: W and V keep the determinantal divisors (the gcds of
    the i x i minors), which for a diagonal with the divisibility chain
    are d_1 * ... * d_i.
    """
    k, n = len(mat), (len(mat[0]) if mat else 0)
    a, w, v = [list(r) for r in mat], identity_matrix(k), identity_matrix(n)
    while True:
        _, t = hermite_normal_form(transpose(a))
        t = transpose(t)
        a, v = mat_mul(a, t), mat_mul(v, t)
        _, t = hermite_normal_form(a)
        a, w = mat_mul(t, a), mat_mul(t, w)
        if any(a[i][j] for i in range(k) for j in range(n) if i != j):
            continue
        diag = [a[i][i] for i in range(min(k, n))]
        bad = next(((i, j) for i, d in enumerate(diag) if d
                    for j in range(i + 1, len(diag)) if diag[j] % d), None)
        if bad is None:
            return w, diag, v
        i, j = bad
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        w[i] = [x + y for x, y in zip(w[i], w[j])]


def smith_normal_form(mat):
    """Smith normal form of a nonsingular square integer matrix.

    Returns (W, D, V) with W * mat * V = D, W and V unimodular, and
    D = diag(d_1, ..., d_n) with positive d_i and d_1 | d_2 | ... | d_n.
    """
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("matrix must be square")
    w, diag, v = _smith_diagonalize(mat)
    if 0 in diag:
        raise ValueError("matrix is singular")
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return w, d, v


class IntegerLattice:
    """A sublattice of Z^n, stored by its canonical HNF basis rows."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows=()):
        hnf, _ = hermite_normal_form([list(r) for r in rows]) if rows else ([], None)
        for r in hnf:
            if len(r) != ambient:
                raise ValueError("row length does not match ambient dimension")
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in hnf)

    @classmethod
    def full(cls, n: int) -> "IntegerLattice":
        lat = cls.__new__(cls)  # the identity rows are their own HNF
        lat.ambient, lat.rows = n, tuple(map(tuple, identity_matrix(n)))
        return lat

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return self.coefficients(v) is not None

    def coefficients(self, v):
        """Integer coordinates of v over the HNF basis, or None."""
        v = list(v)
        coeffs = []
        for row in self.rows:
            col = next(j for j, x in enumerate(row) if x)
            if v[col] % row[col] != 0:
                return None
            f = v[col] // row[col]
            coeffs.append(f)
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return coeffs if not any(v) else None

    def contains_lattice(self, other: "IntegerLattice") -> bool:
        return all(self.contains(r) for r in other.rows)

    def orthogonal_complement(self) -> "IntegerLattice":
        """Basis of span_R(self)^perp intersected with Z^n; always a
        primitive lattice."""
        n = self.ambient
        if not self.rows:
            return IntegerLattice.full(n)
        # left kernel of the transpose: rows x with x . r = 0 for all r
        bt = [[row[i] for row in self.rows] for i in range(n)]
        h, t = hermite_normal_form(bt)
        kernel = t[len(h):]
        return IntegerLattice(n, kernel)

    def __eq__(self, other):
        if isinstance(other, IntegerLattice):
            return self.ambient == other.ambient and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"IntegerLattice({self.ambient}, {list(map(list, self.rows))})"


def is_primitive_vector(a) -> bool:
    g = 0
    for x in a:
        g = gcd(g, x)
    return g == 1


def extend_to_basis(a) -> list[list[int]]:
    """A unimodular matrix whose first row is the primitive vector a;
    the remaining rows are size-reduced against the earlier ones.  The
    completion is pinned by tests.  It sets no slice coordinates: the
    solver restricts to a coset through the coset's exponent matrix."""
    a = list(a)
    n = len(a)
    if not is_primitive_vector(a):
        raise ValueError("vector is not primitive")
    # column-reduce a to e_1, mirroring the operations on an identity
    # matrix to obtain V with a*V = e_1; then U = V^{-1} has first row a
    vec = a[:]
    v = identity_matrix(n)

    def col_op(j1, j2, c11, c12, c21, c22):
        x, y = vec[j1], vec[j2]
        vec[j1] = c11 * x + c21 * y
        vec[j2] = c12 * x + c22 * y
        for row in v:
            x, y = row[j1], row[j2]
            row[j1] = c11 * x + c21 * y
            row[j2] = c12 * x + c22 * y

    for j in range(1, n):
        if vec[j] == 0:
            continue
        p, q = vec[0], vec[j]
        g, x, y = xgcd(p, q)
        col_op(0, j, x, -(q // g), y, p // g)
    if vec[0] < 0:
        for row in v:
            row[0] = -row[0]
        vec[0] = -vec[0]
    u = mat_inverse_unimodular(v)
    # size-reduce the completion rows (first row is left untouched)
    for i in range(1, n):
        for _ in range(2):
            for j in range(i):
                rj = u[j]
                denom = sum(x * x for x in rj)
                num = sum(x * y for x, y in zip(u[i], rj))
                mu = round(Fraction(num, denom))
                if mu:
                    u[i] = [x - mu * y for x, y in zip(u[i], rj)]
    return u

