import random
from fractions import Fraction
from itertools import permutations

import pytest

from torsioncosets import lattices
from torsioncosets.arith import TorsionPoint
from torsioncosets.cosets import TorsionCoset, solve_exponent_congruences
from torsioncosets.lattices import (
    IntegerLattice,
    _smith_diagonalize,
    extend_to_basis,
    hermite_normal_form,
    identity_matrix,
    mat_inverse_unimodular,
    mat_mul,
    min_assignment,
    smith_normal_form,
    xgcd,
)
from torsioncosets.poly import LaurentPolynomial
from torsioncosets.solver import rescale_to_full_lattice

from lattice_references import determinant, saturation
from poly_references import monoidal_image, transform


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_unimodular(rng, n, steps=8, bound=2):
    u = identity_matrix(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-bound, bound)
        for k in range(n):
            u[i][k] += c * u[j][k]
    if rng.random() < 0.5:
        u[0] = [-x for x in u[0]]
    return u


def test_hnf_examples():
    h, _ = hermite_normal_form([[2, 0], [1, 1]])
    assert h == [[1, 1], [0, 2]]
    h, _ = hermite_normal_form(identity_matrix(3))
    assert h == identity_matrix(3)
    h, _ = hermite_normal_form([[0, 0]])
    assert h == []


def test_hnf_same_lattice():
    # {(2,0),(1,1)} and [[1,1],[0,2]] generate the same lattice
    l1 = IntegerLattice(2, [[2, 0], [1, 1]])
    l2 = IntegerLattice(2, [[1, 1], [0, 2]])
    assert l1 == l2
    assert l1.contains([2, 0]) and l1.contains([1, 1])
    assert not l1.contains([1, 0])


def test_hnf_transform_and_uniqueness():
    rng = random.Random(31)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        h, t = hermite_normal_form(a)
        assert abs(determinant(t)) == 1
        full = mat_mul(t, a)
        assert full[:len(h)] == h
        assert all(not any(row) for row in full[len(h):])
        # another generating set of the same row lattice gives the same H
        u = random_unimodular(rng, m)
        h2, _ = hermite_normal_form(mat_mul(u, a))
        assert h2 == h


def test_snf_examples():
    _, d, _ = smith_normal_form([[1, 2], [3, 4]])
    assert d == [[1, 0], [0, 2]]
    _, d, _ = smith_normal_form([[4, 0], [0, 6]])
    assert d == [[2, 0], [0, 12]]
    w, d, v = smith_normal_form(identity_matrix(3))
    assert d == identity_matrix(3)
    with pytest.raises(ValueError):
        smith_normal_form([[1, 1], [2, 2]])


def test_snf_properties_random():
    rng = random.Random(57)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        det = determinant(a)
        if det == 0:
            continue
        checked += 1
        w, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(w, a), v) == d
        assert abs(determinant(w)) == 1 and abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(n)]
        assert all(x > 0 for x in diag)
        for i in range(n - 1):
            assert diag[i + 1] % diag[i] == 0
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(det)


# Reference Smith diagonalization that shares no elimination with
# hermite_normal_form: its own pivot search, xgcd row and column
# clearing, and divisibility loop.
def _reference_smith_diagonalize(mat):
    """General Smith diagonalization W * mat * V = D for any integer
    matrix; returns (W, diag, V) with the divisibility chain on the
    positive diagonal entries."""
    k = len(mat)
    n = len(mat[0]) if k else 0
    a = [list(r) for r in mat]
    w = identity_matrix(k)
    v = identity_matrix(n)

    def col_op(j1, j2, c11, c12, c21, c22):
        # columns j1, j2 <- (c11*j1 + c21*j2, c12*j1 + c22*j2)
        for row in a:
            x, y = row[j1], row[j2]
            row[j1] = c11 * x + c21 * y
            row[j2] = c12 * x + c22 * y
        for row in v:
            x, y = row[j1], row[j2]
            row[j1] = c11 * x + c21 * y
            row[j2] = c12 * x + c22 * y

    t = 0
    while t < k and t < n:
        piv = None
        best = None
        for i in range(t, k):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        w[t], w[pi] = w[pi], w[t]
        if pj != t:
            col_op(t, pj, 0, 1, 1, 0)
        while True:
            # clear column t
            for i in range(t + 1, k):
                while a[i][t]:
                    p, q = a[t][t], a[i][t]
                    if q % p == 0:
                        f = q // p
                        a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                        w[i] = [x - f * y for x, y in zip(w[i], w[t])]
                    else:
                        g, x, y = xgcd(p, q)
                        pp, qq = p // g, q // g
                        new_t = [x * u + y * vv for u, vv in zip(a[t], a[i])]
                        new_i = [-qq * u + pp * vv for u, vv in zip(a[t], a[i])]
                        a[t], a[i] = new_t, new_i
                        new_wt = [x * u + y * vv for u, vv in zip(w[t], w[i])]
                        new_wi = [-qq * u + pp * vv for u, vv in zip(w[t], w[i])]
                        w[t], w[i] = new_wt, new_wi
            # clear row t
            row_dirty = False
            for j in range(t + 1, n):
                while a[t][j]:
                    p, q = a[t][t], a[t][j]
                    if q % p == 0:
                        f = q // p
                        col_op(t, j, 1, -f, 0, 1)
                    else:
                        g, x, y = xgcd(p, q)
                        pp, qq = p // g, q // g
                        col_op(t, j, x, -qq, y, pp)
                        row_dirty = True
            if row_dirty and any(a[i][t] for i in range(t + 1, k)):
                continue
            # force divisibility of the remaining block by the pivot
            p = a[t][t]
            bad = None
            for i in range(t + 1, k):
                for j in range(t + 1, n):
                    if a[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            w[t] = [x + y for x, y in zip(w[t], w[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            w[t] = [-x for x in w[t]]
        t += 1
    diag = [a[i][i] for i in range(min(k, n))]
    return w, diag, v


def _random_smith_input(rng):
    k, n = rng.randint(1, 5), rng.randint(1, 4)
    kind = rng.randrange(4)
    if kind == 0:
        return [[0] * n for _ in range(k)]
    a = random_matrix(rng, k, n, *rng.choice([(-1, 1), (-4, 4), (-30, 30)]))
    if kind == 1 and k > 1:
        # rank-deficient: the last row a combination of the others
        a[-1] = [sum(rng.randint(-2, 2) * a[i][j] for i in range(k - 1))
                 for j in range(n)]
    elif kind == 2:
        # large invariant factors: scale a column and a row
        j, i, c = rng.randrange(n), rng.randrange(k), rng.choice([4, 6, 12])
        for row in a:
            row[j] *= c
        a[i] = [c * x for x in a[i]]
    return a


def test_smith_diagonalize_matches_reference():
    rng = random.Random(13)
    for _ in range(300):
        a = _random_smith_input(rng)
        k, n = len(a), len(a[0])
        w, diag, v = _smith_diagonalize(a)
        assert diag == _reference_smith_diagonalize(a)[1]
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(k)]
        assert mat_mul(mat_mul(w, a), v) == d
        assert abs(determinant(w)) == 1 and abs(determinant(v)) == 1
        rank = sum(1 for x in diag if x)
        assert all(x > 0 for x in diag[:rank])
        assert not any(diag[rank:])
        for i in range(rank - 1):
            assert diag[i + 1] % diag[i] == 0


def test_smith_diagonalize_edge_shapes():
    assert _smith_diagonalize([]) == ([], [], [])
    assert _smith_diagonalize([[], []]) == (identity_matrix(2), [], [])
    w, diag, v = _smith_diagonalize([[0, 6], [0, 4], [0, 0]])
    assert diag == [2, 0]
    assert mat_mul(mat_mul(w, [[0, 6], [0, 4], [0, 0]]), v) == \
        [[2, 0], [0, 0], [0, 0]]


def test_congruence_homogeneous_part_is_saturation():
    # the first rank rows of V^-1 span the saturated row space of R
    rng = random.Random(17)
    for _ in range(150):
        rows = _random_smith_input(rng)
        n = len(rows[0])
        q = [Fraction(rng.randint(0, 11), 12) for _ in range(n)]
        s = [sum(x * y for x, y in zip(row, q)) % 1 for row in rows]
        sol = solve_exponent_congruences(rows, s)
        assert sol.consistent
        assert sol.homogeneous == saturation(IntegerLattice(n, rows))


def test_rescale_index_is_lattice_determinant():
    # at full rank the isogeny X -> X^A has |det L(f)| points above the
    # identity of f*'s torus
    rng = random.Random(19)
    done = 0
    while done < 60:
        n = rng.randint(1, 3)
        f = LaurentPolynomial(n, {
            tuple(rng.randint(-4, 4) for _ in range(n)): rng.randint(1, 3)
            for _ in range(rng.randint(n + 1, n + 3))})
        lat = f.exponent_lattice()
        if lat.rank != n:
            continue
        done += 1
        det = abs(determinant([list(r) for r in lat.rows]))
        fstar, pullback = rescale_to_full_lattice(f)
        kernel = pullback([TorsionCoset.from_point(TorsionPoint.ones(n))])
        assert len(kernel) == det
        assert all(c.dimension == 0 for c in kernel)


def test_full_lattice_is_the_hnf_of_the_identity(monkeypatch):
    # full(n) stores the identity rows, already in HNF, without an HNF
    expected = [IntegerLattice(n, identity_matrix(n)) for n in range(1, 6)]
    monkeypatch.setattr(lattices, "hermite_normal_form", None)
    for n, lat in enumerate(expected, start=1):
        assert IntegerLattice.full(n) == lat and lat.rank == n
        assert IntegerLattice.full(n).rows == lat.rows


def test_saturation_examples():
    assert saturation(IntegerLattice(2, [[2, 2]])).rows == ((1, 1),)
    assert (saturation(IntegerLattice(2, [[2, 0], [0, 2]]))
            == IntegerLattice.full(2))
    prim = IntegerLattice(2, [[1, 1]])
    assert saturation(prim) == prim


def test_saturation_idempotent_random():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        a = random_matrix(rng, k, n, -6, 6)
        s = saturation(IntegerLattice(n, a))
        assert saturation(s) == s
        assert s.contains_lattice(IntegerLattice(n, a))


def test_orthogonal_complement_examples():
    g = IntegerLattice(2, [[1, 1]]).orthogonal_complement()
    assert g.rows == ((1, -1),)
    assert IntegerLattice.full(2).orthogonal_complement().rows == ()
    g3 = IntegerLattice(3, [[1, 0, 0]]).orthogonal_complement()
    assert g3 == IntegerLattice(3, [[0, 1, 0], [0, 0, 1]])


def test_double_complement_is_saturation():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        rows = random_matrix(rng, k, n, -5, 5) if k else []
        lat = IntegerLattice(n, rows)
        assert lat.orthogonal_complement().orthogonal_complement() == saturation(lat)
        # complement rows really pair to zero
        comp = lat.orthogonal_complement()
        for r in lat.rows:
            for c in comp.rows:
                assert sum(x * y for x, y in zip(r, c)) == 0


def _gram_determinant(lat):
    # det(B * B^T) for the HNF basis B: the squared lattice determinant
    return determinant([[sum(x * y for x, y in zip(r1, r2)) for r2 in lat.rows]
                        for r1 in lat.rows])


def test_gram_det_matches_complement():
    # det(A) = det(complement) for primitive A, via Gram determinants
    rng = random.Random(12)
    done = 0
    while done < 60:
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        lat = saturation(IntegerLattice(n, random_matrix(rng, k, n, -4, 4)))
        if lat.rank != k:
            continue
        done += 1
        comp = lat.orthogonal_complement()
        assert _gram_determinant(lat) == _gram_determinant(comp)


def test_extend_to_basis():
    u = extend_to_basis([2, 3])
    assert u[0] == [2, 3]
    assert abs(determinant(u)) == 1
    assert extend_to_basis([1, 0, 0]) == identity_matrix(3)
    u = extend_to_basis([3, 5, 7])
    assert u[0] == [3, 5, 7]
    assert abs(determinant(u)) == 1
    with pytest.raises(ValueError):
        extend_to_basis([2, 4])


def test_extend_to_basis_random():
    rng = random.Random(8)
    done = 0
    while done < 60:
        n = rng.randint(1, 5)
        a = [rng.randint(-7, 7) for _ in range(n)]
        from math import gcd
        g = 0
        for x in a:
            g = gcd(g, x)
        if g != 1:
            continue
        done += 1
        u = extend_to_basis(a)
        assert u[0] == a
        assert abs(determinant(u)) == 1


# The completion decides the coordinates of every slice, and so which
# variable the resultants eliminate.  Another valid completion, read off
# the HNF transform of the column a, differs on 20-40 % of random
# primitive vectors, (2, 2, 1, 0) and (0, 5, 6, 3) among them, and made
# the sparse3 benchmark slower: corpus_s 0.26 -> 0.35 s at seed 1, three
# alternating pairs of perfbench/run.py runs on a shared 2-core host.
# The values are those of the column-xgcd completion.
PINNED_COMPLETIONS = [
    ((2, 2, 1, 0), [[2, 2, 1, 0], [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1]]),
    ((0, 5, 6, 3), [[0, 5, 6, 3], [-1, 0, 0, 0], [0, -1, -1, 0], [0, 0, 0, 1]]),
    ((3, 5, 7), [[3, 5, 7], [1, 2, 0], [0, 0, 1]]),
    ((2, 3), [[2, 3], [-1, -1]]),
    ((-4, 1, 6), [[-4, 1, 6], [-1, 0, 0], [0, 0, 1]]),
]


@pytest.mark.parametrize("a, expected", PINNED_COMPLETIONS)
def test_extend_to_basis_pinned(a, expected):
    assert extend_to_basis(a) == expected


def test_unimodular_inverse():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 5)
        u = random_unimodular(rng, n)
        inv = mat_inverse_unimodular(u)
        assert mat_mul(u, inv) == identity_matrix(n)


NON_UNIMODULAR = [
    [[2, 0], [0, 1]],
    [[1, 2], [2, 4]],  # singular
    [[1, 0, 0], [0, 1, 0], [1, 1, -3]],  # determinant -3
]


@pytest.mark.parametrize("u", NON_UNIMODULAR)
def test_non_unimodular_input_raises(u):
    n = len(u)
    assert abs(determinant(u)) != 1
    with pytest.raises(ValueError, match="not unimodular"):
        mat_inverse_unimodular(u)
    f = LaurentPolynomial(n, {(0,) * n: 1, (1,) + (0,) * (n - 1): 1})
    with pytest.raises(ValueError, match="not unimodular"):
        monoidal_image(f, u)
    coset = TorsionCoset.from_point(TorsionPoint([Fraction(1, 2)] * n))
    with pytest.raises(ValueError, match="not unimodular"):
        transform(coset, u)


def test_min_assignment_matches_brute_force():
    # least and greatest weight permutations against all n! of them, with
    # negative weights and forbidden (None) entries, for n <= 6
    rng = random.Random(606)

    def brute(weights, best):
        sums = [sum(weights[i][s] for i, s in enumerate(perm))
                for perm in permutations(range(len(weights)))
                if all(weights[i][s] is not None for i, s in enumerate(perm))]
        return best(sums) if sums else None

    checked = infeasible = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        density = rng.choice((0.3, 0.6, 1.0))
        weights = [[rng.randint(-20, 20) if rng.random() < density else None
                    for _ in range(n)] for _ in range(n)]
        negated = [[None if x is None else -x for x in row] for row in weights]
        low = brute(weights, min)
        if low is None:
            infeasible += 1
            with pytest.raises(ValueError, match="forbidden"):
                min_assignment(weights)
            continue
        checked += 1
        assert min_assignment(weights) == low
        assert -min_assignment(negated) == brute(weights, max)
    assert checked >= 150 and infeasible >= 20
