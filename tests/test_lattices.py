import random
from fractions import Fraction
from itertools import permutations

import pytest

from torsioncosets.arith import TorsionPoint
from torsioncosets.cosets import TorsionCoset
from torsioncosets.lattices import (
    IntegerLattice,
    determinant,
    extend_to_basis,
    hermite_normal_form,
    identity_matrix,
    mat_inverse_unimodular,
    mat_mul,
    min_assignment,
    orthogonal_complement,
    saturation,
    smith_normal_form,
)
from torsioncosets.poly import LaurentPolynomial


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


def test_saturation_examples():
    assert saturation([[2, 2]]).rows == ((1, 1),)
    assert saturation([[2, 0], [0, 2]]) == IntegerLattice.full(2)
    prim = IntegerLattice(2, [[1, 1]])
    assert prim.saturation() == prim


def test_saturation_idempotent_random():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        a = random_matrix(rng, k, n, -6, 6)
        s = saturation(a, n)
        assert s.saturation() == s
        assert s.contains_lattice(IntegerLattice(n, a))


def test_orthogonal_complement_examples():
    g = orthogonal_complement([[1, 1]])
    assert g.rows == ((1, -1),)
    assert orthogonal_complement(identity_matrix(2)).rows == ()
    g3 = orthogonal_complement([[1, 0, 0]], 3)
    assert g3 == IntegerLattice(3, [[0, 1, 0], [0, 0, 1]])


def test_double_complement_is_saturation():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        rows = random_matrix(rng, k, n, -5, 5) if k else []
        lat = IntegerLattice(n, rows)
        assert lat.orthogonal_complement().orthogonal_complement() == lat.saturation()
        # complement rows really pair to zero
        comp = lat.orthogonal_complement()
        for r in lat.rows:
            for c in comp.rows:
                assert sum(x * y for x, y in zip(r, c)) == 0


def test_gram_det_matches_complement():
    # det(A) = det(complement) for primitive A, via Gram determinants
    rng = random.Random(12)
    done = 0
    while done < 60:
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        lat = saturation(random_matrix(rng, k, n, -4, 4), n)
        if lat.rank != k:
            continue
        done += 1
        comp = lat.orthogonal_complement()
        assert lat.gram_determinant() == comp.gram_determinant()


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
        f.monoidal_image(u)
    coset = TorsionCoset.from_point(TorsionPoint([Fraction(1, 2)] * n))
    with pytest.raises(ValueError, match="not unimodular"):
        coset.transform(u)


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
