import random
from fractions import Fraction
from math import gcd

import pytest

from torsioncosets.arith import RootOfUnity, TorsionPoint
from torsioncosets.cosets import (
    TorsionCoset,
    bezout_vector,
    maximal_filter,
    solve_exponent_congruences,
)
from torsioncosets.lattices import IntegerLattice, identity_matrix
from torsioncosets.poly import LaurentPolynomial

from lattice_references import determinant
from poly_references import monoidal_image, transform

L = LaurentPolynomial


def coset(point_exps, rows):
    n = len(point_exps)
    return TorsionCoset(TorsionPoint([Fraction(e) for e in point_exps]),
                        IntegerLattice(n, rows))


def test_bezout_vector():
    rng = random.Random(6)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        a = [rng.randint(-6, 6) for _ in range(n)]
        g = 0
        for x in a:
            g = gcd(g, x)
        if g != 1:
            continue
        done += 1
        b = bezout_vector(a)
        assert sum(x * y for x, y in zip(a, b)) == 1


def test_canonical_key_examples():
    # {(t,1)} shifted by (-1, 1) is the same coset: the shift pairs
    # trivially against the lattice row (0,1)
    c1 = coset([Fraction(1, 2), 0], [[0, 1]])
    c2 = coset([0, 0], [[0, 1]])
    assert c1.canonical_key() == c2.canonical_key()
    assert c1 == c2

    pt = coset([Fraction(1, 3), Fraction(1, 2)], identity_matrix(2))
    assert pt.canonical_key()[1] == (Fraction(1, 3), Fraction(1, 2))

    reordered = coset([0, 0], [[0, 1], [1, 0]])
    plain = coset([0, 0], [[1, 0], [0, 1]])
    assert reordered.canonical_key() == plain.canonical_key()


def test_canonical_key_orbit_invariance():
    rng = random.Random(17)
    for _ in range(30):
        c = coset([Fraction(1, 6), Fraction(2, 3), 0],
                  [[1, 1, 0], [0, 0, 1]])
        # translate the representative inside the coset: any torsion
        # point of the subtorus pairs to zero against the lattice rows
        g_rows = c.exponent_matrix()
        t = rng.randint(0, 11)
        shift_exps = [Fraction(0)] * 3
        for g in g_rows:
            for i, gi in enumerate(g):
                shift_exps[i] += Fraction(t * gi, 12)
        shifted = c.translate(TorsionPoint(shift_exps))
        assert shifted.canonical_key() == c.canonical_key()


def test_subcoset_examples():
    line = coset([0, 0], [[0, 1]])  # {(t, 1)}
    point = TorsionCoset.from_point(TorsionPoint([Fraction(0), Fraction(0)]))
    assert point.is_subcoset_of(line)
    assert line.is_subcoset_of(line)
    z6pt = TorsionCoset.from_point(
        TorsionPoint([Fraction(1, 6), Fraction(5, 6)]))
    assert not z6pt.is_subcoset_of(line)


def test_maximal_filter():
    line = coset([0, 0], [[0, 1]])
    point = TorsionCoset.from_point(TorsionPoint([Fraction(0), Fraction(0)]))
    out = maximal_filter([point, line])
    assert out == [line]

    single = [coset([Fraction(1, 2), 0], [[0, 1]])]
    assert maximal_filter(single) == single

    p1 = TorsionCoset.from_point(TorsionPoint([Fraction(0), Fraction(0)]))
    p2 = TorsionCoset.from_point(TorsionPoint([Fraction(1, 2), Fraction(0)]))
    assert len(maximal_filter([p1, p2, p1])) == 2


def test_transform_examples():
    line = coset([0, 0], [[0, 1]])  # {(t, 1)}
    swap = [[0, 1], [1, 0]]
    swapped = transform(line, swap)
    assert swapped == coset([0, 0], [[1, 0]])  # {(1, t)}

    c = coset([Fraction(1, 6), Fraction(1, 3)], [[2, 3]])
    assert transform(c, identity_matrix(2)) == c
    u = [[1, 2], [1, 1]]
    from torsioncosets.lattices import mat_inverse_unimodular
    v = mat_inverse_unimodular(u)
    assert transform(transform(c, u), v) == c


def test_lies_on_variety_examples():
    xy_minus_1 = L(2, {(1, 1): 1, (0, 0): -1})
    c = coset([0, 0], [[1, 1]])  # {(t, 1/t)}
    assert c.lies_on([xy_minus_1])

    f = L(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
    pt = TorsionCoset.from_point(
        TorsionPoint([Fraction(1, 6), Fraction(5, 6)]))
    assert pt.lies_on([f])

    one = TorsionCoset.from_point(TorsionPoint([Fraction(0), Fraction(0)]))
    assert not one.lies_on([f])


def test_transform_commutes_with_lies_on():
    rng = random.Random(5)
    xy_minus_1 = L(2, {(1, 1): 1, (0, 0): -1})
    c = coset([0, 0], [[1, 1]])
    for _ in range(20):
        u = identity_matrix(2)
        for _ in range(4):
            i, j = rng.randrange(2), rng.randrange(2)
            if i != j:
                f = rng.randint(-2, 2)
                for k in range(2):
                    u[i][k] += f * u[j][k]
        cu = transform(c, u)
        fu = monoidal_image(xy_minus_1, u)
        assert cu.lies_on([fu]) == c.lies_on([xy_minus_1])
        assert cu.lies_on([fu])


def test_congruences_examples():
    sol = solve_exponent_congruences([[2, 0], [0, 2]],
                                     [Fraction(1, 3), Fraction(2, 3)])
    assert sol.consistent
    pts = sol.points()
    assert len(pts) == 4
    got = {tuple(p.exponents()) for p in pts}
    expect = {(a, b)
              for a in (Fraction(1, 6), Fraction(2, 3))
              for b in (Fraction(1, 3), Fraction(5, 6))}
    assert got == expect

    sol = solve_exponent_congruences(identity_matrix(2),
                                     [Fraction(3, 7), Fraction(1, 2)])
    assert [tuple(p.exponents()) for p in sol.points()] == \
        [(Fraction(3, 7), Fraction(1, 2))]

    sol = solve_exponent_congruences([[2, 0], [1, 0]],
                                     [Fraction(1, 2), Fraction(1, 3)])
    assert not sol.consistent
    assert len(sol.class_shifts) == 0


def test_congruences_count_vs_brute_force():
    rng = random.Random(10)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det = determinant(rows)
        if det == 0:
            continue
        done += 1
        s = [Fraction(rng.randint(0, 5), 6) for _ in range(n)]
        sol = solve_exponent_congruences(rows, s)
        assert sol.consistent
        pts = sol.points()
        assert len(pts) == abs(det)
        assert len({tuple(p.exponents()) for p in pts}) == abs(det)
        # every reported solution satisfies the congruences exactly
        for p in pts:
            q = p.exponents()
            for r, si in zip(rows, s):
                assert (sum(ri * qi for ri, qi in zip(r, q)) - si) % 1 == 0
        if n > 2:
            continue
        # full enumeration over denominators dividing det * lcm(den(s))
        m = abs(det)
        for x in s:
            m *= x.denominator
        brute = set()
        from itertools import product
        for combo in product(range(m), repeat=n):
            q = [Fraction(c, m) for c in combo]
            ok = all((sum(r[i] * q[i] for i in range(n)) - si) % 1 == 0
                     for r, si in zip(rows, s))
            if ok:
                brute.add(tuple(q))
        assert brute == {tuple(p.exponents()) for p in pts}


def test_least_point_is_min_over_points():
    # the lex-least solution without listing the solutions, against the
    # listed ones, for square and overdetermined systems, among them the
    # level congruences of minimal_level_normalize (2N I on top)
    rng = random.Random(808)
    checked = 0
    for trial in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(n, n + 2))]
        if trial % 2:
            two_n = rng.choice((2, 6, 8, 24))
            rows = [[two_n * x for x in row] for row in identity_matrix(n)] + rows
        if IntegerLattice(n, rows).rank != n:
            continue
        s = [Fraction(rng.randint(0, 23), 24) for _ in rows]
        sol = solve_exponent_congruences(rows, s)
        if not sol.consistent:
            with pytest.raises(ValueError, match="no solution"):
                sol.least_point()
            continue
        checked += 1
        assert sol.least_point() == min(sol.points(), key=TorsionPoint.exponents)
    assert checked >= 40
    with pytest.raises(ValueError, match="infinite"):
        solve_exponent_congruences([[2, 2]], [Fraction(0)]).least_point()


def test_congruences_positive_dimensional():
    # single constraint 2q1 + 2q2 = 0: two classes on the subtorus of
    # the saturated row (1,1)
    sol = solve_exponent_congruences([[2, 2]], [Fraction(0)])
    assert sol.consistent
    assert sol.homogeneous.rows == ((1, 1),)
    assert len(sol.class_shifts) == 2
    cosets = sol.cosets()
    assert len(cosets) == 2
    keys = {c.canonical_key() for c in cosets}
    assert len(keys) == 2
    for c in cosets:
        # both classes satisfy the original congruence
        assert c.point.power((2, 2)) == RootOfUnity.one()
