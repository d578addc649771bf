import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from torsioncosets.arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    conjugate_exponent,
    _Level,
    _poly_div_exact_int,
    cyclotomic_polynomial,
    euler_phi,
)

from arith_references import reduce_by_division


def zeta(n, k=1):
    return CyclotomicNumber.zeta(n, k)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is phi(n)
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def _reference_cyclotomic_polynomial(n, cache={1: (-1, 1)}):
    # reference: Phi_n = (x^n - 1) / prod of Phi_d over the proper
    # divisors d of n, O(n^2) per level
    if n in cache:
        return cache[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = _reference_cyclotomic_polynomial(d)
            poly = _poly_div_exact_int(poly, list(phi_d))
    cache[n] = tuple(poly)
    return cache[n]


def test_cyclotomic_polynomials_match_divisor_recursion():
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == \
            _reference_cyclotomic_polynomial(n), n
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1, n


def _reference_power(n, k):
    # x^k mod Phi_n by long division (Phi_n is monic)
    return tuple(reduce_by_division([0] * k + [1], n))


def test_level_powers_store_only_powers_from_phi_on():
    for n in (1, 2, 3, 4, 12, 15, 30, 36, 105):
        lv = _Level(n)
        # basis powers are made fresh, the table stays empty
        for k in range(lv.phi):
            assert lv.power(k) == _reference_power(n, k)
        assert lv.high == []
        for k in range(2 * n + 1):
            assert lv.power(k) == _reference_power(n, k % n), (n, k)
        assert len(lv.high) == n - lv.phi
        if lv.phi + 2 < n:
            fresh = _Level(n)
            # a negative exponent, reduced mod n to phi + 2
            assert fresh.power(lv.phi + 2 - n) == lv.power(lv.phi + 2)
            assert len(fresh.high) == 3


def test_basic_identities():
    assert zeta(4) * zeta(4) == CyclotomicNumber.from_rational(-1)
    assert zeta(3) + zeta(3, 2) == CyclotomicNumber.from_rational(-1)
    # sum over all n-th roots of unity is zero
    for n in (3, 4, 5, 6, 8, 12):
        s = CyclotomicNumber.zero()
        for k in range(n):
            s = s + zeta(n, k)
        assert s.is_zero()


def test_inverse_of_zeta8():
    # inv(z8) must be z8^7: verified by multiplying out at level 8
    inv = zeta(8).inverse()
    assert inv == zeta(8, 7)
    assert (zeta(8) * zeta(8, 7)) == CyclotomicNumber.one()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero().inverse()


def test_embedding_examples():
    minus_one = CyclotomicNumber.from_rational(-1)
    assert minus_one.embed_to_level(4) == zeta(4, 2)
    assert zeta(3).embed_to_level(12) == zeta(12, 4)
    assert zeta(4).embed_to_level(8) == zeta(8, 2)
    with pytest.raises(ValueError):
        zeta(3).embed_to_level(8)


def test_embedding_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([1, 3, 4, 5, 8, 12])
        x = _random_cyclo(rng, n)
        m = n * rng.choice([2, 3, 4])
        y = x.embed_to_level(m)
        assert y == x
        assert y.minimal_level().level <= n


def _random_cyclo(rng, n):
    phi = euler_phi(n)
    num = [rng.randint(-5, 5) for _ in range(phi)]
    return CyclotomicNumber(n, num, rng.randint(1, 4))


def test_field_axioms_random():
    rng = random.Random(2024)
    levels = [1, 3, 4, 8, 5, 12]
    for _ in range(60):
        a = _random_cyclo(rng, rng.choice(levels))
        b = _random_cyclo(rng, rng.choice(levels))
        c = _random_cyclo(rng, rng.choice(levels))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == CyclotomicNumber.one()
        assert a + (-a) == CyclotomicNumber.zero()
    # the inverse stays at the stored level: composite levels, a number
    # stored above its minimal level and a rational stored at level 8
    stored = [zeta(6).embed_to_level(12),
              CyclotomicNumber.from_rational(Fraction(-3, 7)).embed_to_level(8)]
    for a in [_random_cyclo(rng, n) for n in (24, 60) for _ in range(10)] + stored:
        b = _random_cyclo(rng, a.level)
        assert (a * b) * a == a * (b * a)
        assert a * (b + a) == a * b + a * a
        if not a.is_zero():
            assert a * a.inverse() == CyclotomicNumber.one()
            assert a.inverse().level == a.level


def test_embedding_commutes_with_arithmetic():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.choice([3, 4, 8])
        m = n * rng.choice([2, 3])
        a = _random_cyclo(rng, n)
        b = _random_cyclo(rng, n)
        assert (a + b).embed_to_level(m) == a.embed_to_level(m) + b.embed_to_level(m)
        assert (a * b).embed_to_level(m) == a.embed_to_level(m) * b.embed_to_level(m)


def test_galois():
    # z3 -> z3^2 is complex conjugation on Q(z3)
    x = zeta(3) + 2
    y = x.galois(2)
    assert y == zeta(3, 2) + 2
    assert x * y == (zeta(3) + 2) * (zeta(3, 2) + 2)
    with pytest.raises(ValueError):
        zeta(4).galois(2)


def test_minimal_level():
    x = zeta(12, 4)  # equals z3
    assert x.minimal_level().level == 3
    y = zeta(8, 2)  # equals z4 = i
    assert y.minimal_level().level == 4
    assert CyclotomicNumber.from_rational(7).minimal_level().level == 1
    # z6 lives in Q(z3): minimal level must be 3, not 6
    z = zeta(6)
    assert z.minimal_level().level == 3


def _minimal_level_fraction(x):
    # reference: for each proper divisor d of the level, solve for the
    # coordinates over the power basis of Q(zeta_d) by Fraction
    # Gauss-Jordan elimination; the first consistent d is the answer
    if x.is_rational():
        return CyclotomicNumber(1, [x.num[0]], x.den)
    n = x.level
    for d in [d for d in range(2, n) if n % d == 0]:
        phd = euler_phi(d)
        cols = [zeta(n, j * (n // d)).num for j in range(phd)]
        mat = [[Fraction(col[i]) for col in cols] + [Fraction(c, x.den)]
               for i, c in enumerate(x.num)]
        r = 0
        pivots = []
        for c in range(phd):
            piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            mat[r] = [v / mat[r][c] for v in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][c]:
                    f = mat[i][c]
                    mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
            pivots.append(c)
            r += 1
        if any(row[phd] for row in mat[r:]):
            continue
        sol = [Fraction(0)] * phd
        for i, c in enumerate(pivots):
            sol[c] = mat[i][phd]
        den = 1
        for q in sol:
            den = lcm(den, q.denominator)
        return CyclotomicNumber(d, [int(q * den) for q in sol], den)
    return x


def test_minimal_level_matches_fraction_elimination():
    rng = random.Random(20261018)
    for n in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 28, 36, 40, 45, 60, 84):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        samples = []
        # elements of every subfield, embedded at level n
        for d in divisors:
            for _ in range(2):
                samples.append(_random_cyclo(rng, d).embed_to_level(n))
        # r * zeta_2N^j, as in the level scans of minimal_level_normalize
        r = _random_cyclo(rng, rng.choice(divisors))
        for j in rng.sample(range(2 * n), 4):
            samples.append(r * zeta(2 * n, j))
        # rationals stored above level 1, and generic elements
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        samples.append(CyclotomicNumber.from_rational(q).embed_to_level(n))
        samples.append(_random_cyclo(rng, n))
        for x in samples:
            got, ref = x.minimal_level(), _minimal_level_fraction(x)
            assert (got.level, got.num, got.den) == (ref.level, ref.num, ref.den)
            assert got == x


def test_root_of_unity_basics():
    w = RootOfUnity(Fraction(5, 6))
    assert w.order == 6
    assert (w * w).exponent == Fraction(2, 3)
    assert w.inverse() * w == RootOfUnity.one()
    assert w ** 6 == RootOfUnity.one()
    assert RootOfUnity(Fraction(7, 6)).exponent == Fraction(1, 6)
    assert w.to_cyclotomic() == zeta(6, 5)
    assert w.to_cyclotomic(12) == zeta(12, 10)


def test_point_power_examples():
    q = TorsionPoint([Fraction(1, 6), Fraction(5, 6)])
    assert q.power((1, 1)) == RootOfUnity.one()
    q2 = TorsionPoint([Fraction(1, 4), Fraction(0)])
    assert q2.power((2, 3)) == RootOfUnity.minus_one()
    assert q2.power((0, 0)) == RootOfUnity.one()


def test_point_power_additive():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        q = TorsionPoint([Fraction(rng.randint(0, 11), 12) for _ in range(n)])
        u = [rng.randint(-4, 4) for _ in range(n)]
        v = [rng.randint(-4, 4) for _ in range(n)]
        uv = [a + b for a, b in zip(u, v)]
        assert q.power(uv) == q.power(u) * q.power(v)


def test_conjugate_exponent_cases():
    # m = 4k: p = 2k+1 and w^p = -w
    assert conjugate_exponent(12) == 7
    # m = 2k, k odd: p = k+2 and w^p = -w^2
    assert conjugate_exponent(6) == 5
    # m odd: p = 2
    assert conjugate_exponent(5) == 2


def test_conjugate_exponent_identity_all_cases():
    for m in range(1, 61):
        p = conjugate_exponent(m)
        w = RootOfUnity(Fraction(1, m))
        wp = w ** p
        if m % 4 == 0:
            # w^p = -w
            assert wp == RootOfUnity(w.exponent + Fraction(1, 2))
        elif m % 2 == 0:
            assert wp == RootOfUnity(2 * w.exponent + Fraction(1, 2))
        else:
            assert wp == w ** 2
        # p is a valid Galois exponent: conjugates keep the order
        assert gcd(p, m) == 1 or m == 1


def test_point_order():
    q = TorsionPoint([Fraction(1, 2), Fraction(1, 3)])
    assert q.order == 6
    assert TorsionPoint.ones(3).order == 1
