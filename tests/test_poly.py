import random
from fractions import Fraction
from math import lcm

import pytest

from torsioncosets.arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    cyclotomic_polynomial,
    euler_phi,
)
from torsioncosets.lattices import IntegerLattice, identity_matrix
from torsioncosets import poly
from torsioncosets.poly import (
    LaurentPolynomial,
    _dense_divmod,
    _dense_trim,
    cyclotomic_roots,
    multivariate_gcd,
    resultant,
    support_and_lattice,
    univariate_gcd,
)

L = LaurentPolynomial


# ---------------------------------------------------------------------------
# differential oracles for `resultant`: independent of its modular kernel


def _scalar_resultant_reference(a, b):
    # field-arithmetic Euclidean resultant of dense univariate
    # coefficient lists (ascending), in exact cyclotomic arithmetic
    a = _dense_trim(list(a))
    b = _dense_trim(list(b))
    if not a or not b:
        return CyclotomicNumber.zero()
    res = CyclotomicNumber.one()
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return res * (b[0] ** m)
        if m < n:
            if (m * n) % 2 == 1:
                res = -res
            a, b = b, a
            continue
        _, r = _dense_divmod(a, b)
        r = _dense_trim(r)
        if not r:
            return CyclotomicNumber.zero()
        dr = len(r) - 1
        if (m * n) % 2 == 1:
            res = -res
        res = res * (b[n] ** (m - dr))
        a, b = b, r


def _resultant_bareiss(f, g, var):
    # fraction-free Bareiss elimination of the Sylvester matrix over the
    # Laurent polynomials in the remaining variables
    n_out = f.nvars - 1
    fc = f.coefficients_in(var)
    gc = g.coefficients_in(var)
    p = max(fc)
    q = max(gc)
    zero = L.zero(n_out)
    size = p + q
    mat = [[zero] * size for _ in range(size)]
    for i in range(q):
        for k, c in fc.items():
            mat[i][i + (p - k)] = c
    for i in range(p):
        for k, c in gc.items():
            mat[q + i][i + (q - k)] = c
    sign = 1
    prev = L.constant(n_out, 1)
    a = mat
    for k in range(size - 1):
        if a[k][k].is_zero():
            piv = next((i for i in range(k + 1, size) if not a[i][k].is_zero()),
                       None)
            if piv is None:
                return zero
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                if num.is_zero():
                    a[i][j] = zero
                else:
                    quo = num.divide_exact(prev)
                    if quo is None:
                        raise RuntimeError("Bareiss step is not an exact division")
                    a[i][j] = quo
            a[i][k] = zero
        prev = a[k][k]
    det = a[size - 1][size - 1]
    return det if sign == 1 else -det


def poly2(spec):
    # tiny helper: dict {(i,j): coeff}
    return L(2, spec)


def x_plus_y_minus_1():
    return poly2({(1, 0): 1, (0, 1): 1, (0, 0): -1})


def test_support_and_lattice_examples():
    f = poly2({(2, 2): 1, (1, 1): 1, (0, 0): 1})
    _, lat = support_and_lattice(f)
    assert lat.rank == 1
    assert lat.rows == ((1, 1),)
    _, lat = support_and_lattice(x_plus_y_minus_1())
    assert lat == IntegerLattice.full(2)
    _, lat = support_and_lattice(poly2({(0, 0): 5}))
    assert lat.rank == 0
    with pytest.raises(ValueError):
        support_and_lattice(L.zero(2))


def test_lattice_invariant_under_monomial_shift():
    rng = random.Random(1)
    for _ in range(20):
        f = _random_poly(rng, 2, 3, 4)
        if f.is_zero():
            continue
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        g = L.monomial(2, shift, 1) * f
        assert f.exponent_lattice() == g.exponent_lattice()


def test_monoidal_image_examples():
    f = poly2({(1, 1): 1, (0, 0): -1})
    u = [[1, 1], [0, 1]]
    img = f.monoidal_image(u)
    assert img == poly2({(1, 0): 1, (0, 0): -1})
    assert f.monoidal_image(identity_matrix(2)) == f
    swap = [[0, 1], [1, 0]]
    g = x_plus_y_minus_1().monoidal_image(swap)
    assert g == poly2({(0, 1): 1, (1, 0): 1, (0, 0): -1})
    with pytest.raises(ValueError):
        f.monoidal_image([[2, 0], [0, 1]])


def _random_unimodular(rng, n, steps=6):
    u = identity_matrix(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                u[i][k] += c * u[j][k]
    return u


def _random_poly(rng, nvars, max_terms, max_exp, level=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-max_exp, max_exp) for _ in range(nvars))
        c = CyclotomicNumber(level,
                             [rng.randint(-3, 3) for _ in
                              range(2 if level == 4 else 1)])
        if not c.is_zero():
            terms[e] = c
    return L(nvars, terms)


def test_monoidal_roundtrip():
    from torsioncosets.lattices import mat_inverse_unimodular
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(2, 3)
        f = _random_poly(rng, n, 4, 3)
        u = _random_unimodular(rng, n)
        v = mat_inverse_unimodular(u)
        assert f.monoidal_image(u).monoidal_image(v) == f


def test_coset_slices_examples():
    f = poly2({(1, 1): 1, (0, 0): -1})
    slices = f.coset_slices([[1, -1]])
    assert set(slices) == {(0,)}
    assert slices[(0,)] == f

    f = x_plus_y_minus_1()
    slices = f.coset_slices([[1, 1]])
    assert slices[(1,)] == poly2({(1, 0): 1, (0, 1): 1})
    assert slices[(0,)] == poly2({(0, 0): -1})

    slices = f.coset_slices([])
    assert slices == {(): f}


def test_coset_slices_sum():
    rng = random.Random(9)
    for _ in range(20):
        f = _random_poly(rng, 3, 5, 3)
        if f.is_zero():
            continue
        g = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
        slices = f.coset_slices(g)
        total = L.zero(3)
        for s in slices.values():
            total = total + s
        assert total == f


def test_resultant_examples():
    f = x_plus_y_minus_1()
    g = poly2({(2, 0): -1, (0, 2): -1, (0, 0): -1})
    r = resultant(f, g, 1)
    # -2*(x^2 - x + 1), i.e. -2 times the sixth cyclotomic polynomial
    expect = L(1, {(2,): -2, (1,): 2, (0,): -2})
    assert r == expect

    a = L(1, {(1,): 1, (0,): -1})
    b = L(1, {(1,): 1, (0,): 1})
    r = resultant(a, b, 0)
    assert r == L(0, {(): 2})

    shared = x_plus_y_minus_1() * poly2({(1, 0): 1, (0, 1): -2})
    other = x_plus_y_minus_1() * poly2({(0, 1): 1, (0, 0): 3})
    assert resultant(shared, other, 1).is_zero()


def test_resultant_rejects_degenerate():
    f = poly2({(1, 0): 1, (0, 0): -1})  # no y
    with pytest.raises(ValueError):
        resultant(f, x_plus_y_minus_1(), 1)


def _random_poly_full(rng, nvars, max_terms, max_exp, level):
    # like _random_poly (the same draws at level 4), with every
    # power-basis coordinate of the coefficient field drawn
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-max_exp, max_exp) for _ in range(nvars))
        c = CyclotomicNumber(level, [rng.randint(-3, 3)
                                     for _ in range(euler_phi(level))])
        if not c.is_zero():
            terms[e] = c
    return L(nvars, terms)


def _check_resultant(f, g, var):
    r_fg = resultant(f, g, var)
    r_gf = resultant(g, f, var)
    p, q = f.degree_in(var), g.degree_in(var)
    expect = r_fg if (p * q) % 2 == 0 else -r_fg
    assert r_gf == expect
    # the modular kernel agrees with fraction-free Bareiss
    assert _resultant_bareiss(f, g, var) == r_fg


def test_resultant_antisymmetry_and_bareiss_agreement():
    rng = random.Random(13)
    for level, var, count in ((4, 1, 15), (4, 0, 15), (8, 0, 5), (8, 1, 5),
                              (12, 0, 5), (12, 1, 5)):
        done = 0
        while done < count:
            f = _random_poly_full(rng, 2, 4, 2, level)
            g = _random_poly_full(rng, 2, 4, 2, level)
            f, _ = f.strip_monomial_content()
            g, _ = g.strip_monomial_content()
            if f.degree_in(var) == 0 or g.degree_in(var) == 0:
                continue
            done += 1
            _check_resultant(f, g, var)
    # the lacunary shape x^d + y^d + xy + 1 against its sign twist f(-x, y)
    for d in (2, 3, 5, 6):
        f = poly2({(d, 0): 1, (0, d): 1, (1, 1): 1, (0, 0): 1})
        g = f.sign_variant((-1, 1))
        for var in (0, 1):
            _check_resultant(f, g, var)


def test_resultant_vanishes_at_projected_common_zero():
    # (z6, z6^5) is a common zero of f and its (-x^2,-y^2) variant
    f = x_plus_y_minus_1()
    g = poly2({(2, 0): -1, (0, 2): -1, (0, 0): -1})
    r = resultant(f, g, 1)
    w = RootOfUnity(Fraction(1, 6))
    assert r.vanishes_at(TorsionPoint([w.exponent]))


def test_cyclotomic_roots_examples():
    f = L(1, {(2,): 1, (1,): 1, (0,): 1})
    roots, part = cyclotomic_roots(f)
    assert [r.exponent for r in roots] == [Fraction(1, 3), Fraction(2, 3)]
    assert part == f  # x^2 + x + 1 is its own cyclotomic part

    roots, part = cyclotomic_roots(L(1, {(2,): 1, (0,): -2}))
    assert roots == []
    assert part == L.constant(1, 1)

    z4 = CyclotomicNumber.zeta(4)
    roots, _ = cyclotomic_roots(L(1, {(1,): 1, (0,): -z4}))
    assert [r.exponent for r in roots] == [Fraction(1, 4)]


def test_cyclotomic_roots_order_4k():
    # primitive 4th roots are kept (the gcd prefilter must not drop them)
    roots, part = cyclotomic_roots(L(1, {(2,): 1, (0,): 1}))
    assert [r.exponent for r in roots] == [Fraction(1, 4), Fraction(3, 4)]
    assert part == L(1, {(2,): 1, (0,): 1})


def test_cyclotomic_roots_with_multiplicity_and_junk():
    x = L.variable(1, 0)
    one = L.constant(1, 1)
    f = (x - one) * (x - one) * (x + one) * (x * x - 2 * one)
    roots, part = cyclotomic_roots(f)
    assert [r.exponent for r in roots] == [Fraction(0), Fraction(1, 2)]
    assert part == (x - one) * (x + one)


def test_cyclotomic_roots_brute_force_agreement():
    rng = random.Random(23)
    for _ in range(15):
        f = _random_poly(rng, 1, 4, 6)
        if f.is_zero():
            continue
        dense_deg = f.degree_in(0)
        if dense_deg == 0:
            continue
        roots, _ = cyclotomic_roots(f)
        found = {r.exponent for r in roots}
        # brute force over all orders up to 2*(deg*phi(level))^2
        from torsioncosets.arith import euler_phi
        bound = 2 * (dense_deg * euler_phi(f.coefficient_level())) ** 2
        bound = min(bound, 60)
        brute = set()
        for m in range(1, bound + 1):
            for a in range(m):
                from math import gcd
                if gcd(a, m) != 1 and not (a == 0 and m == 1):
                    continue
                pt = TorsionPoint([Fraction(a, m)])
                if f.vanishes_at(pt):
                    brute.add(Fraction(a, m))
        assert brute == {e for e in found if e.denominator <= bound}


def test_multivariate_gcd_examples():
    xm1 = poly2({(1, 0): 1, (0, 0): -1})
    f = xm1 * x_plus_y_minus_1()
    g = xm1 * poly2({(1, 0): 1, (0, 0): 1})
    d = multivariate_gcd(f, g)
    assert d.divide_exact(xm1) is not None and xm1.divide_exact(d) is not None
    assert f.divide_exact(d) is not None
    assert g.divide_exact(d) is not None

    f = x_plus_y_minus_1()
    d = multivariate_gcd(f, f)
    assert d.divide_exact(f) is not None and f.divide_exact(d) is not None

    a = poly2({(1, 0): 1, (0, 1): 1})
    b = poly2({(1, 0): 1, (0, 1): -1})
    assert multivariate_gcd(a, b).is_unit()


def test_multivariate_gcd_random_products():
    rng = random.Random(3)
    done = 0
    while done < 12:
        a = _random_poly(rng, 2, 3, 2)
        b = _random_poly(rng, 2, 3, 2)
        c = _random_poly(rng, 2, 3, 2)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        done += 1
        d = multivariate_gcd(a * b, a * c)
        # a divides the gcd
        assert d.divide_exact(a) is not None
        assert (a * b).divide_exact(d) is not None
        assert (a * c).divide_exact(d) is not None


def test_substitute_root_examples():
    z6 = RootOfUnity(Fraction(1, 6))
    f = x_plus_y_minus_1()
    g = f.substitute_root(0, z6)
    z65 = RootOfUnity(Fraction(5, 6))
    assert g == L(1, {(1,): 1, (0,): -z65.to_cyclotomic()})

    f = poly2({(1, 0): 1, (0, 0): -1})
    assert f.substitute_root(0, RootOfUnity.one()).is_zero()

    f = poly2({(1, 1): 1, (0, 0): -1})
    h = f.substitute_root(0, RootOfUnity.minus_one())
    assert h == L(1, {(1,): -1, (0,): -1})


def test_divide_exact_laurent_units():
    f = x_plus_y_minus_1()
    shifted = L.monomial(2, (-2, 5), CyclotomicNumber.zeta(4)) * f
    q = shifted.divide_exact(f)
    assert q is not None
    assert q * f == shifted
    assert shifted.divide_exact(poly2({(1, 0): 1, (0, 0): 1})) is None


def test_univariate_gcd():
    x = L.variable(1, 0)
    one = L.constant(1, 1)
    f = (x - one) * (x + one)
    g = (x - one) * (x * x + one)
    d = univariate_gcd(f, g)
    assert d == x - one


def test_evaluate_and_vanishes_consistency():
    rng = random.Random(44)
    for _ in range(25):
        f = _random_poly(rng, 2, 4, 3)
        pt = TorsionPoint([Fraction(rng.randint(0, 11), 12),
                           Fraction(rng.randint(0, 7), 8)])
        assert f.vanishes_at(pt) == f.evaluate(pt).is_zero()


def test_resultant_trivariate_matches_bareiss():
    rng = random.Random(99)
    for var, count in ((2, 8), (0, 3), (1, 3)):
        done = 0
        while done < count:
            f = _random_poly(rng, 3, 4, 2)
            g = _random_poly(rng, 3, 4, 2)
            f, _ = f.strip_monomial_content()
            g, _ = g.strip_monomial_content()
            if f.degree_in(var) == 0 or g.degree_in(var) == 0:
                continue
            done += 1
            fast = resultant(f, g, var)
            slow = _resultant_bareiss(f, g, var)
            assert fast == slow


def test_scalar_resultant_matches_reference():
    # univariate inputs against the field-arithmetic reference; resultant
    # clears the monomial content itself, so the reference gets the
    # cleared inputs, and a draw that is constant once cleared is rejected
    rng = random.Random(505)

    def random_dense(level, deg):
        phi = euler_phi(level)
        while True:
            out = [CyclotomicNumber(
                level, [rng.randint(-3, 3) for _ in range(phi)],
                rng.randint(1, 3)) for _ in range(deg + 1)]
            if not out[-1].is_zero():
                return out

    def cleared(dense):
        return dense[next(i for i, c in enumerate(dense) if not c.is_zero()):]

    checked = 0
    for level in (1, 3, 4, 8, 12):
        for _ in range(15):
            a = random_dense(level, rng.randint(0, 5))
            b = random_dense(level, rng.randint(0, 5))
            fa, fb = (L(1, {(i,): c for i, c in enumerate(d)}) for d in (a, b))
            a0, b0 = cleared(a), cleared(b)
            if len(a0) == 1 or len(b0) == 1:
                with pytest.raises(ValueError):
                    resultant(fa, fb, 0)
            else:
                expect = _scalar_resultant_reference(a0, b0)
                assert resultant(fa, fb, 0) == L(0, {(): expect})
            checked += 1
    assert checked == 75


def test_kernel_primes():
    # the kernel's Miller-Rabin against trial division, on a strong
    # pseudoprime to the bases 2..23, and its primes and roots of Phi_N
    def trial(n):
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert ([n for n in range(43, 5000) if poly._is_prime(n)]
            == [n for n in range(43, 5000) if trial(n)])
    assert not poly._is_prime(3825123056546413051)
    for level in (1, 3, 4, 8, 12, 60):
        previous = 2**62
        for index in range(3):
            p, roots, vinv = poly._prime_field(level, index)
            assert (p - 1) % level == 0 and p < previous and poly._is_prime(p)
            previous = p
            cyclo = cyclotomic_polynomial(level)
            assert len(set(roots)) == euler_phi(level)
            for r in roots:
                assert sum(c * pow(r, k, p) for k, c in enumerate(cyclo)) % p == 0
            # vinv inverts the Vandermonde matrix of the roots
            for i, row in enumerate(vinv):
                for k in range(len(roots)):
                    dot = sum(x * pow(r, k, p) for x, r in zip(row, roots)) % p
                    assert dot == (i == k)


def _sweep_poly(rng, nvars, max_exp, level, big, max_den):
    terms = {}
    for _ in range(rng.randint(2, 4)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        c = CyclotomicNumber(level, [rng.randint(-big, big)
                                     for _ in range(euler_phi(level))],
                             rng.randint(1, max_den))
        if not c.is_zero():
            terms[e] = c
    return L(nvars, terms)


def _needs_two_primes(f, g, var):
    # the CRT bound of `resultant` from its definition,
    # B = |d_f f|_1^q |d_g g|_1^p C_N, against the kernel's first prime
    level = lcm(f.coefficient_level(), g.coefficient_level())
    norms = []
    for h in (f, g):
        cs = [c.embed_to_level(level) for c in h.terms.values()]
        d = lcm(*(c.den for c in cs))
        norms.append(sum(abs(x) * (d // c.den) for c in cs for x in c.num))
    c_n = max(abs(x) for k in range(level)
              for x in CyclotomicNumber.zeta(level, k).num)
    bound = norms[0] ** g.degree_in(var) * norms[1] ** f.degree_in(var) * c_n
    return 2 * bound >= poly._prime_field(level, 0)[0]


def test_resultant_differential_sweep():
    # resultant against the Bareiss oracle at every level, number of
    # variables and variable position, with rational and huge (two or
    # more primes) coefficients, plus shared factors (zero resultant) and
    # leading coefficients equal to the kernel's first prime
    rng = random.Random(2718)
    multi_prime = 0
    for level in (1, 3, 4, 8, 12):
        prime = poly._prime_field(level, 0)[0]
        for n in (1, 2, 3, 4):
            max_exp = (3, 3, 2, 1)[n - 1]
            for var in range(n):
                def draw(big, max_den, max_exp=max_exp):
                    while True:
                        h = _sweep_poly(rng, n, max_exp, level, big, max_den)
                        h, _ = h.strip_monomial_content()
                        if h.degree_in(var) > 0:
                            return h

                for big, max_den in ((3, 1), (3, 4), (10**25, 1), (10**25, 5)):
                    f, g = draw(big, max_den), draw(3, max_den)
                    assert resultant(f, g, var) == _resultant_bareiss(f, g, var)
                    multi_prime += _needs_two_primes(f, g, var)
                shared = draw(3, 2, 1)
                f, g = draw(3, 1, 1) * shared, draw(3, 3, 1) * shared
                assert resultant(f, g, var).is_zero()
                # lead coefficient in X_var equal to the first prime: it
                # vanishes mod that prime at every evaluation point
                top = [0] * n
                top[var] = max_exp + 1
                for in_f, in_g in ((True, False), (False, True), (True, True)):
                    f, g = draw(3, 2), draw(3, 1)
                    if in_f:
                        f = f + L.monomial(n, top, prime)
                    if in_g:
                        g = g + L.monomial(n, top, prime)
                    assert _needs_two_primes(f, g, var)
                    assert resultant(f, g, var) == _resultant_bareiss(f, g, var)
    assert multi_prime >= 100
