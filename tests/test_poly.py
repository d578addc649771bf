import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from torsioncosets.arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    _level,
    cyclotomic_polynomial,
    euler_phi,
)
from torsioncosets.lattices import IntegerLattice, identity_matrix
from torsioncosets import poly
from torsioncosets.poly import (
    LaurentPolynomial,
    cyclotomic_roots,
    multivariate_gcd,
    resultant,
    squarefree_part,
)

from poly_references import (
    _interpolate as reference_interpolate,
    _sylvester_mod as reference_sylvester_mod,
    monoidal_image,
    single_pair_resultant,
    specialize,
)

L = LaurentPolynomial


# ---------------------------------------------------------------------------
# dense univariate reference: lists of CyclotomicNumber, ascending, with a
# primitive pseudo-remainder gcd that shares no code with multivariate_gcd


def _to_dense(f: LaurentPolynomial) -> list[CyclotomicNumber]:
    if f.nvars != 1:
        raise ValueError("univariate polynomial expected")
    g, _ = f.strip_monomial_content()
    if g.is_zero():
        return []
    deg = max(e[0] for e in g.terms)
    out = [CyclotomicNumber.zero() for _ in range(deg + 1)]
    for e, c in g.terms.items():
        out[e[0]] = c
    return out


def _from_dense(coeffs) -> LaurentPolynomial:
    return LaurentPolynomial(1, {(i,): c for i, c in enumerate(coeffs)
                                 if not c.is_zero()})


def _dense_trim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _dense_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    lead_inv = b[db].inverse()
    q = [CyclotomicNumber.zero()] * max(len(a) - db, 1)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[db + k]
        if c.is_zero():
            continue
        f = c * lead_inv
        q[k] = f
        for i in range(db + 1):
            a[k + i] = a[k + i] - f * b[i]
    return _dense_trim(q), _dense_trim(a[:db])


def _primitive_scale(dense):
    """dense divided by a positive rational so that its coordinates are
    integers of content one."""
    d = 1
    for c in dense:
        d = lcm(d, c.den)
    g = 0
    vecs = []
    for c in dense:
        mult = d // c.den
        v = [x * mult for x in c.num]
        vecs.append((c.level, v))
        for x in v:
            if x:
                g = gcd(g, x)
    if g == 0:
        return list(dense)
    return [CyclotomicNumber(lev, [x // g for x in v]) for lev, v in vecs]


def _dense_prem(a, b):
    # pseudo-remainder: lc(b)^(deg a - deg b + 1) * (a mod b)
    m, n = len(a) - 1, len(b) - 1
    lcb = b[n]
    r = list(a)
    for k in range(m - n, -1, -1):
        coef = r[n + k]
        r = [lcb * c for c in r]
        if not coef.is_zero():
            for i in range(n + 1):
                r[k + i] = r[k + i] - coef * b[i]
    return _dense_trim(r[:m])


def _dense_gcd(a, b):
    """Monic gcd over the coefficient field, computed by a primitive
    pseudo-remainder sequence (fraction-free: intermediate coefficients
    stay integral and content-stripped)."""
    a = _dense_trim(list(a))
    b = _dense_trim(list(b))
    if not a or not b:
        keep = a or b
        if keep:
            inv = keep[-1].inverse()
            keep = [c * inv for c in keep]
        return keep
    a = _primitive_scale(a)
    b = _primitive_scale(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _dense_prem(a, b)
        if not r:
            break
        r = _primitive_scale(r)
        a, b = b, r
    if len(b) == 1:
        return [CyclotomicNumber.one()]
    inv = b[-1].inverse()
    return [c * inv for c in b]


def _dense_derivative(a):
    return _dense_trim([a[i] * i for i in range(1, len(a))])


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


# ---------------------------------------------------------------------------
# the former exact evaluators at a torsion point, kept as references:
# field arithmetic term by term, and the accumulator kernel over
# denominator-cleared rows


def _reference_evaluate(f, point):
    total = CyclotomicNumber.zero()
    for e, c in f.terms.items():
        total = total + c * point.power(e).to_cyclotomic()
    return total


def _reference_substitute_root(f, var, root):
    # the former specialization X_var = root: one field product per term
    out = {}
    for e, c in f.terms.items():
        rest = e[:var] + e[var + 1:]
        val = c * (root ** e[var]).to_cyclotomic()
        out[rest] = out[rest] + val if rest in out else val
    return L(f.nvars - 1, out)


def _reference_scale_variables(f, roots):
    # the former f(w_1 X_1, ..., w_n X_n): c * w^e term by term
    point = TorsionPoint(roots)
    return L(f.nvars, {e: c * point.power(e).to_cyclotomic()
                       for e, c in f.terms.items()})


def _reference_coset_slices(f, g_rows):
    # the former partition of the terms by e * G^T, one polynomial each
    slices = {}
    for e, c in f.terms.items():
        j = tuple(sum(x * y for x, y in zip(e, g)) for g in g_rows)
        slices.setdefault(j, {})[e] = c
    return {j: L(f.nvars, t) for j, t in slices.items()}


def _reference_eval_data(f):
    # precomputed (exponent, level, numerator vector, scaled) rows
    # with denominators cleared; vanishing is denominator-free
    den = 1
    for c in f.terms.values():
        den = lcm(den, c.den)
    rows = []
    for e, c in f.terms.items():
        rows.append((e, c.level, c.num, den // c.den))
    return rows


def _reference_vanishes_at_root_terms(rows, point: TorsionPoint) -> bool:
    level = 1
    m = 1
    for c in point:
        m = lcm(m, c.order)
    for _, lev, _, _ in rows:
        level = lcm(level, lev)
    big = lcm(level, m)
    acc = [0] * big
    exps = point.exponents()
    for e, lev, num, mult in rows:
        # zeta_big exponent of the monomial value at the point
        frac = Fraction(0)
        for x, q in zip(e, exps):
            if x:
                frac += x * q
        pos0 = int(frac * big) % big
        step = big // lev
        for k, c in enumerate(num):
            if c:
                p = (pos0 + k * step) % big
                acc[p] += c * mult
    if not any(acc):
        return True
    lv = _level(big)
    phi = lv.phi
    red = [0] * phi
    for p, c in enumerate(acc):
        if c:
            if p < phi:
                red[p] += c
            else:
                pw = lv.power(p)
                for i, x in enumerate(pw):
                    if x:
                        red[i] += c * x
    return not any(red)


# ---------------------------------------------------------------------------
# differential oracles for the univariate layer: exact arithmetic only,
# no residue modulo a prime


def _squarefree_exact(f):
    # f / gcd(f, f') by the exact pseudo-remainder gcd alone
    a = _to_dense(f)
    d = _dense_derivative(a)
    if len(d) <= 1:
        return _from_dense(a)
    g = _dense_gcd(a, d)
    if len(g) == 1:
        return _from_dense(a)
    q, r = _dense_divmod(a, g)
    assert not r
    return _from_dense(q)


def _dense_mul(a, b):
    out = [CyclotomicNumber.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _dense_trim(out)


def _dense_compose_power(a, factor, sign):
    # a(sign * X^factor) for sign in {1, -1}
    out = [CyclotomicNumber.zero() for _ in range((len(a) - 1) * factor + 1)]
    for i, c in enumerate(a):
        out[i * factor] = c if (sign == 1 or i % 2 == 0) else -c
    return out


def _rational_prefilter(a):
    # shrink a rational squarefree polynomial while keeping every root of
    # unity: h <- gcd(h, h(-X) h(X^2) h(-X^2)); any root of unity w has a
    # conjugate among -w, w^2, -w^2
    while len(a) > 2:
        prod = _dense_mul(_dense_compose_power(a, 1, -1),
                          _dense_mul(_dense_compose_power(a, 2, 1),
                                     _dense_compose_power(a, 2, -1)))
        g = _dense_gcd(a, prod)
        if len(g) == len(a) or len(g) <= 1:
            return g
        a = g
    return a


def _cyclotomic_roots_exact(g):
    # the root finder with every candidate orbit tested exactly
    if len(g.terms) == 1:
        return []
    h = _to_dense(_squarefree_exact(g))
    level = lcm(*(c.level for c in h))
    if level == 1:
        h = _rational_prefilter(h)
        if len(h) <= 1:
            return []
    rows = _reference_eval_data(_from_dense(h))
    deg, phi_n = len(h) - 1, euler_phi(level)
    roots, found_degree = [], 0
    for d in poly._orders_with_phi_at_most(deg * phi_n):
        big = lcm(d, level)
        if found_degree >= deg or found_degree + euler_phi(big) // phi_n > deg:
            continue
        for orbit in poly._unit_orbits(d, big, level):
            if _reference_vanishes_at_root_terms(
                    rows, TorsionPoint([Fraction(orbit[0], d)])):
                roots += [RootOfUnity(Fraction(a, d)) for a in orbit]
                found_degree += len(orbit)
    return sorted(roots)


def poly2(spec):
    # tiny helper: dict {(i,j): coeff}
    return L(2, spec)


def x_plus_y_minus_1():
    return poly2({(1, 0): 1, (0, 1): 1, (0, 0): -1})


def test_support_and_lattice_examples():
    f = poly2({(2, 2): 1, (1, 1): 1, (0, 0): 1})
    assert f.support() == {(2, 2), (1, 1), (0, 0)}
    lat = f.exponent_lattice()
    assert lat.rank == 1
    assert lat.rows == ((1, 1),)
    assert x_plus_y_minus_1().exponent_lattice() == IntegerLattice.full(2)
    assert poly2({(0, 0): 5}).exponent_lattice().rank == 0
    assert L.zero(2).support() == set()
    with pytest.raises(ValueError):
        L.zero(2).exponent_lattice()


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
    img = monoidal_image(f, u)
    assert img == poly2({(1, 0): 1, (0, 0): -1})
    assert monoidal_image(f, identity_matrix(2)) == f
    swap = [[0, 1], [1, 0]]
    g = monoidal_image(x_plus_y_minus_1(), swap)
    assert g == poly2({(0, 1): 1, (1, 0): 1, (0, 0): -1})
    with pytest.raises(ValueError):
        monoidal_image(f, [[2, 0], [0, 1]])


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
        assert monoidal_image(monoidal_image(f, u), v) == f


def test_slice_values_examples():
    z6, z65 = RootOfUnity(Fraction(1, 6)), RootOfUnity(Fraction(5, 6))
    # x*y - 1 is one slice for G = (1, -1); it vanishes where x*y = 1
    f = poly2({(1, 1): 1, (0, 0): -1})
    assert f.slice_values(TorsionPoint([z6, z65]), [[1, -1]]) == {(0,): 0}

    # x + y - 1 for G = (1, 1): the slices x + y and -1
    f = x_plus_y_minus_1()
    values = f.slice_values(TorsionPoint([z6, z65]), [[1, 1]])
    assert values == {(1,): 1, (0,): -1}
    assert f.slice_values(TorsionPoint([z6, z65]), []) == {(): 0}

    # a point shorter than nvars sets the leading variables only
    values = f.slice_values(TorsionPoint([z6]), [[0, 1]])
    assert values == {(1,): 1, (0,): -z65.to_cyclotomic()}
    assert L.zero(2).slice_values(TorsionPoint([z6]), [[0, 1]]) == {}
    with pytest.raises(ValueError):
        f.slice_values(TorsionPoint([z6, z6, z6]), [])


def test_slice_values_sum():
    # the slice values sum to the value of f
    rng = random.Random(9)
    for _ in range(20):
        f = _random_poly(rng, 3, 5, 3)
        if f.is_zero():
            continue
        g = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
        point = _random_point(rng, 3, rng.randint(1, 12))
        values = f.slice_values(point, g)
        assert len(values) == len({tuple(sum(x * y for x, y in zip(e, r))
                                         for r in g) for e in f.terms})
        total = CyclotomicNumber.zero()
        for v in values.values():
            total = total + v
        assert total == f.evaluate(point)


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
    roots = cyclotomic_roots(f)
    assert [r.exponent for r in roots] == [Fraction(1, 3), Fraction(2, 3)]

    assert cyclotomic_roots(L(1, {(2,): 1, (0,): -2})) == []

    z4 = CyclotomicNumber.zeta(4)
    roots = cyclotomic_roots(L(1, {(1,): 1, (0,): -z4}))
    assert [r.exponent for r in roots] == [Fraction(1, 4)]


def test_cyclotomic_roots_order_4k():
    # primitive 4th roots are kept (the gcd prefilter must not drop them)
    roots = cyclotomic_roots(L(1, {(2,): 1, (0,): 1}))
    assert [r.exponent for r in roots] == [Fraction(1, 4), Fraction(3, 4)]


def test_cyclotomic_roots_with_multiplicity_and_junk():
    x = L.variable(1, 0)
    one = L.constant(1, 1)
    f = (x - one) * (x - one) * (x + one) * (x * x - 2 * one)
    roots = cyclotomic_roots(f)
    assert [r.exponent for r in roots] == [Fraction(0), Fraction(1, 2)]


def test_cyclotomic_roots_brute_force_agreement():
    rng = random.Random(23)
    for _ in range(15):
        f = _random_poly(rng, 1, 4, 6)
        if f.is_zero():
            continue
        dense_deg = f.degree_in(0)
        if dense_deg == 0:
            continue
        roots = cyclotomic_roots(f)
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
    # the common factor and one whole input free of y, the main variable:
    # the gcd is the gcd of the contents in y
    a = poly2({(1, 0): 1, (0, 0): 2})
    b = poly2({(2, 0): 1, (0, 0): -3})
    c = poly2({(1, 1): 1, (0, 2): 1, (0, 0): 1})
    for f, g in ((a * b, a * c), (a * c, a * b)):
        d = multivariate_gcd(f, g)
        assert d.divide_exact(a).is_unit()
        assert f.divide_exact(d) is not None
        assert g.divide_exact(d) is not None


def test_specialize_examples():
    z6 = RootOfUnity(Fraction(1, 6))
    f = x_plus_y_minus_1()
    g = specialize(f, TorsionPoint([z6]))
    z65 = RootOfUnity(Fraction(5, 6))
    assert g == L(1, {(1,): 1, (0,): -z65.to_cyclotomic()})
    point = TorsionPoint([z6, z65])
    assert specialize(f, point) == L.constant(0, f.evaluate(point))
    assert specialize(f, TorsionPoint([])) == f

    f = poly2({(1, 0): 1, (0, 0): -1})
    assert specialize(f, TorsionPoint([RootOfUnity.one()])).is_zero()

    f = poly2({(1, 1): 1, (0, 0): -1})
    h = specialize(f, TorsionPoint([RootOfUnity.minus_one()]))
    assert h == L(1, {(1,): -1, (0,): -1})


def test_divide_exact_laurent_units():
    f = x_plus_y_minus_1()
    shifted = L.monomial(2, (-2, 5), CyclotomicNumber.zeta(4)) * f
    q = shifted.divide_exact(f)
    assert q is not None
    assert q * f == shifted
    assert shifted.divide_exact(poly2({(1, 0): 1, (0, 0): 1})) is None


def test_evaluate_and_vanishes_consistency():
    rng = random.Random(44)
    for _ in range(25):
        f = _random_poly(rng, 2, 4, 3)
        pt = TorsionPoint([Fraction(rng.randint(0, 11), 12),
                           Fraction(rng.randint(0, 7), 8)])
        assert f.vanishes_at(pt) == f.evaluate(pt).is_zero()


def _evaluation_coefficient(rng, level):
    # +-zeta_d^j for a d dividing the level, or a random nonzero element
    # of Q(zeta_level), divided by a small integer 40% of the time
    c = CyclotomicNumber.zero()
    if rng.random() < 0.7:
        d = rng.choice([d for d in range(1, level + 1) if level % d == 0])
        c = CyclotomicNumber.zeta(d, rng.randrange(d)) * rng.choice((1, -1))
    while c.is_zero():
        c = CyclotomicNumber(level, [rng.randint(-2, 2)
                                     for _ in range(euler_phi(level))])
    if rng.random() < 0.4:
        c = c * Fraction(1, rng.randint(2, 6))
    return c


def _random_point(rng, n, m):
    return TorsionPoint([Fraction(rng.randrange(m), m) for _ in range(n)])


def test_evaluate_matches_reference_evaluators():
    # evaluate against the former field-arithmetic evaluate in value, at
    # level lcm(N, m), and vanishes_at against the former accumulator
    # kernel; every draw with a planted factor X^e - w(e) vanishes at w
    rng = random.Random(15)
    orders = list(range(1, 31))
    zeros = compared = 0
    for n in (1, 2, 3):
        for level in (1, 3, 4, 8, 12, 24):
            for draw in range(12):
                if draw == 0:
                    f = L(n, {})
                elif draw == 1:
                    f = L.constant(n, _evaluation_coefficient(rng, level))
                else:
                    f = L(n, {tuple(rng.randint(-3, 3) for _ in range(n)):
                              _evaluation_coefficient(rng, level)
                              for _ in range(rng.randint(1, 4))})
                points = [_random_point(rng, n, rng.choice(orders))
                          for _ in range(3)]
                e = tuple(rng.randint(-2, 2) for _ in range(n))
                if draw > 1 and draw % 2 and any(e):
                    w = points[0].power(e).to_cyclotomic()
                    f = f * L(n, {e: 1, (0,) * n: -w})
                    assert f.vanishes_at(points[0])
                for point in points:
                    value = f.evaluate(point)
                    assert value == _reference_evaluate(f, point)
                    assert value.level == lcm(f.coefficient_level(),
                                              point.order)
                    verdict = _reference_vanishes_at_root_terms(
                        _reference_eval_data(f), point)
                    assert f.vanishes_at(point) == verdict == value.is_zero()
                    if draw == 0:
                        assert verdict
                    elif draw == 1:
                        assert not verdict
                    zeros += verdict
                    compared += 1
    assert compared > 3 * zeros > 150


def test_slice_kernel_matches_field_references():
    # slice_values, specialize, scale_variables, sign_variant and
    # lies_on against the former field-arithmetic paths: the chain of
    # one-variable substitutions, c * w^e term by term, and the coset
    # slices evaluated one by one; a planted factor X^a - w^a for a row
    # a of the coset lattice makes f vanish on the whole coset
    from torsioncosets.cosets import TorsionCoset
    rng = random.Random(16)
    orders = list(range(1, 31))
    planted = on = compared = 0
    for n in (1, 2, 3):
        for level in (1, 3, 4, 8, 12):
            for draw in range(10):
                if draw == 0:
                    f = L(n, {})
                else:
                    f = L(n, {tuple(rng.randint(-3, 3) for _ in range(n)):
                              _evaluation_coefficient(rng, level)
                              for _ in range(rng.randint(1, 4))})
                point = _random_point(rng, n, rng.choice(orders))
                rank = rng.randint(0, n)
                lattice = IntegerLattice(n, _random_unimodular(rng, n)[:rank])
                coset = TorsionCoset(point, lattice)
                if draw % 2 and rank:
                    a = lattice.rows[0]
                    w = point.power(a).to_cyclotomic()
                    f = f * L(n, {a: 1, (0,) * n: -w})
                    planted += 1
                big = lcm(f.coefficient_level(), point.order)

                g = coset.exponent_matrix()
                values = f.slice_values(point, g)
                slices = _reference_coset_slices(f, g)
                assert set(values) == set(slices)
                for key, piece in slices.items():
                    assert values[key] == _reference_evaluate(piece, point)
                    assert values[key].level == big
                verdict = all(not _reference_evaluate(piece, point)
                              for piece in slices.values())
                assert coset.lies_on([f]) == verdict
                if draw % 2 and rank:
                    assert verdict
                on += verdict
                compared += 1

                k = rng.randint(0, n)
                lead = TorsionPoint(list(point)[:k])
                chain = f
                for w in lead:
                    chain = _reference_substitute_root(chain, 0, w)
                spec = specialize(f, lead)
                assert spec.nvars == n - k and spec == chain
                assert all(c.level == lcm(f.coefficient_level(), lead.order)
                           for c in spec.terms.values())

                roots = list(point)
                assert (f.scale_variables(roots)
                        == _reference_scale_variables(f, roots))
                eps = tuple(rng.choice((1, -1)) for _ in range(n))
                signs = [RootOfUnity.one() if s == 1 else RootOfUnity.minus_one()
                         for s in eps]
                twist = f.sign_variant(eps)
                assert twist == _reference_scale_variables(f, signs)
                assert all(twist.terms[e].level == c.level
                           for e, c in f.terms.items())
    assert compared > 2 * on > 2 * planted > 40


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


def _galois_twist(f, level):
    # sigma: zeta -> -zeta at a level divisible by 4, zeta -> zeta^2 at
    # an odd level, on each coefficient at its stored level
    k = level // 2 + 1 if level % 4 == 0 else 2
    return f.map_coefficients(
        lambda c: c if c.level == 1 else c.galois(k % c.level))


def _twisted_family(f, level):
    # the members of solver.auxiliary_polynomials, each with its name:
    # f(eps X), eps != 1, then sigma(f)(eps X) at a level divisible by 4
    # (paired) or sigma(f)(eps X^2) at an odd level (stretched)
    signs = list(itertools.product((1, -1), repeat=f.nvars))
    sigma = _galois_twist(f, level)
    stretch = 1 if level % 4 == 0 else 2
    return ([(f.sign_variant(eps), poly.Twist("sign", eps))
             for eps in signs[1:]]
            + [(sigma.sign_variant(eps).stretch_exponents(stretch),
                poly.Twist("galois", eps)) for eps in signs])


def test_resultant_family_matches_single_pair_kernel():
    # every resultant of a twisted family, each member read from f's rows
    # through one ResultantFamily, equals the single-pair kernel it
    # replaced, which evaluates g itself
    rng = random.Random(4242)
    kinds = {}
    zero = 0
    for level in (1, 3, 4, 8, 12):
        for n in (2, 3):
            max_exp, var = (3 if n == 2 else 2), n - 1

            def draw(max_exp, big, max_den):
                while True:
                    f = _sweep_poly(rng, n, max_exp, level, big, max_den)
                    if f.degree_in(var) > 0:
                        return f

            draws = [draw(max_exp, 3, 1), draw(max_exp, 10**12, 3)]
            # the leading coefficients x_1 - 1 and x_1 + 1 in X_var vanish
            # at the nodes t_1 = 1 and t_1 = -1 of every window, in f and
            # in every member that keeps (flips) the sign of x_1
            top = [0] * n
            top[var] = max_exp + 1
            draws += [draws[0] + L.monomial(n, top) * (L.variable(n, 0) + c)
                      for c in (-1, 1)]
            # f = f0 h with h = sigma(f0)(eps X) (paired) or f0(eps X):
            # the member sigma(f)(eps X) or f(eps X) is f itself, and its
            # resultant is zero
            f0 = draw(1, 3, 1)
            eps = rng.choice(list(itertools.product((1, -1), repeat=n))[1:])
            h = _galois_twist(f0, level) if level % 4 == 0 else f0
            draws.append(f0 * h.sign_variant(eps))
            for f in draws:
                family = poly.ResultantFamily(f, var)
                for g, twist in _twisted_family(f, level):
                    got = resultant(family, g, var, twist)
                    assert got == single_pair_resultant(f, g, var), (f, g)
                    kind = "half-grid" if -1 in twist.eps[:var] else "sign"
                    if twist.kind == "galois":
                        kind = "paired" if level % 4 == 0 else "stretched"
                    kinds[kind] = kinds.get(kind, 0) + 1
                    zero += got.is_zero()
    assert kinds["paired"] == 3 * 5 * (4 + 8)
    assert kinds["stretched"] == 2 * 5 * (4 + 8)
    assert kinds["half-grid"] == 5 * 5 * (2 + 6)
    assert kinds["sign"] == 5 * 5 * (1 + 1) and zero >= 10


def test_determinant_matches_reference_kernel():
    # the fraction-free determinant (num, den) against the reference's
    # Euclid with one inverse per step, on shapes up to (12, 24): small
    # primes make leading coefficients, remainders and their leading
    # coefficients vanish often, and planted common factors and exact
    # divisions give zero remainders
    rng = random.Random(2727)
    seen = set()
    for p in (5, 7, 101, poly._prime_field(1, 0)[0]):
        for _ in range(400):
            m, n = rng.randint(1, 12), rng.randint(1, 24)
            case = rng.randrange(4)
            a = [rng.randrange(p) for _ in range(m + 1)]
            b = [rng.randrange(p) for _ in range(n + 1)]
            if case == 1 and n < m:
                # b divides a: the first remainder is zero
                c = [rng.randrange(p) for _ in range(m - n + 1)]
                a = [sum(b[i] * c[k - i] for i in range(n + 1)
                         if 0 <= k - i <= m - n) % p for k in range(m + 1)]
            if case == 2:
                # a common factor: a later remainder is zero
                h = [rng.randrange(p)
                     for _ in range(rng.randint(2, min(m, n) + 1))]
                a = [x % p for x in _poly_mul(h, a[:m + 2 - len(h)])]
                b = [x % p for x in _poly_mul(h, b[:n + 2 - len(h)])]
            if case == 3:
                # one or more leading coefficients vanish, on either side
                za, zb = rng.randint(0, m), rng.randint(0, n)
                a[m + 1 - za:] = [0] * za
                b[n + 1 - zb:] = [0] * zb
            saved = (list(a), list(b))
            num, den = poly._sylvester_mod(a, b, p)
            assert (a, b) == saved
            assert den % p and 0 <= num < p
            want = reference_sylvester_mod(list(a), list(b), p)
            assert num * pow(den, -1, p) % p == want, (a, b, p)
            seen.add((case, m < n, want == 0, not a[-1], not b[-1]))
    assert {(2, True, True), (2, False, True), (1, False, True)} <= {
        c[:3] for c in seen}
    assert any(c[3] for c in seen) and any(c[4] for c in seen)


def _poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def test_batch_inverse_and_interpolation_on_signed_nodes():
    rng = random.Random(2728)
    for p in (7, 101, poly._prime_field(4, 0)[0]):
        for count in (0, 1, 2, 5, 40):
            xs = [rng.randrange(1, p) for _ in range(count)]
            assert [x * y % p for x, y in
                    zip(xs, poly._batch_inverse(xs, p))] == [1] * count
        # the nodes 1, -1, 2, -2, ...: distinct and nonzero modulo p, and
        # interpolation through them returns the sampled polynomial, as
        # the reference does on the nodes 1, ..., s
        for size in (1, 2, 3, 6, 7):
            if 2 * size >= p:
                continue
            nodes = poly._nodes(size)
            assert len({t % p for t in nodes}) == size and 0 not in nodes
            inv = [0] + [pow(d, -1, p) for d in range(1, size + 1)]
            inv += [-x % p for x in inv[:0:-1]]
            coeffs = [rng.randrange(p) for _ in range(size)]
            vals = [sum(c * t ** k for k, c in enumerate(coeffs)) % p
                    for t in nodes]
            assert poly._interpolate(vals, nodes, inv, p) == coeffs
            at = [sum(c * t ** k for k, c in enumerate(coeffs)) % p
                  for t in range(1, size + 1)]
            assert reference_interpolate(at, inv[:size], p) == coeffs
            assert poly._interpolate(at, list(range(1, size + 1)), inv,
                                     p) == coeffs


def _support_range(h, axis):
    exps = [e[axis] for e in h.terms]
    return min(exps), max(exps)


def test_resultant_window_contains_bareiss_support():
    # every exponent of the Bareiss resultant lies in the proven window
    # [lo_j, hi_j] of `resultant`, on every axis, for generic draws and
    # for projected supports that are segments (binomials) or points (a
    # variable absent from both inputs), for resultants with a monomial
    # factor (lo_j > 0), and for leading coefficients in X_var that
    # vanish at a sample node t = 1 or 2 of the kernel
    rng = random.Random(1729)
    shifted = 0
    for level in range(1, 13):
        for n in (2, 3, 4):
            max_exp = (3, 2, 1)[n - 2]
            for var in range(n):
                axis = rng.choice([j for j in range(n) if j != var])
                up = [0] * n
                up[var] = 1
                x_axis = [0] * n
                x_axis[axis] = 1

                def draw(absent=False, low_factor=False):
                    while True:
                        h = _sweep_poly(rng, n, max_exp, level, 3, 2)
                        if absent:
                            h = L(n, {e[:axis] + (0,) + e[axis + 1:]: c
                                      for e, c in h.terms.items()})
                        if low_factor:
                            # the coefficient of X_var^0 divisible by X_axis
                            base = _sweep_poly(rng, n, max_exp, level, 3, 1)
                            base = L(n, {e[:var] + (0,) + e[var + 1:]: c
                                         for e, c in base.terms.items()})
                            h = (h * L.monomial(n, up)
                                 + base * L.monomial(n, x_axis))
                        h, _ = h.strip_monomial_content()
                        if low_factor and any(e[var] == 0 == e[axis]
                                              for e in h.terms):
                            continue
                        if h.degree_in(var) > 0:
                            return h

                a = [0] * n
                a[var] = rng.randint(1, max_exp)
                a[axis] = rng.randint(0, max_exp)
                lead = (L.monomial(n, x_axis) - rng.randint(1, 2)) * L.monomial(
                    n, [(max_exp + 1) * x for x in up],
                    CyclotomicNumber.zeta(level, 1))
                # one generic pair and one special pair per draw, in turn
                kind = 1 + (level + n + var) % 4
                special = (
                    (L(n, {tuple(a): CyclotomicNumber.zeta(level, 1),
                           (0,) * n: 1}), draw()) if kind == 1 else
                    (draw(absent=True), draw(absent=True)) if kind == 2 else
                    (draw(low_factor=True), draw(low_factor=True))
                    if kind == 3 else (draw() + lead, draw()))
                pairs = [(0, (draw(), draw())), (kind, special)]
                for kind, (f, g) in pairs:
                    window = poly._exponent_window(f, g, var)
                    exact = _resultant_bareiss(f, g, var)
                    assert resultant(f, g, var) == exact
                    for j, (lo, hi) in enumerate(window):
                        assert lo <= hi
                        if not exact.is_zero():
                            low, high = _support_range(exact, j)
                            assert lo <= low and high <= hi
                    j = axis - (axis > var)
                    if kind == 2:
                        assert window[j] == (0, 0)
                    if kind == 3 and not exact.is_zero():
                        assert window[j][0] > 0
                        shifted += 1
    assert shifted >= 20
    # a generic bivariate pair attains its window exactly
    f = L(2, {(0, 0): 2, (1, 0): 3, (2, 1): -1, (0, 2): 5, (3, 2): 7})
    g = L(2, {(0, 0): 1, (2, 0): -4, (1, 1): 6, (0, 3): 1, (1, 3): 2})
    for var in (0, 1):
        assert poly._exponent_window(f, g, var) == [(0, 13)]
        assert _support_range(_resultant_bareiss(f, g, var), 0) == (0, 13)


# ---------------------------------------------------------------------------
# the univariate layer modulo one prime, against the exact references


def test_kernel_prime_helper():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for m in (1, 2, 3, 4, 5, 8, 12, 24, 60, 120):
        p, w = poly._kernel_prime(m)
        assert trial(p) and p > 2**31 and (p - 1) % m == 0
        assert pow(w, m, p) == 1
        for q in (2, 3, 5):
            if m % q == 0:
                assert pow(w, m // q, p) != 1
        assert poly._kernel_prime(m) == (p, w)


def _sweep_factor(rng, level, cyclotomic):
    # a cyclotomic factor X^k - zeta_N^j or Phi_m(X), or a junk factor of
    # degree 1 or 2 with coefficients at the level
    if cyclotomic:
        if rng.random() < 0.3:
            m = rng.choice((1, 2, 3, 4, 5, 6, 8, 10, 12))
            return L(1, {(i,): c for i, c in
                         enumerate(cyclotomic_polynomial(m)) if c})
        k = rng.randint(1, 3)
        return L(1, {(k,): 1, (0,): -CyclotomicNumber.zeta(
            level, rng.randrange(level))})
    phi = euler_phi(level)
    return L(1, {(i,): CyclotomicNumber(
        level, [rng.randint(-3, 3) for _ in range(phi)], rng.randint(1, 3))
        for i in range(rng.randint(1, 2) + 1)})


def test_cyclotomic_roots_differential_sweep(monkeypatch):
    # cyclotomic_roots and squarefree_part against the exact-only
    # references on products of cyclotomic factors (some repeated) and
    # junk factors; some draws get a factor p X + 1 or X + 1/p for the
    # kernel prime p of their level, so that lc(f) or a denominator of f
    # is not a unit there and squarefree_part must go exact; the exact
    # gcd with the derivative equals the dense reference's monic gcd
    gcd_calls = []
    exact_gcd = poly.multivariate_gcd
    monkeypatch.setattr(poly, "multivariate_gcd",
                        lambda a, b: gcd_calls.append(1) or exact_gcd(a, b))
    rng = random.Random(8128)
    kinds = {"plain": 0, "repeated": 0, "lc": 0, "den": 0}
    for level in (1, 3, 4, 8, 12, 24):
        for draw in range(14):
            f = L.constant(1, CyclotomicNumber.zeta(level, rng.randrange(level)))
            for _ in range(rng.randint(1, 3)):
                f = f * _sweep_factor(rng, level, rng.random() < 0.6)
            if draw % 4 == 0:
                f = f * _sweep_factor(rng, level, True) ** 2
            p = poly._kernel_prime(f.coefficient_level())[0]
            special = {1: "lc", 2: "den"}.get(draw % 4)
            if special == "lc":
                f = f * L(1, {(1,): p, (0,): 1})
            elif special == "den":
                f = f * L(1, {(1,): 1, (0,): Fraction(1, p)})
            if f.degree_in(0) == 0:
                continue
            expect = _squarefree_exact(f)
            squarefree = len(_to_dense(expect)) == len(_to_dense(f))
            gcd_calls.clear()
            assert squarefree_part(f) == expect
            if special:
                assert gcd_calls
            elif squarefree:
                assert not gcd_calls
            dense = _to_dense(f)
            derivative = _dense_derivative(dense)
            assert (multivariate_gcd(_from_dense(dense), _from_dense(derivative))
                    == _from_dense(_dense_gcd(dense, derivative)))
            kinds[special or ("plain" if squarefree else "repeated")] += 1
            assert cyclotomic_roots(f) == _cyclotomic_roots_exact(f)
    assert min(kinds.values()) >= 10


def test_exact_tests_only_for_root_orbits(monkeypatch):
    # a candidate orbit reaches the exact vanishing test only when its
    # residue is zero; here that happens only at the roots
    exact = L.vanishes_at
    calls = []
    monkeypatch.setattr(L, "vanishes_at",
                        lambda f, point: calls.append(point) or exact(f, point))
    x = L.variable(1, 0)
    f = (x ** 12 - 1) * (x ** 3 - 2 * x + 5)
    for scale, level, orbits in ((1, 1, 6), (CyclotomicNumber.zeta(4), 4, 8)):
        calls.clear()
        roots = cyclotomic_roots(f * scale)
        assert f.scale(scale).coefficient_level() == level
        assert [r.exponent for r in roots] == [Fraction(k, 12) for k in range(12)]
        assert len(calls) == orbits
