"""binomial_cosets against the former implementation, which passed to
coordinates with Y_1 = X^a for every direction a (a unimodular
completion), tested each candidate root by specializing Y_1 and divided
by Y_1 - w there.  The solver now tests the coset {x^a = w} with
TorsionCoset.lies_on in the original coordinates and divides by X^a - w;
both must give the same cosets in the same order and the same cofactor,
down to the level of each coefficient."""

import itertools
import random
from math import gcd

from torsioncosets.arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    euler_phi,
)
from torsioncosets.cosets import TorsionCoset
from torsioncosets.lattices import extend_to_basis
from torsioncosets.poly import LaurentPolynomial, cyclotomic_roots
from torsioncosets.solver import _primitive_directions, binomial_cosets

from poly_references import map_exponents, monoidal_image, specialize

L = LaurentPolynomial


def reference_binomial_cosets(f):
    # the former implementation, kept verbatim as the reference
    if f.is_zero():
        raise ValueError("zero polynomial")
    n = f.nvars
    work, _ = f.strip_monomial_content()
    found = []
    if work.is_unit():
        return found, work
    for a in _primitive_directions(work.support()):
        if work.is_unit():
            break
        u = extend_to_basis(list(a))
        work_u = monoidal_image(work, u)
        coeffs = work_u.coefficients_in(0)
        if len(coeffs) < 2:
            # single power of Y1: no binomial factor in this direction
            continue
        # one profile polynomial in Y1; common roots are verified on the
        # whole transformed polynomial afterwards
        profiles = {}
        for k, poly in coeffs.items():
            for e, c in poly.terms.items():
                profiles.setdefault(e, {})[(k,)] = c
        profile_key = min(profiles, key=lambda e: (len(profiles[e]), e))
        probe = LaurentPolynomial(1, profiles[profile_key])
        roots = cyclotomic_roots(probe)
        changed = False
        for w in roots:
            at_w = TorsionPoint([w])
            if not specialize(work_u, at_w).is_zero():
                continue
            found.append(TorsionCoset.from_binomial(a, w))
            divisor = LaurentPolynomial(
                n, {(1,) + (0,) * (n - 1): 1,
                    (0,) * n: -w.to_cyclotomic()})
            while True:
                quot = work_u.divide_exact(divisor)
                if quot is None:
                    raise RuntimeError("internal error: binomial factor "
                                       "does not divide")
                work_u = quot
                changed = True
                if work_u.is_unit() or not specialize(work_u, at_w).is_zero():
                    break
        if changed:
            work, _ = map_exponents(work_u, u).strip_monomial_content()
    return found, work


def _coefficient(rng, level):
    num = [0]
    while not any(num):
        num = [rng.randint(-2, 2) for _ in range(euler_phi(level))]
    return CyclotomicNumber(level, num)


def _cofactor(rng, n, level):
    terms, size = {}, rng.randint(2, 3)
    while len(terms) < size:
        e = tuple(rng.randint(0, 2) for _ in range(n))
        terms[e] = _coefficient(rng, level)
    return L(n, terms)


def _direction(rng, n):
    # primitive, with negative entries drawn as often as positive ones
    while True:
        a = [rng.randint(-2, 2) for _ in range(n)]
        if gcd(*a) == 1:
            return tuple(a)


def _binomial(n, a, w):
    return L(n, {a: 1, (0,) * n: -w.to_cyclotomic()})


def _levels(poly):
    return {e: c.level for e, c in poly.terms.items()}


def _assert_same(f):
    got, cofactor = binomial_cosets(f)
    ref, ref_cofactor = reference_binomial_cosets(f)
    assert [c.int_key() for c in got] == [c.int_key() for c in ref]
    assert cofactor == ref_cofactor
    assert _levels(cofactor) == _levels(ref_cofactor)
    return got


def test_binomial_cosets_match_reference_sweep():
    rng = random.Random(18)
    for n, level, mult, planted, _ in itertools.product(
            (2, 3), (1, 3, 4, 12), (1, 2), (0, 1, 2), range(4)):
        f = _cofactor(rng, n, level)
        for _ in range(planted):
            a = _direction(rng, n)
            m = rng.choice((1, 2, 3, 4, 6, 12))
            f = f * _binomial(n, a, RootOfUnity(rng.randrange(m), m)) ** mult
        # a random monomial shift, negative exponents included
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        got = _assert_same(L.monomial(n, shift, 1) * f)
        if planted:
            assert got


def test_binomial_cosets_match_reference_examples():
    z4 = CyclotomicNumber.zeta(4)
    # x^2 y^-2 - 1 = (x y^-1 - 1)(x y^-1 + 1), a direction with a negative
    # entry, each factor twice, times a cofactor with no binomial factor
    xy = _binomial(2, (1, -1), RootOfUnity.one())
    f = (xy * _binomial(2, (1, -1), RootOfUnity.minus_one())) ** 2 \
        * L(2, {(1, 0): 1, (0, 1): 1, (0, 0): z4})
    got = _assert_same(f)
    assert len(got) == 2
    # binomial factors in two directions, of orders 3 and 12
    f = _binomial(3, (1, 0, -2), RootOfUnity(1, 3)) \
        * _binomial(3, (0, 1, 1), RootOfUnity(5, 12)) \
        * L(3, {(1, 1, 0): 1, (0, 0, 1): -z4, (0, 0, 0): 2})
    assert len(_assert_same(f)) == 2
    # no binomial factor: the cofactor is the input, stripped
    _assert_same(L(2, {(3, 1): 1, (1, 2): 1, (0, 0): 1}))
    _assert_same(L(2, {(2, 0): z4}))
