"""The variety recursion solves a system's cheapest hypersurface first
(solver._cost_key: term count, then the sum of the exponent spans).  Any
polynomial of the system may play that role, so the order of the input
changes the route and never the answer."""

import itertools
import random

from torsioncosets.arith import CyclotomicNumber
from torsioncosets.oracle import cross_check
from torsioncosets.poly import LaurentPolynomial as L
from torsioncosets.solver import _cost_key, variety_cosets

z4 = CyclotomicNumber.zeta(4)


def _gaussian_draws(seed, nvars, count, term_counts, coeff_range):
    # the loop of the criterion-6 (seed 987654, 2 variables) and the
    # sparse three-variable (seed 271828) generators: systems of 1-2
    # polynomials with exponents 0..4 and Gaussian coefficients
    rng = random.Random(seed)

    def draw():
        while True:
            terms = {}
            for _ in range(rng.randint(*term_counts)):
                e = tuple(rng.randint(0, 4) for _ in range(nvars))
                c = CyclotomicNumber(4, [rng.randint(-coeff_range, coeff_range),
                                         rng.randint(-coeff_range, coeff_range)])
                if not c.is_zero():
                    terms[e] = c
            f = L(nvars, terms)
            if not f.is_zero() and not f.is_unit():
                return f

    return [[draw() for _ in range(rng.randint(1, 2))] for _ in range(count)]


def _keys(report):
    return [c.canonical_key() for c in report.cosets]


def _pairs():
    draws = (_gaussian_draws(987654, 2, 200, (2, 5), 3)
             + _gaussian_draws(271828, 3, 16, (2, 4), 2))
    return [s for s in draws if len(s) == 2]


def test_two_polynomial_systems_solve_alike_in_either_order():
    pairs = _pairs()
    rerouted = 0
    for system in pairs:
        forward = variety_cosets(system)
        backward = variety_cosets(system[::-1])
        assert _keys(forward) == _keys(backward), system
        if _cost_key(system[0]) != _cost_key(system[1]):
            # both orders sort to the same system: one route
            assert forward.stats.as_dict() == backward.stats.as_dict(), system
            rerouted += 1
    assert len(pairs) > 100 and rerouted > len(pairs) // 2


def test_sparse3_draw_7_solves_its_trinomial_first():
    # sparse3 draw 7, a 4-term and a 3-term trivariate polynomial: with
    # the 4-term one first the solve took 57 resultants
    system = _gaussian_draws(271828, 3, 8, (2, 4), 2)[7]
    assert [len(f.terms) for f in system] == [4, 3]
    for order in (system, system[::-1]):
        assert variety_cosets(order).stats.resultants == 7


def _sparse(rng, n, level, count):
    phi = 2 if level == 4 else 1
    while True:
        terms = {}
        for _ in range(count):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            c = CyclotomicNumber(level,
                                 [rng.randint(-2, 2) for _ in range(phi)])
            if not c.is_zero():
                terms[e] = c
        f = L(n, terms)
        if not f.is_zero() and not f.is_unit():
            return f


def _binomial(rng, n, level):
    a = (0,) * n
    while not any(a):
        a = tuple(rng.randint(0, 2) for _ in range(n))
    w = z4 ** rng.randrange(4) if level == 4 else rng.choice((1, -1))
    return L(n, {a: 1, (0,) * n: -w})


def _three_polynomial_systems(rng, n, level, count):
    # b1*b2*g1, b1*g2, b2*g3 for binomials b1, b2 and trinomials g_i: the
    # variety holds H(b1) & H(b2), H(b1) & H(g3) and H(b2) & H(g2), so
    # it has points and, at n = 3, curves
    systems = []
    for _ in range(count):
        b1, b2 = _binomial(rng, n, level), _binomial(rng, n, level)
        systems.append([b1 * b2 * _sparse(rng, n, level, 3),
                        b1 * _sparse(rng, n, level, 3),
                        b2 * _sparse(rng, n, level, 3)])
    return systems


def test_three_polynomial_systems_solve_alike_in_every_order():
    rng = random.Random(3)
    emitted = 0
    for n, level in itertools.product((2, 3), (1, 4)):
        for system in _three_polynomial_systems(rng, n, level, 4):
            keys = None
            for order in itertools.permutations(system):
                report = variety_cosets(list(order))
                assert keys is None or _keys(report) == keys, system
                keys = _keys(report)
                assert cross_check(report, system,
                                   24 if n == 2 else 12).passed, system
            emitted += len(keys)
    assert emitted


def test_cost_key_is_unchanged_by_the_benchmark_variants():
    # a monomial shift, a multiple by +-zeta^j and a Galois conjugate
    # keep the term count and every exponent span
    rng = random.Random(22)
    z12 = CyclotomicNumber.zeta(12)
    for _ in range(50):
        f = _sparse(rng, 3, 4, 4) * L(3, {(0, 0, 0): z12 ** rng.randrange(12),
                                          (1, 2, 0): 1})
        key = _cost_key(f)
        shift = tuple(rng.randint(-2, 2) for _ in range(3))
        shifted = L(3, {tuple(a + b for a, b in zip(e, shift)): c
                        for e, c in f.terms.items()})
        unit = z12 ** rng.randrange(12) * rng.choice((1, -1))
        k = rng.choice((1, 5, 7, 11))
        conjugate = f.map_coefficients(
            lambda c: c.galois(k % c.level) if c.level > 1 else c)
        assert _cost_key(shifted) == key
        assert _cost_key(f.scale(unit)) == key
        assert _cost_key(conjugate) == key
