import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from torsioncosets import solver
from torsioncosets.arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    euler_phi,
)
from torsioncosets.cosets import TorsionCoset
from torsioncosets.lattices import IntegerLattice, identity_matrix
from torsioncosets.oracle import cross_check
from torsioncosets.poly import LaurentPolynomial, multivariate_gcd
from torsioncosets.solver import (
    auxiliary_polynomials,
    binomial_cosets,
    hypersurface_cosets,
    minimal_level_normalize,
    reduce_rank_deficient,
    rescale_to_full_lattice,
    variety_cosets,
)

L = LaurentPolynomial
z4 = CyclotomicNumber.zeta(4)


def poly2(spec):
    return L(2, spec)


def fermat_line():
    return poly2({(1, 0): 1, (0, 1): 1, (0, 0): -1})


def exps(coset):
    return tuple(coset.point.exponents())


def test_binomial_cosets_examples():
    f = poly2({(2, 2): 1, (0, 0): -1})  # x^2 y^2 - 1
    cosets, cofactor = binomial_cosets(f)
    assert cofactor.is_unit()
    assert len(cosets) == 2
    for c in cosets:
        assert c.dimension == 1
        assert c.lattice.rows == ((1, 1),)
        assert c.lies_on([f])
    pairings = sorted(c.point.power((1, 1)).exponent for c in cosets)
    assert pairings == [Fraction(0), Fraction(1, 2)]

    cosets, cofactor = binomial_cosets(fermat_line())
    assert cosets == []
    assert cofactor == fermat_line()

    f = poly2({(1, 1): 1, (0, 0): -z4})
    cosets, cofactor = binomial_cosets(f)
    assert len(cosets) == 1
    assert cofactor.is_unit()
    assert cosets[0].point.power((1, 1)).exponent == Fraction(1, 4)


def test_binomial_cosets_with_cofactor():
    # (x - 1)(x + y - 1): one binomial factor x - 1, cofactor the line
    f = poly2({(1, 0): 1, (0, 0): -1}) * fermat_line()
    cosets, cofactor = binomial_cosets(f)
    assert len(cosets) == 1
    assert cosets[0].lattice.rows == ((1, 0),)
    q = cofactor.divide_exact(fermat_line())
    assert q is not None and q.is_unit()


def test_reduce_rank_deficient_examples():
    f = poly2({(2, 2): 1, (1, 1): 1, (0, 0): 1})
    fstar, lift = reduce_rank_deficient(f)
    assert fstar.nvars == 1
    # t^2 + t + 1 up to normalization
    assert fstar == L(1, {(2,): 1, (1,): 1, (0,): 1})
    from torsioncosets.poly import cyclotomic_roots
    roots, _ = cyclotomic_roots(fstar)
    base = [TorsionCoset.from_point(TorsionPoint([w.exponent]))
            for w in roots]
    lifted = lift(base)
    assert len(lifted) == 2
    for c in lifted:
        assert c.dimension == 1
        assert c.lies_on([f])
    pair = sorted(c.point.power((1, 1)).exponent for c in lifted)
    assert pair == [Fraction(1, 3), Fraction(2, 3)]


def test_reduce_rank_deficient_line():
    f = poly2({(1, 0): 1, (0, 1): 1})  # x + y
    fstar, lift = reduce_rank_deficient(f)
    assert fstar.nvars == 1
    from torsioncosets.poly import cyclotomic_roots
    roots, _ = cyclotomic_roots(fstar)
    lifted = lift([TorsionCoset.from_point(TorsionPoint([w.exponent]))
                   for w in roots])
    assert len(lifted) == 1
    c = lifted[0]
    assert c.dimension == 1
    assert c.lies_on([f])
    # the coset is {(t, -t)}: pairing of (1,-1) is 1/2
    assert c.point.power((1, -1)).exponent == Fraction(1, 2)


def test_rescale_to_full_lattice_examples():
    f = poly2({(2, 0): 1, (0, 2): 1, (0, 0): 1})  # x^2 + y^2 + 1
    fstar, pullback, det = rescale_to_full_lattice(f)
    assert det == 4
    assert fstar == poly2({(1, 0): 1, (0, 1): 1, (0, 0): 1})

    f2 = poly2({(2, 2): 1, (2, 0): 1, (0, 2): 1})  # x^2y^2 + x^2 + y^2
    fstar2, _, det2 = rescale_to_full_lattice(f2)
    assert det2 == 4
    work, _ = fstar2.strip_monomial_content()
    assert work == poly2({(1, 1): 1, (1, 0): 1, (0, 1): 1})

    with pytest.raises(ValueError):
        rescale_to_full_lattice(poly2({(1, 0): 1, (0, 0): 1}))


def test_minimal_level_normalize_examples():
    z8 = CyclotomicNumber.zeta(8)
    f = poly2({(1, 0): z8, (0, 1): z8, (0, 0): -z8})
    scal, n, fs = minimal_level_normalize(f)
    assert n == 1
    assert all(c.level == 1 for c in fs.terms.values())

    g = poly2({(1, 0): 1, (0, 1): z8})
    scal, n, gs = minimal_level_normalize(g)
    assert n == 1

    h = fermat_line()
    scal, n, hs = minimal_level_normalize(h)
    assert n == 1
    assert hs == h
    assert all(s == RootOfUnity.one() for s in scal)


def test_minimal_level_normalize_scaling_consistency():
    # solving the scaled polynomial and translating by the scalings
    # must land on the original variety
    z8 = CyclotomicNumber.zeta(8)
    g = poly2({(1, 0): 1, (0, 1): z8, (0, 0): -1})
    scal, n, gs = minimal_level_normalize(g)
    assert n == 1
    shift = TorsionPoint(scal)
    rep = hypersurface_cosets(gs)
    for c in rep.cosets:
        assert c.translate(shift).lies_on([g])


def test_auxiliary_polynomials_rational():
    f = fermat_line()
    kind, aux = auxiliary_polynomials(f)
    assert kind == "aux"
    assert len(aux) == 7  # 3 sign variants + 4 squared variants
    for p, _ in aux:
        work, _ = p.strip_monomial_content()
        assert work.total_degree() <= 2 * f.total_degree()
        assert multivariate_gcd(f, p).is_unit()


def test_auxiliary_polynomials_gaussian():
    # 4 | N branch: tau negates z4, so x + y + z4 appears
    f = poly2({(1, 0): 1, (0, 1): 1, (0, 0): -z4})
    kind, aux = auxiliary_polynomials(f)
    assert kind == "aux"
    # this input is not level-minimal (scaling both variables by z4
    # lands in Q), so the (-1,-1) tau variant degenerates to -f and is
    # dropped; the other six survive
    assert len(aux) == 6
    tau_image = poly2({(1, 0): 1, (0, 1): 1, (0, 0): z4})
    assert any(p == tau_image for p, _ in aux)
    for p, _ in aux:
        assert multivariate_gcd(f, p).is_unit()
    # the solver's normalization sends this f to level 1 anyway
    _, n, _ = minimal_level_normalize(f)
    assert n == 1


def test_auxiliary_polynomials_odd_level():
    z3 = CyclotomicNumber.zeta(3)
    f = poly2({(1, 0): 1, (0, 1): 1, (0, 0): z3})
    kind, aux = auxiliary_polynomials(f)
    assert kind == "aux"
    assert 1 <= len(aux) <= 7
    for p, _ in aux:
        assert multivariate_gcd(f, p).is_unit()
    # the squared variants carry sigma: z3 -> z3^2
    squared = [p for p, _ in aux if p.total_degree() == 2]
    assert squared
    for p in squared:
        consts = [c for e, c in p.terms.items() if not any(e)]
        assert consts and consts[0] == CyclotomicNumber.zeta(3, 2)


def _auxiliary_by_gcd(f):
    # reference for auxiliary_polynomials: the twisted family built
    # afresh, each candidate tested for coprimality by multivariate_gcd
    n = f.nvars
    level = 1
    for c in f.terms.values():
        level = lcm(level, c.minimal_level().level)

    def twisted(k):
        return f.map_coefficients(
            lambda c: c if c.level == 1 else c.galois(k % c.level))

    signs = list(itertools.product((1, -1), repeat=n))
    raw = [f.sign_variant(eps) for eps in signs[1:]]
    if level == 1:
        raw += [f.sign_variant(eps).stretch_exponents(2) for eps in signs]
    elif level % 2:
        raw += [twisted(2).sign_variant(eps).stretch_exponents(2)
                for eps in signs]
    else:
        raw += [twisted(level // 2 + 1).sign_variant(eps) for eps in signs]
    kept = []
    for cand in raw:
        g = multivariate_gcd(f, cand)
        if g.is_unit():
            kept.append(cand)
            continue
        quot = f.divide_exact(g)
        if quot is not None and not quot.is_unit():
            return "split", g
    return "aux", kept


def _random_normalized_full_lattice(rng, n, level):
    while True:
        terms = {}
        for _ in range(rng.randint(3, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            c = CyclotomicNumber(level, [rng.randint(-2, 2)
                                         for _ in range(euler_phi(level))])
            if not c.is_zero():
                terms[e] = c
        f = L(n, terms)
        # the normalization keeps the support, so test the lattice first
        if len(f.terms) > 1 and f.exponent_lattice() == IntegerLattice.full(n):
            return minimal_level_normalize(f)[2]


def test_auxiliary_polynomials_matches_gcd_reference():
    rng = random.Random(20260417)
    inputs = []
    for i in range(40):
        level = (1, 3, 4, 8, 12)[i % 5]
        n = 3 if level in (1, 3, 4) and i % 2 else 2
        inputs.append(_random_normalized_full_lattice(rng, n, level))
    # a common factor found by a zero resultant: f(x, -y) keeps x + y^2 + 2
    inputs.append(poly2({(1, 0): 1, (0, 1): 1, (0, 0): 1})
                  * poly2({(1, 0): 1, (0, 2): 1, (0, 0): 2}))
    # a candidate that is a multiple of f, dropped by both
    inputs.append(poly2({(1, 0): 1, (0, 1): 1, (0, 0): -z4}))
    for f in inputs:
        kind, aux = auxiliary_polynomials(f)
        ref_kind, ref_aux = _auxiliary_by_gcd(f)
        assert kind == ref_kind, f
        if kind == "aux":
            assert [p for p, _ in aux] == ref_aux, f
            assert not any(res.is_zero() for _, res in aux)
        else:
            assert not aux.is_unit()
            quot = f.divide_exact(aux)
            assert quot is not None and not quot.is_unit()


def test_auxiliary_polynomials_splits_off_content():
    # content in X_var: x^2 + 3x + 1 has no torsion roots, so the
    # binomial strip keeps it and L(f) = Z^2
    content = poly2({(2, 0): 1, (1, 0): 3, (0, 0): 1})
    f = content * poly2({(1, 2): 1, (0, 1): 1, (0, 0): 1})
    assert auxiliary_polynomials(f) == ("split", content)
    rep = hypersurface_cosets(f)
    assert rep.stats.splits == 1
    assert cross_check(rep, [f], 16).passed


def test_g2_draw_138_needs_no_gcd(monkeypatch):
    # draw #138 of the criterion-6 generator: its coprimality gcds took
    # tens of seconds, while the resultants decide coprimality at once
    i = z4
    f = poly2({(4, 4): -3 - 2 * i, (3, 3): 2 + 2 * i, (3, 0): 2 + i,
               (0, 4): -3 + 3 * i, (0, 2): 2 + 2 * i})
    g = poly2({(4, 3): -2 - i, (3, 3): -3 * i, (1, 3): -2 * i,
               (0, 4): -2})
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return multivariate_gcd(a, b)

    monkeypatch.setattr(solver, "multivariate_gcd", counting_gcd)
    rep = variety_cosets([f, g])
    assert rep.cosets == []
    assert cross_check(rep, [f, g], 20).passed
    assert calls == []


def test_hypersurface_fermat_line():
    rep = hypersurface_cosets(fermat_line())
    assert len(rep.cosets) == 2
    assert all(c.dimension == 0 for c in rep.cosets)
    got = sorted(exps(c) for c in rep.cosets)
    assert got == [(Fraction(1, 6), Fraction(5, 6)),
                   (Fraction(5, 6), Fraction(1, 6))]
    assert all(rep.certificates)


def test_hypersurface_binomial_instance():
    rep = hypersurface_cosets(poly2({(2, 2): 1, (0, 0): -1}))
    assert len(rep.cosets) == 2
    assert all(c.dimension == 1 for c in rep.cosets)
    assert rep.counts_by_dimension() == {1: 2}


def test_hypersurface_lattice_rescale_instance():
    rep = hypersurface_cosets(poly2({(2, 0): 1, (0, 2): 1, (0, 0): 1}))
    assert len(rep.cosets) == 8
    assert all(c.dimension == 0 for c in rep.cosets)
    base = hypersurface_cosets(poly2({(1, 0): 1, (0, 1): 1, (0, 0): 1}))
    assert len(base.cosets) == 2
    # the x^2 = z3 points have order-12 coordinates
    f = poly2({(2, 0): 1, (0, 2): 1, (0, 0): 1})
    for c in rep.cosets:
        assert c.lies_on([f])


def test_hypersurface_product_instance():
    f = poly2({(1, 0): 1, (0, 0): -1}) * fermat_line()
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 3
    dims = sorted(c.dimension for c in rep.cosets)
    assert dims == [0, 0, 1]


def test_hypersurface_three_variables():
    f = L(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): -1})
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 3
    assert all(c.dimension == 1 for c in rep.cosets)
    # the three permutations of (1, t, -t)
    keys = set()
    for c in rep.cosets:
        fixed = [i for i in range(3)
                 if c.lattice.contains([int(j == i) for j in range(3)])]
        assert len(fixed) == 1
        i = fixed[0]
        assert c.point[i] == RootOfUnity.one()
        keys.add(i)
    assert keys == {0, 1, 2}


def test_hypersurface_gaussian_binomial():
    f = poly2({(1, 1): 1, (0, 0): -z4})
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 1
    assert rep.cosets[0].dimension == 1


def test_variety_examples():
    xy1 = poly2({(1, 1): 1, (0, 0): -1})
    rep = variety_cosets([xy1, fermat_line()])
    got = sorted(exps(c) for c in rep.cosets)
    assert got == [(Fraction(1, 6), Fraction(5, 6)),
                   (Fraction(5, 6), Fraction(1, 6))]

    rep = variety_cosets([poly2({(1, 0): 1, (0, 0): -1}),
                          poly2({(0, 1): 1, (0, 0): -1})])
    assert len(rep.cosets) == 1
    assert exps(rep.cosets[0]) == (Fraction(0), Fraction(0))

    rep = variety_cosets([fermat_line(),
                          poly2({(1, 0): 1, (0, 1): -1})])
    assert rep.cosets == []


def test_variety_with_positive_dimensional_intersection():
    # {x y - 1} and {x + y - x y - 1} = {(x-1)(1-y)}: the common cosets
    xy1 = poly2({(1, 1): 1, (0, 0): -1})
    g = poly2({(1, 0): 1, (0, 1): 1, (1, 1): -1, (0, 0): -1})
    rep = variety_cosets([xy1, g])
    # x = 1, y = 1 or x = -1, y = -1: points on xy = 1 with (x-1)(1-y) = 0
    got = sorted(exps(c) for c in rep.cosets)
    assert got == [(Fraction(0), Fraction(0))]
    # single polynomial system delegates to the hypersurface solver
    rep2 = variety_cosets([g])
    dims = sorted(c.dimension for c in rep2.cosets)
    assert dims == [1, 1]


def test_monoidal_equivariance_small():
    rng = random.Random(71)
    f = fermat_line()
    for _ in range(6):
        u = identity_matrix(2)
        for _ in range(3):
            i, j = rng.randrange(2), rng.randrange(2)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(2):
                    u[i][k] += c * u[j][k]
        fu = f.monoidal_image(u)
        rep_u = hypersurface_cosets(fu)
        rep = hypersurface_cosets(f)
        transformed = {c.transform(u).canonical_key() for c in rep.cosets}
        assert transformed == {c.canonical_key() for c in rep_u.cosets}


def test_solver_no_duplicate_or_contained_output():
    f = poly2({(2, 2): 1, (1, 0): -1, (0, 1): -1}) * poly2({(1, 1): 1, (0, 0): -1})
    rep = hypersurface_cosets(f)
    keys = [c.canonical_key() for c in rep.cosets]
    assert len(keys) == len(set(keys))
    for a in rep.cosets:
        for b in rep.cosets:
            if a is not b:
                assert not a.is_subcoset_of(b)


def test_laurent_input_with_negative_exponents():
    # x y^{-1} - 1 defines the diagonal coset {(t, t)}
    f = poly2({(1, -1): 1, (0, 0): -1})
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 1
    c = rep.cosets[0]
    assert c.dimension == 1
    assert c.point.power((1, -1)).exponent == Fraction(0)


def test_rank_deficient_cyclotomic_composite():
    # (xy)^2 - xy + 1 vanishes exactly when xy is a primitive 6th root
    f = poly2({(2, 2): 1, (1, 1): -1, (0, 0): 1})
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 2
    pair = sorted(c.point.power((1, 1)).exponent for c in rep.cosets)
    assert pair == [Fraction(1, 6), Fraction(5, 6)]


def test_identically_zero_fiber_three_vars():
    # f(1, 1, z) is identically zero, so the fiber line (1, 1, t) lies
    # on the hypersurface; it is 1-dimensional (not a binomial factor)
    x = L.variable(3, 0)
    y = L.variable(3, 1)
    z = L.variable(3, 2)
    one = L.constant(3, 1)
    f = (x - one) * z + (y - one) * (z + one)
    rep = hypersurface_cosets(f)
    line = TorsionCoset(
        TorsionPoint([Fraction(0), Fraction(0), Fraction(0)]),
        IntegerLattice(3, [[1, 0, 0], [0, 1, 0]]))
    assert any(c.canonical_key() == line.canonical_key() for c in rep.cosets)
    from torsioncosets.oracle import cross_check
    assert cross_check(rep, [f], 8).passed


def test_variety_absorbed_coset():
    # the second polynomial vanishes on the whole coset of the first
    xy1 = poly2({(1, 1): 1, (0, 0): -1})
    multiple = xy1 * poly2({(1, 0): 1, (0, 0): 5})
    rep = variety_cosets([xy1, multiple])
    assert len(rep.cosets) == 1
    assert rep.cosets[0].dimension == 1
    assert rep.cosets[0].point.power((1, 1)).exponent == Fraction(0)


def test_variety_three_vars():
    # x + y + z = 1 intersected with x = 1 leaves {(1, t, -t)}
    f = L(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): -1})
    g = L(3, {(1, 0, 0): 1, (0, 0, 0): -1})
    rep = variety_cosets([f, g])
    assert len(rep.cosets) == 1
    c = rep.cosets[0]
    assert c.dimension == 1
    assert c.point[0].exponent == 0
    assert c.lattice.contains([1, 0, 0])
    from torsioncosets.oracle import cross_check
    assert cross_check(rep, [f, g], 12).passed


def test_deep_structure_highorder_roots():
    # x^3 y^3 = z4 forces xy to be a primitive 12th root from one family
    f = poly2({(3, 3): 1, (0, 0): -z4})
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 3
    exps = sorted(c.point.power((1, 1)).exponent for c in rep.cosets)
    assert exps == [Fraction(1, 12), Fraction(5, 12), Fraction(3, 4)]
    from torsioncosets.oracle import cross_check
    assert cross_check(rep, [f], 24).passed


def test_sparse_three_variable_completeness():
    # desk-scale completeness invariant at n = 3: oracle points up to
    # order 12 are covered on random sparse systems
    from torsioncosets.oracle import cross_check
    from torsioncosets.solver import variety_cosets
    rng = random.Random(271828)

    def sparse3():
        while True:
            terms = {}
            for _ in range(rng.randint(2, 4)):
                e = tuple(rng.randint(0, 4) for _ in range(3))
                c = CyclotomicNumber(4, [rng.randint(-2, 2),
                                         rng.randint(-2, 2)])
                if not c.is_zero():
                    terms[e] = c
            f = L(3, terms)
            if not f.is_zero() and not f.is_unit():
                return f

    for _ in range(8):
        system = [sparse3() for _ in range(rng.randint(1, 2))]
        rep = variety_cosets(system) if len(system) > 1 \
            else hypersurface_cosets(system[0])
        assert cross_check(rep, system, 12).passed
