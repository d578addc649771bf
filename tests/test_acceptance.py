"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is pinned exactly (counts and membership are
exact, the only tolerances are the stated runtime budgets).
"""

import random
import time
from fractions import Fraction
from itertools import product

from torsioncosets.arith import CyclotomicNumber
from torsioncosets.bounds import (
    evertse_schmidt_bound,
    hypersurface_c2,
    plane_curve_bound,
)
from torsioncosets.cosets import maximal_filter, solve_exponent_congruences
from torsioncosets.lattices import (
    IntegerLattice,
    determinant,
    hermite_normal_form,
    mat_mul,
    smith_normal_form,
)
from torsioncosets.oracle import brute_force_points, cross_check
from torsioncosets.poly import LaurentPolynomial, multivariate_gcd
from torsioncosets.solver import (
    auxiliary_polynomials,
    hypersurface_cosets,
    minimal_level_normalize,
    variety_cosets,
)

L = LaurentPolynomial


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _random_unimodular_pool():
    pool = []
    for a, b, c, d in product(range(-2, 3), repeat=4):
        if a * d - b * c in (1, -1):
            pool.append([[a, b], [c, d]])
    return pool


def test_criterion_1_fermat_line():
    f = L(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
    t0 = time.perf_counter()
    rep = hypersurface_cosets(f)
    oracle = cross_check(rep, [f], 12)
    elapsed = time.perf_counter() - t0
    assert len(rep.cosets) == 2
    assert all(c.dimension == 0 for c in rep.cosets)
    got = sorted(tuple(c.point.exponents()) for c in rep.cosets)
    assert got == [(Fraction(1, 6), Fraction(5, 6)),
                   (Fraction(5, 6), Fraction(1, 6))]
    assert oracle.passed
    assert elapsed < 1.0
    _report("1 fermat-line", f"2 isolated points, oracle pass, {elapsed:.3f}s")


def test_criterion_2_lattice_rescale():
    f = L(2, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
    base = L(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    rep = hypersurface_cosets(f)
    rep_base = hypersurface_cosets(base)
    assert len(rep_base.cosets) == 2
    assert len(rep.cosets) == 8
    assert all(c.dimension == 0 for c in rep.cosets)
    assert len(rep.cosets) == 4 * len(rep_base.cosets)
    oracle = cross_check(rep, [f], 12)
    assert oracle.passed
    _report("2 lattice-rescale", "8 = det * 2 isolated points, oracle pass")


def test_criterion_3_binomial_and_product():
    f = L(2, {(2, 2): 1, (0, 0): -1})
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 2
    assert all(c.dimension == 1 for c in rep.cosets)
    assert rep.counts_by_dimension().get(0, 0) == 0

    g = L(2, {(1, 0): 1, (0, 0): -1}) * L(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
    rep_g = hypersurface_cosets(g)
    assert len(rep_g.cosets) == 3
    dims = sorted(c.dimension for c in rep_g.cosets)
    assert dims == [0, 0, 1]
    line = next(c for c in rep_g.cosets if c.dimension == 1)
    assert line.lattice.rows == ((1, 0),)
    assert line.point.power((1, 0)).exponent == 0
    # the filter kept the points because they are not on x = 1
    points = [c for c in rep_g.cosets if c.dimension == 0]
    assert all(not p.is_subcoset_of(line) for p in points)
    assert maximal_filter(rep_g.cosets) == sorted(
        rep_g.cosets, key=lambda c: c.sort_key())
    _report("3 binomial", "two 1-dim cosets; product keeps line + 2 points")


def test_criterion_4_three_variables():
    f = L(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): -1})
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 3
    assert all(c.dimension == 1 for c in rep.cosets)
    fixed_axes = set()
    for c in rep.cosets:
        axes = [i for i in range(3)
                if c.lattice.contains([int(j == i) for j in range(3)])]
        assert len(axes) == 1
        assert c.point[axes[0]].exponent == 0
        fixed_axes.add(axes[0])
    assert fixed_axes == {0, 1, 2}
    oracle = cross_check(rep, [f], 30, budget=5_000_000)
    assert oracle.passed
    _report("4 three-variable", "3 one-dim cosets, oracle at order 30 pass")


def _random_full_lattice_input(rng, n):
    while True:
        terms = {}
        for _ in range(rng.randint(3, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            c = CyclotomicNumber(4, [rng.randint(-2, 2), rng.randint(-2, 2)])
            if not c.is_zero():
                terms[e] = c
        f = L(n, terms)
        if f.is_zero() or f.is_unit():
            continue
        _, _, fs = minimal_level_normalize(f)
        try:
            lat = fs.exponent_lattice()
        except ValueError:
            continue
        if lat != IntegerLattice.full(n):
            continue
        return fs


def test_criterion_5_twisted_family_contract():
    rng = random.Random(1234)
    failures = 0
    splits = 0
    for i in range(50):
        n = 2 if i % 3 else 3
        f = _random_full_lattice_input(rng, n)
        d = f.total_degree()
        kind, aux = auxiliary_polynomials(f)
        if kind == "split":
            splits += 1
            continue  # splitting is an allowed outcome of the contract
        assert 1 <= len(aux) <= 2 ** (n + 1) - 1
        for p, _ in aux:
            work, _ = p.strip_monomial_content()
            if work.total_degree() > 2 * d:
                failures += 1
            if not multivariate_gcd(f, p).is_unit():
                failures += 1
        for q in brute_force_points([f], 20, budget=5_000_000):
            if not any(p.vanishes_at(q) for p, _ in aux):
                failures += 1
    assert failures == 0
    _report("5 twisted-family contract",
            f"50 inputs, {splits} split(s), zero failures")


def test_criterion_6_randomized_completeness():
    rng = random.Random(987654)

    def random_poly():
        while True:
            terms = {}
            for _ in range(rng.randint(2, 5)):
                e = tuple(rng.randint(0, 4) for _ in range(2))
                c = CyclotomicNumber(4, [rng.randint(-3, 3),
                                         rng.randint(-3, 3)])
                if not c.is_zero():
                    terms[e] = c
            f = L(2, terms)
            if not f.is_zero() and not f.is_unit():
                return f

    t0 = time.perf_counter()
    for i in range(200):
        system = [random_poly() for _ in range(rng.randint(1, 2))]
        if len(system) == 1:
            rep = hypersurface_cosets(system[0])
        else:
            rep = variety_cosets(system)
        oracle = cross_check(rep, system, 20, budget=5_000_000)
        assert oracle.missed_by_solver == [], (i, system)
        assert oracle.spurious_cosets == [], (i, system)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    _report("6 randomized completeness",
            f"200 systems, zero mismatches, {elapsed:.1f}s")


def test_criterion_7_monoidal_equivariance():
    rng = random.Random(31337)
    pool = _random_unimodular_pool()
    for i in range(50):
        f = _random_full_lattice_input(rng, 2)
        u = pool[rng.randrange(len(pool))]
        fu = f.monoidal_image(u)
        keys_direct = {c.canonical_key()
                       for c in hypersurface_cosets(fu).cosets}
        keys_transformed = {c.transform(u).canonical_key()
                            for c in hypersurface_cosets(f).cosets}
        assert keys_direct == keys_transformed, (f, u)
    _report("7 monoidal equivariance", "50 (f, U) pairs, exact key equality")


def test_criterion_8_bounds_calculators():
    assert hypersurface_c2(2) == 2
    assert hypersurface_c2(3) == 14
    assert plane_curve_bound(3) == 102
    # independent one-line evaluation of the general bound at (2, 1)
    from math import comb
    independent = (11 * 1) ** 4 * comb(3, 1) ** (3 * comb(3, 1) ** 2)
    assert evertse_schmidt_bound(2, 1) == independent == 14641 * 3 ** 27
    # soft bound check on the solved instances of this suite
    for f, d in [
        (L(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1}), 1),
        (L(2, {(2, 0): 1, (0, 2): 1, (0, 0): 1}), 2),
        (L(2, {(2, 2): 1, (0, 0): -1}), 4),
    ]:
        rep = hypersurface_cosets(f)
        assert len(rep.cosets) <= evertse_schmidt_bound(2, d)
        assert len(rep.cosets) <= plane_curve_bound(d)
    _report("8 bounds calculators", "constants match, soft bounds hold")


def test_criterion_9_kernel_properties():
    rng = random.Random(777)
    hnf_checked = snf_checked = sat_checked = 0
    for i in range(1000):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        h, t = hermite_normal_form(mat)
        assert abs(determinant(t)) == 1
        prod = mat_mul(t, mat)
        assert prod[:len(h)] == h
        assert all(not any(r) for r in prod[len(h):])
        # uniqueness: a second generating set gives the same HNF
        shuffle = [row[:] for row in mat]
        rng.shuffle(shuffle)
        if shuffle and len(shuffle) > 1:
            f = rng.randint(-2, 2)
            shuffle[0] = [x + f * y for x, y in zip(shuffle[0], shuffle[1])]
        h2, _ = hermite_normal_form(shuffle)
        assert h2 == h
        hnf_checked += 1

        if k == n and determinant(mat) != 0:
            w, dmat, v = smith_normal_form(mat)
            assert mat_mul(mat_mul(w, mat), v) == dmat
            diag = [dmat[j][j] for j in range(n)]
            assert all(x > 0 for x in diag)
            for j in range(n - 1):
                assert diag[j + 1] % diag[j] == 0
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(determinant(mat))
            snf_checked += 1

        lat = IntegerLattice(n, mat)
        sat = lat.saturation()
        assert sat.saturation() == sat
        assert lat.orthogonal_complement().orthogonal_complement() == sat
        assert sat.contains_lattice(lat)
        sat_checked += 1

    cong_checked = 0
    while cong_checked < 100:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det = determinant(rows)
        if det == 0:
            continue
        s = [Fraction(rng.randint(0, 2), 3) for _ in range(n)]
        sol = solve_exponent_congruences(rows, s)
        assert sol.consistent
        pts = sol.points()
        assert len(pts) == abs(det)
        assert len({tuple(p.exponents()) for p in pts}) == abs(det)
        for p in pts:
            q = p.exponents()
            for r, si in zip(rows, s):
                assert (sum(a * b for a, b in zip(r, q)) - si) % 1 == 0
        if n <= 2:
            m = abs(det) * 3
            brute = set()
            for combo in product(range(m), repeat=n):
                q = [Fraction(c, m) for c in combo]
                if all((sum(r[j] * q[j] for j in range(n)) - si) % 1 == 0
                       for r, si in zip(rows, s)):
                    brute.add(tuple(q))
            assert brute == {tuple(p.exponents()) for p in pts}
        cong_checked += 1
    assert hnf_checked == 1000 and sat_checked == 1000
    assert snf_checked > 100 and cong_checked == 100
    _report("9 kernel properties",
            f"{hnf_checked} HNF/saturation, {snf_checked} SNF, "
            f"{cong_checked} congruence instances")
