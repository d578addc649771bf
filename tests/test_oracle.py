import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

import pytest

from torsioncosets import oracle
from torsioncosets.arith import (
    CyclotomicNumber,
    TorsionPoint,
    _level,
    _Level,
    euler_phi,
)
from torsioncosets.cosets import TorsionCoset
from torsioncosets.lattices import IntegerLattice
from torsioncosets.oracle import (
    BudgetExceededError,
    _CompiledPoly,
    _Residues,
    _orbit_representatives,
    _system_level,
    _units,
    brute_force_points,
    cross_check,
)
from torsioncosets.poly import LaurentPolynomial
from torsioncosets.solver import SolveReport, SolveStats, hypersurface_cosets

L = LaurentPolynomial


def fermat_line():
    return L(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})


# ---------------------------------------------------------------------------
# reference: the full grid scan, one exact test per point


def _exact_order_points(n, m):
    return [k for k in product(range(m), repeat=n) if gcd(m, *k) == 1]


def _representatives(n, m, level):
    # the orbit representatives one point at a time, out of their batches
    group = _units(m, gcd(m, level))
    return [prefix + (v,) for prefix, lasts
            in _orbit_representatives(n, m, group) for v in lasts]


def _vanishes(compiled, k, m):
    # one point decided as a batch with a one-element list
    return bool(compiled.zeros(k[:-1], [k[-1]], m))


def _grid_size(n, max_order):
    return sum(len(_exact_order_points(n, m)) for m in range(1, max_order + 1))


def _grid_points(system, max_order):
    # every point of exact order m <= max_order tested on its own, with
    # the same integer kernel as brute_force_points
    system = list(system)
    n = system[0].nvars
    found = []
    for m in range(1, max_order + 1):
        compiled = [_CompiledPoly(f, m) for f in system]
        for k in _exact_order_points(n, m):
            if all(_vanishes(c, k, m) for c in compiled):
                found.append(tuple(Fraction(x, m) for x in k))
    found.sort()
    return [TorsionPoint(f) for f in found]


class _ReferenceCompiledPoly:
    # reference kernel: one accumulator of length big = lcm(N_f, m) per
    # test, reduced modulo Phi_big on every call
    __slots__ = ("big", "phi", "rows", "level")

    def __init__(self, f, m: int):
        big = lcm(_system_level([f]), m)
        den = 1
        for c in f.terms.values():
            den = lcm(den, c.den)
        rows = []
        for e, c in f.terms.items():
            mult = den // c.den
            step = big // c.level
            coeff_positions = tuple((k * step, x * mult)
                                    for k, x in enumerate(c.num) if x)
            rows.append((e, coeff_positions))
        self.big = big
        self.phi = _level(big).phi
        self.rows = rows
        self.level = _level(big)

    def vanishes(self, k, m: int) -> bool:
        big = self.big
        unit = big // m
        acc = [0] * big
        for e, coeff_positions in self.rows:
            dot = 0
            for x, ki in zip(e, k):
                if x:
                    dot += x * ki
            base = (dot % m) * unit
            for p, c in coeff_positions:
                acc[(base + p) % big] += c
        phi = self.phi
        red = acc[:phi]
        for p in range(phi, big):
            c = acc[p]
            if c:
                pw = self.level.power(p)
                for i, x in enumerate(pw):
                    if x:
                        red[i] += c * x
        return not any(red)


def test_brute_force_examples():
    pts = brute_force_points([fermat_line()], 6)
    assert [p.exponents() for p in pts] == [
        (Fraction(1, 6), Fraction(5, 6)),
        (Fraction(5, 6), Fraction(1, 6)),
    ]
    assert brute_force_points([fermat_line()], 5) == []
    pts = brute_force_points([L(1, {(1,): 1, (0,): -1})], 7)
    assert [p.exponents() for p in pts] == [(Fraction(0),)]


def test_brute_force_monotone():
    f = L(2, {(2, 2): 1, (0, 0): -1})
    small = {p.exponents() for p in brute_force_points([f], 6)}
    large = {p.exponents() for p in brute_force_points([f], 10)}
    assert small <= large


def test_brute_force_binomial_cosets_match():
    # for x*y = 1 the oracle points are exactly the torsion points of
    # the predicted coset up to the order bound
    f = L(2, {(1, 1): 1, (0, 0): -1})
    pts = brute_force_points([f], 8)
    coset = TorsionCoset(TorsionPoint([Fraction(0), Fraction(0)]),
                         IntegerLattice(2, [[1, 1]]))
    for p in pts:
        assert coset.contains_point(p)
    count = sum(1 for m in range(1, 9) for a in range(m)
                if __import__("math").gcd(a, m) == 1)
    assert len(pts) == count


def test_budget():
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_points([fermat_line()], 20, budget=10)
    assert exc.value.attempted == 11


def test_cross_check_pass():
    rep = hypersurface_cosets(fermat_line())
    oracle = cross_check(rep, [fermat_line()], 12)
    assert oracle.passed
    assert oracle.missed_by_solver == []
    assert oracle.spurious_cosets == []
    assert len(oracle.points) == 2


def test_cross_check_detects_missing_coset():
    rep = hypersurface_cosets(fermat_line())
    broken = SolveReport(rep.cosets[:1], SolveStats(), [True])
    oracle = cross_check(broken, [fermat_line()], 12)
    assert not oracle.passed
    assert len(oracle.missed_by_solver) == 1


def test_cross_check_detects_spurious_coset():
    rep = hypersurface_cosets(fermat_line())
    bogus = TorsionCoset(TorsionPoint([Fraction(0), Fraction(0)]),
                         IntegerLattice(2, [[1, 0]]))  # {(1, t)}
    doctored = SolveReport(rep.cosets + [bogus], SolveStats(),
                           [True] * 3)
    oracle = cross_check(doctored, [fermat_line()], 12)
    assert not oracle.passed
    assert [c.canonical_key() for c in oracle.spurious_cosets] == \
        [bogus.canonical_key()]


def test_cross_check_gaussian_coefficients():
    z4 = CyclotomicNumber.zeta(4)
    f = L(2, {(1, 0): 1, (0, 1): z4, (0, 0): -1})
    rep = hypersurface_cosets(f)
    oracle = cross_check(rep, [f], 12)
    assert oracle.passed


def test_cross_check_missed_points_match_per_coset_scan():
    # missed_by_solver looks points up among the point cosets and scans
    # only the positive-dimensional ones; the reference tests every
    # (point, coset) pair.  Solver outputs with cosets dropped make the
    # missed lists nonempty
    z3 = CyclotomicNumber.zeta(3)
    inputs = [(L(2, {(d, 0): 1, (0, d): 1, (1, 1): 1, (0, 0): 1}), 48)
              for d in range(4, 25, 4)]
    # the curve x*y = 1, the points of x + y = -1 and the curve
    # x^2 = zeta_3 y
    inputs.append((L(2, {(1, 1): 1, (0, 0): -1})
                   * L(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
                   * L(2, {(2, 0): 1, (0, 1): -z3}), 24))
    curves = 0
    for f, max_order in inputs:
        cosets = hypersurface_cosets(f).cosets
        curves += sum(c.dimension == 1 for c in cosets)
        for kept in (cosets, cosets[1::3], []):
            rep = cross_check(SolveReport(kept, SolveStats(), [True] *
                                          len(kept)), [f], max_order)
            assert rep.missed_by_solver == [
                p for p in rep.points
                if not any(c.contains_point(p) for c in kept)]
            assert bool(rep.missed_by_solver) == (kept is not cosets)
    assert curves == 2


# ---------------------------------------------------------------------------
# the Galois-orbit scan against the grid scan


def _root_of_unity(rng, level):
    # +-zeta_d^j for a d dividing the level, stored at the level itself,
    # so the stored level is mostly not minimal
    d = rng.choice([d for d in range(1, level + 1) if level % d == 0])
    c = CyclotomicNumber.zeta(d, rng.randrange(d)).embed_to_level(level)
    return c * rng.choice((1, -1))


def _coefficient(rng, level):
    kind = rng.random()
    if kind < 0.75:
        return _root_of_unity(rng, level)
    if kind < 0.9:
        return CyclotomicNumber.from_rational(
            rng.choice((1, -1)) * rng.randint(1, 2)).embed_to_level(level)
    while True:
        c = CyclotomicNumber(level, [rng.randint(-2, 2)
                                     for _ in range(euler_phi(level))])
        if not c.is_zero():
            return c


def _random_system_poly(rng, n, level):
    # a sparse polynomial at the given level, most often times a
    # binomial x^e - zeta, whose coset puts torsion points on it
    while True:
        terms = {}
        for _ in range(rng.choice((2, 3, 3, 4))):
            e = tuple(rng.randint(-1, 3) for _ in range(n))
            terms[e] = _coefficient(rng, level)
        f = L(n, terms)
        if len(f.terms) >= 2:
            break
    e = tuple(rng.randint(-1, 2) for _ in range(n))
    if rng.random() < 0.7 and any(e):
        f = f * L(n, {e: 1, (0,) * n: _root_of_unity(rng, level)})
    return f


def test_brute_force_points_matches_grid_scan():
    rng = random.Random(20261018)
    levels = (1, 3, 4, 5, 7, 8, 12, 24)
    nonempty = 0
    draws = 0
    for n, max_order, count in ((1, 16, 16), (2, 16, 24), (3, 10, 12)):
        for i in range(count):
            level = levels[i % len(levels)]
            system = [_random_system_poly(rng, n, level)]
            if i % 3 == 2:
                system.append(_random_system_poly(rng, n, rng.choice(levels)))
            expected = _grid_points(system, max_order)
            assert brute_force_points(system, max_order) == expected, \
                (n, system)
            nonempty += bool(expected)
            draws += 1
    # the sweep is only a check when many draws have torsion points
    assert nonempty >= draws // 2


def test_brute_force_points_non_minimal_stored_levels():
    # zeta_6 stored at level 12 and a rational stored at level 8: the
    # acting group is computed from the stored levels and shrinks, and
    # the points stay the same
    z6_at_12 = CyclotomicNumber.zeta(6).embed_to_level(12)
    minus_one_at_8 = CyclotomicNumber.from_rational(-1).embed_to_level(8)
    assert (z6_at_12.level, minus_one_at_8.level) == (12, 8)
    f = L(2, {(1, 0): 1, (0, 1): z6_at_12, (0, 0): minus_one_at_8})
    g = L(2, {(1, 0): 1, (0, 1): CyclotomicNumber.zeta(6), (0, 0): -1})
    assert f.terms[(0, 1)].level == 12
    pts = brute_force_points([f], 16)
    assert pts == _grid_points([f], 16) == brute_force_points([g], 16)
    assert pts
    h = L(2, {(2, 1): minus_one_at_8, (0, 0): 1})
    assert brute_force_points([f, h], 16) == _grid_points([f, h], 16)


def test_orbit_representatives_partition_exact_order_points():
    for n in (1, 2, 3):
        for level in (1, 2, 3, 4, 6, 8, 12, 24, 60):
            for m in range(1, 17):
                group = _units(m, gcd(m, level))
                assert len(group) == euler_phi(m) // euler_phi(gcd(m, level))
                reps = _representatives(n, m, level)
                assert reps == sorted(reps)
                covered = []
                for k in reps:
                    orbit = [tuple(u * x % m for x in k) for u in group]
                    assert k == min(orbit)
                    covered += orbit
                covered.sort()
                assert covered == _exact_order_points(n, m), (n, level, m)


def test_representatives_are_yielded_lazily():
    reps = _orbit_representatives(3, 24, _units(24, 1))
    assert next(reps) == ((0, 0), [1])
    prefix, lasts = next(reps)
    assert (prefix, list(lasts)) == ((0, 1), list(range(24)))


def test_budget_boundary_is_the_jordan_totient_sum():
    for n, max_order in ((1, 30), (2, 12), (3, 6)):
        f = L(n, {(1,) + (0,) * (n - 1): 1, (0,) * n: -1})
        total = _grid_size(n, max_order)
        assert brute_force_points([f], max_order, budget=total) == \
            _grid_points([f], max_order)
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_points([f], max_order, budget=total - 1)
        assert (exc.value.attempted, exc.value.budget) == (total, total - 1)


def test_budget_check_stops_at_the_budget():
    # the check sums the grid only until it passes the budget, so an
    # absurd max order fails fast instead of looping up to it
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_points([fermat_line()], 10 ** 12, budget=100)
    assert exc.value.attempted == 101


def test_over_budget_scan_compiles_and_tests_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the scan ran before the budget check")

    monkeypatch.setattr(_CompiledPoly, "__init__", forbidden)
    monkeypatch.setattr(_CompiledPoly, "zeros", forbidden)
    with pytest.raises(BudgetExceededError):
        brute_force_points([fermat_line()], 40, budget=_grid_size(2, 40) - 1)


def test_cross_check_counts_one_test_per_orbit(monkeypatch):
    zeros = _CompiledPoly.zeros
    calls = []

    def counted(self, prefix, lasts, m):
        calls.extend((prefix + (v,), m) for v in lasts)
        return zeros(self, prefix, lasts, m)

    monkeypatch.setattr(_CompiledPoly, "zeros", counted)
    z4 = CyclotomicNumber.zeta(4)
    for f, level in ((fermat_line(), 1),
                     (L(2, {(1, 0): 1, (0, 1): z4, (0, 0): -1}), 4)):
        calls.clear()
        rep = cross_check(hypersurface_cosets(f), [f], 12)
        orbits = sum(len(_representatives(2, m, level))
                     for m in range(1, 13))
        assert rep.tested == len(calls) == len(set(calls)) == orbits
        assert rep.tested < _grid_size(2, 12)
        assert rep.points == _grid_points([f], 12)


# ---------------------------------------------------------------------------
# the residue-row kernel against the accumulator kernel


def _coefficient_with_denominator(rng, level):
    c = _coefficient(rng, level)
    if rng.random() < 0.4:
        c = c * Fraction(1, rng.randint(2, 6))
    return c


def _kernel_draws(rng, n, level):
    # seeded polynomials with negative exponents and rational
    # denominators, most of them times a binomial x^e - zeta so that some
    # representatives vanish, then the zero polynomial and a nonzero
    # constant
    for _ in range(3):
        f = L(n, {tuple(rng.randint(-2, 3) for _ in range(n)):
                  _coefficient_with_denominator(rng, level)
                  for _ in range(rng.choice((1, 2, 3)))})
        e = tuple(rng.randint(-1, 2) for _ in range(n))
        if rng.random() < 0.8 and any(e):
            f = f * L(n, {e: 1, (0,) * n: _root_of_unity(rng, level)})
        yield f
    yield L(n, {})
    yield L(n, {(0,) * n: _coefficient_with_denominator(rng, level)})


def test_residue_rows_match_reference_kernel():
    rng = random.Random(14)
    orders = {1: range(1, 31), 2: list(range(1, 17)) + [24, 30],
              3: list(range(1, 9)) + [12, 30]}
    vanished = tested = 0
    for n in (1, 2, 3):
        for level in (1, 3, 4, 8, 12, 24):
            for f in _kernel_draws(rng, n, level):
                for m in orders[n]:
                    new = _CompiledPoly(f, m)
                    ref = _ReferenceCompiledPoly(f, m)
                    for k in _representatives(n, m, level):
                        verdict = _vanishes(new, k, m)
                        assert verdict == ref.vanishes(k, m), (f, m, k)
                        if not f.terms:
                            assert verdict
                            continue
                        if list(f.terms) == [(0,) * n]:
                            assert not verdict
                        vanished += verdict
                        tested += 1
    # the comparison means little unless nonzero polynomials vanish on
    # many representatives and not on most
    assert tested > 10 * vanished > 1000


def test_exact_folds_happen_only_at_selected_points(monkeypatch):
    # the exact test folds one accumulator modulo Phi_big for each point
    # whose fingerprints sum to 0 mod P, and nothing for the others: a
    # scan folds at most once per point it decides.  An eager test would
    # fold at every point of every order
    init, zeros, reduce = (_CompiledPoly.__init__, _CompiledPoly.zeros,
                           _Level.reduce)
    compiled, folds = [], []
    counts = {"decided": 0, "selected": 0}

    def recorded_init(self, f, m, *tables):
        init(self, f, m, *tables)
        compiled.append(self)

    def counted_zeros(self, prefix, lasts, m):
        selected = sum(
            not sum(table[(sum(map(mul, head, prefix)) + last * k) % m]
                    for head, last, table in self.terms) % oracle._MODULUS
            for k in lasts)
        before = len(folds)
        out = zeros(self, prefix, lasts, m)
        assert len(folds) - before == selected <= len(lasts)
        counts["decided"] += len(lasts)
        counts["selected"] += selected
        return out

    def counted_reduce(self, acc):
        folds.append(len(acc))
        return reduce(self, acc)

    monkeypatch.setattr(_CompiledPoly, "__init__", recorded_init)
    monkeypatch.setattr(_CompiledPoly, "zeros", counted_zeros)
    monkeypatch.setattr(_Level, "reduce", counted_reduce)
    z12 = CyclotomicNumber.zeta(12)
    f = L(1, {(5,): z12, (1,): 1 + z12, (0,): -1})
    # g vanishes on the curve x*y = zeta_12, in full batches and in lists
    g = L(2, {(2, 1): z12, (1, 0): 1 + z12, (0, 0): -1}) * \
        L(2, {(1, 1): 1, (0, 0): -z12})
    for h, max_order in ((f, 300), (g, 36)):
        compiled.clear()
        folds.clear()
        counts.update(decided=0, selected=0)
        points = brute_force_points([h], max_order)
        assert bool(points) == (h is g)
        assert len(compiled) == max_order
        # one accumulator of length big = lcm(12, m) per fold
        assert all(length % 12 == 0 for length in folds)
        assert len(folds) == counts["selected"] < counts["decided"]
        # every representative of every emitted orbit was selected
        assert len(folds) >= len({min(tuple(u * x % p.order for x in p.nums)
                                      for u in _units(p.order,
                                                      gcd(p.order, 12)))
                                  for p in points})
        assert bool(folds) == (h is g)


def _wide_poly(rng, n, level):
    # 9 to 12 terms, negative exponents and denominators: a random sparse
    # polynomial times x^e - zeta, which puts torsion points on it
    while True:
        h = L(n, {tuple(rng.randint(-2, 3) for _ in range(n)):
                  _coefficient_with_denominator(rng, level)
                  for _ in range(6)})
        e = tuple(rng.randint(-1, 2) for _ in range(n))
        if any(e):
            f = h * L(n, {e: 1, (0,) * n: _root_of_unity(rng, level)})
            if 9 <= len(f.terms) <= 12:
                return f


def test_full_batches_match_reference_kernel():
    # the packed-lane test of a batch over the whole last coordinate
    # against one exact evaluation per point, on every prefix.  The lanes
    # hold sums of up to 12 fingerprints, some past 8P, so a lane too
    # narrow for them carries into the next one; the last exponents fall
    # in every rotation class (= 0 mod m, prime to m, a common factor
    # with m)
    rng = random.Random(29)
    modulus = oracle._MODULUS
    orders = {2: (6, 8, 9, 10, 12, 16), 3: (4, 6, 8, 9), 4: (3, 4, 6)}
    classes, wide, found, tested = set(), 0, 0, 0
    for n, ms in orders.items():
        for level in (1, 3, 4, 12):
            f = _wide_poly(rng, n, level)
            for m in ms:
                new, ref = _CompiledPoly(f, m), _ReferenceCompiledPoly(f, m)
                assert len(new.terms) > 8
                classes.update(0 if last % m == 0 else
                               1 if gcd(last, m) == 1 else 2
                               for _, last, _ in new.terms)
                for prefix in product(range(m), repeat=n - 1):
                    expected = [k for k in range(m)
                                if ref.vanishes(prefix + (k,), m)]
                    assert new.zeros(prefix, range(m), m) == expected, \
                        (f, m, prefix)
                    sums = [0] * m
                    for head, last, table in new.terms:
                        b = sum(map(mul, head, prefix))
                        for k in range(m):
                            sums[k] += table[(b + last * k) % m]
                    wide += sum(s >= 8 * modulus for s in sums)
                    found += len(expected)
                    tested += m
    # classes: 0 for last = 0 mod m, 1 for a unit, 2 for a common factor
    assert classes == {0, 1, 2}
    assert tested > 5 * found > 500
    assert wide > 100


def test_zero_lane_detector_is_exact():
    # lanes hold sums of t fingerprints below P; a lane is flagged exactly
    # when its sum is 0 mod P: 0 and P fold to 0 and P, their neighbours
    # to neither, and a zero lane's borrow does not spill into the next
    modulus = oracle._MODULUS
    for t in (1, 2, 3, 8, 9, 12, 40):
        top = t * (modulus - 1)  # the largest lane
        values = [0, 1, modulus, modulus - 1, modulus + 1, 2 * modulus - 1,
                  2 * modulus, 2 * modulus + 1, top, top - 1,
                  # the largest folded value, P + t - 2
                  (t - 1 << oracle._BITS) - 1, 0, 1, modulus, 1, 0]
        values = [v for v in values if 0 <= v <= top]
        for lanes in (values, values[::-1], values[1::2] + values[::2]):
            packer = oracle._Lanes(len(lanes), t)
            total = sum(v << k * packer.width for k, v in enumerate(lanes))
            assert packer.zero_lanes(total) == \
                [k for k, v in enumerate(lanes) if not v % modulus], t


@pytest.mark.parametrize("name, value", [("_WEIGHTS", (0,)),
                                         ("_MODULUS", 1)])
def test_colliding_fingerprints_are_decided_exactly(monkeypatch, name,
                                                    value):
    # the fingerprints only select; with all weights 0, or modulus 1,
    # every row's fingerprint is 0, every point is selected, and the
    # exact row sums alone must give the same points and verdicts
    rng = random.Random(21)
    systems = [[_random_system_poly(rng, n, level)]
               for n, level in ((1, 12), (2, 1), (2, 4), (3, 3))]
    systems.append([fermat_line(), L(2, {(1, 1): 1, (0, 0): -1})])
    expected = [_grid_points(system, 12) for system in systems]
    # weights built while the modulus is 1 must not outlive the test
    monkeypatch.setattr(oracle, "_WEIGHTS", oracle._WEIGHTS)
    monkeypatch.setattr(oracle, name, value)
    prints = []
    for system, points in zip(systems, expected):
        assert brute_force_points(system, 12) == points
        n = system[0].nvars
        assert len(points) < _grid_size(n, 12)
    assert sum(map(bool, expected)) >= 3
    for n, level in ((1, 12), (2, 4), (3, 3)):
        for f in _kernel_draws(rng, n, level):
            for m in (1, 5, 6, 8):
                new = _CompiledPoly(f, m)
                ref = _ReferenceCompiledPoly(f, m)
                for k in _representatives(n, m, level):
                    assert _vanishes(new, k, m) == ref.vanishes(k, m), \
                        (f, m, k)
                prints += [p for _, _, table in new.terms
                           for p in table.values()]
    assert prints and not any(prints)


# ---------------------------------------------------------------------------
# list batches in lanes, fingerprints a residue class at a time


def _span_lanes(span, m, width):
    return [span >> k * width & (1 << width) - 1 for k in range(m)]


def test_list_batches_match_reference_kernel():
    # the lane test of a batch with a list of last coordinates against one
    # exact evaluation per point, on every prefix, those sharing a factor
    # with m included.  The lists are the walk's own (their masks kept per
    # prefix gcd), the zeros alone and random sublists (masks built on
    # the fly): a listed zero lane then often sits just above an unlisted
    # lane with a nonzero sum, where a borrow across lanes or a mask one
    # lane off changes the answer.  At level 4 the polynomial has 9 to 12
    # terms, so its lanes are wider than 64 bits
    rng = random.Random(30)
    modulus = oracle._MODULUS
    orders = {2: (4, 6, 8, 9, 12), 3: (4, 6, 8), 4: (4, 6)}
    shared = neighbours = found = 0
    for n, ms in orders.items():
        for level in (1, 3, 4, 12):
            f = _wide_poly(rng, n, level) if level == 4 else \
                _random_system_poly(rng, n, level)
            for m in ms:
                new, ref = _CompiledPoly(f, m), _ReferenceCompiledPoly(f, m)
                walk = dict(_orbit_representatives(n, m,
                                                   _units(m, gcd(m, level))))
                for prefix in product(range(m), repeat=n - 1):
                    expected = [k for k in range(m)
                                if ref.vanishes(prefix + (k,), m)]
                    sums = [0] * m
                    for head, last, table in new.terms:
                        b = sum(map(mul, head, prefix))
                        for k in range(m):
                            sums[k] += table[(b + last * k) % m]
                    lists = [expected,
                             [k for k in range(m) if rng.random() < 0.5],
                             sorted(set(expected) | set(rng.sample(
                                 range(m), m // 3)))]
                    if isinstance(walk.get(prefix), list):
                        lists.insert(0, walk[prefix])
                        lists.append(walk[prefix])
                    for lasts in lists:
                        assert new.zeros(prefix, lasts, m) == [
                            k for k in lasts if k in expected], \
                            (f, m, prefix, lasts)
                        listed = set(lasts)
                        neighbours += sum(
                            1 for k in expected
                            if k in listed and k - 1 >= 0
                            and k - 1 not in listed and sums[k - 1] % modulus)
                    shared += gcd(m, *prefix) > 1
                    found += len(expected)
    assert shared > 300
    assert found > 300
    assert neighbours > 300


def _reference_row(table, r):
    # the exact row of a term at residue r as the scan once built it
    # (_Residues._row), kept as the reference for the fingerprints:
    # power-basis coordinates of den*c_e*zeta_big^(r*big/m) mod Phi_big
    level = table.powers.level
    base = r * table.unit
    row = [0] * level.phi
    for p, c in table.coeff_positions:
        k = (base + p) % level.n
        if k < level.phi:  # a basis vector
            row[k] += c
            continue
        for i, x in enumerate(level.power(k)):
            if x:
                row[i] += c * x
    return row


def _reference_fingerprint(table, r):
    # the per-residue formula, with fp(zeta_big^k) from the power basis
    level = table.powers.level
    weights = oracle._weights(level.phi)
    out = 0
    for p, c in table.coeff_positions:
        k = (r * table.unit + p) % level.n
        power = [int(i == k) for i in range(level.phi)] if k < level.phi \
            else level.power(k)
        out += c * sum(map(mul, power, weights))
    return out % oracle._MODULUS


def test_class_built_fingerprints_match_per_residue_formula(monkeypatch):
    # building the span at base b fills the fingerprints of exactly the
    # residues = b mod gcd(last, m) in one call, without a single-residue
    # lookup, each equal to the per-residue formula and to the fingerprint
    # of its exact row, with every lane of every span the fingerprint at
    # b + last*k; the last exponents fall in every rotation class (= 0 mod
    # m, prime to m, a common factor with m)
    rng = random.Random(31)
    classes = set()
    missing, lookups = _Residues.__missing__, []

    def counted_missing(self, r):
        lookups.append(r)
        return missing(self, r)

    monkeypatch.setattr(_Residues, "__missing__", counted_missing)
    for n, level, ms in ((2, 1, (6, 8, 9)), (2, 12, (4, 10)),
                         (3, 3, (6, 12)), (3, 8, (8, 5))):
        f = _wide_poly(rng, n, level)
        for m in ms:
            new = _CompiledPoly(f, m)
            width = new.lanes.width
            for spans, (_, last, table) in zip(new.spans, new.terms):
                g = gcd(last, m)
                classes.add(0 if g == m else 1 if g == 1 else 2)
                for b in rng.sample(range(m), m):
                    before = set(table)
                    lookups.clear()
                    span = spans[b]
                    if b % g not in {r % g for r in before}:
                        assert set(table) - before == set(range(b % g, m, g))
                        # at g = m the class is b alone
                        assert lookups == ([b] if g == m else [])
                    assert _span_lanes(span, m, width) == [
                        table[(b + last * k) % m] for k in range(m)]
                assert sorted(table) == list(range(m))
                weights = oracle._weights(table.powers.level.phi)
                for r in range(m):
                    row = _reference_row(table, r)
                    assert table[r] == _reference_fingerprint(table, r) == \
                        sum(map(mul, row, weights)) % oracle._MODULUS
    assert classes == {0, 1, 2}


def test_one_power_table_per_level_per_scan(monkeypatch):
    # the polynomials of a scan and its orders of equal level B = lcm(N, m)
    # share one _Powers; a new scan starts without one
    init = _CompiledPoly.__init__
    compiled = []

    def recorded_init(self, f, m, *tables):
        init(self, f, m, *tables)
        compiled.append((m, _system_level([f]), self.terms[0][2].powers))

    monkeypatch.setattr(_CompiledPoly, "__init__", recorded_init)
    z3, z12 = CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(12)
    system = [L(2, {(1, 0): 1, (0, 1): z12, (0, 0): -1}),
              L(2, {(1, 1): z3, (0, 0): 1})]
    for scan in range(2):
        brute_force_points(system, 24)
    assert len(compiled) == 2 * 24 * 2
    first, second = compiled[:48], compiled[48:]
    for records in (first, second):
        by_level = {}
        for m, level, powers in records:
            assert powers.level.n == lcm(level, m)
            by_level.setdefault(powers.level.n, set()).add(id(powers))
        assert all(len(ids) == 1 for ids in by_level.values())
        # B = 12 at m = 1, 2, 3, 4, 6, 12 for the first polynomial and at
        # m = 4, 12 for the second
        assert sum(lcm(level, m) == 12 for m, level, _ in records) == 8
    assert not {id(p) for _, _, p in first} & {id(p) for _, _, p in second}


# ---------------------------------------------------------------------------
# the flat orbit walk against the recursive one


def _recursive_orbit_representatives(n: int, m: int, group):
    """Yield, in lex order, the lex-least point of each orbit of group,
    the acting group H_m (see _units), on the points k in (Z/m)^n of
    exact order m, in nonempty batches (prefix, lasts): the points
    prefix + (v,) for v in lasts, with prefix the first n - 1 coordinates.

    A point is lex-least in its orbit exactly when each coordinate is
    least in its orbit under the stabilizer of the coordinates before
    it.  The stabilizer of a prefix with d = gcd(m, prefix) is the units
    of the group that are 1 modulo m/d; once d = 1 it is trivial and the
    remaining coordinates are free."""
    least, tails = {}, {}

    def orbit_least(c):
        # residues mod m least in their orbit under the units = 1 mod c:
        # walking up, keep each unmarked v and mark its orbit
        out = least.get(c)
        if out is None:
            units = [u for u in group if (u - 1) % c == 0]
            marked = bytearray(m)
            out = least[c] = []
            for v in range(m):
                if not marked[v]:
                    out.append(v)
                    for u in units:
                        marked[u * v % m] = 1
        return out

    def extend(prefix, d):
        if d == 1:
            for head in product(range(m), repeat=n - 1 - len(prefix)):
                yield prefix + head, range(m)
        elif len(prefix) < n - 1:
            for v in orbit_least(m // d):
                yield from extend(prefix + (v,), gcd(d, v))
        else:
            # the last coordinates depend on the prefix only through d
            lasts = tails.get(d)
            if lasts is None:
                lasts = tails[d] = [v for v in orbit_least(m // d)
                                    if gcd(d, v) == 1]
            if lasts:
                yield prefix, lasts

    yield from extend((), m)


def test_flat_walk_matches_recursive_walk():
    batches = 0
    for n in (1, 2, 3, 4):
        for level in (1, 3, 4, 12):
            for m in range(1, 37):
                group = _units(m, gcd(m, level))
                flat = list(_orbit_representatives(n, m, group))
                assert flat == list(
                    _recursive_orbit_representatives(n, m, group)), \
                    (n, level, m)
                batches += len(flat)
    assert batches > 100_000
