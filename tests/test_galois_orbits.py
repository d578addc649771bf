"""The output-sized solver steps taken once per Galois orbit or once per
lattice: the point candidates of solver._solve_full_lattice restricted
once per orbit and mapped to their conjugates, the exponent congruences
of one matrix solved for many right-hand sides from one Smith form, and
the integer key of a point read off the point itself.  Each is compared
with the route it replaced, which tests/solver_references.py and
tests/lattice_references.py keep verbatim."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm

from torsioncosets import solver
from torsioncosets.arith import CyclotomicNumber, TorsionPoint, euler_phi
from torsioncosets.cli import SystemDocument, parse_system, report_to_json
from torsioncosets.cosets import (
    ExponentCongruences,
    TorsionCoset,
    solve_exponent_congruences,
)
from torsioncosets.lattices import IntegerLattice, identity_matrix
from torsioncosets.poly import LaurentPolynomial

import lattice_references
from solver_references import reference_solve_full_lattice

L = LaurentPolynomial
LEVELS = (1, 3, 4, 8, 12)


def _coefficient(rng, level):
    if rng.random() < 0.5:
        return CyclotomicNumber.zeta(level, rng.randrange(level)) \
            * rng.choice((1, -1))
    c = CyclotomicNumber.zero()
    while c.is_zero():
        c = CyclotomicNumber(level, [rng.randint(-1, 1)
                                     for _ in range(euler_phi(level))])
    return c


def _unit(n, i, power):
    return tuple(power * (j == i) for j in range(n))


def _tower(rng, n, level):
    """h_0 (x_0^a - c_0) + sum_i h_i (x_i^b - c_i x_(i-1)^e) over
    Q(zeta_level): it vanishes on the finite set x_0^a = c_0,
    x_i^b = c_i x_(i-1)^e, whose Galois orbits are larger than one and
    whose last coordinates have larger orders than the others.  At n = 3
    the h_i are constants and b = 2, e = 1, which keeps the resultants
    small."""
    small = n > 2

    def h():
        return L(n, {tuple(rng.randint(0, 1 - small) for _ in range(n)):
                     _coefficient(rng, level)
                     for _ in range(rng.randint(1, 2 - small))})

    def binomial(top, bottom):
        root = CyclotomicNumber.zeta(level, rng.randrange(level))
        return L(n, {top: 1, bottom: -root})

    f = h() * binomial(_unit(n, 0, rng.randint(2, 4 - small)), (0,) * n)
    for i in range(1, n):
        top, bottom = (2, 1) if small else (rng.randint(2, 3),
                                            rng.randint(1, 2))
        f = f + h() * binomial(_unit(n, i, top), _unit(n, i - 1, bottom))
    return f


def _json_bytes(f, report):
    doc = SystemDocument(f.nvars, f.coefficient_level(),
                         [f"x{i}" for i in range(f.nvars)], [f])
    return json.dumps(report_to_json(doc, report), indent=2)


def test_orbit_candidates_match_reference_loop(monkeypatch):
    # the same int_keys and the same JSON bytes as the loop that
    # restricted every candidate, on orbits larger than one whose lifted
    # orders exceed the candidate's, so that sigma_t alone would not do
    conjugations = []

    def recording(cosets, t, step):
        orders = lcm(*(c.point.order for c in cosets))
        conjugations.append(gcd(t, orders) != 1)
        return conjugate(cosets, t, step)

    conjugate = solver._conjugate
    monkeypatch.setattr(solver, "_conjugate", recording)
    rng = random.Random(20261020)
    draws = [(2, LEVELS[k % 5]) for k in range(20)]
    draws += [(3, level) for level in LEVELS]
    conjugated = 0
    for n, level in draws:
        f = _tower(rng, n, level)
        report = solver.hypersurface_cosets(f)
        conjugated += report.stats.conjugated_candidates
        with monkeypatch.context() as m:
            m.setattr(solver, "_solve_full_lattice",
                      reference_solve_full_lattice)
            reference = solver.hypersurface_cosets(f)
        assert reference.stats.conjugated_candidates == 0
        assert ([c.int_key() for c in report.cosets]
                == [c.int_key() for c in reference.cosets]), f
        assert _json_bytes(f, report) == _json_bytes(f, reference), f
    assert conjugated >= 100
    assert len(conjugations) == conjugated
    assert sum(conjugations) >= 2


def test_lacunary_subsolves_and_conjugated_candidates(monkeypatch):
    # x^24 + y^24 + x*y + 1: the 31 subsolves of the loop that
    # restricted every candidate fall to 10, and 21 of the candidates
    # take their cosets from a conjugate's
    f = parse_system("vars: x y\npoly: x^24 + y^24 + x*y + 1\n").polynomials[0]
    report = solver.hypersurface_cosets(f)
    assert len(report.cosets) == 1128
    assert report.stats.subsolves == 10
    assert report.stats.conjugated_candidates == 21
    monkeypatch.setattr(solver, "_solve_full_lattice",
                        reference_solve_full_lattice)
    reference = solver.hypersurface_cosets(f)
    assert reference.stats.subsolves == 31
    assert reference.stats.conjugated_candidates == 0


def test_level3_curve_keeps_its_recorded_json():
    # 7 of its candidates are conjugates, 4 of them need t' != t; the
    # digest is that of the loop that restricted every candidate (and of
    # CLI solve --format json, which ends the bytes with a newline)
    text = "vars: x y\nfield: 3\npoly: y^3 + (1 + z)*x*y^2 + x^2 - x^4*y\n"
    doc = parse_system(text)
    report = solver.hypersurface_cosets(doc.polynomials[0])
    assert report.stats.conjugated_candidates == 7
    out = json.dumps(report_to_json(doc, report), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "abc3e486f14e6e61d3cb7d805cf2fd7598c6ab969a8e949ec3d6ce4c57190eb6")


def _random_rows(rng, k, n):
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
    if rng.random() < 0.3 and k > 1:
        # a dependent row, so that some right-hand sides are inconsistent
        c = rng.choice((-2, -1, 2, 3))
        rows[-1] = [c * x for x in rows[0]]
    return rows


def _solution_key(sol):
    if not sol.consistent:
        return False
    return (sol.ambient, sol.particular, sol.homogeneous.rows,
            sol.generators, sol.class_points())


def test_factored_congruences_match_one_shot_reference():
    rng = random.Random(424242)
    outcomes = set()
    for _ in range(60):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = _random_rows(rng, k, n)
        system = ExponentCongruences(rows)
        for _ in range(12):
            order = rng.choice((1, 2, 3, 4, 6, 12, 30))
            s = TorsionPoint([rng.randrange(order) for _ in range(k)], order)
            if rng.random() < 0.3:
                s = [Fraction(x, order) for x in s.nums]
            got = system.solve(s)
            ref = lattice_references.solve_exponent_congruences(rows, s)
            assert _solution_key(got) == _solution_key(ref), (rows, s)
            assert (_solution_key(solve_exponent_congruences(rows, s))
                    == _solution_key(ref))
            outcomes.add(got.consistent)
    assert outcomes == {True, False}


def test_int_key_of_a_point_is_the_point():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(1, 5)
        order = rng.randint(1, 60)
        point = TorsionPoint([rng.randrange(order) for _ in range(n)], order)
        rows = IntegerLattice.full(n).rows
        p = point.powers(rows)
        assert TorsionCoset.from_point(point).int_key() == (rows, p.order,
                                                            p.nums)
        # the same lattice from another basis has the same HNF rows
        basis = identity_matrix(n)
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            c = rng.choice((-1, 1))
            if i != j:
                basis[i] = [x + c * y for x, y in zip(basis[i], basis[j])]
        coset = TorsionCoset(point, IntegerLattice(n, basis))
        assert coset.int_key() == (rows, p.order, p.nums)
