"""Order classes through the twisted-family recursion: the member of the
family that a torsion point's 2-adic valuation pattern names, the
OrderClass set operations, the names auxiliary_polynomials gives its
members, and whole solves with the classes against solves of the whole
family."""

import hashlib
import itertools
import random
from math import gcd, lcm

import pytest

from torsioncosets import solver
from torsioncosets.cli import parse_system
from torsioncosets.arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    euler_phi,
)
from torsioncosets.lattices import IntegerLattice
from torsioncosets.poly import LaurentPolynomial as L
from torsioncosets.poly import Twist
from torsioncosets.solver import (
    OrderClass,
    auxiliary_polynomials,
    hypersurface_cosets,
    member_classes,
    minimal_level_normalize,
)

LEVELS = (1, 3, 4, 8, 12)


def _v2(m):
    return (m & -m).bit_length() - 1


def _sigma_exponent(level):
    return level // 2 + 1 if level % 4 == 0 else 2


def _described(f, twist, level):
    # the polynomial the name describes, built afresh: f(eps X) or
    # sigma(f)(eps X^s), with the signs as roots of unity of order 2
    signs = [RootOfUnity(0 if e == 1 else 1, 2) for e in twist.eps]
    if twist.kind == "sign":
        return f.scale_variables(signs)
    k = _sigma_exponent(level)
    h = f.map_coefficients(
        lambda c: c if c.level == 1 else c.galois(k % c.level))
    s = 1 if level % 4 == 0 else 2
    return L(f.nvars, {tuple(s * x for x in e): c
                       for e, c in h.scale_variables(signs).terms.items()})


def _all_names(n):
    signs = list(itertools.product((1, -1), repeat=n))
    return ([Twist("sign", eps) for eps in signs[1:]]
            + [Twist("galois", eps) for eps in signs])


def _random_normalized(rng, n, level):
    # a level-normalized f with L(f) = Z^n and 3-4 terms
    while True:
        terms = {}
        for _ in range(rng.randint(3, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            c = CyclotomicNumber(level, [rng.randint(-2, 2)
                                         for _ in range(euler_phi(level))])
            if not c.is_zero():
                terms[e] = c
        f = L(n, terms)
        if len(f.terms) > 1 and f.exponent_lattice() == IntegerLattice.full(n):
            return minimal_level_normalize(f)[2]


def _named(v, n, level):
    (twist,) = [t for t, cls in member_classes(None, n, level).items()
                if tuple(v) in cls]
    return twist


# ---------------------------------------------------------------------------
# the names of the members


def test_members_are_the_polynomials_their_names_describe():
    rng = random.Random(26001)
    seen = set()
    for level in LEVELS:
        for n in (2, 3):
            for _ in range(3):
                f = _random_normalized(rng, n, level)
                kind, aux = auxiliary_polynomials(f)
                if kind == "split":
                    continue
                level_f = f.coefficient_level()
                assert [t for t, _, _ in aux] == _all_names(n)
                for twist, cand, res in aux:
                    assert cand == _described(f, twist, level_f), (f, twist)
                    assert not res.is_zero()
                seen.add(level_f)
                # building a subset of the members gives the same members
                some = set(rng.sample(_all_names(n), 3))
                _, part = auxiliary_polynomials(f, some)
                assert [t for t, _, _ in part] == [
                    t for t in _all_names(n) if t in some]
                full = {t: (c, r) for t, c, r in aux}
                assert all(full[t] == (c, r) for t, c, r in part)
    assert {1, 3, 4, 8, 12} <= seen


def test_a_normalized_family_keeps_every_name_in_order():
    # x + y - i is not level-minimal: sigma(f)(-x, -y) = -f, an internal
    # error of the family.  Normalized to level 1 it keeps every member,
    # each under its own name
    z4 = CyclotomicNumber.zeta(4)
    f = L(2, {(1, 0): 1, (0, 1): 1, (0, 0): -z4})
    _, level, f = minimal_level_normalize(f)
    assert level == 1
    kind, aux = auxiliary_polynomials(f)
    assert kind == "aux"
    assert [t for t, _, _ in aux] == _all_names(2)
    for twist, cand, _ in aux:
        assert cand == _described(f, twist, 1)


# ---------------------------------------------------------------------------
# the member a valuation pattern names


def _tau_exponent(twist, big):
    # the u of the automorphism zeta_big -> zeta_big^u of the proof
    odd = big >> _v2(big)
    if twist.kind == "galois" and big % 4:
        return next(u for u in range(1, 2 * big, 2)
                    if u % odd == 2 % odd and gcd(u, big) == 1)
    return 1 + big // 2


@pytest.mark.parametrize("level", LEVELS)
def test_each_point_lies_on_the_member_it_names(level):
    # member(zeta) = tau(f(zeta)) for the automorphism tau of the proof,
    # exactly, at every torsion point: so f(zeta) = 0 gives member(zeta)
    # = 0.  The orders reach 2^7 * 3 = 384 and 2^9.
    rng = random.Random(26100 + level)
    orders = (1, 2, 3, 4, 6, 8, 12, 16, 24, 128, 384, 512)
    for n in (1, 2, 3):
        for _ in range(4):
            f = _random_normalized(rng, n, level) if n > 1 else L(1, {
                (0,): CyclotomicNumber.zeta(level, 1), (2,): 1, (3,): -2})
            level_f = f.coefficient_level()
            for _ in range(12):
                point = [RootOfUnity(rng.randrange(m), m)
                         for m in (rng.choice(orders) for _ in range(n))]
                zeta = TorsionPoint(point)
                v = [_v2(w.order) for w in point]
                twist = _named(v, n, level_f)
                big = lcm(zeta.order, level_f)
                value = f.evaluate(zeta)
                image = value.galois(_tau_exponent(twist, big) % value.level)
                assert _described(f, twist, level_f).evaluate(zeta) == image


def test_the_rule_at_the_thresholds():
    # odd level: t = 1; level 8: t = 3
    assert _named((0, 0), 2, 3) == Twist("galois", (1, 1))
    assert _named((1, 0), 2, 1) == Twist("galois", (-1, 1))
    assert _named((2, 0), 2, 3) == Twist("sign", (-1, 1))
    assert _named((9, 9), 2, 1) == Twist("sign", (-1, -1))
    assert _named((3, 1), 2, 8) == Twist("galois", (-1, 1))
    assert _named((2, 2), 2, 8) == Twist("galois", (1, 1))
    assert _named((4, 7), 2, 8) == Twist("sign", (1, -1))
    assert _named((7, 7, 0), 3, 12) == Twist("sign", (-1, -1, 1))
    # every member is named by some pattern
    for level in LEVELS:
        for n in (1, 2, 3):
            assert set(member_classes(None, n, level)) == set(_all_names(n))


# ---------------------------------------------------------------------------
# OrderClass


def _patterns(n, top):
    return itertools.product(range(top), repeat=n)


def test_order_class_cuts_keep_the_patterns():
    rng = random.Random(26200)
    for n in (1, 2, 3):
        for cut in (1, 2, 3):
            forms = solver._all_forms(n, cut)
            cls = OrderClass(n, cut, rng.sample(forms, len(forms) // 2))
            for higher in (cut, cut + 1, cut + 3):
                wide = cls.at_cut(higher)
                assert all((v in wide) == (v in cls)
                           for v in _patterns(n, higher + n + 2))
    # valuations of any size: only the order of the large ones counts
    cls = OrderClass(2, 2, [(2, 3)])
    assert (5, 40) in cls and (2, 3) in cls
    assert (40, 5) not in cls and (7, 7) not in cls and (1, 3) not in cls


def test_order_class_union_and_projection():
    rng = random.Random(26201)
    for n in (2, 3):
        forms = solver._all_forms(n, 2)
        a = OrderClass(n, 2, rng.sample(forms, 5))
        b = OrderClass(n, 3, rng.sample(solver._all_forms(n, 3), 5))
        both = a | b
        proj = a.project()
        for v in _patterns(n, 7):
            assert (v in both) == (v in a or v in b)
        for w in _patterns(n - 1, 7):
            # some last coordinate below 7 + n reaches every normal form
            assert (w in proj) == any(w + (x,) in a for x in range(7 + n))


def test_order_class_shift_matches_products_of_roots():
    # shift(a) holds exactly the patterns of x * w, x in the class and w
    # with 2-adic order valuations a, over 2-power roots of unity
    def valuations(v):
        return [k for k in range(2 ** v) if v == 0 or k % 2]

    rng = random.Random(26202)
    for n in (1, 2):
        forms = solver._all_forms(n, 2)
        for _ in range(6):
            cls = OrderClass(n, 2, rng.sample(forms, max(1, len(forms) // 3)))
            a = tuple(rng.randint(0, 4) for _ in range(n))
            moved = cls.shift(a)
            reached = set()
            for v in _patterns(n, 7):
                if v not in cls:
                    continue
                for ks in itertools.product(*(valuations(x) for x in v)):
                    for js in itertools.product(*(valuations(y) for y in a)):
                        reached.add(tuple(
                            _v2((RootOfUnity(k, 2 ** x)
                                 * RootOfUnity(j, 2 ** y)).order)
                            for k, x, j, y in zip(ks, v, js, a)))
            assert all((b in moved) == (b in reached)
                       for b in _patterns(n, 7)), (cls.forms, a)


# ---------------------------------------------------------------------------
# whole solves: the classes against the whole family


def _unit_sum(rng, n, level, k, top):
    # k terms with exponents in 0..top and coefficients +-zeta_N^j: such
    # sums vanish on many torsion points, of many valuation patterns
    while True:
        exps = set()
        while len(exps) < k:
            exps.add(tuple(rng.randint(0, top) for _ in range(n)))
        f = L(n, {e: CyclotomicNumber.zeta(level, rng.randrange(level))
                  * rng.choice((1, -1)) for e in sorted(exps)})
        if f.exponent_lattice() == IntegerLattice.full(n):
            return f


def _planted(level, d):
    # x^d + u y^d - u' x y + w: the points with x^d = -w and y^(d-1) =
    # (u'/u) x, of 2-adic valuation v_2(2d) >= 7 in x for d = 64, 2^7 * 3
    # = 384 in x for d = 32 at level 12 (w = zeta_12, -w of order 12)
    z = CyclotomicNumber.zeta(level)
    return L(2, {(d, 0): 1, (0, d): z ** (level // 4 or 1), (1, 1): -z ** 2,
                 (0, 0): z})


def _differential_inputs():
    rng = random.Random(26300)
    inputs = []
    for level in LEVELS:
        for n in (2, 3):
            for _ in range(3 if n == 2 else 2):
                inputs.append(_unit_sum(rng, n, level, rng.randint(4, 5),
                                        3 if n == 2 else 2))
    inputs += [_planted(1, 64), _planted(12, 32), _planted(8, 16),
               _planted(3, 32), _planted(4, 32)]
    return inputs


def _keys(report):
    return [c.int_key() for c in report.cosets]


def test_classes_find_the_cosets_of_the_whole_family(monkeypatch):
    inputs = _differential_inputs()
    with_classes = [hypersurface_cosets(f) for f in inputs]
    solve = solver._solve_hypersurface
    monkeypatch.setattr(
        solver, "_solve_hypersurface",
        lambda f, stats, depth, classes=None: solve(f, stats, depth))
    whole = [hypersurface_cosets(f) for f in inputs]
    for f, got, ref in zip(inputs, with_classes, whole):
        assert _keys(got) == _keys(ref), f
        assert ref.stats.skipped_members == 0
        assert got.stats.resultants <= ref.stats.resultants
    assert sum(len(r.cosets) for r in whole) > 1000
    assert sum(r.stats.skipped_members for r in with_classes) > 0
    # the planted points of 2-adic valuation >= 7 are found
    deep = [c for r in with_classes for c in r.cosets
            if max(_v2(w.order) for w in c.point) >= 7]
    assert any(c.point.order % 384 == 0 for c in deep)
    assert any(c.point.order % 128 == 0 and c.point.order % 3 for c in deep)


# ---------------------------------------------------------------------------
# inputs the whole family took minutes on


_LEVEL3_TRIVARIATE = (
    "vars: x y w\nfield: 3\npoly: (-1 - z)*x^3*w - x*w + (1 - z)*x"
    " + (-1 + z)*y^2 + z*y - w^2\n")
_FOUR_VARIABLES = ("vars: x1 x2 x3 x4\npoly: -x1*x2*x3*x4 + x1*x2*x4^-1"
                   " + x1*x3*x4 - x2 - x3 + 1\n")


def _digest(report):
    keys = sorted(c.int_key() for c in report.cosets)
    return hashlib.sha256(repr(keys).encode()).hexdigest()[:16]


def test_level3_trivariate_takes_fewer_resultants():
    # the whole family took 113 resultants and about 40 s on this input,
    # for the same 33 cosets
    (f,) = parse_system(_LEVEL3_TRIVARIATE).polynomials
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 33 and all(rep.certificates)
    assert _digest(rep) == "264b527988d675c5"
    assert rep.stats.resultants == 65 < 113
    # 48 members skipped by their classes and every other one eliminated:
    # the solve's family steps have 113 members in all
    assert rep.stats.as_dict()["skipped_members"] == 48
    assert rep.stats.resultants + rep.stats.skipped_members == 113


def test_four_variable_hypersurface_solves():
    # the whole family took 412-521 s and 2141 resultants on this input,
    # for the same cosets
    (f,) = parse_system(_FOUR_VARIABLES).polynomials
    rep = hypersurface_cosets(f)
    assert len(rep.cosets) == 122 and all(rep.certificates)
    assert _digest(rep) == "2a2b1d01d13334d9"
    assert rep.stats.skipped_members > 0
