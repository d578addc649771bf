"""Differential sweep of the integer torsion exponents against the
Fraction-based code they replaced.

RootOfUnity keeps (numerator, order), TorsionPoint integer numerators
over one order, and TorsionCoset keys itself by integer pairings.  The
references below are the earlier implementations, one Fraction per
coordinate: RootOfUnity, TorsionPoint.power and products,
CongruenceSolutionSet.class_shifts, TorsionCoset.canonical_key and
TorsionCoset.sort_key.
"""

import random
from fractions import Fraction
from math import lcm

from torsioncosets.arith import RootOfUnity, TorsionPoint, lowest_terms
from torsioncosets.cosets import TorsionCoset, solve_exponent_congruences


class RefRoot:
    """The Fraction-based RootOfUnity: the reduced exponent in Q/Z."""

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        self.exponent = Fraction(exponent) % 1

    @property
    def order(self):
        return self.exponent.denominator

    @property
    def numerator(self):
        return self.exponent.numerator

    def __mul__(self, other):
        return RefRoot(self.exponent + other.exponent)

    def __pow__(self, k):
        return RefRoot(self.exponent * k)

    def inverse(self):
        return RefRoot(-self.exponent)

    def __eq__(self, other):
        return self.exponent == other.exponent

    def __lt__(self, other):
        return self.exponent < other.exponent

    def __hash__(self):
        return hash(self.exponent)


def ref_power(exps, v):
    # TorsionPoint.power over a tuple of Fraction exponents
    e = Fraction(0)
    for vi, q in zip(v, exps):
        if vi:
            e += vi * q
    return RefRoot(e)


def ref_mul(exps, other):
    return tuple((a + b) % 1 for a, b in zip(exps, other))


def ref_class_shifts(ambient, generators):
    shifts = [(Fraction(0),) * ambient]
    for col, d in generators:
        shifts = [ref_mul(base, [Fraction(j * c, d) % 1 for c in col])
                  for j in range(d) for base in shifts]
    return shifts


def ref_canonical_key(exps, rows):
    return rows, tuple(ref_power(exps, row).exponent for row in rows)


def ref_sort_key(dimension, key):
    return (dimension, key[0],
            tuple((p.numerator, p.denominator) for p in key[1]))


def _exponent(rng, m):
    # negative numerators and exponents >= 1 as well as reduced ones
    return Fraction(rng.randint(-2 * m, 3 * m), m)


def test_roots_of_unity_match_fraction_reference():
    rng = random.Random(1701)
    for _ in range(600):
        q = _exponent(rng, rng.randint(1, 120))
        r = _exponent(rng, rng.randint(1, 120))
        w, v = RootOfUnity(q), RootOfUnity(r)
        rw, rv = RefRoot(q), RefRoot(r)
        assert (w.numerator, w.order) == (rw.numerator, rw.order)
        assert w.exponent == rw.exponent
        # the integer constructor gives the same root, hash included
        same = RootOfUnity(q.numerator, q.denominator)
        assert same == w and hash(same) == hash(w)
        assert (w * v).exponent == (rw * rv).exponent
        k = rng.randint(-7, 7)
        assert (w ** k).exponent == (rw ** k).exponent
        assert w.inverse().exponent == rw.inverse().exponent
        assert (w < v) == (rw < rv)
        assert (w == v) == (rw == rv)
        if w == v:
            assert hash(w) == hash(v)


def test_torsion_points_match_fraction_reference():
    rng = random.Random(1702)
    for _ in range(400):
        n = rng.randint(1, 4)
        orders = [rng.randint(1, 120) for _ in range(n)]
        exps = [_exponent(rng, m) for m in orders]
        p = TorsionPoint(exps)
        reduced = tuple(q % 1 for q in exps)
        assert p.exponents() == reduced
        assert lowest_terms(p.nums, p.order) == tuple(
            (q.numerator, q.denominator) for q in reduced)
        assert p.order == lcm(*(q.denominator for q in reduced))
        # integer numerators over any common multiple of the orders
        big = lcm(*orders) * rng.randint(1, 3)
        ints = TorsionPoint([q.numerator * (big // q.denominator)
                             for q in exps], big)
        assert ints == p and hash(ints) == hash(p)
        v = [rng.randint(-5, 5) for _ in range(n)]
        assert p.power(v).exponent == ref_power(reduced, v).exponent
        other_exps = [_exponent(rng, rng.randint(1, 120)) for _ in range(n)]
        other = TorsionPoint(other_exps)
        assert (p * other).exponents() == ref_mul(reduced, other.exponents())
        assert (p < other) == (reduced < other.exponents())
        assert (p == other) == (reduced == other.exponents())


def test_congruence_cosets_match_fraction_reference():
    rng = random.Random(1703)
    by_ambient = {}
    for _ in range(250):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(1, n + 1))]
        if not any(map(any, rows)):
            continue
        m = rng.randint(1, 120)
        s = [_exponent(rng, m) for _ in rows]
        sol = solve_exponent_congruences(rows, s)
        if not sol.consistent:
            continue
        assert ([p.exponents() for p in sol.class_shifts]
                == ref_class_shifts(n, sol.generators))
        cosets = sol.cosets()
        # the same cosets through other representative points: shifts
        # along the subtorus pair trivially with the lattice
        for c in cosets[:3]:
            if c.dimension:
                t = [rng.randint(0, 11) for _ in c.exponent_matrix()]
                shift = TorsionPoint([
                    sum(Fraction(tj * g[i], 12)
                        for tj, g in zip(t, c.exponent_matrix()))
                    for i in range(n)])
                cosets.append(c.translate(shift))
        for c in cosets:
            exps = c.point.exponents()
            key = ref_canonical_key(exps, c.lattice.rows)
            assert c.canonical_key() == key
            assert c.sort_key() == ref_sort_key(c.dimension, key)
            by_ambient.setdefault(n, []).append((c, key))
    for pairs in by_ambient.values():
        pairs = rng.sample(pairs, min(40, len(pairs)))
        cosets = [c for c, _ in pairs]
        ref = {id(c): ref_sort_key(c.dimension, key) for c, key in pairs}
        assert ([id(c) for c in sorted(cosets, key=TorsionCoset.sort_key)]
                == [id(c) for c in sorted(cosets, key=lambda c: ref[id(c)])])
        for c, key in pairs:
            for d, other in pairs:
                assert (c == d) == (key == other)
                if c == d:
                    assert hash(c) == hash(d)
                # containment of a point against the Fraction pairings
                p = TorsionPoint(d.point.exponents())
                assert c.contains_point(p) == all(
                    ref_power(p.exponents(), row)
                    == ref_power(c.point.exponents(), row)
                    for row in c.lattice.rows)
