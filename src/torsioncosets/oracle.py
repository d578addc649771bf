"""Brute-force verification: exhaustive search for torsion points of
bounded order on a polynomial system, and cross-checking of solver
output against it.

The scan makes one exact test per Galois orbit of torsion points.  Let
every coefficient lie in Q(zeta_N) and let k/m be a point of exact order
m, that is gcd(m, k_1, ..., k_n) = 1.  Take u in

    H_m = {u in (Z/m)^* : u = 1 (mod gcd(m, N))}.

By the CRT there is a t with t = 1 (mod N) and t = u (mod m), coprime to
lcm(m, N), and sigma_t : zeta -> zeta^t in Gal(Q(zeta_lcm(m, N))/Q) fixes
every coefficient.  Hence f(zeta_m^(u*k)) = sigma_t(f(zeta_m^k)): the
point u*k mod m is a zero exactly when k is.  H_m acts freely on points
of exact order m (u*k = k forces (u - 1)*k_i = 0 mod m for every i, so
u = 1 mod m), so every orbit has |H_m| = phi(m)/phi(gcd(m, N)) points.
The scan tests the lex-least point of each orbit and emits the whole
orbit when it vanishes.

The exact test sums cached integer rows.  Let B = lcm(N_f, m), with N_f
the lcm of f's stored coefficient levels and D the lcm of their
denominators.  Then

    D * f(zeta_m^k) = sum_e D*c_e * zeta_B^(r_e * B/m),  r_e = e.k mod m,

so the value at k depends on k only through the residues r_e.
The row of a term e and a residue r holds the power-basis coordinates of
D*c_e*zeta_B^(r*B/m), reduced modulo Phi_B; since Phi_B is monic they
are integers.  A row is built the first time its (term, residue) pair
is met and then reused for every later orbit representative of the same
order, and a point is a zero exactly when the elementwise sum of its t
rows, one per term, is all zero.  The test is exact: coordinates in the
power basis 1, zeta_B, ..., zeta_B^(phi(B)-1) of Q(zeta_B) are unique,
and the sum of the rows is the coordinate vector of D*f(zeta_m^k).
cross_check's `tested` counts one decision per Galois orbit: the rows
decide a representative, they do not change which points are tested.

This module is the independent completeness reference for the solver,
so it imports nothing from the library but `.arith`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from .arith import TorsionPoint, _level, _prime_factors, euler_phi


class BudgetExceededError(RuntimeError):
    """Raised when the scan would cover more grid points than allowed."""

    def __init__(self, attempted: int, budget: int):
        super().__init__(
            f"brute-force budget exceeded: {attempted} points > {budget}")
        self.attempted = attempted
        self.budget = budget


class OracleReport:
    """Outcome of comparing solver output with the brute-force scan."""

    __slots__ = ("points", "missed_by_solver", "spurious_cosets", "max_order",
                 "tested")

    def __init__(self, points, missed_by_solver, spurious_cosets, max_order,
                 tested):
        self.points = points
        self.missed_by_solver = missed_by_solver
        self.spurious_cosets = spurious_cosets
        self.max_order = max_order
        self.tested = tested  # exact vanishing tests, one per Galois orbit

    @property
    def passed(self) -> bool:
        return not self.missed_by_solver and not self.spurious_cosets

    def __repr__(self):
        return (f"OracleReport(points={len(self.points)}, "
                f"missed={len(self.missed_by_solver)}, "
                f"spurious={len(self.spurious_cosets)}, "
                f"max_order={self.max_order}, tested={self.tested})")


class _CompiledPoly:
    # integer-only evaluation data for one polynomial at one point order m:
    # per term, its exponent vector, its cleared coefficient as (position,
    # value) pairs at level big = lcm(N_f, m), and its m residue rows,
    # each built on first use (see the module docstring)
    __slots__ = ("level", "unit", "terms")

    def __init__(self, f, m: int):
        big = lcm(_system_level([f]), m)
        den = 1
        for c in f.terms.values():
            den = lcm(den, c.den)
        terms = []
        for e, c in f.terms.items():
            mult = den // c.den
            step = big // c.level
            coeff_positions = tuple((k * step, x * mult)
                                    for k, x in enumerate(c.num) if x)
            terms.append((e, coeff_positions, [None] * m))
        self.level = _level(big)
        self.unit = big // m
        self.terms = terms

    def _row(self, coeff_positions, r: int) -> list[int]:
        # power-basis coordinates of den*c_e*zeta_big^(r*big/m) mod Phi_big
        level = self.level
        base = r * self.unit
        row = [0] * level.phi
        for p, c in coeff_positions:
            for i, x in enumerate(level.power(base + p)):
                if x:
                    row[i] += c * x
        return row

    def vanishes(self, k, m: int) -> bool:
        rows = []
        for e, coeff_positions, table in self.terms:
            r = sum(map(mul, e, k)) % m
            row = table[r]
            if row is None:
                row = table[r] = self._row(coeff_positions, r)
            rows.append(row)
        return not any(map(sum, zip(*rows)))


def _jordan_totient(n: int, m: int) -> int:
    # J_n(m) = m^n prod_{p | m} (1 - p^-n), the number of points of
    # exact order m in (Z/m)^n
    out = m ** n
    for p in _prime_factors(m):
        out = out // p ** n * (p ** n - 1)
    return out


def _system_level(system) -> int:
    # lcm of the coefficient levels as stored
    level = 1
    for f in system:
        for c in f.terms.values():
            level = lcm(level, c.level)
    return level


def _units(m: int, c: int) -> list[int]:
    """The units u mod m with u = 1 (mod c), for c | m; the acting group
    H_m at coefficient level N is _units(m, gcd(m, N))."""
    return [u for u in range(m) if gcd(u, m) == 1 and (u - 1) % c == 0]


def _orbit_representatives(n: int, m: int, level: int):
    """Yield, in lex order, the lex-least point of each H_m-orbit of the
    points k in (Z/m)^n of exact order m.

    A point is lex-least in its orbit exactly when each coordinate is
    least in its orbit under the stabilizer of the coordinates before
    it.  The stabilizer of a prefix with d = gcd(m, prefix) is the units
    of H_m that are 1 modulo m/d, that is 1 modulo lcm(gcd(m, level),
    m/d); once d = 1 it is trivial and the remaining coordinates are
    free."""
    g = gcd(m, level)
    least = {}

    def orbit_least(c):
        # residues mod m least in their orbit under the units = 1 mod c
        out = least.get(c)
        if out is None:
            group = _units(m, c)
            out = least[c] = [v for v in range(m)
                              if all(u * v % m >= v for u in group)]
        return out

    def extend(prefix, d):
        rest = n - len(prefix)
        if d == 1:
            for tail in product(range(m), repeat=rest):
                yield prefix + tail
        elif rest:
            for v in orbit_least(lcm(g, m // d)):
                yield from extend(prefix + (v,), gcd(d, v))

    yield from extend((), m)


def brute_force_points(system, max_order: int,
                       budget: int = 2_000_000) -> list[TorsionPoint]:
    """All torsion points of order at most max_order satisfying every
    polynomial of the system exactly, sorted lexicographically by
    exponent vectors.

    With N the lcm of the stored coefficient levels, one exact test
    decides each orbit of H_m = {u in (Z/m)^* : u = 1 (mod gcd(m, N))} on
    the points of exact order m: for u in H_m the t with t = 1 (mod N)
    and t = u (mod m) given by the CRT makes sigma_t fix the
    coefficients, and H_m acts freely (see the module docstring).  The
    lex-least point of each orbit is tested, and the whole orbit
    {u*k mod m}, phi(m)/phi(gcd(m, N)) points, is emitted when it
    vanishes.

    Raises BudgetExceededError, before any polynomial is compiled, when
    the grid of points covered, the sum over m <= max_order of Jordan's
    totient J_n(m), exceeds budget."""
    system = list(system)
    if not system:
        raise ValueError("empty system")
    n = system[0].nvars
    if max_order < 1:
        raise ValueError("max order must be positive")
    covered = 0
    for m in range(1, max_order + 1):
        covered += _jordan_totient(n, m)
        if covered > budget:
            raise BudgetExceededError(budget + 1, budget)
    level = _system_level(system)
    found = []
    for m in range(1, max_order + 1):
        compiled = [_CompiledPoly(f, m) for f in system]
        group = _units(m, gcd(m, level))
        for k in _orbit_representatives(n, m, level):
            if all(c.vanishes(k, m) for c in compiled):
                found += [tuple(Fraction(u * x % m, m) for x in k)
                          for u in group]
    found.sort()
    return [TorsionPoint(f) for f in found]


def cross_check(solve_report, system, max_order: int,
                budget: int = 2_000_000) -> OracleReport:
    """Compare solver output with the exhaustive scan: missed_by_solver
    lists oracle points not covered by any solver coset, and
    spurious_cosets lists solver cosets that fail exact membership in
    the variety.  Both must be empty for a pass.  The report's tested
    counts the exact vanishing tests of the scan, one per orbit."""
    system = list(system)
    points = brute_force_points(system, max_order, budget)
    cosets = solve_report.cosets
    missed = [p for p in points
              if not any(c.contains_point(p) for c in cosets)]
    spurious = [c for c in cosets if not c.lies_on(system)]
    # H_m acts freely, so the J_n(m) points of exact order m fall into
    # J_n(m)/|H_m| orbits, each tested once; |H_m| = phi(m)/phi(gcd(m, N))
    n, level = system[0].nvars, _system_level(system)
    tested = sum(_jordan_totient(n, m) * euler_phi(gcd(m, level))
                 // euler_phi(m) for m in range(1, max_order + 1))
    return OracleReport(points, missed, spurious, max_order, tested)
