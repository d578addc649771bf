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

The test is exact and integer-only.  Let B = lcm(N_f, m), with N_f
the lcm of f's stored coefficient levels and D the lcm of their
denominators.  Then

    D * f(zeta_m^k) = sum_e D*c_e * zeta_B^(r_e * B/m),  r_e = e.k mod m,

so the value at k depends on k only through the residues r_e.
The row of a term e and a residue r holds the power-basis coordinates of
D*c_e*zeta_B^(r*B/m), reduced modulo Phi_B; since Phi_B is monic they
are integers.  A point is a zero exactly when the elementwise sum of its
t rows, one per term, is all zero: coordinates in the power basis 1,
zeta_B, ..., zeta_B^(phi(B)-1) of Q(zeta_B) are unique, and the sum of
the rows is the coordinate vector of D*f(zeta_m^k), the fold modulo
Phi_B of one length-B accumulator of the D*c_e (_Level.reduce, no rows).

The scan decides the representatives in batches that share the first
n - 1 coordinates, so that r_e = (e.prefix + e_n*k_n) mod m.  The
fingerprint of a row is its dot product with the fixed weights T^i mod
P = 2^61 - 1.  It is linear in the coordinates, so a zero sum of rows
has a zero sum of fingerprints mod P whatever T and P are: no zero is
lost.  Being linear, it needs no row: the fingerprint of term e at
residue r is the sum of c * fp(zeta_B^k) mod P over the term's
coefficients c at positions k = r*B/m + p.  fp(zeta_B^k) =
<power(k), T^i> mod P depends on B alone, so one lazy table of them per
level B serves a whole scan: the system's polynomials and its orders of
equal B share it, and it lives only as long as one brute_force_points
call.  Only the points whose fingerprint sum is 0 mod P get the exact
test, and only exact zeros are emitted.  A fingerprint is computed when
its residue, or its residue class below, is first met, and kept for the
order.

A batch over the whole last coordinate, k_n in range(m), is tested in
packed lanes.  The span of term e at base b is one integer whose lane k,
the bits k*w to (k+1)*w - 1, holds e's fingerprint at (b + e_n*k) mod m.
The sum S of the t spans adds the fingerprints lane by lane, and every
lane sum s is below t*P < 2^w, w = max(64, bit length of t*P), so no lane
carries into the next (w passes 64 once t > 8).  The fold
(S & lo) + ((S >> 61) & hi), lo and hi masking the low 61 bits and the
w - 61 bits above them in every lane, turns each s into
v = (s mod 2^61) + floor(s / 2^61).  Since 2^61 = 1 (mod P), v = s
(mod P), and v < P + t <= 2P, so s = 0 (mod P) exactly when v is 0 or
P.  Both v and v xor P are below 2^62 <= 2^(w-1): every lane's top bit
is clear.  So (tops - x) & tops, tops the top bit of every lane, takes
no borrow across lanes and keeps a lane's top bit exactly when that lane
of x is 0; applied to x = fold and x = fold ^ packed(P) it flags exactly
the lanes with s = 0 (mod P), and the flagged lanes are the selected
points.  A batch without a flag returns at once.  (The fold is modulo
2^61 - 1; with P = 1, or with all weights 0, every fingerprint is 0 and
every lane is flagged, so the lanes never select less than the point by
point test.)

The spans come from rotations.  Since e_n*m = 0 (mod m), span(b + e_n)
is span(b) moved down one lane, its lane 0 wrapping round to the top.
So with g = gcd(e_n, m), one doubled span, two copies of span(c) one
above the other, for each class c = b mod g gives span(c + j*e_n) for
every j < m/g as a shift by j lanes and a mask of m lanes.  At g = m,
e_n = 0 (mod m), every lane of span(b) holds the fingerprint at b: it is
that fingerprint times the packed ones.  The first span of a class c mod
g fills the fingerprints of the m/g residues of that class in one call
(`_Residues.fill`); a single-residue lookup is the same code called with
one residue.

At n >= 2 a batch with a list of last coordinates (a prefix with
gcd(m, prefix) > 1, or a selection handed on by an earlier polynomial of
the system) sums the same spans as a full batch, and the fold and the
zero-lane test (tops - x) & tops run on every lane as above.  Only the
flags are then ANDed with the mask of the listed lanes' top bits.  The
subtraction must keep every top bit: an unlisted lane holds a sum too,
nonzero in general, and under a minuend with the listed top bits alone
it would borrow from the lane above and could clear that lane's flag.
With tops no lane borrows, so the mask only drops the flags of unlisted
lanes.  The walk hands every prefix of gcd d the same list tails[d], so
its mask is kept per d for the compiled order; another list gets its
mask built.  At n = 1 the one list of an order is looked up point by
point: lanes would cost m fingerprints per term for phi(m)/|H_m| points.
Lane masks and spans belong to one compiled order.

The walk over the representatives (_orbit_representatives) is one loop
over an explicit stack of prefixes, depth first, each prefix's children
pushed in reverse so that the batches come off it in lex order.

cross_check's `tested` counts one decision per Galois orbit: batches,
fingerprints and lanes change how a representative is decided, not which
points are tested.

This module is the independent completeness reference for the solver,
so it imports nothing from the library but `.arith`.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from operator import getitem, mul

from .arith import TorsionPoint, _level, _prime_factors, euler_phi

# fingerprint of a row: its dot product with the weights T^i mod P
_BITS = 61
_MODULUS = (1 << _BITS) - 1  # P, a Mersenne prime
_BASE = 0x2545F4914F6CDD1D % _MODULUS  # T
_WEIGHTS = (1,)  # T^i mod P for i < len, shared by every order


def _weights(length: int) -> tuple[int, ...]:
    # at least `length` weights; a longer tuple replaces the cached one
    # whole, so a concurrent scan never sees it half extended
    global _WEIGHTS
    weights = _WEIGHTS
    if len(weights) < length:
        weights = list(weights)
        while len(weights) < length:
            weights.append(weights[-1] * _BASE % _MODULUS)
        _WEIGHTS = weights = tuple(weights)
    return weights


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


class _Powers(dict):
    # the fingerprint <power(k), weights> mod P of zeta_big^k by k < big,
    # shared by the terms of every compiled order of one scan at level big
    __slots__ = ("level",)

    def __init__(self, level):
        super().__init__()
        self.level = level

    def __missing__(self, k: int) -> int:
        level = self.level
        weights = _weights(level.phi)
        if k < level.phi:  # a basis vector
            out = weights[k] % _MODULUS
        else:
            out = sum(map(mul, level.power(k), weights)) % _MODULUS
        self[k] = out
        return out


class _Residues(dict):
    # one term's fingerprints by residue r, read off the scan's _Powers
    __slots__ = ("unit", "coeff_positions", "powers")

    def __init__(self, unit: int, coeff_positions, powers):
        super().__init__()
        self.unit = unit
        self.coeff_positions = coeff_positions
        self.powers = powers

    def fill(self, residues) -> None:
        """Keep the fingerprints of the residues not kept yet, all in one
        call: the fingerprint at r is the sum of c * fp(zeta_big^k) mod P
        over the term's coefficients c at positions k = r*big/m + p."""
        missing = [r for r in residues if r not in self]
        if missing:
            big, powers, unit = self.powers.level.n, self.powers, self.unit
            positions, modulus = self.coeff_positions, _MODULUS
            self.update([(r, sum([c * powers[(r * unit + p) % big]
                                  for p, c in positions]) % modulus)
                         for r in missing])

    def __missing__(self, r: int) -> int:
        self.fill((r,))
        return self[r]


class _Lanes:
    # masks for m lanes of `width` bits, lane k at bits k*width and up,
    # wide enough for the sum of t fingerprints < P
    __slots__ = ("width", "full", "ones", "low", "high", "tops", "moduli")

    def __init__(self, m: int, t: int):
        width = self.width = max(64, (t * _MODULUS).bit_length())
        full = self.full = (1 << m * width) - 1
        ones = self.ones = full // ((1 << width) - 1)
        self.low = ones * ((1 << _BITS) - 1)
        self.high = ones * ((1 << width - _BITS) - 1)
        self.tops = ones << width - 1
        self.moduli = ones * _MODULUS

    def mask(self, ks) -> int:
        """The top bits of the lanes k in ks."""
        width = self.width
        return sum([1 << (k + 1) * width - 1 for k in ks])

    def zero_lanes(self, total: int, mask: int | None = None) -> list[int]:
        """The k, in order, whose lane of total is 0 mod P, among the
        lanes whose top bit is in mask (all lanes without one): one fold
        modulo 2^61 - 1 and one exact zero test for 0 and for P, on
        every lane, then the flags of the unmasked lanes dropped."""
        fold = (total & self.low) + ((total >> _BITS) & self.high)
        tops = self.tops
        flags = ((tops - fold) | (tops - (fold ^ self.moduli))) & (
            tops if mask is None else mask)
        out = []
        while flags:
            bit = flags & -flags
            out.append(bit.bit_length() // self.width - 1)
            flags ^= bit
        return out


class _Spans(dict):
    # one term's fingerprints at b + last*k for k < m, packed one per
    # lane, by base residue b; a residue class mod gcd(last, m) is packed
    # once and rotated (see the module docstring)
    __slots__ = ("table", "last", "m", "lanes")

    def __init__(self, table: _Residues, last: int, m: int, lanes: _Lanes):
        super().__init__()
        self.table, self.last, self.m, self.lanes = table, last, m, lanes

    def __missing__(self, b: int) -> int:
        table, last, m, lanes = self.table, self.last, self.m, self.lanes
        g = gcd(last, m)
        if g == m:  # every lane holds the fingerprint at b
            out = self[b] = table[b] * lanes.ones
            return out
        width, c = lanes.width, b % g
        table.fill(range(c, m, g))
        packed = 0
        for k in reversed(range(m)):
            packed = (packed << width) | table[(c + last * k) % m]
        doubled = (packed << m * width) | packed
        for j in range(m // g):
            self[(c + last * j) % m] = (doubled >> j * width) & lanes.full
        return self[b]


class _CompiledPoly:
    # integer-only evaluation data for one polynomial at one point order m:
    # per term, its exponent vector split into the first n - 1 entries and
    # the last, and its residue table at level big = lcm(N_f, m); at
    # n >= 2 per term also its packed spans, over the lanes of this order,
    # and the lane masks of the listed last coordinates by prefix gcd
    __slots__ = ("terms", "lanes", "spans", "masks")

    def __init__(self, f, m: int, tables: dict | None = None):
        # tables: the _Powers by level of one scan, shared by its
        # polynomials and by its orders of equal level
        big = lcm(_system_level([f]), m)
        den = 1
        for c in f.terms.values():
            den = lcm(den, c.den)
        if tables is None:
            tables = {}
        powers = tables.get(big)
        if powers is None:
            powers = tables[big] = _Powers(_level(big))
        terms = []
        for e, c in f.terms.items():
            mult = den // c.den
            step = big // c.level
            coeff_positions = tuple((k * step, x * mult)
                                    for k, x in enumerate(c.num) if x)
            terms.append((e[:-1], e[-1],
                          _Residues(big // m, coeff_positions, powers)))
        self.terms = terms
        self.lanes = self.spans = None
        self.masks = {}
        if f.nvars > 1:
            lanes = self.lanes = _Lanes(m, len(terms))
            self.spans = [_Spans(table, last, m, lanes)
                          for _, last, table in terms]

    def _mask(self, prefix, lasts, m: int) -> int:
        # the lane mask of lasts: the walk lists tails[d] for every prefix
        # of gcd d, so that mask is kept per d; another list (a selection
        # handed on by an earlier polynomial) gets its mask built
        d = gcd(m, *prefix)
        kept = self.masks.get(d)
        if kept is not None and kept[0] == lasts:
            return kept[1]
        mask = self.lanes.mask(lasts)
        if kept is None:
            self.masks[d] = (list(lasts), mask)
        return mask

    def zeros(self, prefix, lasts, m: int) -> list[int]:
        """The k in lasts, in order, at which the polynomial vanishes at
        the point (prefix, k)/m: a zero sum of fingerprints selects, and
        one fold of the point's accumulator modulo Phi_big decides."""
        if not self.terms:
            return list(lasts)
        bases = [sum(map(mul, head, prefix)) % m for head, _, _ in self.terms]
        if self.spans is not None:
            selected = self.lanes.zero_lanes(
                sum(map(getitem, self.spans, bases)),
                None if lasts == range(m) else self._mask(prefix, lasts, m))
        else:
            prints = [[table[(b + last * k) % m] for k in lasts]
                      for b, (_, last, table) in zip(bases, self.terms)]
            modulus = _MODULUS
            selected = [k for k, s in zip(lasts, map(sum, zip(*prints)))
                        if not s % modulus]
        level = self.terms[0][2].powers.level
        big, out = level.n, []
        for k in selected:
            acc = [0] * big
            for b, (_, last, table) in zip(bases, self.terms):
                base = (b + last * k) % m * table.unit
                for p, c in table.coeff_positions:
                    acc[(base + p) % big] += c
            if not any(level.reduce(acc)):
                out.append(k)
        return out


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


def _orbit_representatives(n: int, m: int, group):
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

    # depth first over the prefixes and their gcds d with m, the children
    # pushed in reverse so that they come off the stack in lex order
    stack = [((), m)]
    while stack:
        prefix, d = stack.pop()
        if d == 1:
            for head in product(range(m), repeat=n - 1 - len(prefix)):
                yield prefix + head, range(m)
        elif len(prefix) < n - 1:
            stack += [(prefix + (v,), gcd(d, v))
                      for v in reversed(orbit_least(m // d))]
        else:
            # the last coordinates depend on the prefix only through d
            lasts = tails.get(d)
            if lasts is None:
                lasts = tails[d] = [v for v in orbit_least(m // d)
                                    if gcd(d, v) == 1]
            if lasts:
                yield prefix, lasts


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
    lex-least point of each orbit is tested, in batches over the last
    coordinate, and the whole orbit {u*k mod m}, phi(m)/phi(gcd(m, N))
    points, is emitted when it vanishes.

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
    found, tables = [], {}
    for m in range(1, max_order + 1):
        compiled = [_CompiledPoly(f, m, tables) for f in system]
        group = _units(m, gcd(m, level))
        for prefix, lasts in _orbit_representatives(n, m, group):
            for c in compiled:
                lasts = c.zeros(prefix, lasts, m)
                if not lasts:
                    break
            for v in lasts:
                k = prefix + (v,)
                found += [TorsionPoint([u * x for x in k], m)
                          for u in group]
    return sorted(found)


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
    # a point lies in a point coset exactly when it is the coset's point:
    # for dimension 0 the rows are the identity, and contains_point
    # compares the points; only the positive-dimensional cosets are scanned
    singles = {c.point for c in cosets if not c.dimension}
    curves = [c for c in cosets if c.dimension]
    missed = [p for p in points if p not in singles
              and not any(c.contains_point(p) for c in curves)]
    spurious = [c for c in cosets if not c.lies_on(system)]
    # H_m acts freely, so the J_n(m) points of exact order m fall into
    # J_n(m)/|H_m| orbits, each tested once; |H_m| = phi(m)/phi(gcd(m, N))
    n, level = system[0].nvars, _system_level(system)
    tested = sum(_jordan_totient(n, m) * euler_phi(gcd(m, level))
                 // euler_phi(m) for m in range(1, max_order + 1))
    return OracleReport(points, missed, spurious, max_order, tested)
