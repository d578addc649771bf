"""Multivariate Laurent polynomials over cyclotomic fields.

Polynomials are finitely supported maps from integer exponent vectors to
nonzero CyclotomicNumber coefficients.  The module provides the
structural operations the torsion-coset machinery needs: support and
exponent-lattice extraction, images under monoidal (unimodular)
coordinate changes, multi-prime modular Sylvester resultants,
multivariate gcd, and exact root-of-unity root finding for univariate
inputs.  LaurentPolynomial.slice_values is the one exact evaluation at
a torsion point: the terms with equal e * G^T form a slice, and each
slice sums into one integer accumulator at level lcm(N, m), reduced
modulo Phi_lcm(N, m) once.  evaluate (no slice rows), specialize and
scale_variables (identity rows) and TorsionCoset.lies_on (the coset's
exponent matrix) are calls to it; vanishes_at is the zero test of
evaluate, and sign_variant only negates terms.  The univariate layer
works modulo one prime p = 1 (mod M) first: zeta_M -> w, a root of
Phi_M mod p, is a ring map Z[zeta_M] -> F_p, so a nonzero residue
proves a candidate root is none.  Only a zero residue goes on to
vanishes_at.  cyclotomic_roots returns the roots alone; it builds no
cyclotomic part.  Root finding needs no squarefree part;
squarefree_part, which proves squarefreeness the same way by a nonzero
discriminant, has no caller in the solver.
Univariate polynomials have no representation of their own: every gcd,
univariate or not, is the one multivariate_gcd recursion, which works
over the coefficient field once the coefficients are constants.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm

from .arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    _divisors,
    _level,
    cyclotomic_polynomial,
    euler_phi,
)
from .lattices import (
    IntegerLattice,
    identity_matrix,
    mat_inverse_unimodular,
    min_assignment,
)


def _coerce_coeff(c) -> CyclotomicNumber:
    if isinstance(c, CyclotomicNumber):
        return c
    if isinstance(c, RootOfUnity):
        return c.to_cyclotomic()
    return CyclotomicNumber.from_rational(c)


class LaurentPolynomial:
    """A Laurent polynomial sum a_i X^i with exact cyclotomic
    coefficients; no zero coefficients are stored."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], CyclotomicNumber] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, c in items:
                exp = tuple(int(e) for e in exp)
                if len(exp) != nvars:
                    raise ValueError("exponent length does not match nvars")
                c = _coerce_coeff(c)
                if exp in clean:
                    c = clean[exp] + c
                if c.is_zero():
                    clean.pop(exp, None)
                else:
                    clean[exp] = c
        self.terms = clean

    # ---- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> "LaurentPolynomial":
        exp = [0] * nvars
        exp[i] = power
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, nvars: int, exp, c=1) -> "LaurentPolynomial":
        return cls(nvars, {tuple(exp): c})

    # ---- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def support(self):
        return set(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return 0
        lo = min(e[var] for e in self.terms)
        hi = max(e[var] for e in self.terms)
        return hi - lo

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def coefficient_level(self) -> int:
        out = 1
        for c in self.terms.values():
            out = lcm(out, c.level)
        return out

    def exponent_lattice(self) -> IntegerLattice:
        """The lattice spanned by differences of support vectors; it is
        invariant under multiplying by a monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no exponent lattice")
        keys = sorted(self.terms)
        anchor = keys[0]
        rows = [[e - a for e, a in zip(k, anchor)] for k in keys[1:]]
        return IntegerLattice(self.nvars, rows)

    def strip_monomial_content(self):
        """(g, shift) with g = X^(-shift) * f and min exponent 0 in
        every variable."""
        if not self.terms:
            return self, (0,) * self.nvars
        shift = tuple(min(e[i] for e in self.terms) for i in range(self.nvars))
        if not any(shift):
            return self, shift
        moved = {tuple(x - s for x, s in zip(e, shift)): c
                 for e, c in self.terms.items()}
        return LaurentPolynomial(self.nvars, moved), shift

    # ---- ring operations ----------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, (int, Fraction, CyclotomicNumber, RootOfUnity)):
            return LaurentPolynomial.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res.nvars = self.nvars
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res.nvars = self.nvars
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    c = out[e] + c
                if c.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = c
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res.nvars = self.nvars
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = LaurentPolynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "LaurentPolynomial":
        c = _coerce_coeff(c)
        return LaurentPolynomial(self.nvars, [(e, v * c) for e, v in self.terms.items()])

    def __eq__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [f"x{i+1}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"{names[i]}^{x}" if x != 1 else names[i]
                            for i, x in enumerate(e) if x)
            cs = repr(c)
            if " " in cs or "/" in cs and not c.is_rational():
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    # ---- transformations -----------------------------------------------

    def monoidal_image(self, u) -> "LaurentPolynomial":
        """Image under the coordinate change Y_i = X^{u_i} for the rows
        u_i of the unimodular matrix u: the term at exponent i moves to
        the exponent j with j*u = i.  Raises ValueError when u is not
        unimodular."""
        return self._map_exponents(mat_inverse_unimodular([list(r) for r in u]))

    def _map_exponents(self, m) -> "LaurentPolynomial":
        # the term at exponent e moves to e * m
        out = {}
        for e, c in self.terms.items():
            j = tuple(sum(e[k] * m[k][t] for k in range(self.nvars))
                      for t in range(self.nvars))
            out[j] = c
        return LaurentPolynomial(self.nvars, out)

    def specialize(self, point: TorsionPoint) -> "LaurentPolynomial":
        """Exact specialization of the leading len(point) variables to
        the coordinates of the point; the result lives in the remaining
        variables (and may be identically zero)."""
        k = len(point)
        rows = identity_matrix(self.nvars)[k:]
        return LaurentPolynomial(self.nvars - k, self.slice_values(point, rows))

    def scale_variables(self, roots) -> "LaurentPolynomial":
        """f(w_1 X_1, ..., w_n X_n) for roots of unity w_i."""
        return LaurentPolynomial(self.nvars, self.slice_values(
            TorsionPoint(roots), identity_matrix(self.nvars)))

    def sign_variant(self, eps) -> "LaurentPolynomial":
        """f(eps_1 X_1, ..., eps_n X_n) for signs eps_i: the terms of odd
        degree in the flipped variables change sign."""
        return LaurentPolynomial(self.nvars, {
            e: -c if sum(x for x, s in zip(e, eps) if s == -1) % 2 else c
            for e, c in self.terms.items()})

    def stretch_exponents(self, factor: int) -> "LaurentPolynomial":
        """f(X_1^factor, ..., X_n^factor)."""
        return LaurentPolynomial(
            self.nvars,
            {tuple(x * factor for x in e): c for e, c in self.terms.items()})

    def map_coefficients(self, fn) -> "LaurentPolynomial":
        return LaurentPolynomial(
            self.nvars, [(e, fn(c)) for e, c in self.terms.items()])

    def insert_variable(self, var: int) -> "LaurentPolynomial":
        """Add a fresh variable (exponent 0 everywhere) at position var."""
        out = {e[:var] + (0,) + e[var:]: c for e, c in self.terms.items()}
        return LaurentPolynomial(self.nvars + 1, out)

    def slice_values(self, point: TorsionPoint, g_rows) -> dict:
        """The values of the coset slices at a torsion point: maps each
        slice key e * G^T, for the rows g_rows of G, to the sum of
        c_e * point^e over the terms c_e X^e of that slice.  The point
        sets the leading len(point) variables; the others count only
        through the key.  Every value lies at level big = lcm(N, m): N
        the coefficient level, m the order of the point.  With D the lcm
        of the coefficient denominators, each term adds the integer
        coordinates of D times its coefficient at the zeta_big exponent
        of its monomial value to its slice's accumulator, which is
        reduced modulo Phi_big once."""
        if len(point) > self.nvars:
            raise ValueError("point longer than nvars")
        level, den = 1, 1
        for c in self.terms.values():
            level, den = lcm(level, c.level), lcm(den, c.den)
        big = lcm(level, point.order)
        # zeta_big exponent of each coordinate of the point
        steps = [x * (big // point.order) for x in point.nums]
        accs: dict[tuple[int, ...], list[int]] = {}
        for e, c in self.terms.items():
            key = tuple(sum(x * y for x, y in zip(e, g)) for g in g_rows)
            acc = accs.get(key)
            if acc is None:
                acc = accs[key] = [0] * big
            pos0 = sum(x * y for x, y in zip(e, steps))
            step, mult = big // c.level, den // c.den
            for k, x in enumerate(c.num):
                if x:
                    acc[(pos0 + k * step) % big] += x * mult
        lv = _level(big)
        out = {}
        for key, acc in accs.items():
            red = acc[:lv.phi]
            for p in range(lv.phi, big):
                if acc[p]:
                    for i, x in enumerate(lv.power(p)):
                        if x:
                            red[i] += acc[p] * x
            out[key] = CyclotomicNumber(big, red, den)
        return out

    def evaluate(self, point: TorsionPoint) -> CyclotomicNumber:
        """Exact value at a torsion point, at level lcm(N, m): the one
        slice value for no slice rows."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match nvars")
        values = self.slice_values(point, [])
        if not values:
            return CyclotomicNumber.zero().embed_to_level(point.order)
        return values[()]

    def vanishes_at(self, point: TorsionPoint) -> bool:
        return self.evaluate(point).is_zero()

    # ---- coefficient views ----------------------------------------------

    def coefficients_in(self, var: int) -> dict[int, "LaurentPolynomial"]:
        """View as a polynomial in X_var: maps each X_var-exponent to its
        coefficient, a Laurent polynomial in the other variables."""
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            rest = e[:var] + e[var + 1:]
            out.setdefault(e[var], {})[rest] = c
        return {k: LaurentPolynomial(self.nvars - 1, t) for k, t in out.items()}

    # ---- divisibility ----------------------------------------------------

    def leading_term_lex(self):
        e = max(self.terms)
        return e, self.terms[e]

    def divide_exact(self, other: "LaurentPolynomial"):
        """Quotient q with self = q * other in the Laurent ring, or None
        when the division is not exact (units: monomial factors are
        invisible)."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero(self.nvars)
        f, f_shift = self.strip_monomial_content()
        g, g_shift = other.strip_monomial_content()
        shift = tuple(a - b for a, b in zip(f_shift, g_shift))
        quot: dict[tuple[int, ...], CyclotomicNumber] = {}
        ge, gc = g.leading_term_lex()
        gc_inv = gc.inverse()
        rem = f
        while rem:
            fe, fc = rem.leading_term_lex()
            qe = tuple(a - b for a, b in zip(fe, ge))
            if any(x < 0 for x in qe):
                return None
            qc = fc * gc_inv
            quot[qe] = qc
            rem = rem - LaurentPolynomial.monomial(self.nvars, qe, qc) * g
        q = LaurentPolynomial(self.nvars, quot)
        if any(shift):
            q = LaurentPolynomial.monomial(self.nvars, shift, 1) * q
        return q

    def is_unit(self) -> bool:
        return len(self.terms) == 1


# ---------------------------------------------------------------------------
# univariate helpers


def _eval_mod(coeffs, x: int, p: int) -> int:
    # sum c_k x^k mod p, by Horner; with x the image of zeta_N, the image
    # of power-basis coordinates
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def squarefree_part(f: LaurentPolynomial) -> LaurentPolynomial:
    """h / gcd(h, h') over Q(zeta_N), N the coefficient level, for h = f
    with its monomial content cleared.  Modulo one prime first: with
    (p, r) = _kernel_prime(N), P = (p, zeta_N - r) has residue field F_p.
    If p divides no denominator, a nonzero Sylvester determinant of the
    images (h~, h~') at the formal shape (deg h, deg h - 1) proves h
    squarefree.  Its first column holds lc(h~), so lc(h) is a unit at P.
    If h = u a^2 b with a nonconstant, Gauss's lemma over the DVR at P
    makes a, b primitive and u integral, so lc(a) is a unit, deg a~ =
    deg a > 0, and a~ divides h~ and h~': the determinant would be zero.
    Every other case divides h by multivariate_gcd(h, h'), its monic
    gcd with the derivative."""
    if f.nvars != 1:
        raise ValueError("univariate polynomial expected")
    h, _ = f.strip_monomial_content()
    deg = h.degree_in(0)
    if deg <= 1:
        # a constant derivative: f has degree at most one
        return h
    level = h.coefficient_level()
    p, w = _kernel_prime(level)
    if all(c.den % p for c in h.terms.values()):
        img = [0] * (deg + 1)
        for (k,), c in h.terms.items():
            img[k] = (_eval_mod(c.num, pow(w, level // c.level, p), p)
                      * pow(c.den, -1, p) % p)
        der = [k * x % p for k, x in enumerate(img)][1:]
        if _sylvester_mod(img, der, p):
            return h
    der = LaurentPolynomial(1, {(k - 1,): c * k
                                for (k,), c in h.terms.items() if k})
    q = h.divide_exact(multivariate_gcd(h, der))
    if q is None:
        raise RuntimeError("internal error: the gcd with the derivative "
                           "does not divide the polynomial")
    return q


# ---------------------------------------------------------------------------
# roots of unity of a univariate polynomial


def _orders_with_phi_at_most(bound: int) -> list[int]:
    """All d >= 1 with phi(d) <= bound, generated by recursion over the
    admissible prime factorizations (phi is multiplicative)."""
    if bound < 1:
        return []
    primes = []
    limit = bound + 2
    is_comp = bytearray(limit)
    for p in range(2, limit):
        if not is_comp[p]:
            if p - 1 <= bound:
                primes.append(p)
            for q in range(p * p, limit, p):
                is_comp[q] = 1
    out = []

    def rec(idx, d, phi):
        out.append(d)
        for i in range(idx, len(primes)):
            p = primes[i]
            step = phi * (p - 1)
            if step > bound:
                break  # primes increase, so no later prime fits either
            dd, ph = d * p, step
            while ph <= bound:
                rec(i + 1, dd, ph)
                dd *= p
                ph *= p

    rec(0, 1, 1)
    return sorted(out)


@cache
def _unit_orbits(d: int, big: int, level: int):
    """Orbits of the primitive residues mod d under the Galois action
    that fixes Q(zeta_level): multiplication by {t mod d : t in
    (Z/big)^*, t = 1 mod level}."""
    mults = {t % d for t in range(1, big + 1, level) if gcd(t, big) == 1}
    units = [a for a in range(d) if gcd(a, d) == 1]
    seen = set()
    orbits = []
    for a in units:
        if a in seen:
            continue
        orb = sorted({(a * t) % d for t in mults} or {a})
        seen.update(orb)
        orbits.append(orb)
    return orbits


def cyclotomic_roots(g: LaurentPolynomial) -> list[RootOfUnity]:
    """All roots of unity w with g(w) = 0, each once, sorted by
    exponent.

    Enumerates candidate orders d with phi(lcm(d, N)) <= deg * phi(N)
    (N the coefficient level) over h, g with its monomial content
    cleared, one Galois orbit at a time.  The roots are distinct, so
    their count never exceeds deg h, repeated factors or not: the bound
    and the early exit at deg h are only looser than over the squarefree
    part, never wrong.  With (p, w) = _kernel_prime(M), M = lcm(d, N),
    zeta_M -> w is a ring map Z[zeta_M] -> F_p, so a nonzero residue of
    the cleared h(zeta_d^a) proves it nonzero, with no bound; only a zero
    residue goes on to the exact test, hpoly.vanishes_at."""
    if g.is_zero():
        raise ValueError("zero polynomial has no cyclotomic part")
    if g.nvars != 1:
        raise ValueError("univariate polynomial expected")
    if len(g.terms) == 1:
        return []
    hpoly, _ = g.strip_monomial_content()
    level = hpoly.coefficient_level()
    deg = hpoly.degree_in(0)
    phi_n = euler_phi(level)
    den = lcm(*(c.den for c in hpoly.terms.values()))
    roots: list[RootOfUnity] = []
    found_degree = 0
    for d in _orders_with_phi_at_most(deg * phi_n):
        if found_degree >= deg:
            break
        big = lcm(d, level)
        # phi(M) / phi(N): the degree of zeta_d over Q(zeta_N)
        if found_degree + euler_phi(big) // phi_n > deg:
            continue
        p, w = _kernel_prime(big)
        imgs = [0] * (deg + 1)
        for (e,), c in hpoly.terms.items():
            imgs[e] = (den // c.den
                       * _eval_mod(c.num, pow(w, big // c.level, p), p))
        wd = pow(w, big // d, p)
        for orbit in _unit_orbits(d, big, level):
            if _eval_mod(imgs, pow(wd, orbit[0], p), p):
                continue
            if hpoly.vanishes_at(TorsionPoint([orbit[0]], d)):
                for a in orbit:
                    roots.append(RootOfUnity(a, d))
                found_degree += len(orbit)
                if found_degree >= deg:
                    break
    roots.sort()
    return roots


# ---------------------------------------------------------------------------
# resultants: a multi-prime evaluation kernel


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the prime bases up to 41: deterministic for
    # 41 < n < 3.3 * 10^24
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root_of_phi(p: int, level: int) -> int:
    # the first t^((p-1)/level), t = 2, 3, ..., of exact order level mod a
    # prime p = 1 (mod level): a root of Phi_level
    proper = _divisors(level)[:-1]
    return next(w for w in (pow(t, (p - 1) // level, p) for t in range(2, p))
                if all(pow(w, e, p) != 1 for e in proper))


@cache
def _kernel_prime(level: int) -> tuple[int, int]:
    # (p, w): the least prime p = 1 (mod level) above 2^31 and its
    # _root_of_phi; the univariate layer works modulo this one prime
    p = 2**31 + 1 + (-2**31) % level
    while not _is_prime(p):
        p += level
    return p, _root_of_phi(p, level)


def _field_data(p: int, level: int):
    # (p, roots, vinv): the roots of Phi_level mod a prime p = 1 (mod level)
    # and their inverse Vandermonde matrix (values to coordinates)
    cyclo = cyclotomic_polynomial(level)
    w = _root_of_phi(p, level)
    roots = [pow(w, k, p) for k in range(1, level + 1) if gcd(k, level) == 1]
    # Lagrange: Phi_level = prod (X - r), so the basis polynomial of the
    # root r is (Phi_level / (X - r)) / Phi_level'(r)
    cols = []
    for r in roots:
        quot, acc = [], 0
        for c in reversed(cyclo[1:]):
            acc = (acc * r + c) % p
            quot.append(acc)
        scale = pow(_eval_mod(quot[::-1], r, p), -1, p)
        cols.append([c * scale % p for c in reversed(quot)])
    return p, roots, [list(row) for row in zip(*cols)]


_FIELDS: dict[int, list] = {}
_FIELDS_LOCK = threading.Lock()


def _prime_field(level: int, index: int):
    # _field_data of the index-th prime p = 1 (mod level) below 2^62, in
    # descending order
    with _FIELDS_LOCK:
        fields = _FIELDS.setdefault(level, [])
        p = fields[-1][0] if fields else 2**62 + level - 1 - (2**62 - 2) % level
        while len(fields) <= index:
            p -= level
            if _is_prime(p):
                fields.append(_field_data(p, level))
        return fields[index]


@cache
def _power_bound(level: int) -> int:
    # C_N: the largest |coordinate| of zeta^k reduced mod Phi_N, k < N
    lv = _level(level)
    return max(abs(x) for k in range(level) for x in lv.power(k))


def _integer_coordinates(f: LaurentPolynomial, level: int, var: int):
    # (terms, d, norm): d f has the integer power-basis coordinates terms
    # = [(exponent without X_var, exponent of X_var, coordinates)], 1-norm norm
    cs = [(e, c.embed_to_level(level)) for e, c in f.terms.items()]
    d = lcm(*(c.den for _, c in cs))
    terms = [(e[:var] + e[var + 1:], e[var], [x * (d // c.den) for x in c.num])
             for e, c in cs]
    return terms, d, sum(abs(x) for *_, v in terms for x in v)


def _sylvester_mod(a: list[int], b: list[int], p: int) -> int:
    """The Sylvester determinant over F_p of the formal shape (m, n) =
    (len(a) - 1, len(b) - 1), both positive; a and b ascending."""
    m, n = len(a) - 1, len(b) - 1
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not a or not b or (len(a) <= m and len(b) <= n):
        return 0
    # a dropped leading coefficient: Res_{m,n} = (-1)^(n(m-m')) b_n^(m-m')
    # Res_{m',n}; symmetrically Res_{m,n} = a_m^(n-n') Res_{m,n'}
    acc = (pow(b[-1], m + 1 - len(a), p) * (-1) ** (n * (m + 1 - len(a)))
           * pow(a[-1], n + 1 - len(b), p))
    a.reverse()
    b.reverse()
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return acc * pow(b[0], m, p) % p
        if m < n:
            acc = -acc if m * n % 2 else acc
            a, b = b, a
            continue
        inv = pow(b[0], -1, p)
        r = a
        for _ in range(m - n + 1):
            c = r[0] * inv % p
            r = [(x - c * y) % p for x, y in zip(r[1:], b[1:])] + r[n + 1:]
        k = next((i for i, x in enumerate(r) if x), n)
        if k == n:
            return 0
        # res(a, b) = (-1)^(mn) b_n^(m - deg r) res(b, a mod b)
        acc = (-acc if m * n % 2 else acc) * pow(b[0], m - n + 1 + k, p) % p
        a, b = b, r[k:]


def _interpolate(values: list[int], inv: list[int], p: int) -> list[int]:
    # coefficients of the polynomial of degree < len(values) taking values[i]
    # at t = i + 1: Newton divided differences, then Horner
    c = list(values)
    for j in range(1, len(c)):
        c[j:] = [(x - y) * inv[j] % p for x, y in zip(c[j:], c[j - 1:])]
    acc = [c[-1]]
    for k in range(len(c) - 2, -1, -1):
        acc = [(y - (k + 1) * x) % p for x, y in zip(acc + [0], [0] + acc)]
        acc[0] = (acc[0] + c[k]) % p
    return acc


def _exponent_window(f: LaurentPolynomial, g: LaurentPolynomial, var: int):
    # [(lo_j, hi_j)] of `resultant`, j != var: the least and the greatest
    # weight of a permutation of the formal Sylvester matrix, each entry
    # weighted by the least (greatest) X_j-exponent of its coefficient
    p, q = f.degree_in(var), g.degree_in(var)
    window = []
    for j in range(f.nvars):
        if j == var:
            continue
        rows = []
        for h, deg, count in ((f, p, q), (g, q, p)):
            exps = [[] for _ in range(deg + 1)]
            for e in h.terms:
                exps[e[var]].append(e[j])
            span = [(min(x), max(x)) if x else None for x in exps]
            # row i of the block holds the coefficient of X_var^k in column i + k
            rows += [[None] * i + span + [None] * (count - 1 - i)
                     for i in range(count)]
        window.append((min_assignment([[x and x[0] for x in r] for r in rows]),
                       -min_assignment([[x and -x[1] for x in r] for r in rows])))
    return window


def _resultant_mod(fterms, gterms, shape, window, field):
    """Power-basis coordinates mod p of the resultant coefficients, flat
    in the order (monomial of the output grid, coordinate)."""
    p, roots, vinv = field
    phi = len(roots)

    def at_roots(terms):
        return [(e, k, [sum(x * pow(r, j, p) for j, x in enumerate(v)) % p
                        for r in roots]) for e, k, v in terms]

    fv, gv = at_roots(fterms), at_roots(gterms)
    sizes = [hi - lo + 1 for lo, hi in window]
    # t^(-lo) at the nodes t = 1, ..., s of each axis
    shifts = [[pow(t, -lo, p) for t in range(1, s + 1)]
              for (lo, _), s in zip(window, sizes)]
    vals = []
    for point in product(*(range(1, s + 1) for s in sizes)):
        dense = []
        for terms, deg in zip((fv, gv), shape):
            rows = [[0] * (deg + 1) for _ in range(phi)]
            for e, k, v in terms:
                mono = 1
                for t, x in zip(point, e):
                    mono = mono * pow(t, x, p) % p
                for row, x in zip(rows, v):
                    row[k] += x * mono
            dense.append(rows)
        shift = 1
        for t, table in zip(point, shifts):
            shift = shift * table[t - 1] % p
        vals.extend(_sylvester_mod([x % p for x in a], [x % p for x in b], p)
                    * shift % p for a, b in zip(*dense))
    inv = [0, 1]
    for i in range(2, max(sizes, default=1)):
        inv.append(-(p // i) * inv[p % i] % p)
    stride = len(vals)
    for s in sizes:
        stride //= s
        for start in range(0, len(vals), stride * s):
            for off in range(start, start + stride):
                line = slice(off, off + stride * s, stride)
                vals[line] = _interpolate(vals[line], inv, p)
    if phi == 1:
        return vals
    return [sum(x * y for x, y in zip(row, vals[i:i + phi])) % p
            for i in range(0, len(vals), phi) for row in vinv]


def resultant(f: LaurentPolynomial, g: LaurentPolynomial,
              var: int) -> LaurentPolynomial:
    """Sylvester resultant with respect to X_var, after clearing the
    monomial content of both inputs.  The result lives in the remaining
    variables, with coefficients at the lcm N of the input levels; it
    vanishes at every projection of a common torus zero, and is zero
    exactly when the inputs share a factor of positive degree in X_var.

    One multi-prime kernel for any number of variables.  With p, q the
    degrees of f, g in X_var and d_f, d_g their coefficient
    denominators, d_f f and d_g g have integer coordinates at level N
    and res(f, g) = res(d_f f, d_g g) / (d_f^q d_g^p).  Before reduction
    mod Phi_N that determinant lies in Z[X, z], of 1-norm at most the
    product of the Sylvester row norms; reducing z^k multiplies by at
    most C_N = max |coordinate of zeta_N^k|.  So every coordinate is at
    most B = |d_f f|_1^q |d_g g|_1^p C_N, computed first.  Primes
    P = 1 (mod N) below 2^62, in a fixed descending order, are used
    until their product exceeds 2B, and combined by CRT into symmetric
    residues.

    The exponent window.  Write the formal (p, q) Sylvester matrix with
    the coefficients a_k, b_k of X_var^k as entries, and give each
    nonzero entry the least (greatest) X_j-exponent of its terms.  Let
    lo_j be the least weight of a permutation that avoids the zero
    entries, and hi_j the greatest.  By Leibniz the determinant is a
    signed sum over permutations of products of one entry per row and
    column; a product through a zero entry vanishes, and every monomial
    of any other has its X_j-exponent between that permutation's two
    weights.  So every X_j-exponent of the resultant lies in
    [lo_j, hi_j], whatever the coefficients are, also for degenerate
    supports and leading coefficients that vanish somewhere.  The
    weights are found by a Hungarian assignment in O((p + q)^3).

    Modulo each P, z runs over the roots of Phi_N and each other X_j
    over t = 1, ..., hi_j - lo_j + 1 (never 0); each determinant times
    prod t_j^(-lo_j) is a polynomial of degree at most hi_j - lo_j in
    X_j, and interpolation on these nodes and a Vandermonde solve give
    the coordinates, coefficient k at exponent lo_j + k.  Every point
    takes the determinant of the formal shape (p, q), also where a
    leading coefficient vanishes: the determinant commutes with every
    ring map, so no prime or point is unlucky and none is skipped."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    f, _ = f.strip_monomial_content()
    g, _ = g.strip_monomial_content()
    shape = (f.degree_in(var), g.degree_in(var))
    if 0 in shape:
        raise ValueError("inputs must have positive degree in the variable")
    level = lcm(f.coefficient_level(), g.coefficient_level())
    (fterms, df, fnorm), (gterms, dg, gnorm) = (
        _integer_coordinates(h, level, var) for h in (f, g))
    bound = fnorm ** shape[1] * gnorm ** shape[0] * _power_bound(level)
    window = _exponent_window(f, g, var)
    modulus, coords, index = 1, None, 0
    while modulus <= 2 * bound:
        field = _prime_field(level, index)
        index += 1
        residues = _resultant_mod(fterms, gterms, shape, window, field)
        p = field[0]
        step = pow(modulus, -1, p)
        coords = residues if coords is None else [
            x + modulus * ((r - x) * step % p) for x, r in zip(coords, residues)]
        modulus *= p
    phi = euler_phi(level)
    den = df ** shape[1] * dg ** shape[0]
    out = {}
    for i, e in enumerate(product(*(range(lo, hi + 1) for lo, hi in window))):
        v = [x - modulus if 2 * x > modulus else x
             for x in coords[i * phi:(i + 1) * phi]]
        if any(v):
            out[e] = CyclotomicNumber(level, v, den)
    return LaurentPolynomial(f.nvars - 1, out)


# ---------------------------------------------------------------------------
# multivariate gcd


def _pseudo_remainder(fc: dict, gc: dict):
    # pseudo-remainder of univariate polynomials with Laurent-poly
    # coefficients, as exponent->coefficient dicts in the main variable
    fdeg = max(fc)
    gdeg = max(gc)
    lead_g = gc[gdeg]
    f = dict(fc)
    while f and max(f) >= gdeg:
        fdeg = max(f)
        lead_f = f[fdeg]
        shift = fdeg - gdeg
        new = {}
        for k, c in f.items():
            new[k] = c * lead_g
        for k, c in gc.items():
            kk = k + shift
            term = c * lead_f
            if kk in new:
                term = new[kk] - term
                if term.is_zero():
                    del new[kk]
                    continue
                new[kk] = term
            else:
                new[kk] = -term
        f = {k: c for k, c in new.items() if not c.is_zero()}
    return f


def multivariate_gcd(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """A gcd of two nonzero Laurent polynomials, determined up to
    monomial and unit factors; divides both exactly.  One recursion for
    any number of variables: a primitive pseudo-remainder sequence in
    the last variable used, with the gcd of the contents taken
    recursively.  At the bottom the coefficients are constants and every
    remainder is made monic, so the gcd of univariate inputs is monic."""
    if f.is_zero() or g.is_zero():
        raise ValueError("gcd of the zero polynomial")
    f, _ = f.strip_monomial_content()
    g, _ = g.strip_monomial_content()
    if f.is_unit() or g.is_unit():
        return LaurentPolynomial.constant(f.nvars, 1)
    used = sorted(f.variables_used() | g.variables_used())
    var = used[-1]
    if not (any(e[var] for e in f.terms) and any(e[var] for e in g.terms)):
        # main variable missing from one input: gcd divides the contents
        missing, other = (f, g) if not any(e[var] for e in f.terms) else (g, f)
        cont, _ = _content_and_primitive(other.coefficients_in(var))
        return _drop_and_gcd(missing, cont, var)
    cont_f, ppf = _content_and_primitive(f.coefficients_in(var))
    cont_g, ppg = _content_and_primitive(g.coefficients_in(var))
    cont = multivariate_gcd(cont_f, cont_g) if not (cont_f.is_unit() or cont_g.is_unit()) \
        else LaurentPolynomial.constant(f.nvars - 1, 1)
    a, b = ppf, ppg
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = _pseudo_remainder(a, b)
        if not r:
            break
        if max(r) == 0:
            b = {0: LaurentPolynomial.constant(f.nvars - 1, 1)}
            break
        _, r = _content_and_primitive(r)
        a, b = b, r
    # primitive part of the final b
    _, b = _content_and_primitive(b)
    result = LaurentPolynomial.zero(f.nvars)
    for k, c in b.items():
        result = result + c.insert_variable(var) * \
            LaurentPolynomial.variable(f.nvars, var, k)
    if not cont.is_unit():
        result = result * cont.insert_variable(var)
    out, _ = result.strip_monomial_content()
    return out


def _content_and_primitive(coeff_dict):
    """(content, primitive part) of a polynomial in one main variable,
    given as a dict from exponents to coefficients (polynomials in the
    other variables, as `coefficients_in` returns them): the content is
    a gcd of the coefficients, and the primitive part the dict of
    coefficients divided by it.  At the bottom of the recursion the
    coefficients are constants and the gcd is taken over the coefficient
    field: the content is the leading coefficient and the primitive part
    the monic associate, whose Euclidean remainders are bounded by the
    subresultants (Collins 1967; Brown and Traub 1971)."""
    lead = coeff_dict[max(coeff_dict)]
    zero = (0,) * lead.nvars
    if all(list(c.terms) == [zero] for c in coeff_dict.values()):
        inv = lead.terms[zero].inverse()
        return lead, {k: c.scale(inv) for k, c in coeff_dict.items()}
    cont = None
    for _, c in sorted(coeff_dict.items()):
        cont = c if cont is None else multivariate_gcd(cont, c)
        if cont.is_unit():
            break
    if cont.is_unit():
        return cont, dict(coeff_dict)
    out = {}
    for k, c in coeff_dict.items():
        q = c.divide_exact(cont)
        if q is None:
            raise RuntimeError("internal error: content does not divide "
                               "a coefficient")
        out[k] = q
    return cont, out


def _drop_and_gcd(missing: LaurentPolynomial, cont: LaurentPolynomial, var: int):
    m = missing.coefficients_in(var)
    if set(m) != {0}:
        raise RuntimeError("internal error: polynomial involves the "
                           "dropped variable")
    g = multivariate_gcd(m[0], cont)
    return g.insert_variable(var)
