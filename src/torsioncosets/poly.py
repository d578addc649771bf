"""Multivariate Laurent polynomials over cyclotomic fields.

Polynomials are finitely supported maps from integer exponent vectors to
nonzero CyclotomicNumber coefficients.  The module provides the
structural operations the torsion-coset machinery needs: support and
exponent-lattice extraction, images under monoidal (unimodular)
coordinate changes, coset slices, torsion specialization, Sylvester
resultants, multivariate gcd, and exact root-of-unity root finding for
univariate inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    _level,
    euler_phi,
)
from .lattices import (
    IntegerLattice,
    determinant,
    mat_inverse_unimodular,
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

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_coefficient(self) -> CyclotomicNumber:
        return self.terms.get((0,) * self.nvars, CyclotomicNumber.zero())

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
        the exponent j with j*u = i."""
        if abs(determinant([list(r) for r in u])) != 1:
            raise ValueError("matrix is not unimodular")
        v = mat_inverse_unimodular([list(r) for r in u])
        out = {}
        for e, c in self.terms.items():
            j = tuple(sum(e[k] * v[k][t] for k in range(self.nvars))
                      for t in range(self.nvars))
            out[j] = c
        return LaurentPolynomial(self.nvars, out)

    def coset_slices(self, g_rows) -> dict:
        """Partition of the terms by the value of i * G^T for the
        exponent-matrix rows g_rows; the slices sum back to f."""
        slices: dict[tuple[int, ...], dict] = {}
        for e, c in self.terms.items():
            j = tuple(sum(x * y for x, y in zip(e, g)) for g in g_rows)
            slices.setdefault(j, {})[e] = c
        return {j: LaurentPolynomial(self.nvars, t) for j, t in slices.items()}

    def substitute_root(self, var: int, root: RootOfUnity) -> "LaurentPolynomial":
        """Exact specialization X_var = root; the result lives in the
        remaining nvars - 1 variables (and may be identically zero)."""
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for e, c in self.terms.items():
            rest = e[:var] + e[var + 1:]
            val = c * (root ** e[var]).to_cyclotomic()
            if rest in out:
                val = out[rest] + val
            if val.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = val
        return LaurentPolynomial(self.nvars - 1, out)

    def scale_variables(self, roots) -> "LaurentPolynomial":
        """f(w_1 X_1, ..., w_n X_n) for roots of unity w_i."""
        point = TorsionPoint(roots)
        out = {}
        for e, c in self.terms.items():
            out[e] = c * point.power(e).to_cyclotomic()
        return LaurentPolynomial(self.nvars, out)

    def sign_variant(self, eps) -> "LaurentPolynomial":
        roots = [RootOfUnity.one() if s == 1 else RootOfUnity.minus_one()
                 for s in eps]
        return self.scale_variables(roots)

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

    def drop_variable(self, var: int) -> "LaurentPolynomial":
        """Remove an unused variable position."""
        if any(e[var] for e in self.terms):
            raise ValueError("variable occurs in the polynomial")
        out = {e[:var] + e[var + 1:]: c for e, c in self.terms.items()}
        return LaurentPolynomial(self.nvars - 1, out)

    def evaluate(self, point: TorsionPoint) -> CyclotomicNumber:
        """Exact value at a torsion point."""
        total = CyclotomicNumber.zero()
        for e, c in self.terms.items():
            total = total + c * point.power(e).to_cyclotomic()
        return total

    def vanishes_at(self, point: TorsionPoint) -> bool:
        if not self.terms:
            return True
        return _vanishes_at_root_terms(self._eval_data(), point)

    def _eval_data(self):
        # precomputed (exponent, level, numerator vector, scaled) rows
        # with denominators cleared; vanishing is denominator-free
        den = 1
        for c in self.terms.values():
            den = lcm(den, c.den)
        rows = []
        for e, c in self.terms.items():
            rows.append((e, c.level, c.num, den // c.den))
        return rows

    # ---- coefficient views ----------------------------------------------

    def coefficients_in(self, var: int) -> dict[int, "LaurentPolynomial"]:
        """View as a polynomial in X_var: maps each X_var-exponent to its
        coefficient, a Laurent polynomial in the other variables."""
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            rest = e[:var] + e[var + 1:]
            out.setdefault(e[var], {})[rest] = c
        return {k: LaurentPolynomial(self.nvars - 1, t) for k, t in out.items()}

    def from_coefficients_in(self, var: int, coeffs) -> "LaurentPolynomial":
        out = {}
        for k, poly in coeffs.items():
            for e, c in poly.terms.items():
                out[e[:var] + (k,) + e[var:]] = c
        return LaurentPolynomial(self.nvars, out)

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
        f, _ = self.strip_monomial_content()
        g, _ = other.strip_monomial_content()
        shift = tuple(a - b for a, b in zip(
            self._shift_vector(), other._shift_vector()))
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

    def _shift_vector(self):
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def is_unit(self) -> bool:
        return len(self.terms) == 1


# ---------------------------------------------------------------------------
# support / lattice


def support_and_lattice(f: LaurentPolynomial):
    """(support set, exponent lattice) of a nonzero Laurent polynomial."""
    if f.is_zero():
        raise ValueError("zero polynomial has no support lattice")
    return f.support(), f.exponent_lattice()


# ---------------------------------------------------------------------------
# fast vanishing test at torsion points


def _vanishes_at_root_terms(rows, point: TorsionPoint) -> bool:
    level = 1
    m = 1
    for c in point:
        m = lcm(m, c.order)
    for _, lev, _, _ in rows:
        level = lcm(level, lev)
    big = lcm(level, m)
    acc = [0] * big
    exps = point.exponents()
    for e, lev, num, mult in rows:
        # zeta_big exponent of the monomial value at the point
        frac = Fraction(0)
        for x, q in zip(e, exps):
            if x:
                frac += x * q
        pos0 = int(frac * big) % big
        step = big // lev
        for k, c in enumerate(num):
            if c:
                p = (pos0 + k * step) % big
                acc[p] += c * mult
    if not any(acc):
        return True
    lv = _level(big)
    phi = lv.phi
    red = [0] * phi
    for p, c in enumerate(acc):
        if c:
            if p < phi:
                red[p] += c
            else:
                pw = lv.power(p)
                for i, x in enumerate(pw):
                    if x:
                        red[i] += c * x
    return not any(red)


# ---------------------------------------------------------------------------
# univariate helpers (dense lists of CyclotomicNumber, ascending)


def _to_dense(f: LaurentPolynomial) -> list[CyclotomicNumber]:
    if f.nvars != 1:
        raise ValueError("univariate polynomial expected")
    g, _ = f.strip_monomial_content()
    if g.is_zero():
        return []
    deg = max(e[0] for e in g.terms)
    out = [CyclotomicNumber.zero() for _ in range(deg + 1)]
    for e, c in g.terms.items():
        out[e[0]] = c
    return out


def _to_dense_nonneg(f: LaurentPolynomial) -> list[CyclotomicNumber]:
    # dense coefficients without any exponent shifting
    if f.nvars != 1:
        raise ValueError("univariate polynomial expected")
    if f.is_zero():
        return []
    if any(e[0] < 0 for e in f.terms):
        raise ValueError("negative exponent in polynomial conversion")
    deg = max(e[0] for e in f.terms)
    out = [CyclotomicNumber.zero() for _ in range(deg + 1)]
    for e, c in f.terms.items():
        out[e[0]] = c
    return out


def _from_dense(coeffs) -> LaurentPolynomial:
    return LaurentPolynomial(1, {(i,): c for i, c in enumerate(coeffs)
                                 if not c.is_zero()})


def _dense_trim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _dense_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    lead_inv = b[db].inverse()
    q = [CyclotomicNumber.zero()] * max(len(a) - db, 1)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[db + k]
        if c.is_zero():
            continue
        f = c * lead_inv
        q[k] = f
        for i in range(db + 1):
            a[k + i] = a[k + i] - f * b[i]
    return _dense_trim(q), _dense_trim(a[:db])


def _primitive_scale(dense):
    """(scaled, s) with dense = s * scaled, scaled having integer
    coordinates of content one; s is a positive rational."""
    d = 1
    for c in dense:
        d = lcm(d, c.den)
    g = 0
    vecs = []
    for c in dense:
        mult = d // c.den
        v = [x * mult for x in c.num]
        vecs.append((c.level, v))
        for x in v:
            if x:
                g = gcd(g, x)
    if g == 0:
        return list(dense), Fraction(1)
    scaled = [CyclotomicNumber(lev, [x // g for x in v]) for lev, v in vecs]
    return scaled, Fraction(g, d)


def _dense_prem(a, b):
    # pseudo-remainder: lc(b)^(deg a - deg b + 1) * (a mod b)
    m, n = len(a) - 1, len(b) - 1
    lcb = b[n]
    r = list(a)
    for k in range(m - n, -1, -1):
        coef = r[n + k]
        r = [lcb * c for c in r]
        if not coef.is_zero():
            for i in range(n + 1):
                r[k + i] = r[k + i] - coef * b[i]
    return _dense_trim(r[:m])


def _dense_gcd(a, b):
    """Monic gcd over the coefficient field, computed by a primitive
    pseudo-remainder sequence (fraction-free: intermediate coefficients
    stay integral and content-stripped)."""
    a = _dense_trim(list(a))
    b = _dense_trim(list(b))
    if not a or not b:
        keep = a or b
        if keep:
            inv = keep[-1].inverse()
            keep = [c * inv for c in keep]
        return keep
    a, _ = _primitive_scale(a)
    b, _ = _primitive_scale(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _dense_prem(a, b)
        if not r:
            break
        r, _ = _primitive_scale(r)
        a, b = b, r
    if len(b) == 1:
        return [CyclotomicNumber.one()]
    inv = b[-1].inverse()
    return [c * inv for c in b]


def _dense_derivative(a):
    return _dense_trim([a[i] * i for i in range(1, len(a))])


def _dense_mul(a, b):
    if not a or not b:
        return []
    out = [CyclotomicNumber.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return _dense_trim(out)


def univariate_gcd(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """Monic gcd of univariate Laurent polynomials over the coefficient
    field."""
    return _from_dense(_dense_gcd(_to_dense(f), _to_dense(g)))


def squarefree_part(f: LaurentPolynomial) -> LaurentPolynomial:
    a = _to_dense(f)
    d = _dense_derivative(a)
    if not d:
        return _from_dense(a)
    g = _dense_gcd(a, d)
    if len(g) == 1:
        return _from_dense(a)
    q, r = _dense_divmod(a, g)
    assert not r
    return _from_dense(q)


# ---------------------------------------------------------------------------
# roots of unity of a univariate polynomial


def _dense_compose_power(a, factor, sign):
    # a(sign * X^factor) for sign in {1, -1}
    out = [CyclotomicNumber.zero() for _ in range((len(a) - 1) * factor + 1)]
    for i, c in enumerate(a):
        if not c.is_zero():
            out[i * factor] = c if (sign == 1 or i % 2 == 0) else -c
    return out


def _rational_prefilter(a):
    """Shrink a rational squarefree polynomial while keeping every root
    of unity: iterate h <- gcd(h, h(-X) h(X^2) h(-X^2)).  Any root of
    unity w has a conjugate among -w, w^2, -w^2, so each factor keeps
    the corresponding class of roots."""
    while len(a) > 2:
        prod = _dense_mul(_dense_compose_power(a, 1, -1),
                          _dense_mul(_dense_compose_power(a, 2, 1),
                                     _dense_compose_power(a, 2, -1)))
        g = _dense_gcd(a, prod)
        if len(g) == len(a):
            return g
        if len(g) <= 1:
            return g
        a = g
    return a


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


def cyclotomic_roots(g: LaurentPolynomial):
    """All roots of unity w with g(w) = 0 (each once, sorted by
    exponent), together with the cyclotomic part prod (X - w).

    Enumerates candidate orders d with phi(lcm(d, N)) <= deg * phi(N)
    (N the coefficient level) and tests exact vanishing, one Galois
    orbit at a time.
    """
    if g.is_zero():
        raise ValueError("zero polynomial has no cyclotomic part")
    if g.nvars != 1:
        raise ValueError("univariate polynomial expected")
    dense = _to_dense(g)
    if len(dense) <= 1:
        return [], LaurentPolynomial.constant(1, 1)
    sq = _dense_gcd(dense, _dense_derivative(dense)) if len(dense) > 2 else [CyclotomicNumber.one()]
    if len(sq) > 1:
        h, _ = _dense_divmod(dense, sq)
    else:
        h = dense
    level = 1
    for c in h:
        level = lcm(level, c.level)
    if level == 1:
        h = _rational_prefilter(h)
        if len(h) <= 1:
            return [], LaurentPolynomial.constant(1, 1)
    hpoly = _from_dense(h)
    deg = len(h) - 1
    phi_n = euler_phi(level)
    bound = deg * phi_n
    rows = hpoly._eval_data()
    roots: list[RootOfUnity] = []
    found_degree = 0
    for d in _orders_with_phi_at_most(bound):
        if found_degree >= deg:
            break
        big = lcm(d, level)
        phi_big = euler_phi(big)
        if phi_big > bound:
            continue
        min_poly_degree = phi_big // phi_n
        if found_degree + min_poly_degree > deg:
            continue
        for orbit in _unit_orbits(d, big, level):
            point = TorsionPoint([Fraction(orbit[0], d)])
            if _vanishes_at_root_terms(rows, point):
                for a in orbit:
                    roots.append(RootOfUnity(Fraction(a, d)))
                found_degree += len(orbit)
                if found_degree >= deg:
                    break
    roots.sort()
    part = LaurentPolynomial.constant(1, 1)
    x = LaurentPolynomial.variable(1, 0)
    for w in roots:
        part = part * (x - LaurentPolynomial.constant(1, w.to_cyclotomic()))
    return roots, part


# ---------------------------------------------------------------------------
# resultants


def _scalar_resultant_reference(a, b):
    # field-arithmetic Euclidean resultant; kept as the independent
    # reference for the fraction-free version below
    a = _dense_trim(list(a))
    b = _dense_trim(list(b))
    if not a or not b:
        return CyclotomicNumber.zero()
    res = CyclotomicNumber.one()
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return res * (b[0] ** m)
        if m < n:
            if (m * n) % 2 == 1:
                res = -res
            a, b = b, a
            continue
        _, r = _dense_divmod(a, b)
        r = _dense_trim(r)
        if not r:
            return CyclotomicNumber.zero()
        dr = len(r) - 1
        if (m * n) % 2 == 1:
            res = -res
        res = res * (b[n] ** (m - dr))
        a, b = b, r


def _scalar_resultant(a, b):
    """Sylvester resultant of two dense univariate polynomials over the
    coefficient field, including the usual sign.

    Uses a primitive pseudo-remainder chain: with R the pseudo-remainder
    of (a, b) and R = s * Rt for the rational content s,
    res(a, b) = (-1)^(mn) lc(b)^(m - r - (m-n+1) n) s^n res(b, Rt),
    so every intermediate polynomial stays integral and content-free.
    """
    a = _dense_trim(list(a))
    b = _dense_trim(list(b))
    if not a or not b:
        return CyclotomicNumber.zero()
    a, sa = _primitive_scale(a)
    b, sb = _primitive_scale(b)
    sign = 1
    rat = sa ** (len(b) - 1) * sb ** (len(a) - 1)
    acc = CyclotomicNumber.one()
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            value = acc * (b[0] ** m) * rat
            return value if sign == 1 else -value
        if m < n:
            if (m * n) % 2:
                sign = -sign
            a, b = b, a
            continue
        r = _dense_prem(a, b)
        if not r:
            return CyclotomicNumber.zero()
        rt, s = _primitive_scale(r)
        e = m - (len(rt) - 1) - (m - n + 1) * n
        if (m * n) % 2:
            sign = -sign
        rat *= s ** n
        lcb = b[n]
        if e > 0:
            acc = acc * (lcb ** e)
        elif e < 0:
            acc = acc * (lcb.inverse() ** (-e))
        a, b = b, rt


def _dense_eval_fraction(a, t: Fraction) -> CyclotomicNumber:
    acc = CyclotomicNumber.zero()
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _resultant_bivariate(f: LaurentPolynomial, g: LaurentPolynomial,
                         var: int) -> LaurentPolynomial:
    # evaluation / interpolation in the surviving variable; exact since
    # evaluation points with nonvanishing leading coefficients preserve
    # the shape of the Sylvester matrix
    other = 1 - var
    fc = {k: _to_dense_nonneg(p) for k, p in f.coefficients_in(var).items()}
    gc = {k: _to_dense_nonneg(p) for k, p in g.coefficients_in(var).items()}
    p = max(fc)
    q = max(gc)
    deg_f_other = max(e[other] for e in f.terms)
    deg_g_other = max(e[other] for e in g.terms)
    dmax = p * deg_g_other + q * deg_f_other
    lead_f = fc[p]
    lead_g = gc[q]

    def specialize(coeffs, top, t):
        dense = [CyclotomicNumber.zero() for _ in range(top + 1)]
        for k, cs in coeffs.items():
            dense[k] = _dense_eval_fraction(cs, t)
        return _dense_trim(dense)

    points: list[Fraction] = []
    values: list[CyclotomicNumber] = []
    t_int = 0
    while len(points) <= dmax:
        t = Fraction(t_int)
        t_int = -t_int + (1 if t_int <= 0 else 0)
        if _dense_eval_fraction(lead_f, t).is_zero():
            continue
        if _dense_eval_fraction(lead_g, t).is_zero():
            continue
        fa = specialize(fc, p, t)
        ga = specialize(gc, q, t)
        points.append(t)
        values.append(_scalar_resultant(fa, ga))
    # Newton interpolation
    coeffs = list(values)
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            diff = Fraction(1, 1) / (points[i] - points[i - j])
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) * diff
    result = []
    basis = [Fraction(1)]
    acc = [CyclotomicNumber.zero() for _ in range(len(points))]
    for j, c in enumerate(coeffs):
        if not c.is_zero():
            for i, bval in enumerate(basis):
                if bval:
                    acc[i] = acc[i] + c * bval
        if j + 1 < len(points):
            # basis *= (x - points[j])
            new = [Fraction(0)] * (len(basis) + 1)
            for i, bval in enumerate(basis):
                new[i + 1] += bval
                new[i] -= bval * points[j]
            basis = new
    result = _dense_trim(acc)
    return _from_dense(result)


def _resultant_interpolated(f: LaurentPolynomial, g: LaurentPolynomial,
                            var: int) -> LaurentPolynomial:
    """Resultant for three or more variables: specialize one surviving
    variable at rational points, recurse into the raw dispatcher, and
    Newton-interpolate the polynomial-valued samples.  Points where a
    leading coefficient in X_var vanishes are skipped, so every sample
    is the exact specialization of the resultant; nothing is stripped
    along the way."""
    n = f.nvars
    sample_var = n - 1 if var != n - 1 else n - 2
    out_sample_var = sample_var if sample_var < var else sample_var - 1
    var_lower = var if var < sample_var else var - 1
    p = max(e[var] for e in f.terms)
    q = max(e[var] for e in g.terms)
    dmax = (q * max(e[sample_var] for e in f.terms)
            + p * max(e[sample_var] for e in g.terms))
    lead_f = f.coefficients_in(var)[p]
    lead_g = g.coefficients_in(var)[q]

    def substitute(poly, t):
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for e, c in poly.terms.items():
            rest = e[:sample_var] + e[sample_var + 1:]
            val = c * (t ** e[sample_var])
            if rest in out:
                val = out[rest] + val
            if val.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = val
        return LaurentPolynomial(poly.nvars - 1, out)

    points: list[Fraction] = []
    values: list[LaurentPolynomial] = []
    t_int = 1
    while len(points) <= dmax:
        t = Fraction(t_int)
        t_int = -t_int + (1 if t_int <= 0 else 0)
        if substitute(lead_f, t).is_zero() or substitute(lead_g, t).is_zero():
            continue
        points.append(t)
        values.append(_resultant_raw(substitute(f, t), substitute(g, t),
                                     var_lower))
    coeffs = list(values)
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            inv = Fraction(1, 1) / (points[i] - points[i - j])
            coeffs[i] = (coeffs[i] - coeffs[i - 1]).scale(inv)
    n_out = n - 1
    acc = LaurentPolynomial.zero(n_out)
    basis = [Fraction(1)]
    for j, cj in enumerate(coeffs):
        if not cj.is_zero():
            lifted = cj.insert_variable(out_sample_var)
            for i, bval in enumerate(basis):
                if bval:
                    mono = [0] * n_out
                    mono[out_sample_var] = i
                    acc = acc + lifted * LaurentPolynomial.monomial(
                        n_out, mono, bval)
        if j + 1 < len(points):
            new = [Fraction(0)] * (len(basis) + 1)
            for i, bval in enumerate(basis):
                new[i + 1] += bval
                new[i] -= bval * points[j]
            basis = new
    return acc


def _resultant_bareiss(f: LaurentPolynomial, g: LaurentPolynomial,
                       var: int) -> LaurentPolynomial:
    n_out = f.nvars - 1
    fc = f.coefficients_in(var)
    gc = g.coefficients_in(var)
    p = max(fc)
    q = max(gc)
    zero = LaurentPolynomial.zero(n_out)
    size = p + q
    mat = [[zero] * size for _ in range(size)]
    for i in range(q):
        for k, c in fc.items():
            mat[i][i + (p - k)] = c
    for i in range(p):
        for k, c in gc.items():
            mat[q + i][i + (q - k)] = c
    sign = 1
    prev = LaurentPolynomial.constant(n_out, 1)
    a = mat
    for k in range(size - 1):
        if a[k][k].is_zero():
            piv = next((i for i in range(k + 1, size) if not a[i][k].is_zero()),
                       None)
            if piv is None:
                return zero
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                if num.is_zero():
                    a[i][j] = zero
                else:
                    quo = num.divide_exact(prev)
                    assert quo is not None
                    a[i][j] = quo
            a[i][k] = zero
        prev = a[k][k]
    det = a[size - 1][size - 1]
    return det if sign == 1 else -det


def _resultant_raw(f: LaurentPolynomial, g: LaurentPolynomial,
                   var: int) -> LaurentPolynomial:
    # exact Sylvester determinant of the inputs as given (nonnegative
    # exponents, no content stripping: the matrix shape is part of the
    # contract for interpolation)
    if f.is_zero() or g.is_zero():
        return LaurentPolynomial.zero(f.nvars - 1)
    if f.nvars == 1:
        r = _scalar_resultant(_to_dense_nonneg(f), _to_dense_nonneg(g))
        return LaurentPolynomial(0, {(): r})
    if f.nvars == 2:
        return _resultant_bivariate(f, g, var)
    return _resultant_interpolated(f, g, var)


def resultant(f: LaurentPolynomial, g: LaurentPolynomial,
              var: int) -> LaurentPolynomial:
    """Sylvester resultant with respect to X_var, after clearing the
    monomial content of both inputs.  The result lives in the remaining
    variables; it vanishes at every projection of a common torus zero,
    and is zero exactly when the inputs share a factor of positive
    degree in X_var."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    f0, _ = f.strip_monomial_content()
    g0, _ = g.strip_monomial_content()
    if f0.degree_in(var) == 0 or g0.degree_in(var) == 0:
        raise ValueError("inputs must have positive degree in the variable")
    return _resultant_raw(f0, g0, var)


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
    monomial and unit factors; divides both exactly."""
    if f.is_zero() or g.is_zero():
        raise ValueError("gcd of the zero polynomial")
    f, _ = f.strip_monomial_content()
    g, _ = g.strip_monomial_content()
    if f.is_unit() or g.is_unit():
        return LaurentPolynomial.constant(f.nvars, 1)
    if f.nvars == 0:
        return LaurentPolynomial.constant(0, 1)
    if f.nvars == 1:
        d = _dense_gcd(_to_dense(f), _to_dense(g))
        return _from_dense(d)
    used = sorted(f.variables_used() | g.variables_used())
    var = used[-1]
    if not (any(e[var] for e in f.terms) and any(e[var] for e in g.terms)):
        # main variable missing from one input: gcd divides the contents
        fng = f if not any(e[var] for e in f.terms) else g
        other = g if fng is f else f
        cont, _ = _content_and_primitive(other.coefficients_in(var))
        missing = fng
        red_a = _drop_and_gcd(missing, cont, var)
        return red_a
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
    coefficients divided by it."""
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
