"""Exact arithmetic in cyclotomic fields Q(zeta_N) and in the group of
roots of unity.

A CyclotomicNumber is stored at a *level* N as an integer coordinate
vector over the power basis 1, z, ..., z^(phi(N)-1) of Q[x]/Phi_N(x),
together with one positive denominator.  Representation at a fixed level
is unique, so the zero test is trivial.  Arithmetic between different
levels lifts lazily to the lcm of the levels.

Roots of unity and torsion points are kept symbolically as integer
exponent numerators a over one order m (the value exp(2*pi*i*a/m)).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul

from .lattices import IntegerLattice, hermite_normal_form, mat_mul


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing a positive integer, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer."""
    if n < 1:
        raise ValueError("totient needs a positive integer")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def _poly_div_exact_int(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials (ascending coefficients),
    # denominator monic up to +-1 leading coefficient.
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    lead = den[dd]
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[dd + k]
        if c % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // lead
        quot[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {1: (-1, 1)}
_CYCLO_LOCK = threading.Lock()


def _stretch(poly, s: int) -> list[int]:
    # coefficients of poly(x^s)
    out = [0] * ((len(poly) - 1) * s + 1)
    out[::s] = poly
    return out


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    with _CYCLO_LOCK:
        cached = _CYCLO_CACHE.get(n)
    if cached is not None:
        return cached
    # Phi_pm(x) = Phi_m(x^p) / Phi_m(x) for a prime p not dividing m,
    # from Phi_1 up to the radical r of n; then Phi_n(x) = Phi_r(x^(n/r))
    poly = [-1, 1]
    r = 1
    for p in _prime_factors(n):
        poly = _poly_div_exact_int(_stretch(poly, p), poly)
        r *= p
    result = tuple(_stretch(poly, n // r))
    with _CYCLO_LOCK:
        _CYCLO_CACHE[n] = result
    return result


class _Level:
    """Per-level reduction data: phi(N), Phi_N and the powers zeta^k,
    k >= phi(N), reduced modulo Phi_N (integer vectors, since Phi_N is
    monic)."""

    __slots__ = ("n", "phi", "cyclo", "high", "lock")

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        self.cyclo = cyclotomic_polynomial(n)
        self.high = []  # high[j] = zeta^(phi + j) mod Phi_N
        self.lock = threading.Lock()

    def power(self, k: int) -> tuple[int, ...]:
        # coordinates of zeta^k mod Phi_N.  Below phi it is a basis
        # vector, made fresh and not stored; from phi on the table is
        # extended as far as asked
        k %= self.n
        phi = self.phi
        if k < phi:
            vec = [0] * phi
            vec[k] = 1
            return tuple(vec)
        j = k - phi
        high = self.high
        if j < len(high):
            return high[j]
        with self.lock:
            while len(high) <= j:
                # shift the previous power up; x^phi = -(lower part of Phi_N)
                vec = [0] + list(high[-1]) if high else [0] * phi + [1]
                top = vec.pop()
                if top:
                    for i in range(phi):
                        vec[i] -= top * self.cyclo[i]
                high.append(tuple(vec))
            return high[j]


_LEVELS: dict[int, _Level] = {}
_LEVELS_LOCK = threading.Lock()


def _level(n: int) -> _Level:
    lv = _LEVELS.get(n)
    if lv is None:
        with _LEVELS_LOCK:
            lv = _LEVELS.get(n)
            if lv is None:
                lv = _Level(n)
                _LEVELS[n] = lv
    return lv


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = den
    for c in num:
        if c:
            g = gcd(g, c)
            if g == 1:
                break
    if g > 1:
        num = [c // g for c in num]
        den //= g
    if not any(num):
        return (0,) * len(num), 1
    return tuple(num), den


class CyclotomicNumber:
    """An exact element of the cyclotomic field Q(zeta_level)."""

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, num, den: int = 1):
        if level < 1:
            raise ValueError("level must be positive")
        phi = _level(level).phi
        num = list(num)
        if len(num) != phi:
            raise ValueError(f"need {phi} coordinates at level {level}")
        self.level = level
        self.num, self.den = _normalize(num, den)

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "CyclotomicNumber":
        q = Fraction(q)
        return cls(1, [q.numerator], q.denominator)

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return cls(1, [0])

    @classmethod
    def one(cls) -> "CyclotomicNumber":
        return cls(1, [1])

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_level^power as an exact field element."""
        vec = _level(level).power(power)
        return cls(level, list(vec))

    # ---- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # ---- level handling -----------------------------------------------

    def embed_to_level(self, target: int) -> "CyclotomicNumber":
        """The same number re-expressed in Q(zeta_target); the current
        level must divide the target."""
        if target % self.level != 0:
            raise ValueError(
                f"level {self.level} does not divide target level {target}")
        if target == self.level:
            return self
        lv = _level(target)
        step = target // self.level
        vec = [0] * lv.phi
        for k, c in enumerate(self.num):
            if c:
                pw = lv.power(k * step)
                for i, p in enumerate(pw):
                    if p:
                        vec[i] += c * p
        return CyclotomicNumber(target, vec, self.den)

    def _common(self, other: "CyclotomicNumber"):
        l = lcm(self.level, other.level)
        return self.embed_to_level(l), other.embed_to_level(l)

    def minimal_level(self) -> "CyclotomicNumber":
        """Re-express at the smallest level d | level containing this
        number (d is automatically odd or divisible by 4).

        Z[zeta_d] is the ring of integers of Q(zeta_d), so Z[zeta_d] =
        Z[zeta_n] cap Q(zeta_d) and the lattice of _subfield_basis(n, d)
        is saturated in Z^phi(n): the integer numerator lies in it exactly
        when the number lies in Q(zeta_d).  Its coefficients c over the
        HNF basis H = t * rows give the level-d coordinates c * t."""
        if self.is_rational():
            return CyclotomicNumber(1, [self.num[0]], self.den)
        n = self.level
        for d in _divisors(n)[1:-1]:
            lattice, t = _subfield_basis(n, d)
            c = lattice.coefficients(self.num)
            if c is not None:
                return CyclotomicNumber(d, mat_mul([c], t)[0], self.den)
        return self

    # ---- ring/field operations ----------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        den = lcm(a.den, b.den)
        ma, mb = den // a.den, den // b.den
        vec = [x * ma + y * mb for x, y in zip(a.num, b.num)]
        return CyclotomicNumber(a.level, vec, den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.level, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        lv = _level(a.level)
        phi = lv.phi
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        conv[i + j] += x * y
        vec = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                pw = lv.power(k)
                for i, p in enumerate(pw):
                    if p:
                        vec[i] += c * p
        return CyclotomicNumber(a.level, vec, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse at the same level; raises
        ZeroDivisionError on zero.  With P the product of the Galois
        conjugates sigma_k(x), k != 1 a unit mod the level, the norm
        x * P is rational and x^-1 = P / (x * P)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return CyclotomicNumber(self.level, (self.den,) + self.num[1:],
                                    self.num[0])
        n = self.level
        conj = CyclotomicNumber.one()
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = conj * self.galois(k)
        norm = self * conj
        return CyclotomicNumber(n, [c * norm.den for c in conj.num],
                                conj.den * norm.num[0])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CyclotomicNumber.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def galois(self, k: int) -> "CyclotomicNumber":
        """Image under the automorphism zeta_level -> zeta_level^k;
        k must be coprime to the level."""
        if gcd(k, self.level) != 1:
            raise ValueError("exponent not coprime to the level")
        lv = _level(self.level)
        vec = [0] * lv.phi
        for j, c in enumerate(self.num):
            if c:
                pw = lv.power(j * k)
                for i, p in enumerate(pw):
                    if p:
                        vec[i] += c * p
        return CyclotomicNumber(self.level, vec, self.den)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.level == other.level:
            return self.num == other.num and self.den == other.den
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __bool__(self):
        return not self.is_zero()

    __hash__ = None  # equality crosses levels; not intended as a dict key

    def __repr__(self):
        if self.is_rational():
            return str(Fraction(self.num[0], self.den))
        parts = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            q = Fraction(c, self.den)
            if k == 0:
                parts.append(str(q))
            else:
                z = f"z{self.level}" if k == 1 else f"z{self.level}^{k}"
                parts.append(z if q == 1 else f"-{z}" if q == -1 else f"{q}*{z}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x):
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    if isinstance(x, RootOfUnity):
        return x.to_cyclotomic()
    return NotImplemented


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


@cache
def _subfield_basis(n: int, d: int):
    """(IntegerLattice of Z[zeta_d] in the level-n coordinates, t) for
    d | n: the rows are the level-n coordinates of zeta_d^j, j < phi(d),
    and t * rows is their HNF."""
    step = n // d
    rows = [list(_level(n).power(j * step)) for j in range(euler_phi(d))]
    _, t = hermite_normal_form(rows)
    return IntegerLattice(euler_phi(n), rows), tuple(map(tuple, t))


class RootOfUnity:
    """A root of unity exp(2*pi*i*a/m), RootOfUnity(a, m) or RootOfUnity(q)
    for q = a/m, stored reduced as numerator 0 <= a < m and order m."""

    __slots__ = ("numerator", "order")

    def __init__(self, exponent, order: int | None = None):
        if order is None:
            exponent, order = Fraction(exponent).as_integer_ratio()
        elif order < 1:
            raise ValueError("order must be positive")
        g = gcd(exponent, order)
        object.__setattr__(self, "order", order // g)
        object.__setattr__(self, "numerator", exponent // g % (order // g))

    def __setattr__(self, *a):
        raise AttributeError("RootOfUnity is immutable")

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(0, 1)

    @classmethod
    def minus_one(cls) -> "RootOfUnity":
        return cls(1, 2)

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.numerator, self.order)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.numerator * other.order + other.numerator
                           * self.order, self.order * other.order)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.numerator * k, self.order)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.numerator, self.order)

    def to_cyclotomic(self, level: int | None = None) -> CyclotomicNumber:
        m = self.order
        if level is None:
            level = m
        if level % m != 0:
            raise ValueError(f"order {m} does not divide level {level}")
        return CyclotomicNumber.zeta(level, self.numerator * (level // m))

    def __eq__(self, other):
        if isinstance(other, RootOfUnity):
            return (self.numerator, self.order) == (other.numerator, other.order)
        return NotImplemented

    def __lt__(self, other):
        return self.numerator * other.order < other.numerator * self.order

    def __hash__(self):
        return hash((self.numerator, self.order))

    def __repr__(self):
        return f"w({self.exponent})"


def conjugate_exponent(m: int) -> int:
    """The exponent p for which a primitive m-th root of unity w is
    conjugate to w^p: p = 2k+1 when m = 4k (w^p = -w), p = k+2 when
    m = 2k with k odd (w^p = -w^2), and p = 2 when m is odd
    (w^p = w^2)."""
    if m < 1:
        raise ValueError("order must be positive")
    if m % 4 == 0:
        return m // 2 + 1
    if m % 2 == 0:
        return m // 2 + 2
    return 2


def lowest_terms(nums, m: int) -> tuple[tuple[int, int], ...]:
    """Each a/m for the a in nums in lowest terms, as (numerator, den)."""
    return tuple((a // g, m // g) for a in nums for g in (gcd(a, m),))


class TorsionPoint:
    """A point of the torus with roots of unity as coordinates, stored as
    numerators 0 <= nums[i] < m over its order m: TorsionPoint(nums, m)."""

    __slots__ = ("nums", "order")

    def __init__(self, coords, order: int | None = None):
        if order is None:
            coords = [(c.numerator, c.order) if isinstance(c, RootOfUnity)
                      else Fraction(c).as_integer_ratio() for c in coords]
            order = lcm(*(m for _, m in coords))
            coords = [a * (order // m) for a, m in coords]
        elif order < 1:
            raise ValueError("order must be positive")
        g = gcd(order, *coords)
        m = order // g
        object.__setattr__(self, "order", m)
        object.__setattr__(self, "nums", tuple(x // g % m for x in coords))

    def __setattr__(self, *a):
        raise AttributeError("TorsionPoint is immutable")

    @classmethod
    def ones(cls, n: int) -> "TorsionPoint":
        return cls((0,) * n, 1)

    def __len__(self):
        return len(self.nums)

    def __iter__(self):
        return (RootOfUnity(x, self.order) for x in self.nums)

    def __getitem__(self, i):
        return RootOfUnity(self.nums[i], self.order)

    def power(self, v) -> RootOfUnity:
        """The character value x^v = prod x_i^{v_i}, a root of unity."""
        if len(v) != len(self.nums):
            raise ValueError("exponent vector length mismatch")
        return RootOfUnity(sum(map(mul, v, self.nums)), self.order)

    def powers(self, rows) -> "TorsionPoint":
        """The torsion point (x^r for the rows r) at this point."""
        return TorsionPoint([sum(map(mul, r, self.nums)) for r in rows],
                            self.order)

    def __mul__(self, other: "TorsionPoint") -> "TorsionPoint":
        m = lcm(self.order, other.order)
        return TorsionPoint([x * (m // self.order) + y * (m // other.order)
                             for x, y in zip(self.nums, other.nums)], m)

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.order) for x in self.nums)

    def __eq__(self, other):
        if isinstance(other, TorsionPoint):
            return self.order == other.order and self.nums == other.nums
        return NotImplemented

    def __lt__(self, other):  # by value, coordinate by coordinate
        return (tuple(x * other.order for x in self.nums)
                < tuple(y * self.order for y in other.nums))

    def __hash__(self):
        return hash((self.order, self.nums))

    def __repr__(self):
        return "(" + ", ".join(map(str, self.exponents())) + ")"
