"""Exact big-integer calculators for the explicit bounds on counts of
maximal torsion cosets, for documentation, tests, and sanity monitoring
of solver output.

All values are exact integers or rationals.  Quantities of the form
base^exponent with a rational exponent are kept symbolic as
PowerProduct factors and only evaluated when the exponent is integral.
(Geometry-of-numbers quantities such as Hermite constants and
successive minima appear only inside these closed-form constants and
have no runtime representation.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from math import comb, factorial


class PowerProduct:
    """An exact product of base^exponent factors with integer bases and
    rational exponents."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple((int(b), Fraction(e)) for b, e in factors)

    def value(self):
        """The exact integer value, or None if an exponent is not an
        integer."""
        out = 1
        for b, e in self.factors:
            if e.denominator != 1:
                return None
            out *= b ** int(e)
        return out

    def __repr__(self):
        if not self.factors:
            return "1"
        return " * ".join(f"{b}^{e}" if e != 1 else str(b)
                          for b, e in self.factors)

    def __eq__(self, other):
        if isinstance(other, PowerProduct):
            return self.factors == other.factors
        v = self.value()
        return v is not None and v == other


def evertse_schmidt_bound(n: int, d: int) -> int:
    """(11 d)^(n^2) * C(n+d, d)^(3 C(n+d, d)^2): the general bound on
    the number of maximal torsion cosets in degree d on n variables."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    c = comb(n + d, d)
    return (11 * d) ** (n * n) * c ** (3 * c * c)


def plane_curve_bound(d: int) -> int:
    """11 d^2 + d: torsion cosets on a plane curve of degree d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return 11 * d * d + d


def area_point_bound(vol2) -> Fraction:
    """22 * vol2: isolated torsion points on a plane curve in terms of
    the Newton polygon area of its binomial-free part."""
    v = Fraction(vol2)
    if v < 0:
        raise ValueError("negative area")
    return 22 * v


def newton_polygon_area(support) -> Fraction:
    """Area of the convex hull of a set of integer exponent vectors in
    the plane (exact)."""
    pts = sorted(set(map(tuple, support)))
    if len(pts) < 3:
        return Fraction(0)

    def half_hull(points):
        hull = []
        for p in points:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    lower = half_hull(pts)
    upper = half_hull(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return Fraction(0)
    twice = 0
    for i, (x1, y1) in enumerate(hull):
        x2, y2 = hull[(i + 1) % len(hull)]
        twice += x1 * y2 - x2 * y1
    return Fraction(abs(twice), 2)


# ---------------------------------------------------------------------------
# the explicit constants


def hypersurface_c2(n: int) -> Fraction:
    """(49 * 5^(n-2) - 4n - 9) / 16, the degree exponent in the
    hypersurface count bound; kept exact rational."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Fraction(49 * 5 ** (n - 2) - 4 * n - 9, 16)


def hypersurface_c1(n: int) -> PowerProduct:
    """n^((3/2)(2+n) 5^n), the leading constant of the hypersurface
    count bound."""
    if n < 2:
        raise ValueError("need n >= 2")
    return PowerProduct([(n, Fraction(3, 2) * (2 + n) * 5 ** n)])


def variety_c4(n: int) -> Fraction:
    """sum of c2(i) 2^(n-i) for i = 2..n, plus 2^(n-1): the degree
    exponent for general varieties."""
    if n < 2:
        raise ValueError("need n >= 2")
    total = Fraction(0)
    for i in range(2, n + 1):
        total += hypersurface_c2(i) * 2 ** (n - i)
    return total + 2 ** (n - 1)


def variety_c3(n: int) -> PowerProduct:
    """n^((2+n) 2^(n-2) sum c2(i)) times the product of the c1(i): the
    leading constant for general varieties."""
    if n < 2:
        raise ValueError("need n >= 2")
    exp = Fraction((2 + n) * 2 ** (n - 2))
    exp *= sum((hypersurface_c2(i) for i in range(2, n)), Fraction(0))
    factors = [(n, exp)]
    for i in range(2, n + 1):
        factors.extend(hypersurface_c1(i).factors)
    return PowerProduct(factors)


def rescale_degree_bound(n: int, d: int) -> int:
    """n^2 (n+1)! d: degree bound after rewriting exponents to make the
    exponent lattice all of Z^n."""
    return n * n * factorial(n + 1) * d


def slice_degree_bound(n: int, d: int) -> int:
    """n(n+1)d + 2(n-1)(n^2-1) n! d^3: degree bound of the polynomial
    obtained by freezing one coordinate along a candidate coset."""
    return n * (n + 1) * d + 2 * (n - 1) * (n * n - 1) * factorial(n) * d ** 3


# ---------------------------------------------------------------------------
# recurrences


@cache
def torsion_count_bound(n: int, d: int) -> int:
    """The total-count recurrence T(n, d) <= (2nd)^(n+1)
    T(n-1, n^(8+4n) d^2) T(n-1, n^(8+4n) d^3), grounded at
    T(2, d) = 11 d^2 + d and T(1, d) = d."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n == 1:
        return d
    if n == 2:
        return plane_curve_bound(d)
    m = n ** (8 + 4 * n)
    return ((2 * n * d) ** (n + 1)
            * torsion_count_bound(n - 1, m * d * d)
            * torsion_count_bound(n - 1, m * d ** 3))


@cache
def torsion_counts_by_dimension(n: int, d: int) -> dict[int, Fraction]:
    """Per-dimension count bounds T_i(n, d) following the dimension-wise
    recurrences (with the plane-curve base 11 d^2 isolated points and d
    codimension-one cosets)."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n == 1:
        return {0: d}
    if n == 2:
        return {0: 11 * d * d, 1: d}
    dd = 2 * d * d
    cs = slice_degree_bound(n, d)
    sub_slice = torsion_counts_by_dimension(n - 1, cs)
    sub_res = torsion_counts_by_dimension(n - 1, dd)
    m = 2 ** (n + 1) - 1

    def t(table, i):
        return table.get(i, 0)

    pos_sum = sum(t(sub_res, s) for s in range(1, n - 1))
    out = {}
    out[0] = m * (t(sub_slice, 0) * pos_sum + d * t(sub_res, 0))
    if n >= 2:
        out[1] = m * (t(sub_slice, 1) * pos_sum + t(sub_res, 0))
    for i in range(2, n - 1):
        tail = sum(t(sub_res, s) for s in range(i - 1, n - 1))
        out[i] = m * t(sub_slice, i) * tail
    out[n - 1] = 1
    return out


# ---------------------------------------------------------------------------
# catalog


@dataclass
class BoundCatalog:
    n: int
    d: int
    eq3: int
    eq4: int | None
    thm1_c1: PowerProduct
    thm1_c2: Fraction
    thm2_c3: PowerProduct
    thm2_c4: Fraction
    rescale_degree: int
    projection_degree: int
    t_total: int
    t_by_dimension: dict = field(default_factory=dict)
    vol2: Fraction | None = None

    def as_dict(self):
        return {
            "n": self.n,
            "d": self.d,
            "eq3": str(self.eq3),
            "eq4": None if self.eq4 is None else self.eq4,
            "thm1": {"c1": repr(self.thm1_c1), "c2": str(self.thm1_c2)},
            "thm2": {"c3": repr(self.thm2_c3), "c4": str(self.thm2_c4)},
            "rescale_degree": self.rescale_degree,
            "projection_degree": self.projection_degree,
            "t_total": str(self.t_total),
            "t_by_dimension": {str(k): str(v)
                               for k, v in sorted(self.t_by_dimension.items())},
            "vol2": None if self.vol2 is None else str(self.vol2),
        }


def paper_constants(n: int, d: int, support=None) -> BoundCatalog:
    """Catalog of every explicit constant at the given dimension and
    degree; with a 2-variable support, also its Newton polygon area."""
    if n < 2:
        raise ValueError("need n >= 2")
    vol2 = None
    if support is not None and n == 2:
        vol2 = newton_polygon_area(support)
    return BoundCatalog(
        n=n,
        d=d,
        eq3=evertse_schmidt_bound(n, d),
        eq4=plane_curve_bound(d) if n == 2 else None,
        thm1_c1=hypersurface_c1(n),
        thm1_c2=hypersurface_c2(n),
        thm2_c3=variety_c3(n),
        thm2_c4=variety_c4(n),
        rescale_degree=rescale_degree_bound(n, d),
        projection_degree=slice_degree_bound(n, d),
        t_total=torsion_count_bound(n, d),
        t_by_dimension=torsion_counts_by_dimension(n, d),
        vol2=vol2,
    )


def check_soft_bounds(report, n: int, d: int) -> list[str]:
    """Messages for any observed coset count exceeding the proved
    bounds; empty when everything is within range."""
    problems = []
    total = len(report.cosets)
    # (11 d)^(n^2) <= eq3, whose full value runs to megabits at moderate
    # degree: only a count above the first factor needs it
    if total > (11 * d) ** (n * n):
        eq3 = evertse_schmidt_bound(n, d)
        if total > eq3:
            problems.append(f"count {total} exceeds the general bound {eq3}")
    if n == 2:
        eq4 = plane_curve_bound(d)
        if total > eq4:
            problems.append(f"count {total} exceeds the plane bound {eq4}")
    return problems
