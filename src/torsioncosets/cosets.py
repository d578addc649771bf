"""Torsion cosets of the algebraic torus: canonical forms, containment,
maximality filtering, monoidal transport, slice-based variety
membership, and torsion solutions of exponent congruences.

A torsion coset w * H_A is stored as its torsion point w together with
the primitive integer lattice A defining the subtorus
H_A = {x : x^a = 1 for all a in A}; its dimension is n - rank(A).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

from .arith import RootOfUnity, TorsionPoint
from .lattices import (
    IntegerLattice,
    _smith_diagonalize,
    mat_inverse_unimodular,
    xgcd,
)


def bezout_vector(a) -> list[int]:
    """An integer vector b with <b, a> = 1, for primitive a."""
    b = [0] * len(a)
    g = 0
    gx = [0] * len(a)  # running combination with g = <gx, a>
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        if g == 0:
            g = abs(ai)
            gx = [0] * len(a)
            gx[i] = 1 if ai > 0 else -1
            continue
        d, x, y = xgcd(g, ai)
        gx = [x * v for v in gx]
        gx[i] += y
        g = d
        if g == 1:
            break
    if g != 1:
        raise ValueError("vector is not primitive")
    return gx


class TorsionCoset:
    """A coset point * H_lattice with a primitive lattice."""

    __slots__ = ("point", "lattice", "_expmat", "_key")

    def __init__(self, point: TorsionPoint, lattice: IntegerLattice):
        if len(point) != lattice.ambient:
            raise ValueError("point and lattice dimensions differ")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "_expmat", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, *a):
        raise AttributeError("TorsionCoset is immutable")

    @classmethod
    def from_point(cls, point: TorsionPoint) -> "TorsionCoset":
        return cls(point, IntegerLattice.full(len(point)))

    @classmethod
    def from_binomial(cls, direction, root: RootOfUnity) -> "TorsionCoset":
        """The (n-1)-dimensional coset of solutions of X^direction = root
        for a primitive direction vector: the point (root^{b_1}, ...,
        root^{b_n}) with <b, direction> = 1 on the subtorus of the
        direction line."""
        n = len(direction)
        b = bezout_vector(direction)
        point = TorsionPoint([root ** bi for bi in b])
        return cls(point, IntegerLattice(n, [list(direction)]))

    @property
    def ambient(self) -> int:
        return self.lattice.ambient

    @property
    def dimension(self) -> int:
        return self.ambient - self.lattice.rank

    def canonical_key(self):
        """Invariant under the choice of representative point and of the
        lattice basis: the HNF rows together with the pairing values
        point^a for the HNF rows a."""
        if self._key is None:
            pairings = tuple(self.point.power(row).exponent
                             for row in self.lattice.rows)
            object.__setattr__(self, "_key", (self.lattice.rows, pairings))
        return self._key

    def sort_key(self):
        key = self.canonical_key()
        return (self.dimension, key[0],
                tuple((p.numerator, p.denominator) for p in key[1]))

    def exponent_matrix(self):
        """Rows of a basis of span^perp(A) cap Z^n (the parametric
        exponents of the coset)."""
        if self._expmat is None:
            rows = self.lattice.orthogonal_complement().rows
            object.__setattr__(self, "_expmat", rows)
        return self._expmat

    def is_subcoset_of(self, other: "TorsionCoset") -> bool:
        """Containment self <= other: the other lattice must sit inside
        ours and the pairings must agree on it."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        if not self.lattice.contains_lattice(other.lattice):
            return False
        return all(self.point.power(row) == other.point.power(row)
                   for row in other.lattice.rows)

    def contains_point(self, point: TorsionPoint) -> bool:
        return TorsionCoset.from_point(point).is_subcoset_of(self)

    def transform(self, u) -> "TorsionCoset":
        """The image coset under the monoidal transformation of the
        unimodular matrix u (rows u_i): the point maps to (w^{u_1}, ...,
        w^{u_n}) and the lattice to A * u^{-1}."""
        v = mat_inverse_unimodular([list(r) for r in u])
        point = TorsionPoint([self.point.power(row) for row in u])
        rows = [[sum(a[k] * v[k][j] for k in range(self.ambient))
                 for j in range(self.ambient)] for a in self.lattice.rows]
        return TorsionCoset(point, IntegerLattice(self.ambient, rows))

    def translate(self, shift: TorsionPoint) -> "TorsionCoset":
        return TorsionCoset(self.point * shift, self.lattice)

    def lies_on(self, polys) -> bool:
        """Exact membership of the whole coset in the variety of the
        polynomials: the terms of f with equal e * G^T, for the rows of
        G = exponent_matrix(), form a coset slice, and every slice value
        f.slice_values(point, G) of every polynomial must be zero."""
        g = self.exponent_matrix()
        return all(value.is_zero() for f in polys
                   for value in f.slice_values(self.point, g).values())

    def __eq__(self, other):
        if isinstance(other, TorsionCoset):
            return self.canonical_key() == other.canonical_key()
        return NotImplemented

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (f"TorsionCoset(point={self.point!r}, "
                f"lattice={list(map(list, self.lattice.rows))})")


def maximal_filter(cosets) -> list[TorsionCoset]:
    """Deduplicate by canonical key and drop every coset strictly
    contained in another one; the output is sorted by (dimension, key)
    and covers the same torsion points as the input."""
    unique: dict = {}
    for c in cosets:
        unique.setdefault(c.canonical_key(), c)
    ordered = sorted(unique.values(), key=TorsionCoset.sort_key)
    dims = [c.dimension for c in ordered]
    # distinct cosets of equal dimension cannot contain one another, so
    # each coset meets only the suffix of strictly larger dimension
    return [c for i, c in enumerate(ordered)
            if not any(c.is_subcoset_of(other)
                       for other in ordered[bisect_right(dims, dims[i]):])]


class CongruenceSolutionSet:
    """All torsion solutions q of R q = s (mod 1).

    The solution set, when consistent, is q0 + {torsion q : R q = 0},
    and the homogeneous part splits into class_count classes modulo the
    torsion of the connected subgroup cut out by the saturation of R.
    Modulo that torsion, the homogeneous solutions are generated by the
    points column / order of the (column, order) pairs in generators;
    the class shifts are listed from them only on demand.
    """

    __slots__ = ("ambient", "consistent", "particular", "homogeneous",
                 "generators", "_shifts")

    def __init__(self, ambient, consistent, particular=None,
                 homogeneous=None, generators=()):
        self.ambient = ambient
        self.consistent = consistent
        self.particular = particular
        self.homogeneous = homogeneous
        self.generators = tuple(generators)
        self._shifts = None

    @property
    def class_shifts(self) -> tuple[TorsionPoint, ...]:
        if not self.consistent:
            return ()
        if self._shifts is None:
            shifts = [TorsionPoint([Fraction(0)] * self.ambient)]
            for col, d in self.generators:
                shifts = [base * TorsionPoint([Fraction(j * c, d) % 1
                                               for c in col])
                          for j in range(d) for base in shifts]
            self._shifts = tuple(shifts)
        return self._shifts

    @property
    def class_count(self) -> int:
        return len(self.class_shifts)

    def class_points(self) -> list[TorsionPoint]:
        """One torsion point per solution class."""
        return [self.particular * shift for shift in self.class_shifts]

    def cosets(self) -> list["TorsionCoset"]:
        """The solution set as a union of torsion cosets on the
        connected subgroup of the saturated constraints."""
        return [TorsionCoset(p, self.homogeneous) for p in self.class_points()]

    def points(self) -> list[TorsionPoint]:
        """All solutions when the solution set is finite."""
        if not self.consistent:
            return []
        if self.homogeneous.rank != self.ambient:
            raise ValueError("solution set is infinite")
        return self.class_points()

    def least_point(self) -> TorsionPoint:
        """min(self.points(), key=TorsionPoint.exponents) without listing
        the points.  With D a common denominator of q0 and the generators,
        the solutions are k / D for k in k0 + L, k0 = D q0, where the
        lattice L is spanned by D Z^n and D column / order.  The row HNF
        of L has pivots h_ii dividing D, and the vectors of L that vanish
        in the first i coordinates are spanned by its rows below i; so
        reducing k0 by the rows in order, coordinate i into [0, h_ii),
        gives the lex-least k in [0, D)^n, in O(n^2) after the HNF."""
        if not self.consistent:
            raise ValueError("no solution")
        if self.homogeneous.rank != self.ambient:
            raise ValueError("solution set is infinite")
        n = self.ambient
        q0 = self.particular.exponents()
        den = lcm(*(x.denominator for x in q0), *(d for _, d in self.generators))
        rows = [[den * (i == j) for j in range(n)] for i in range(n)]
        rows += [[den // d * c for c in col] for col, d in self.generators]
        k = [int(x * den) for x in q0]
        for i, row in enumerate(IntegerLattice(n, rows).rows):
            step = k[i] // row[i]
            k = [x - step * y for x, y in zip(k, row)]
        return TorsionPoint([Fraction(x, den) for x in k])


def solve_exponent_congruences(rows, s) -> CongruenceSolutionSet:
    """Describe all torsion q with R q = s (mod 1) via the Smith normal
    form of R; for square nonsingular R there are exactly |det R|
    solutions."""
    rows = [list(r) for r in rows]
    k = len(rows)
    if k == 0:
        raise ValueError("empty congruence system has no ambient dimension")
    n = len(rows[0])
    s = [Fraction(x) for x in s]
    if len(s) != k:
        raise ValueError("right-hand side length mismatch")
    w, diag, v = _smith_diagonalize(rows)
    rank = sum(1 for d in diag if d)
    t = [sum(Fraction(w[i][j]) * s[j] for j in range(k)) for i in range(k)]
    for i in range(rank, k):
        if t[i].denominator != 1:
            return CongruenceSolutionSet(n, False)
    y0 = [t[i] / diag[i] for i in range(rank)] + [Fraction(0)] * (n - rank)
    q0 = TorsionPoint([sum(Fraction(v[i][j]) * y0[j] for j in range(n)) % 1
                       for i in range(n)])
    # R = W^-1 D V^-1, so the saturated row space of R is spanned by the
    # first rank rows of V^-1
    hom = IntegerLattice(n, mat_inverse_unimodular(v)[:rank])
    generators = [([v[row][i] for row in range(n)], diag[i])
                  for i in range(rank) if diag[i] != 1]
    return CongruenceSolutionSet(n, True, q0, hom, generators)
