"""Torsion cosets of the algebraic torus: canonical forms, containment,
maximality filtering, slice-based variety membership, and torsion
solutions of exponent congruences.

A torsion coset w * H_A is stored as its torsion point w together with
the primitive integer lattice A defining the subtorus
H_A = {x : x^a = 1 for all a in A}; its dimension is n - rank(A).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

from .arith import RootOfUnity, TorsionPoint, lowest_terms
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
        point = TorsionPoint([root.numerator * bi for bi in b], root.order)
        return cls(point, IntegerLattice(n, [list(direction)]))

    @property
    def ambient(self) -> int:
        return self.lattice.ambient

    @property
    def dimension(self) -> int:
        return self.ambient - self.lattice.rank

    def int_key(self):
        """Invariant under the choice of representative point and of the
        lattice basis: (rows, m, nums) for the HNF rows a and the pairings
        point^a = exp(2*pi*i*nums[i]/m) over their common order m."""
        if self._key is None:
            p = self.point.powers(self.lattice.rows)
            object.__setattr__(self, "_key", (self.lattice.rows, p.order, p.nums))
        return self._key

    def canonical_key(self):
        """int_key() with the pairings as a tuple of Fractions."""
        rows, m, nums = self.int_key()
        return rows, tuple(Fraction(x, m) for x in nums)

    def sort_key(self):
        rows, m, nums = self.int_key()
        return self.dimension, rows, lowest_terms(nums, m)

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
        p = self.point.powers(other.lattice.rows)
        return (other.lattice.rows, p.order, p.nums) == other.int_key()

    def contains_point(self, point: TorsionPoint) -> bool:
        return TorsionCoset.from_point(point).is_subcoset_of(self)

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
            return self.int_key() == other.int_key()
        return NotImplemented

    def __hash__(self):
        return hash(self.int_key())

    def __repr__(self):
        return (f"TorsionCoset(point={self.point!r}, "
                f"lattice={list(map(list, self.lattice.rows))})")


def maximal_filter(cosets) -> list[TorsionCoset]:
    """Deduplicate by key and drop every coset strictly contained in
    another one; the output is sorted by sort_key and covers the same
    torsion points as the input."""
    unique: dict = {}
    for c in cosets:
        unique.setdefault(c.int_key(), c)
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
    and the homogeneous part splits into len(class_shifts) classes
    modulo the torsion of the connected subgroup cut out by the
    saturation of R.  Modulo that torsion, the homogeneous solutions are
    generated by the points column / order of the (column, order) pairs
    in generators; the class shifts are listed from them on demand.
    """

    __slots__ = ("ambient", "consistent", "particular", "homogeneous",
                 "generators")

    def __init__(self, ambient, consistent, particular=None,
                 homogeneous=None, generators=()):
        self.ambient = ambient
        self.consistent = consistent
        self.particular = particular
        self.homogeneous = homogeneous
        self.generators = tuple(generators)

    @property
    def class_shifts(self) -> tuple[TorsionPoint, ...]:
        return tuple(self.class_points(TorsionPoint.ones(self.ambient)))

    def class_points(self, base: TorsionPoint | None = None):
        """One point per solution class: base (default: the particular
        solution) times each class shift, over one common order."""
        if not self.consistent:
            return []
        base = self.particular if base is None else base
        den = lcm(base.order, *(d for _, d in self.generators))
        vecs = [[x * (den // base.order) for x in base.nums]]
        for col, d in self.generators:
            step = [den // d * c for c in col]
            vecs = [[x + j * y for x, y in zip(v, step)]
                    for j in range(d) for v in vecs]
        return [TorsionPoint(v, den) for v in vecs]

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
        q0 = self.particular
        den = lcm(q0.order, *(d for _, d in self.generators))
        rows = [[den * (i == j) for j in range(n)] for i in range(n)]
        rows += [[den // d * c for c in col] for col, d in self.generators]
        k = [x * (den // q0.order) for x in q0.nums]
        for i, row in enumerate(IntegerLattice(n, rows).rows):
            step = k[i] // row[i]
            k = [x - step * y for x, y in zip(k, row)]
        return TorsionPoint(k, den)


def solve_exponent_congruences(rows, s) -> CongruenceSolutionSet:
    """Describe all torsion q with R q = s (mod 1) via the Smith normal
    form of R; for square nonsingular R there are exactly |det R|
    solutions.  The right-hand side s is a TorsionPoint, or rationals
    taken modulo 1."""
    rows = [list(r) for r in rows]
    k = len(rows)
    if k == 0:
        raise ValueError("empty congruence system has no ambient dimension")
    n = len(rows[0])
    s = TorsionPoint(s)
    if len(s) != k:
        raise ValueError("right-hand side length mismatch")
    w, diag, v = _smith_diagonalize(rows)
    rank = sum(1 for d in diag if d)
    # with s = nums / m: W s = t / m, and y0 = D^-1 W s over m * lcm(D)
    m = s.order
    t = [sum(a * b for a, b in zip(row, s.nums)) for row in w]
    if any(t[i] % m for i in range(rank, k)):
        return CongruenceSolutionSet(n, False)
    den = m * lcm(*diag[:rank])
    y0 = [t[i] * (den // (m * diag[i])) for i in range(rank)] + [0] * (n - rank)
    q0 = TorsionPoint([sum(a * b for a, b in zip(row, y0)) for row in v], den)
    # R = W^-1 D V^-1, so the saturated row space of R is spanned by the
    # first rank rows of V^-1
    hom = IntegerLattice(n, mat_inverse_unimodular(v)[:rank])
    generators = [([v[row][i] for row in range(n)], diag[i])
                  for i in range(rank) if diag[i] != 1]
    return CongruenceSolutionSet(n, True, q0, hom, generators)
