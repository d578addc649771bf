"""Solver for polynomial systems in roots of unity: finds all maximal
torsion cosets on the subvariety the system defines in the algebraic
n-torus.

The hypersurface solver strips codimension-one cosets off as binomial
factors X^a - w, found in the original coordinates: one line of the
support along a gives the candidate roots w, and TorsionCoset.lies_on
decides each one exactly.  Unless L(f) = Z^n, it rewrites f over a
basis of L(f) as f* in r = rank L(f) variables with L(f*) = Z^r, and
pulls the cosets of f* back through that one isogeny.  Otherwise it
normalizes the coefficient level, builds the auxiliary family of
twisted polynomials (sign twists, squared twists and Galois twists,
depending on the coefficient field), eliminates one variable by
resultants, and recurses on the candidate projections.
The cosets above each candidate, and those of a system inside each
positive-dimensional coset of its cheapest hypersurface, come from one
restriction to a torsion coset, through slice_values at the coset's
exponent matrix, solved in dim(coset) variables and lifted back.  Point
candidates are restricted once per Galois orbit over the coefficient
field; the other points of the orbit take the conjugates of the cosets
found above the first.

Univariate resultants are passed on as they are; cyclotomic_roots
clears their monomial content itself.  The output is certified with one
exact membership test per Galois orbit over the coefficient field.

Order classes.  Which member of the twisted family vanishes at a torsion
point zeta of H(f) depends only on the 2-adic valuations v_i =
v_2(ord zeta_i).  With N the level and t = v_2(lcm(2, N)) (Q(zeta_N)
holds the 2^t-th roots of unity and no others of 2-power order), zeta
names the sign twist f(eps X), eps_i = -1 exactly where v_i = max v, if
max v > t, and otherwise the Galois twist sigma(f)(eps X^s), eps_i = -1
exactly where v_i = t.

Points.  If zeta lies on H(f), it lies on the member it names.  Let M =
lcm(ord zeta, N) and a = v_2(M).  If max v > t, then a = max v >= 2, so
tau: zeta_M -> zeta_M^(1 + M/2) is an automorphism; it fixes zeta_N (N
divides M/2) and maps zeta_i to zeta_i^(1 + M/2) = eps_i zeta_i, eps_i =
-1 exactly where ord zeta_i does not divide M/2, that is v_i = a.  So
0 = tau(f(zeta)) = f(eps zeta).  If max v <= t and N is odd (t = 1), tau
squares the odd part of M and fixes -1: it maps zeta_N to zeta_N^2 =
sigma(zeta_N), and zeta_i = +-w_i, w_i of odd order and the sign -1
exactly where v_i = 1, to +-w_i^2 = eps_i zeta_i^2, so
sigma(f)(eps zeta^2) = 0.  If max v <= t and 4 | N (t = v_2(N)), then
a = t and tau: zeta_M -> zeta_M^(1 + M/2) maps zeta_N to -zeta_N =
sigma(zeta_N), as N does not divide M/2, and zeta_i to -zeta_i exactly
where v_i = t; so sigma(f)(eps zeta) = 0.

Cosets.  A sub-solve carries an OrderClass, the valuation patterns its
points can have (None for all, at the top), and must return cosets of
H(f) that contain every torsion coset C of H(f) in which the points of
those patterns are Zariski dense; with None that is every C, so the
maximal filter leaves the maximal cosets.  Those points of C are the
union over the finitely many members of the points each names, so for
some member g_k the points it names are dense in C.  Each lies on g_k,
so C lies on H(g_k), and its projection C' dropping X_n lies on the
hypersurface of Res(f, g_k), with the projections of those points dense
in C' and their patterns in the projected class of g_k.  The solve of
the resultant with that class returns a coset containing C', and the
restriction of f to its preimage one containing C.  So a member that no
allowed pattern names is skipped with its resultant and its whole
sub-solve.  At a minimal level f divides no member g, so g_k is kept and
a zero resultant splits f.  A sign twist, or a Galois twist at 4 | N,
has f's support, so f | g makes g = c f: f(eps X) = c f would make eps
trivial on L(f) = Z^n, and sigma(f)(eps X) = c f would let the scaling
by zeta_N where eps_i = -1 lower the level.  A stretched twist is T(f)
for the ring map T(h) = sigma(h)(eps X^2); f | T(f) gives f | T^k(f) =
f(eps X^(2^k)), k the order of sigma, so x -> eps x^(2^k) maps V(f) into
itself.  Its components are then preperiodic, hence torsion cosets (as
is a variety that x -> u x^d, d >= 2 and u torsion, maps onto itself,
and each component of its preimages): f would be a product of binomials,
which the binomial strip removed.  The class passes the
monomial and binomial strips and the splits unchanged (C lies in one
factor's hypersurface), and the level normalization by a shift
(OrderClass.shift); the isogeny step and the restriction to a coset
drop it, so the rule only removes work.  Resultants equal up to
associates are solved once, with the union of their classes, and at
n = 1 cyclotomic_roots skips the orders whose valuation the class
excludes.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd, lcm

from .arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    _divisors,
    conjugate_exponent,
)
from .cosets import (
    ExponentCongruences,
    TorsionCoset,
    bezout_vector,
    maximal_filter,
    solve_exponent_congruences,
)
from .lattices import (
    IntegerLattice,
    hermite_normal_form,
    identity_matrix,
    mat_inverse_unimodular,
    mat_mul,
    transpose,
)
from .poly import (
    LaurentPolynomial,
    ResultantFamily,
    Twist,
    _content_and_primitive,
    _v2,
    cyclotomic_roots,
    multivariate_gcd,
    resultant,
)


class SolveStats:
    """Counters collected during a solve; max_level is the largest
    coefficient level left by the level normalization,
    exact_certificates the number of exact membership tests the
    certification ran (one per Galois orbit of the output),
    skipped_members the members of a twisted family that no
    allowed order class names (never built, no resultant), and
    conjugated_candidates the point candidates whose cosets were mapped
    from a Galois conjugate's instead of restricted."""

    __slots__ = ("max_depth", "resultants", "max_resultant_degree",
                 "splits", "subsolves", "max_level", "exact_certificates",
                 "skipped_members", "conjugated_candidates")

    def __init__(self):
        self.max_depth = 0
        self.resultants = 0
        self.max_resultant_degree = 0
        self.splits = 0
        self.subsolves = 0
        self.max_level = 0
        self.exact_certificates = 0
        self.skipped_members = 0
        self.conjugated_candidates = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class SolveReport:
    """Maximal torsion cosets of a system, in sort_key order (as
    maximal_filter returns them), with bookkeeping."""

    __slots__ = ("cosets", "stats", "certificates")

    def __init__(self, cosets, stats, certificates):
        self.cosets = cosets
        self.stats = stats
        self.certificates = certificates

    def counts_by_dimension(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.cosets:
            out[c.dimension] = out.get(c.dimension, 0) + 1
        return out


# ---------------------------------------------------------------------------
# binomial (codimension-one) cosets


def _primitive_directions(support):
    supp = sorted(support)
    dirs = set()
    for i in range(len(supp)):
        for j in range(i + 1, len(supp)):
            d = [a - b for a, b in zip(supp[j], supp[i])]
            g = 0
            for x in d:
                g = gcd(g, x)
            if g == 0:
                continue
            d = [x // g for x in d]
            lead = next(x for x in d if x)
            if lead < 0:
                d = [-x for x in d]
            dirs.add(tuple(d))
    return sorted(dirs)


def binomial_cosets(f: LaurentPolynomial):
    """All (n-1)-dimensional torsion cosets on H(f), which correspond to
    binomial factors X^a - w, plus the cofactor of f with every such
    factor divided out.

    For a primitive direction a and b with <a, b> = 1, each exponent is
    e = k + <e, b> a with k = e - <e, b> a, constant on the line
    e + Z a, so f = sum_k X^k P_k(X^a).  The characters X^k (<k, b> = 0)
    are distinct on H_a, so f vanishes on the coset from_binomial(a, w)
    = {x : x^a = w} exactly when every line polynomial P_k vanishes at
    w: the roots of the line with the fewest terms are the candidates,
    and lies_on decides.  For primitive a, X^a - w is irreducible (Y_1 - w
    in coordinates with Y_1 = X^a), so it divides f exactly when f
    vanishes on that coset.  The stripped binomial has no monomial
    factor, so divide_exact finds the Laurent quotient."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    n = f.nvars
    work, _ = f.strip_monomial_content()
    found: list[TorsionCoset] = []
    for a in _primitive_directions(work.support()):
        if work.is_unit():
            break
        b = bezout_vector(a)
        lines: dict[tuple[int, ...], dict] = {}
        for e, c in work.terms.items():
            pos = sum(x * y for x, y in zip(e, b))
            key = tuple(x - pos * y for x, y in zip(e, a))
            lines.setdefault(key, {})[(pos,)] = c
        line = lines[min(lines, key=lambda key: (len(lines[key]), key))]
        if len(line) < 2:
            # a line with one term never vanishes: no binomial factor
            continue
        for w in cyclotomic_roots(LaurentPolynomial(1, line)):
            coset = TorsionCoset.from_binomial(a, w)
            if not coset.lies_on([work]):
                continue
            found.append(coset)
            binomial = LaurentPolynomial(
                n, {a: 1, (0,) * n: -w.to_cyclotomic()})
            while True:
                quot = work.divide_exact(binomial)
                if quot is None:
                    raise RuntimeError("internal error: binomial factor "
                                       "does not divide")
                work, _ = quot.strip_monomial_content()
                if not coset.lies_on([work]):
                    break
    return found, work


# ---------------------------------------------------------------------------
# lattice reductions


def reduce_rank_deficient(f: LaurentPolynomial):
    """rescale_to_full_lattice(f), which handles every rank; kept under
    this name while the benchmark's traced spans still list it."""
    return rescale_to_full_lattice(f)


def rescale_to_full_lattice(f: LaurentPolynomial):
    """The isogeny step, for every rank r = rank L(f) >= 1.  Translate
    the support by its lex-first exponent and write each exponent as
    d = s P, the rows of P a basis of the saturation of L(f): P = I at
    r = n, and for r < n the row HNF T S^T = [H; 0] of the transposed
    support S gives the s as the columns of H and P as the first r rows
    of (T^-1)^T.  With c the coordinates of s = sum c_i a_i over the HNF
    rows a_i of the lattice of the s, f(X) = X^anchor * f*(X^A) for f*
    with exponents c, r variables and L(f*) = Z^r, and A with rows a_i P.
    The rows of A are independent, so X -> X^A maps G_m^n onto G_m^r,
    and the cosets of H(f) are the preimages of those of H(f*): the
    preimage of u * H_B is the solution set of X^(b A) = u^b over the
    rows b of B, with one Smith form of B A per distinct B (one for all
    the points, whose B is the identity).  P = I would
    do at every rank, but H is the same for every monoidal image of f
    (with the same term order), while on monoidal images of polynomials
    in r variables the f* read off the HNF rows of L(f) alone took 100
    times longer and more to solve.  Returns (f*, pullback)."""
    terms = sorted(f.terms)
    support = [[x - a for x, a in zip(e, terms[0])] for e in terms]
    h, t = hermite_normal_form(transpose(support))
    basis = identity_matrix(f.nvars)
    if len(h) < f.nvars:
        support = transpose(h)
        basis = transpose(mat_inverse_unimodular(t))[:len(h)]
    lat = IntegerLattice(len(basis), support)
    # every s lies in the lattice it spans, so it has coordinates
    fstar = LaurentPolynomial(lat.rank, {
        tuple(lat.coefficients(s)): f.terms[e] for s, e in zip(support, terms)})
    a_rows = mat_mul(lat.rows, basis)

    def pullback(cosets):
        # one Smith form per distinct lattice: every point shares the
        # identity rows
        systems = {}
        results = []
        for c in cosets:
            rows, m, nums = c.int_key()
            system = systems.get(rows)
            if system is None:
                system = systems[rows] = ExponentCongruences(
                    mat_mul(rows, a_rows))
            sol = system.solve(TorsionPoint(nums, m))
            if not sol.consistent:
                raise RuntimeError("internal error: inconsistent isogeny "
                                   "pullback")
            results.extend(sol.cosets())
        return results

    return fstar, pullback


# ---------------------------------------------------------------------------
# coefficient-field normalization and the auxiliary family


def minimal_level_normalize(f: LaurentPolynomial):
    """Scale the variables by w in mu_(2N)^n (N the coefficient level)
    and divide by a coefficient so that the coefficient level is least;
    it is odd or divisible by 4.  Returns (scalings, level, normalized
    f); the scalings translate solved cosets back.  With w = zeta_2N^k,
    the ratios r_e to the lex-first coefficient c_d (any divisor reaches
    the same levels) lie in Q(zeta_M) when each <e-d, k> lies in
    {j : r_e zeta_2N^j in Q(zeta_M)}, a coset of (2N/g)Z for
    g = gcd(2N, lcm(2, M)), as Q(zeta_M) holds the lcm(2, M)-th roots of
    unity.  So each level is one congruence system, with no search; the
    least reachable one is returned with the lex-first k in [0, 2N)^n."""
    n = f.nvars
    reduced = f.map_coefficients(lambda c: c.minimal_level())
    level = reduced.coefficient_level()
    identity = tuple(RootOfUnity.one() for _ in range(n))
    if level == 1:
        return identity, 1, reduced
    two_n = 2 * level
    d, *others = sorted(reduced.terms)
    ratios = [reduced.terms[e] / reduced.terms[d] for e in others]
    # (r zeta_2N^j)^(2N) = r^(2N), so a reachable level is a multiple of
    # the minimal level of every r^(2N): once their lcm reaches the level,
    # no lower one is reachable
    floor = 1
    for r in ratios:
        floor = lcm(floor, (r ** two_n).minimal_level().level)
        if floor >= level:
            return identity, level, reduced
    scans = [[(r * CyclotomicNumber.zeta(two_n, j)).minimal_level().level
              for j in range(two_n)] for r in ratios]
    for m in _divisors(two_n):
        admissible = [[j for j, lv in enumerate(scan) if m % lv == 0]
                      for scan in scans]
        if m >= level or m % 4 == 2 or not all(admissible):
            continue
        g = gcd(two_n, lcm(2, m))
        rows = [[two_n * x for x in row] for row in identity_matrix(n)]
        rows += [[g * (x - y) for x, y in zip(e, d)] for e in others]
        rhs = TorsionPoint([0] * n + [g * js[0] for js in admissible], two_n)
        sol = solve_exponent_congruences(rows, rhs)
        if sol.consistent:
            point = sol.least_point()
            scaled = reduced.scale_variables(list(point))
            unit = scaled.terms[d].inverse()
            return tuple(point), m, scaled.map_coefficients(
                lambda c: (c * unit).minimal_level())
    return identity, level, reduced


# ---------------------------------------------------------------------------
# order classes: the 2-adic valuation patterns a sub-solve must find


def _normal_form(v, cut: int) -> tuple[int, ...]:
    # the values below cut as they are, the distinct values from cut on
    # renumbered cut, cut + 1, ... in increasing order
    big = sorted({x for x in v if x >= cut})
    rank = {x: cut + i for i, x in enumerate(big)}
    return tuple(rank.get(x, x) for x in v)


@cache
def _all_forms(n: int, cut: int) -> tuple[tuple[int, ...], ...]:
    return tuple(v for v in itertools.product(range(cut + n), repeat=n)
                 if _normal_form(v, cut) == v)


class OrderClass:
    """A set of 2-adic valuation patterns v = (v_2(ord zeta_1), ...,
    v_2(ord zeta_n)) of torsion points, exact for valuations of any
    size.  The normal form of v at the cut K keeps the values below K
    and renumbers the distinct values from K on as K, K + 1, ..., in
    increasing order; it keeps every comparison between coordinates and
    with the values below K.  The class is the finite set of the normal
    forms of its patterns; a higher cut splits each form into those at
    the new cut that it stands for."""

    __slots__ = ("nvars", "cut", "forms")

    def __init__(self, nvars: int, cut: int, forms):
        self.nvars, self.cut, self.forms = nvars, cut, frozenset(forms)

    def __contains__(self, v) -> bool:
        return _normal_form(v, self.cut) in self.forms

    def at_cut(self, cut: int) -> "OrderClass":
        if cut <= self.cut:
            return self
        return OrderClass(self.nvars, cut, (
            u for u in _all_forms(self.nvars, cut) if u in self))

    def __or__(self, other: "OrderClass") -> "OrderClass":
        cut = max(self.cut, other.cut)
        return OrderClass(self.nvars, cut,
                          self.at_cut(cut).forms | other.at_cut(cut).forms)

    def project(self) -> "OrderClass":
        """The patterns with the last coordinate dropped."""
        return OrderClass(self.nvars - 1, self.cut,
                          {_normal_form(u[:-1], self.cut) for u in self.forms})

    def shift(self, a) -> "OrderClass":
        """The patterns of x w for x in the class and w with the
        2-adic order valuations a (of w or of w^-1): max(v, a_i) where
        v != a_i, and every value below a_i where v = a_i >= 1, as the
        2-parts of two roots of unity of the same order 2^a_i >= 2
        multiply to any root of order 2^b, b < a_i."""
        if not any(a):
            return self
        cls = self.at_cut(max(a) + 1)
        forms = set()
        for u in cls.forms:
            forms.update(itertools.product(*(
                range(y) if x == y and y else (max(x, y),)
                for x, y in zip(u, a))))
        return OrderClass(self.nvars, cls.cut, forms)


def _member(v, t: int) -> Twist:
    # the member that the normal form v, at a cut above t, names
    top = max(v)
    if top > t:
        return Twist("sign", tuple(-1 if x == top else 1 for x in v))
    return Twist("galois", tuple(-1 if x == t else 1 for x in v))


def member_classes(classes, n: int, level: int) -> dict:
    """Twist -> OrderClass: the patterns of classes (every pattern when
    None) that name each member of the twisted family at the level N,
    for the members that some pattern names (the rule and its proof are
    in the module docstring).  The normal forms at a cut above
    t = v_2(lcm(2, N)) keep max v, its positions and the comparisons
    with t, so each form names one member.  The result is shared: do
    not change it."""
    t = _v2(lcm(2, level))
    if classes is None:
        return _every_member_class(n, t)
    return _split_by_member(classes.at_cut(t + 1), t)


@cache
def _every_member_class(n: int, t: int) -> dict:
    return _split_by_member(OrderClass(n, t + 1, _all_forms(n, t + 1)), t)


def _split_by_member(classes: OrderClass, t: int) -> dict:
    named: dict = {}
    for u in classes.forms:
        named.setdefault(_member(u, t), []).append(u)
    return {twist: OrderClass(classes.nvars, classes.cut, forms)
            for twist, forms in named.items()}


def _galois_twist(f: LaurentPolynomial, t: int) -> LaurentPolynomial:
    # z_m -> z_m^t on each coefficient, at its level m; level-1
    # coefficients are fixed
    return f.map_coefficients(
        lambda c: c if c.level == 1 else c.galois(t % c.level))


def auxiliary_polynomials(f: LaurentPolynomial, members=None):
    """The twisted auxiliary family for a level-normalized, binomial-free
    f with L(f) = Z^n: at most 2^(n+1) - 1 polynomials of degree at most
    2 deg f, each sharing no factor with f, such that every torsion
    coset of H(f) lies on one of their hypersurfaces.  Each member is
    named by a Twist: the sign twists f(eps X), eps != 1, then the
    Galois twists sigma(f)(eps X^s) (s = 2 at an odd level N, 1 at N = 0
    (mod 4)).  With members, a collection of Twists such as the keys of
    member_classes, only those members are built.

    Coprimality is decided by elimination of the last variable X_var,
    var = n - 1.  A content of f with respect to X_var (the gcd of its
    coefficients, polynomials in the other variables) that is not a
    unit is returned at once as ("split", content).  For primitive f, a
    candidate shares a factor with f exactly when its resultant with f
    in X_var is zero; only then is the gcd computed, and it splits f, as
    f divides no member (module docstring).  The resultants share one
    ResultantFamily of f; at a level divisible by 4 each Galois twist
    sigma(f)(eps X) is passed with its name, so its determinants are
    taken at half the roots of Phi_N.

    Returns ("aux", [(twist, candidate, resultant), ...]), or ("split",
    factor) with a nontrivial factor of f so the caller can split f and
    recurse."""
    # the Galois twists act on each coefficient at its minimal level
    f = f.map_coefficients(lambda c: c.minimal_level())
    n = f.nvars
    var = n - 1
    content, _ = _content_and_primitive(f.coefficients_in(var))
    if not content.is_unit():
        return "split", content.insert_variable(var)
    level = f.coefficient_level()
    if level % 4 == 2:
        raise RuntimeError(f"internal error: minimal level {level} is 2 mod 4")
    sign_choices = list(itertools.product((1, -1), repeat=n))
    names = ([Twist("sign", eps) for eps in sign_choices[1:]]
             + [Twist("galois", eps) for eps in sign_choices])
    if members is not None:
        names = [twist for twist in names if twist in members]
    # at an odd level (level 1 included) the twist z -> z^2 goes with
    # X -> X^2, at a level divisible by 4 the twist z -> -z goes alone
    twisted = _galois_twist(f, conjugate_exponent(level))
    stretch = 2 if level % 2 else 1
    family = ResultantFamily(f, var)
    kept = []
    for twist in names:
        cand = (f.sign_variant(twist.eps) if twist.kind == "sign" else
                twisted.sign_variant(twist.eps).stretch_exponents(stretch))
        res = resultant(family, cand, var, twist)
        if res.is_zero():
            g = multivariate_gcd(f, cand)
            quot = f.divide_exact(g)
            if g.is_unit() or quot is None or quot.is_unit():
                raise RuntimeError("internal error: a zero resultant "
                                   "without a proper factor of f")
            return "split", g
        kept.append((twist, cand, res))
    return "aux", kept


# ---------------------------------------------------------------------------
# the hypersurface recursion


def _solve_hypersurface(f: LaurentPolynomial, stats: SolveStats,
                        depth: int, classes=None) -> list[TorsionCoset]:
    # cosets of H(f) that contain every torsion coset of H(f) in which
    # the points with valuation patterns in classes (all when None) are
    # Zariski dense; with None, the maximal cosets (module docstring)
    stats.max_depth = max(stats.max_depth, depth)
    stats.subsolves += 1
    n = f.nvars
    if f.is_zero():
        raise ValueError("hypersurface of the zero polynomial")
    work, _ = f.strip_monomial_content()
    if work.is_unit():
        return []
    if n == 1:
        roots = cyclotomic_roots(work, classes)
        # filtered like every other return, so the public order is the
        # sort_key order and the entry points need no second pass
        return maximal_filter(TorsionCoset.from_point(TorsionPoint([w]))
                              for w in roots)
    results, work = binomial_cosets(work)
    if work.is_unit():
        return maximal_filter(results)
    if work.exponent_lattice() != IntegerLattice.full(n):
        # the class does not cross the isogeny
        fstar, pullback = rescale_to_full_lattice(work)
        sub = _solve_hypersurface(fstar, stats, depth + 1)
        results.extend(pullback(sub))
        return maximal_filter(results)
    scalings, level, scaled = minimal_level_normalize(work)
    stats.max_level = max(stats.max_level, level)
    if classes is not None:
        # a point y of the scaled f gives the point y * scalings of work
        classes = classes.shift([_v2(w.order) for w in scalings])
    sub = _solve_full_lattice(scaled, stats, depth, classes)
    shift = TorsionPoint(scalings)
    results.extend(c.translate(shift) for c in sub)
    return maximal_filter(results)


def _poly_associate_key(f: LaurentPolynomial):
    # canonical key identifying polynomials up to monomial and unit
    # factors: strip, normalize the lex-leading coefficient to one
    work, _ = f.strip_monomial_content()
    if work.is_zero():
        return ()
    _, lead = work.leading_term_lex()
    work = work.scale(lead.inverse())
    out = []
    for e in sorted(work.terms):
        c = work.terms[e].minimal_level()
        out.append((e, c.level, c.num, c.den))
    return tuple(out)


def _solve_full_lattice(f: LaurentPolynomial, stats: SolveStats,
                        depth: int, classes=None) -> list[TorsionCoset]:
    """The cosets of H(f) for a level-normalized, binomial-free f with
    L(f) = Z^n: eliminate X_n by the auxiliary family, solve the
    resultants, and restrict f to the preimage of each candidate.

    The order classes (module docstring) select the members built and
    the patterns each resultant's solve must find.

    Point candidates are taken one Galois orbit at a time.  With N the
    coefficient level and c a point of order m, every t = 1 (mod N)
    prime to lcm(m, N) gives the conjugate c' = c^t; only the first
    candidate of an orbit in sort_key order is restricted.  Let M be the
    lcm of N and the orders of the cosets lifted above c, and t' = t +
    k lcm(m, N) the first such value prime to M.  Any automorphism tau
    of Q(mu_oo) restricting to sigma_t': zeta_M -> zeta_M^t' fixes
    Q(zeta_N), hence f, and maps c to c' as t' = t (mod m); so it maps
    the zeros of f on the preimage {c} x G_m of c bijectively onto those
    on the preimage of c'.  tau acts as sigma_t' on the cosets above c,
    whose orders divide M, so the cosets above c' are their sigma_t'
    images: the same lattice and the point numerators times t'.  A
    positive-dimensional candidate keeps its own restriction, as its
    conjugates may print another representative point."""
    n = f.nvars
    # f is level-normalized: this is the level auxiliary_polynomials
    # names its members at
    level = f.coefficient_level()
    named = member_classes(classes, n, level)
    kind, aux = auxiliary_polynomials(f, named)
    if kind == "split":
        stats.splits += 1
        h = f.divide_exact(aux)
        if h is None:
            raise RuntimeError("internal error: split factor does not divide f")
        # each coset of H(f) lies on one factor's hypersurface
        return (_solve_hypersurface(aux, stats, depth + 1, classes)
                + _solve_hypersurface(h, stats, depth + 1, classes))
    stats.resultants += len(aux)
    stats.skipped_members += 2 ** (n + 1) - 1 - len(named)
    # associate key -> [resultant, union of the projected classes]
    subsolves: dict = {}
    for twist, _, gk in aux:
        gk, _ = gk.strip_monomial_content()
        if gk.is_unit():
            continue
        stats.max_resultant_degree = max(stats.max_resultant_degree,
                                         gk.total_degree())
        key = _poly_associate_key(gk)
        sub = named[twist].project()
        if key in subsolves:
            subsolves[key][1] |= sub
        else:
            subsolves[key] = [gk, sub]
    candidates: dict = {}
    for gk, sub in subsolves.values():
        for c in _solve_hypersurface(gk, stats, depth + 1, sub):
            candidates.setdefault(c.int_key(), c)
    results: list[TorsionCoset] = []
    # key of a point candidate -> (t, lifted cosets of the first
    # candidate of its orbit, which it is sigma_t of)
    orbits: dict = {}
    for cand in sorted(candidates.values(), key=TorsionCoset.sort_key):
        key = cand.int_key()
        if key in orbits:
            stats.conjugated_candidates += 1
            t, lifted = orbits[key]
            results.extend(_conjugate(lifted, t, lcm(level, cand.point.order)))
            continue
        # the preimage of the candidate under the projection dropping X_n
        preimage = TorsionCoset(
            TorsionPoint(cand.point.nums + (0,), cand.point.order),
            IntegerLattice(n, [list(r) + [0] for r in cand.lattice.rows]))
        lifted = _restrict_and_lift([f], preimage, stats, depth)
        results.extend(lifted)
        if not cand.dimension:
            for t, conj in _galois_conjugates(key, level):
                orbits[conj] = t, lifted
    return maximal_filter(results)


def _galois_conjugates(key, level: int):
    """(t, int_key of sigma_t(C)) for the coset C with int_key key =
    (rows, m, nums) and each t = 1 (mod level) in [1, lcm(level, m)]
    prime to lcm(level, m).  sigma_t: zeta_M -> zeta_M^t fixes
    Q(zeta_level) and maps w * H_A onto w^t * H_A, whose pairings are t
    times those of w (t = 1 gives key itself)."""
    rows, m, nums = key
    big = lcm(level, m)
    for t in range(1, big + 1, level):
        if gcd(t, big) == 1:
            yield t, (rows, m, tuple(t * q % m for q in nums))


def _conjugate(cosets, t: int, step: int) -> list[TorsionCoset]:
    """sigma_t'(C) for each coset C = w * H_A: the same lattice and the
    point w^t', for the first t' = t + k * step prime to every point
    order (such a t' exists when t is prime to step)."""
    orders = lcm(*(c.point.order for c in cosets))
    while gcd(t, orders) != 1:
        t += step
    return [TorsionCoset(TorsionPoint([t * x for x in c.point.nums],
                                      c.point.order), c.lattice)
            for c in cosets]


def _restrict_and_lift(system, coset: TorsionCoset, stats: SolveStats,
                       depth: int) -> list[TorsionCoset]:
    """Cosets of the system's variety inside a torsion coset w * H_A of
    positive dimension d.  The rows of G = coset.exponent_matrix() are a
    basis of the primitive lattice A^perp, so e -> G e maps Z^n onto Z^d
    with kernel A, and t -> w * t^G is an isomorphism of G_m^d onto the
    coset, under which f restricts to sum_k (sum_{G e = k} c_e w^e) t^k:
    its coefficients are f.slice_values(w, G).  When every restriction is
    zero the coset itself is returned.  A solved coset u * H_B maps onto
    w * u^G times the subtorus of the characters e with G e in B; as B is
    primitive, that is G e orthogonal to the rows of E = exponent_matrix()
    of the solved coset, so its lattice is (E G)^perp."""
    n, g = coset.ambient, coset.exponent_matrix()
    images = [LaurentPolynomial(len(g), p.slice_values(coset.point, g))
              for p in system]
    images = [p for p in images if not p.is_zero()]
    if not images:
        return [coset]
    gt = transpose(g)
    # a solved point has no exponent rows: it lifts to a point
    return [TorsionCoset(coset.point * c.point.powers(gt),
                         IntegerLattice(n, mat_mul(c.exponent_matrix(), g))
                         .orthogonal_complement() if c.dimension
                         else IntegerLattice.full(n))
            for c in _solve_variety(images, stats, depth + 1)]


def _certify(cosets, polys, stats: SolveStats) -> list[bool]:
    """Exact membership of each coset in the variety of the polys, with
    one exact lies_on per Galois orbit.  With N the coefficient level,
    each sigma_t of _galois_conjugates fixes the polys, so a coset lies
    on the variety exactly when its conjugates do.  A coset is marked
    True only by its own exact test or by its key matching such a
    conjugate of a coset whose test was True."""
    level = lcm(*(f.coefficient_level() for f in polys))
    index = {c.int_key(): i for i, c in enumerate(cosets)}
    certificates = [False] * len(cosets)
    for i, c in enumerate(cosets):
        if certificates[i]:
            continue
        stats.exact_certificates += 1
        if not c.lies_on(polys):
            continue
        for _, key in _galois_conjugates(c.int_key(), level):
            j = index.get(key)
            if j is not None:
                certificates[j] = True
    return certificates


def hypersurface_cosets(f: LaurentPolynomial) -> SolveReport:
    """All maximal torsion cosets on the hypersurface of f, with
    certification that every output lies on it: one exact membership
    test per Galois orbit over Q(zeta_N), N the coefficient level, and
    an exact key match for the orbit's other cosets (_certify)."""
    stats = SolveStats()
    cosets = _solve_hypersurface(f, stats, 0)
    certificates = _certify(cosets, [f], stats)
    if not all(certificates):
        raise RuntimeError("internal error: emitted coset fails membership")
    return SolveReport(cosets, stats, certificates)


# ---------------------------------------------------------------------------
# general systems


def _cost_key(f: LaurentPolynomial):
    # term count, then the Newton box (the sum of the exponent spans):
    # the same for monomial shifts, unit multiples and Galois conjugates
    return len(f.terms), sum(map(f.degree_in, range(f.nvars)))


def _solve_variety(system, stats: SolveStats, depth: int):
    # the cheapest hypersurface first; ties keep the input order
    system = sorted((f for f in system if not f.is_zero()), key=_cost_key)
    if not system:
        raise ValueError("empty system (all polynomials zero)")
    if len(system) == 1:
        return _solve_hypersurface(system[0], stats, depth)
    first, *rest = system
    base = _solve_hypersurface(first, stats, depth)
    results = []
    for c in base:
        if c.dimension:
            results.extend(_restrict_and_lift(rest, c, stats, depth))
        elif c.lies_on(rest):
            results.append(c)
    return maximal_filter(results)


def variety_cosets(system) -> SolveReport:
    """All maximal torsion cosets on the subvariety cut out by the
    system, with certification against every input polynomial: one
    exact membership test per Galois orbit over Q(zeta_N), N the lcm of
    the coefficient levels, and an exact key match for the orbit's other
    cosets (_certify).

    Each level of the recursion solves the hypersurface of least
    _cost_key first and restricts the rest to its maximal cosets.  No
    order can change the answer: each maximal coset of the variety lies
    in a maximal coset C of every hypersurface, and is maximal among the
    cosets of the rest of the system inside C."""
    system = list(system)
    if not system:
        raise ValueError("empty system")
    nv = system[0].nvars
    if any(p.nvars != nv for p in system):
        raise ValueError("mixed variable counts in the system")
    stats = SolveStats()
    cosets = _solve_variety(system, stats, 0)
    certificates = _certify(cosets, system, stats)
    if not all(certificates):
        raise RuntimeError("internal error: emitted coset fails membership")
    return SolveReport(cosets, stats, certificates)
