"""Solver for polynomial systems in roots of unity: finds all maximal
torsion cosets on the subvariety the system defines in the algebraic
n-torus.

The hypersurface solver strips codimension-one cosets off as binomial
factors, reduces the exponent lattice to full rank and then to all of
Z^n through an isogeny pullback, builds the auxiliary family of twisted
polynomials (sign twists, squared twists and Galois twists, depending on
the coefficient field), eliminates one variable by resultants, and
recurses on the candidate projections.  General systems recurse through
slices of the first hypersurface's positive-dimensional cosets.

Both lattice reductions are integer coordinate changes read off one
Hermite normal form: the HNF of the transposed support drops every
variable missing from the exponent lattice in one step, and the HNF
coordinates of each exponent over L(f) give the rescaled exponents.
Univariate resultants are passed on as they are; cyclotomic_roots
clears their monomial content itself.  The output is certified with one
exact membership test per Galois orbit over the coefficient field.
"""

from __future__ import annotations

import itertools
import logging
from math import gcd, lcm, prod

from .arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    _divisors,
    conjugate_exponent,
)
from .cosets import (
    TorsionCoset,
    maximal_filter,
    solve_exponent_congruences,
)
from .lattices import (
    IntegerLattice,
    extend_to_basis,
    hermite_normal_form,
    identity_matrix,
    mat_inverse_unimodular,
    transpose,
)
from .poly import (
    LaurentPolynomial,
    _content_and_primitive,
    cyclotomic_roots,
    multivariate_gcd,
    resultant,
)

logger = logging.getLogger(__name__)


class SolveStats:
    """Counters collected during a solve; max_level is the largest
    coefficient level left by the level normalization, and
    exact_certificates the number of exact membership tests the
    certification ran (one per Galois orbit of the output)."""

    __slots__ = ("max_depth", "resultants", "max_resultant_degree",
                 "splits", "subsolves", "max_level", "exact_certificates")

    def __init__(self):
        self.max_depth = 0
        self.resultants = 0
        self.max_resultant_degree = 0
        self.splits = 0
        self.subsolves = 0
        self.max_level = 0
        self.exact_certificates = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class SolveReport:
    """Maximal torsion cosets of a system, with bookkeeping."""

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
    factor divided out."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    n = f.nvars
    work, _ = f.strip_monomial_content()
    found: list[TorsionCoset] = []
    if work.is_unit():
        return found, work
    for a in _primitive_directions(work.support()):
        if work.is_unit():
            break
        u = extend_to_basis(list(a))
        work_u = work.monoidal_image(u)
        coeffs = work_u.coefficients_in(0)
        if len(coeffs) < 2:
            # single power of Y1: no binomial factor in this direction
            continue
        # one profile polynomial in Y1; common roots are verified on the
        # whole transformed polynomial afterwards
        profiles: dict[tuple[int, ...], dict] = {}
        for k, poly in coeffs.items():
            for e, c in poly.terms.items():
                profiles.setdefault(e, {})[(k,)] = c
        profile_key = min(profiles, key=lambda e: (len(profiles[e]), e))
        probe = LaurentPolynomial(1, profiles[profile_key])
        roots = cyclotomic_roots(probe)
        changed = False
        for w in roots:
            at_w = TorsionPoint([w])
            if not work_u.specialize(at_w).is_zero():
                continue
            found.append(TorsionCoset.from_binomial(a, w))
            divisor = LaurentPolynomial(
                n, {(1,) + (0,) * (n - 1): 1,
                    (0,) * n: -w.to_cyclotomic()})
            while True:
                quot = work_u.divide_exact(divisor)
                if quot is None:
                    raise RuntimeError("internal error: binomial factor "
                                       "does not divide")
                work_u = quot
                changed = True
                if work_u.is_unit() or not work_u.specialize(at_w).is_zero():
                    break
        if changed:
            work, _ = work_u._map_exponents(u).strip_monomial_content()
    return found, work


# ---------------------------------------------------------------------------
# lattice reductions


def _anchor_shift(f: LaurentPolynomial) -> LaurentPolynomial:
    # translate the support so that it lies inside the exponent lattice
    anchor = sorted(f.terms)[0]
    if not any(anchor):
        return f
    return LaurentPolynomial(
        f.nvars,
        {tuple(x - a for x, a in zip(e, anchor)): c for e, c in f.terms.items()})


def reduce_rank_deficient(f: LaurentPolynomial):
    """For rank L(f) = r < n, produce the r-variable polynomial whose
    cosets lift to the cosets of f, together with the lift map (each
    lifted coset gains n - r free directions).  With T unimodular and
    T * S^T = [H; 0] the row HNF of the transposed support S, the
    coordinate change X_i = Y^(T^T)_i moves the term at e to (T e)[:r],
    free of Y_(r+1), ..., Y_n; the lift pads a coset with those free
    coordinates and transforms it by T^T."""
    work = _anchor_shift(f)
    n = work.nvars
    h, t = hermite_normal_form(transpose(sorted(work.terms)))
    r = len(h)
    reduced = {}
    for e, c in work.terms.items():
        image = [sum(x * y for x, y in zip(row, e)) for row in t]
        if any(image[r:]):
            raise RuntimeError("internal error: support outside the span "
                               "of the HNF rows")
        reduced[tuple(image[:r])] = c
    back = transpose(t)
    pad = (0,) * (n - r)

    def lift(cosets):
        return [TorsionCoset(TorsionPoint(c.point.nums + pad, c.point.order),
                             IntegerLattice(n, [list(row) + [0] * (n - r)
                                                for row in c.lattice.rows]))
                .transform(back) for c in cosets]

    return LaurentPolynomial(r, reduced), lift


def rescale_to_full_lattice(f: LaurentPolynomial):
    """For rank L(f) = n with L(f) a proper sublattice of Z^n, rewrite
    each exponent e = sum c_i a_i by its integer coordinates c over the
    HNF rows a_i of L(f), which are its polar coordinates <e, a*_i>, so
    that the new polynomial has exponent lattice Z^n; its cosets pull
    back through the isogeny, det(L(f)) classes at a time."""
    n = f.nvars
    work = _anchor_shift(f)
    lat = work.exponent_lattice()
    if lat.rank != n:
        raise ValueError("exponent lattice must have full rank")
    a_rows = [list(r) for r in lat.rows]
    out = {}
    for e, c in work.terms.items():
        coords = lat.coefficients(e)
        if coords is None:
            raise RuntimeError("internal error: exponent outside the "
                               "exponent lattice")
        out[tuple(coords)] = c
    fstar = LaurentPolynomial(n, out)

    def pullback(cosets):
        results = []
        for c in cosets:
            rows, m, nums = c.int_key()
            constraint = [[sum(b[i] * a_rows[i][j] for i in range(n))
                           for j in range(n)] for b in rows]
            sol = solve_exponent_congruences(constraint, TorsionPoint(nums, m))
            if not sol.consistent:
                raise RuntimeError("internal error: inconsistent isogeny "
                                   "pullback")
            results.extend(sol.cosets())
        return results

    return fstar, pullback, prod(a_rows[i][i] for i in range(n))


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


def _galois_twist(f: LaurentPolynomial, t: int) -> LaurentPolynomial:
    # z_m -> z_m^t on each coefficient, at its level m; level-1
    # coefficients are fixed
    return f.map_coefficients(
        lambda c: c if c.level == 1 else c.galois(t % c.level))


def auxiliary_polynomials(f: LaurentPolynomial):
    """The twisted auxiliary family for a level-normalized f
    with L(f) = Z^n: at most 2^(n+1) - 1 polynomials of degree at most
    2 deg f, each sharing no factor with f, such that every torsion
    coset of H(f) lies on one of their hypersurfaces.

    Coprimality is decided by elimination of the last variable X_var,
    var = n - 1.  A content of f with respect to X_var (the gcd of its
    coefficients, polynomials in the other variables) that is not a
    unit is returned at once as ("split", content).  For primitive f, a
    candidate shares a factor with f exactly when its resultant with f
    in X_var is zero; only then is the gcd computed, and it either
    splits f or shows the candidate to be a multiple of f, which is
    dropped.

    Returns ("aux", [(candidate, resultant), ...]), or ("split", factor)
    with a nontrivial factor of f so the caller can split f and
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
    # at an odd level (level 1 included) the twist z -> z^2 goes with
    # X -> X^2, at a level divisible by 4 the twist z -> -z goes alone
    twisted = _galois_twist(f, conjugate_exponent(level))
    stretch = 2 if level % 2 else 1
    sign_choices = list(itertools.product((1, -1), repeat=n))
    raw = [f.sign_variant(eps) for eps in sign_choices[1:]]
    raw += [twisted.sign_variant(eps).stretch_exponents(stretch)
            for eps in sign_choices]
    kept = []
    for cand in raw:
        res = resultant(f, cand, var)
        if not res.is_zero():
            kept.append((cand, res))
            continue
        g = multivariate_gcd(f, cand)
        if g.is_unit():
            raise RuntimeError("internal error: zero resultant of a "
                               "candidate coprime to a primitive f")
        quot = f.divide_exact(g)
        if quot is not None and not quot.is_unit():
            return "split", g
        # the candidate is a multiple of f: it carries no information
        # and the twisted-family argument drops it
        logger.warning("auxiliary candidate divisible by f dropped")
    return "aux", kept


# ---------------------------------------------------------------------------
# the hypersurface recursion


def _solve_hypersurface(f: LaurentPolynomial, stats: SolveStats,
                        depth: int) -> list[TorsionCoset]:
    stats.max_depth = max(stats.max_depth, depth)
    stats.subsolves += 1
    n = f.nvars
    if f.is_zero():
        raise ValueError("hypersurface of the zero polynomial")
    work, _ = f.strip_monomial_content()
    if work.is_unit():
        return []
    if n == 1:
        roots = cyclotomic_roots(work)
        # filtered like every other return, so the public order is the
        # sort_key order and the entry points need no second pass
        return maximal_filter(TorsionCoset.from_point(TorsionPoint([w]))
                              for w in roots)
    results, work = binomial_cosets(work)
    if work.is_unit():
        return maximal_filter(results)
    work = _anchor_shift(work)
    lat = work.exponent_lattice()
    if lat.rank < n:
        fstar, lift = reduce_rank_deficient(work)
        sub = _solve_hypersurface(fstar, stats, depth + 1)
        results.extend(lift(sub))
        return maximal_filter(results)
    if lat != IntegerLattice.full(n):
        fstar, pullback, _ = rescale_to_full_lattice(work)
        sub = _solve_hypersurface(fstar, stats, depth + 1)
        results.extend(pullback(sub))
        return maximal_filter(results)
    scalings, level, scaled = minimal_level_normalize(work)
    stats.max_level = max(stats.max_level, level)
    sub = _solve_full_lattice(scaled, stats, depth)
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
                        depth: int) -> list[TorsionCoset]:
    # L(f) = Z^n, level-normalized, binomial-free
    n = f.nvars
    kind, aux = auxiliary_polynomials(f)
    if kind == "split":
        stats.splits += 1
        h = f.divide_exact(aux)
        if h is None:
            raise RuntimeError("internal error: split factor does not divide f")
        return (_solve_hypersurface(aux, stats, depth + 1)
                + _solve_hypersurface(h, stats, depth + 1))
    var = n - 1
    candidates: dict = {}
    seen_resultants: set = set()
    stats.resultants += len(aux)
    for _, gk in aux:
        gk, _ = gk.strip_monomial_content()
        if gk.is_unit():
            continue
        stats.max_resultant_degree = max(stats.max_resultant_degree,
                                         gk.total_degree())
        key = _poly_associate_key(gk)
        if key in seen_resultants:
            continue
        seen_resultants.add(key)
        for c in _solve_hypersurface(gk, stats, depth + 1):
            candidates.setdefault(c.int_key(), c)
    results: list[TorsionCoset] = []
    for cand in sorted(candidates.values(), key=TorsionCoset.sort_key):
        if cand.dimension == 0:
            results.extend(_fiber_points(f, cand.point, var))
        else:
            a = _primitive_member(cand.lattice)
            results.extend(_slice_and_lift([f], a + [0], cand.point.power(a),
                                           stats, depth))
    return maximal_filter(results)


def _fiber_points(f: LaurentPolynomial, zeta: TorsionPoint, var: int):
    """Step from a candidate projected point to the cosets of H(f) above
    it: the full fiber line when the specialization is identically zero,
    else the torsion roots of the univariate fiber polynomial."""
    n = f.nvars
    h = f.specialize(zeta)
    if h.is_zero():
        point = TorsionPoint(zeta.nums + (0,), zeta.order)
        return [TorsionCoset(point, IntegerLattice(n, identity_matrix(n)[:-1]))]
    return [TorsionCoset.from_point(TorsionPoint(list(zeta) + [w]))
            for w in cyclotomic_roots(h)]


def _primitive_member(lattice: IntegerLattice):
    row = list(lattice.rows[0])
    g = 0
    for x in row:
        g = gcd(g, x)
    return [x // g for x in row]


def _slice_and_lift(system, a, omega: RootOfUnity, stats: SolveStats,
                    depth: int) -> list[TorsionCoset]:
    """Cosets of the system's variety on the slice X^a = omega, for a
    primitive a: pass to coordinates whose first is Y_1 = X^a, freeze
    Y_1 = omega, solve the images in one fewer variables and lift back.
    When every image vanishes the whole slice lies on the variety and
    is returned."""
    n = len(a)
    u = extend_to_basis(a)
    back = mat_inverse_unimodular(u)
    images = [p._map_exponents(back).specialize(TorsionPoint([omega]))
              for p in system]
    images = [p for p in images if not p.is_zero()]
    first_row = [1] + [0] * (n - 1)
    if not images:
        point = TorsionPoint([omega] + [RootOfUnity.one()] * (n - 1))
        return [TorsionCoset(point, IntegerLattice(n, [first_row]))
                .transform(back)]
    out = []
    for e in _solve_variety(images, stats, depth + 1):
        point = TorsionPoint([omega] + list(e.point))
        rows = [first_row] + [[0] + list(r) for r in e.lattice.rows]
        out.append(TorsionCoset(point, IntegerLattice(n, rows)).transform(back))
    return out


def _certify(cosets, polys, stats: SolveStats) -> list[bool]:
    """Exact membership of each coset in the variety of the polys, with
    one exact lies_on per Galois orbit.  Let N be the coefficient level
    and, for a coset w * H_A with pairings q, M the lcm of N and their
    denominators.  Every k = 1 (mod N) prime to M gives sigma_k in
    Gal(Q(zeta_M) / Q(zeta_N)), which fixes the polys and maps w * H_A
    onto w^k * H_A, the coset with pairings k * q; so one lies on the
    variety exactly when the other does.  A coset is marked True only by
    its own exact test or by its key matching such a conjugate of a
    coset whose test was True."""
    level = lcm(*(f.coefficient_level() for f in polys))
    index = {c.int_key(): i for i, c in enumerate(cosets)}
    certificates = [False] * len(cosets)
    for i, c in enumerate(cosets):
        if certificates[i]:
            continue
        stats.exact_certificates += 1
        if not c.lies_on(polys):
            continue
        rows, m, nums = c.int_key()
        big = lcm(level, m)
        for k in range(1, big + 1, level):
            if gcd(k, big) == 1:
                j = index.get((rows, m, tuple(k * q % m for q in nums)))
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


def _solve_variety(system, stats: SolveStats, depth: int):
    system = [f for f in system if not f.is_zero()]
    if not system:
        raise ValueError("empty system (all polynomials zero)")
    if len(system) == 1:
        return _solve_hypersurface(system[0], stats, depth)
    first = system[0]
    rest = system[1:]
    base = _solve_hypersurface(first, stats, depth)
    results = []
    for c in base:
        if c.lies_on(rest):
            results.append(c)
        elif c.dimension:
            a = _primitive_member(c.lattice)
            results.extend(_slice_and_lift(system, a, c.point.power(a),
                                           stats, depth))
    return maximal_filter(results)


def variety_cosets(system) -> SolveReport:
    """All maximal torsion cosets on the subvariety cut out by the
    system, with certification against every input polynomial: one
    exact membership test per Galois orbit over Q(zeta_N), N the lcm of
    the coefficient levels, and an exact key match for the orbit's other
    cosets (_certify)."""
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
