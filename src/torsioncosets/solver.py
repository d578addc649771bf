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
positive-dimensional coset of its first hypersurface, come from one
restriction to a torsion coset, through slice_values at the coset's
exponent matrix, solved in dim(coset) variables and lifted back.

Univariate resultants are passed on as they are; cyclotomic_roots
clears their monomial content itself.  The output is certified with one
exact membership test per Galois orbit over the coefficient field.
"""

from __future__ import annotations

import itertools
import logging
from math import gcd, lcm

from .arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    _divisors,
    conjugate_exponent,
)
from .cosets import (
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
    rows b of B, one solve_exponent_congruences per coset.  P = I would
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
        results = []
        for c in cosets:
            rows, m, nums = c.int_key()
            sol = solve_exponent_congruences(mat_mul(rows, a_rows),
                                             TorsionPoint(nums, m))
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
    if work.exponent_lattice() != IntegerLattice.full(n):
        fstar, pullback = rescale_to_full_lattice(work)
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
        # the preimage of the candidate under the projection dropping X_n
        preimage = TorsionCoset(
            TorsionPoint(cand.point.nums + (0,), cand.point.order),
            IntegerLattice(n, [list(r) + [0] for r in cand.lattice.rows]))
        results.extend(_restrict_and_lift([f], preimage, stats, depth))
    return maximal_filter(results)


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
    return [TorsionCoset(coset.point * c.point.powers(gt),
                         IntegerLattice(n, mat_mul(c.exponent_matrix(), g))
                         .orthogonal_complement())
            for c in _solve_variety(images, stats, depth + 1)]


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
