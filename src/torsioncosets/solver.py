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
"""

from __future__ import annotations

import itertools
import logging
from fractions import Fraction
from math import gcd, lcm

from .arith import RootOfUnity, TorsionPoint
from .cosets import (
    TorsionCoset,
    maximal_filter,
    solve_exponent_congruences,
)
from .lattices import (
    IntegerLattice,
    determinant,
    extend_to_basis,
    identity_matrix,
    mat_inverse_unimodular,
    polar_basis,
    transpose,
)
from .poly import (
    LaurentPolynomial,
    _content_and_primitive,
    cyclotomic_roots,
    multivariate_gcd,
    resultant,
    squarefree_part,
)

logger = logging.getLogger(__name__)


class SolveStats:
    """Counters collected during a solve, plus the search budget for the
    coefficient-level normalization."""

    __slots__ = ("max_depth", "resultants", "max_resultant_degree",
                 "splits", "subsolves", "scaling_budget")

    def __init__(self, scaling_budget: int = 4096):
        self.max_depth = 0
        self.resultants = 0
        self.max_resultant_degree = 0
        self.splits = 0
        self.subsolves = 0
        self.scaling_budget = scaling_budget

    def as_dict(self):
        return {
            "max_depth": self.max_depth,
            "resultants": self.resultants,
            "max_resultant_degree": self.max_resultant_degree,
            "splits": self.splits,
            "subsolves": self.subsolves,
        }


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

    def isolated_points(self):
        return [c for c in self.cosets if c.dimension == 0]

    def positive_dimensional(self):
        return [c for c in self.cosets if c.dimension > 0]


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
            work = work_u.monoidal_image(mat_inverse_unimodular(u))
            continue
        # one profile polynomial in Y1; common roots are verified on the
        # whole transformed polynomial afterwards
        profiles: dict[tuple[int, ...], dict] = {}
        for k, poly in coeffs.items():
            for e, c in poly.terms.items():
                profiles.setdefault(e, {})[(k,)] = c
        profile_key = min(profiles, key=lambda e: (len(profiles[e]), e))
        probe = LaurentPolynomial(1, profiles[profile_key])
        roots, _ = cyclotomic_roots(probe)
        changed = False
        for w in roots:
            if not work_u.substitute_root(0, w).is_zero():
                continue
            found.append(TorsionCoset.from_binomial(a, w))
            divisor = LaurentPolynomial(
                n, {(1,) + (0,) * (n - 1): 1,
                    (0,) * n: -w.to_cyclotomic()})
            while True:
                quot = work_u.divide_exact(divisor)
                assert quot is not None
                work_u = quot
                changed = True
                if work_u.is_unit() or not work_u.substitute_root(0, w).is_zero():
                    break
        if changed:
            work = work_u.monoidal_image(mat_inverse_unimodular(u))
            work, _ = work.strip_monomial_content()
        else:
            work = work_u.monoidal_image(mat_inverse_unimodular(u))
    return found, work


# ---------------------------------------------------------------------------
# lattice reductions


def _left_kernel(mat, ambient):
    # {c in Z^ambient : c * mat = 0}
    cols = transpose(mat)
    if not cols:
        return IntegerLattice.full(ambient)
    return IntegerLattice(ambient, cols).orthogonal_complement()


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
    lifted coset gains the free directions, one dimension per removed
    variable)."""
    steps = []
    work = _anchor_shift(f)
    while True:
        n = work.nvars
        lat = work.exponent_lattice()
        if lat.rank == n:
            break
        comp = lat.orthogonal_complement()
        s = list(comp.rows[0])
        j = max(i for i, x in enumerate(s) if x)
        perm = None
        if j != n - 1:
            perm = identity_matrix(n)
            perm[j], perm[n - 1] = perm[n - 1], perm[j]
            work = work.monoidal_image(perm)
            s[j], s[n - 1] = s[n - 1], s[j]
        rows = []
        for i in range(n - 1):
            row = [0] * n
            row[i] = 1
            row[n - 1] = s[i]
            rows.append(row)
        last = [0] * n
        last[n - 1] = s[n - 1]
        rows.append(last)
        # substituting the isogeny of the triangular basis kills X_n
        reduced = {}
        for e, c in work.terms.items():
            assert sum(x * y for x, y in zip(e, s)) == 0
            reduced[e[:-1]] = c
        steps.append((perm, rows, n))
        work = LaurentPolynomial(n - 1, reduced)
        work = _anchor_shift(work)

    def lift(cosets):
        current = list(cosets)
        for perm, rows, n in reversed(steps):
            lifted = []
            for c in current:
                point = TorsionPoint(list(c.point) + [RootOfUnity.one()])
                lat_rows = [list(r) + [0] for r in c.lattice.rows]
                embedded = TorsionCoset(point, IntegerLattice(n, lat_rows))
                image_point = TorsionPoint(
                    [embedded.point.power(a) for a in rows])
                g = embedded.exponent_matrix()
                m = [[sum(rows[i][k] * gr[k] for k in range(n)) for gr in g]
                     for i in range(n)]
                lattice = _left_kernel(m, n)
                out = TorsionCoset(image_point, lattice)
                if perm is not None:
                    out = out.transform(perm)
                lifted.append(out)
            current = lifted
        return current

    return work, lift


def rescale_to_full_lattice(f: LaurentPolynomial):
    """For rank L(f) = n with L(f) a proper sublattice of Z^n, rewrite
    the exponents in the coordinates of the polar basis so that the new
    polynomial has exponent lattice Z^n; its cosets pull back through
    the isogeny, det(L(f)) classes at a time."""
    n = f.nvars
    work = _anchor_shift(f)
    lat = work.exponent_lattice()
    if lat.rank != n:
        raise ValueError("exponent lattice must have full rank")
    a_rows = [list(r) for r in lat.rows]
    a_star = polar_basis(a_rows)
    out = {}
    for e, c in work.terms.items():
        coords = [sum(Fraction(x) * y for x, y in zip(e, star))
                  for star in a_star]
        assert all(q.denominator == 1 for q in coords)
        out[tuple(int(q) for q in coords)] = c
    fstar = LaurentPolynomial(n, out)

    def pullback(cosets):
        results = []
        for c in cosets:
            rows = [list(r) for r in c.lattice.rows]
            constraint = [[sum(b[i] * a_rows[i][j] for i in range(n))
                           for j in range(n)] for b in rows]
            s = [c.point.power(b).exponent for b in rows]
            sol = solve_exponent_congruences(constraint, s)
            assert sol.consistent
            results.extend(sol.cosets())
        return results

    return fstar, pullback, abs(determinant(a_rows))


# ---------------------------------------------------------------------------
# coefficient-field normalization and the auxiliary family


def _coefficient_level(f: LaurentPolynomial) -> int:
    out = 1
    for c in f.terms.values():
        out = lcm(out, c.minimal_level().level)
    return out


def minimal_level_normalize(f: LaurentPolynomial, budget: int = 4096):
    """Search variable scalings by roots of unity (orders dividing twice
    the coefficient level) and a division by one nonzero coefficient
    that minimize the cyclotomic level N of the coefficients; N is
    returned odd or divisible by 4.  The scalings translate solved
    cosets back to the original coordinates."""
    n = f.nvars
    reduced = f.map_coefficients(lambda c: c.minimal_level())
    base_level = _coefficient_level(reduced)
    identity = tuple(RootOfUnity.one() for _ in range(n))
    if base_level == 1:
        return identity, 1, reduced
    two_m = 2 * base_level
    best = (base_level, identity, None, reduced)
    candidates = [RootOfUnity(Fraction(k, two_m)) for k in range(two_m)]
    tried = 0
    for combo in itertools.product(candidates, repeat=n):
        tried += 1
        if tried > budget:
            logger.warning("scaling search budget exhausted at level %d",
                           best[0])
            break
        scaled = reduced.scale_variables(combo)
        for divisor_key in sorted(scaled.terms):
            div = scaled.terms[divisor_key]
            inv = div.inverse()
            level = 1
            quotient = {}
            for e, c in scaled.terms.items():
                q = (c * inv).minimal_level()
                quotient[e] = q
                level = lcm(level, q.level)
                if level >= best[0]:
                    break
            else:
                best = (level, combo, divisor_key,
                        LaurentPolynomial(n, quotient))
                if level == 1:
                    return combo, 1, best[3]
    return best[1], best[0], best[3]


def _galois_twist(f: LaurentPolynomial, exponent_for_level) -> LaurentPolynomial:
    def tw(c):
        if c.level == 1:
            return c
        return c.galois(exponent_for_level(c.level))
    return f.map_coefficients(tw)


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
    n = f.nvars
    var = n - 1
    content, _ = _content_and_primitive(f.coefficients_in(var))
    if not content.is_unit():
        return "split", content.insert_variable(var)
    level = _coefficient_level(f)
    sign_choices = list(itertools.product((1, -1), repeat=n))
    raw: list[LaurentPolynomial] = []
    for eps in sign_choices:
        if all(s == 1 for s in eps):
            continue
        raw.append(f.sign_variant(eps))
    if level == 1:
        for eps in sign_choices:
            raw.append(f.sign_variant(eps).stretch_exponents(2))
    elif level % 2 == 1:
        # sigma: z_N -> z_N^2 on every coefficient subfield
        twisted = _galois_twist(f, lambda d: 2 % d)
        for eps in sign_choices:
            raw.append(twisted.sign_variant(eps).stretch_exponents(2))
    elif level % 4 == 0:
        t = level // 2 + 1
        twisted = _galois_twist(f, lambda d: t % d)
        for eps in sign_choices:
            raw.append(twisted.sign_variant(eps))
    else:
        raise RuntimeError(f"internal error: minimal level {level} is 2 mod 4")
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
        roots, _ = cyclotomic_roots(work)
        return [TorsionCoset.from_point(TorsionPoint([w.exponent]))
                for w in roots]
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
    scalings, _, scaled = minimal_level_normalize(work, stats.scaling_budget)
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
        if gk.nvars == 1:
            gk = squarefree_part(gk)
        key = _poly_associate_key(gk)
        if key in seen_resultants:
            continue
        seen_resultants.add(key)
        for c in _solve_hypersurface(gk, stats, depth + 1):
            candidates.setdefault(c.canonical_key(), c)
    results: list[TorsionCoset] = []
    for cand in sorted(candidates.values(), key=TorsionCoset.sort_key):
        if cand.dimension == 0:
            results.extend(_fiber_points(f, cand.point, var))
        else:
            results.extend(_fiber_cosets(f, cand, stats, depth))
    return maximal_filter(results)


def _fiber_points(f: LaurentPolynomial, zeta: TorsionPoint, var: int):
    """Step from a candidate projected point to the cosets of H(f) above
    it: the full fiber line when the specialization is identically zero,
    else the torsion roots of the univariate fiber polynomial."""
    n = f.nvars
    h = f
    for w in zeta:
        h = h.substitute_root(0, w)
    if h.is_zero():
        point = TorsionPoint(list(zeta) + [RootOfUnity.one()])
        rows = []
        for i in range(n - 1):
            row = [0] * n
            row[i] = 1
            rows.append(row)
        return [TorsionCoset(point, IntegerLattice(n, rows))]
    out = []
    roots, _ = cyclotomic_roots(h)
    for w in roots:
        point = TorsionPoint(list(zeta) + [w])
        out.append(TorsionCoset.from_point(point))
    return out


def _primitive_member(lattice: IntegerLattice):
    row = list(lattice.rows[0])
    g = 0
    for x in row:
        g = gcd(g, x)
    return [x // g for x in row]


def _fiber_cosets(f: LaurentPolynomial, cand: TorsionCoset,
                  stats: SolveStats, depth: int):
    """Step from a positive-dimensional candidate projection D: pass to
    the coordinates extending a primitive direction a of D's lattice,
    freeze Y_1 = D^a, solve the slice in one fewer variables, and lift
    back."""
    n = f.nvars
    a = _primitive_member(cand.lattice)
    omega = cand.point.power(a)
    u_small = extend_to_basis(a)
    a_bar = [list(row) + [0] for row in u_small]
    last = [0] * n
    last[n - 1] = 1
    a_bar.append(last)
    fu = f.monoidal_image(a_bar)
    spec = fu.substitute_root(0, omega)
    back = mat_inverse_unimodular(a_bar)
    if spec.is_zero():
        # the whole slice Y_1 = omega lies on the hypersurface; emitted
        # defensively (binomial stripping normally removes this case)
        point = TorsionPoint([omega] + [RootOfUnity.one()] * (n - 1))
        row = [1] + [0] * (n - 1)
        slice_coset = TorsionCoset(point, IntegerLattice(n, [row]))
        return [slice_coset.transform(back)]
    out = []
    for e in _solve_hypersurface(spec, stats, depth + 1):
        point = TorsionPoint([omega] + list(e.point))
        rows = [[1] + [0] * (n - 1)]
        rows.extend([0] + list(r) for r in e.lattice.rows)
        coset = TorsionCoset(point, IntegerLattice(n, rows))
        out.append(coset.transform(back))
    return out


def hypersurface_cosets(f: LaurentPolynomial,
                        scaling_budget: int = 4096) -> SolveReport:
    """All maximal torsion cosets on the hypersurface of f, with
    certification that every output lies on it."""
    stats = SolveStats(scaling_budget)
    cosets = maximal_filter(_solve_hypersurface(f, stats, 0))
    certificates = [c.lies_on([f]) for c in cosets]
    if not all(certificates):
        raise RuntimeError("internal error: emitted coset fails membership")
    return SolveReport(cosets, stats, certificates)


# ---------------------------------------------------------------------------
# general systems


def _solve_variety(system, stats: SolveStats, depth: int):
    system = [f for f in system if not f.is_zero()]
    if not system:
        raise ValueError("empty system (all polynomials zero)")
    n = system[0].nvars
    if len(system) == 1:
        return _solve_hypersurface(system[0], stats, depth)
    first = system[0]
    rest = system[1:]
    base = _solve_hypersurface(first, stats, depth)
    results = []
    for c in base:
        if c.dimension == 0:
            if all(p.vanishes_at(c.point) for p in rest):
                results.append(c)
            continue
        if c.lies_on(rest):
            results.append(c)
            continue
        if n == 1:
            continue
        a = _primitive_member(c.lattice)
        omega = c.point.power(a)
        u = extend_to_basis(a)
        back = mat_inverse_unimodular(u)
        images = []
        for p in system:
            spec = p.monoidal_image(u).substitute_root(0, omega)
            if not spec.is_zero():
                images.append(spec)
        if not images:
            results.append(c)
            continue
        for e in _solve_variety(images, stats, depth + 1):
            point = TorsionPoint([omega] + list(e.point))
            rows = [[1] + [0] * (n - 1)]
            rows.extend([0] + list(r) for r in e.lattice.rows)
            lifted = TorsionCoset(point, IntegerLattice(n, rows)).transform(back)
            if lifted.lies_on(system):
                results.append(lifted)
    return maximal_filter(results)


def variety_cosets(system, scaling_budget: int = 4096) -> SolveReport:
    """All maximal torsion cosets on the subvariety cut out by the
    system, with certification against every input polynomial."""
    system = list(system)
    if not system:
        raise ValueError("empty system")
    nv = system[0].nvars
    if any(p.nvars != nv for p in system):
        raise ValueError("mixed variable counts in the system")
    stats = SolveStats(scaling_budget)
    cosets = maximal_filter(_solve_variety(system, stats, 0))
    certificates = [c.lies_on(system) for c in cosets]
    if not all(certificates):
        raise RuntimeError("internal error: emitted coset fails membership")
    return SolveReport(cosets, stats, certificates)
