"""solver._restrict_and_lift, the one restriction of a system to a
torsion coset, against the two routines it replaced.  They are kept here
verbatim as references (with the test-only specialize and map_exponents
of poly_references for the former LaurentPolynomial methods): the fiber
above a candidate point, by specialization of the leading variables,
and the slice X^a = omega, by a unimodular completion of a.  The sweeps
plant cosets, so that whole-coset restrictions and positive-dimensional
answers occur, and cover cosets of every dimension 1..n-1 for n = 2..4,
lattices of rank 2 and 3 included."""

import itertools
import random

from torsioncosets import solver
from torsioncosets.arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    euler_phi,
)
from torsioncosets.cosets import TorsionCoset, maximal_filter
from torsioncosets.lattices import (
    IntegerLattice,
    extend_to_basis,
    identity_matrix,
    mat_inverse_unimodular,
    transpose,
)
from torsioncosets.oracle import cross_check
from torsioncosets.poly import LaurentPolynomial, cyclotomic_roots
from torsioncosets.solver import (
    SolveStats,
    _restrict_and_lift,
    _solve_variety,
    variety_cosets,
)

from poly_references import map_exponents, specialize, transform

L = LaurentPolynomial
LEVELS = (1, 3, 4, 12)


def reference_fiber_points(f, zeta, var):
    """Step from a candidate projected point to the cosets of H(f) above
    it: the full fiber line when the specialization is identically zero,
    else the torsion roots of the univariate fiber polynomial."""
    n = f.nvars
    h = specialize(f, zeta)
    if h.is_zero():
        point = TorsionPoint(zeta.nums + (0,), zeta.order)
        return [TorsionCoset(point, IntegerLattice(n, identity_matrix(n)[:-1]))]
    return [TorsionCoset.from_point(TorsionPoint(list(zeta) + [w]))
            for w in cyclotomic_roots(h)]


def reference_slice_and_lift(system, a, omega, stats, depth):
    """Cosets of the system's variety on the slice X^a = omega, for a
    primitive a: pass to coordinates whose first is Y_1 = X^a, freeze
    Y_1 = omega, solve the images in one fewer variables and lift back.
    When every image vanishes the whole slice lies on the variety and
    is returned."""
    n = len(a)
    u = extend_to_basis(a)
    back = mat_inverse_unimodular(u)
    images = [specialize(map_exponents(p, back), TorsionPoint([omega]))
              for p in system]
    images = [p for p in images if not p.is_zero()]
    first_row = [1] + [0] * (n - 1)
    if not images:
        point = TorsionPoint([omega] + [RootOfUnity.one()] * (n - 1))
        return [transform(TorsionCoset(point, IntegerLattice(n, [first_row])),
                          back)]
    out = []
    for e in _solve_variety(images, stats, depth + 1):
        point = TorsionPoint([omega] + list(e.point))
        rows = [first_row] + [[0] + list(r) for r in e.lattice.rows]
        coset = TorsionCoset(point, IntegerLattice(n, rows))
        out.append(transform(coset, back))
    return out


def _coefficient(rng, level):
    # +-zeta_level^j, or a random nonzero element of Q(zeta_level)
    if rng.random() < 0.6:
        return CyclotomicNumber.zeta(level, rng.randrange(level)) \
            * rng.choice((1, -1))
    c = CyclotomicNumber.zero()
    while c.is_zero():
        c = CyclotomicNumber(level, [rng.randint(-2, 2)
                                     for _ in range(euler_phi(level))])
    return c


def _random_poly(rng, n, level, terms, top):
    return L(n, {tuple(rng.randint(0, top) for _ in range(n)):
                 _coefficient(rng, level) for _ in range(terms)})


def _small_unimodular(rng, n, steps):
    u = identity_matrix(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _random_coset(rng, n, dim, order, steps=3):
    # rank n - dim rows of a unimodular matrix: a primitive lattice
    lattice = IntegerLattice(n, _small_unimodular(rng, n, steps)[:n - dim])
    point = TorsionPoint([rng.randrange(order) for _ in range(n)], order)
    return TorsionCoset(point, lattice)


def _planted(rng, coset, level, rows, top=1):
    # sum of h_a * (X^a - w^a) over the chosen lattice rows a: vanishes on
    # the coset when the rows span its lattice
    n = coset.ambient
    out = L(n, {})
    for a in rows:
        w = coset.point.power(a).to_cyclotomic()
        binomial = L(n, {tuple(a): 1, (0,) * n: -w})
        h = _random_poly(rng, n, level, rng.randint(1, 2), top)
        out = out + h * binomial
    return out


def _keys(cosets):
    return [c.int_key() for c in maximal_filter(cosets)]


def test_restriction_is_evaluation_on_the_coset(monkeypatch):
    # the images handed to the sub-solve are f(w * t^G) as polynomials in
    # t, and "every restriction is zero" is lies_on
    captured = []

    def record(images, stats, depth):
        captured.append(images)
        return []

    monkeypatch.setattr(solver, "_solve_variety", record)
    rng = random.Random(1901)
    whole = restricted = 0
    for n in (2, 3, 4):
        for level in LEVELS:
            for dim in range(1, n):
                for draw in range(4):
                    order = rng.choice((1, 2, 6, 12))
                    coset = _random_coset(rng, n, dim, order)
                    rows = coset.lattice.rows
                    system = [_random_poly(rng, n, level, 3, 3)]
                    if draw % 2:
                        system = [_planted(rng, coset, level, rows)
                                  for _ in range(2)]
                    if draw == 3:
                        system[1] += _random_poly(rng, n, level, 2, 2)
                    g = coset.exponent_matrix()
                    assert len(g) == dim
                    for f in system:
                        del captured[:]
                        out = _restrict_and_lift([f], coset, SolveStats(), 0)
                        t = TorsionPoint(
                            [rng.randrange(60) for _ in range(dim)], 60)
                        at = coset.point * t.powers(transpose(g))
                        assert coset.contains_point(at)
                        if captured:
                            [[image]] = captured
                            assert image.nvars == dim and out == []
                            assert image.evaluate(t) == f.evaluate(at)
                            assert not coset.lies_on([f])
                            restricted += 1
                        else:
                            assert out == [coset] and coset.lies_on([f])
                            assert f.evaluate(at).is_zero()
                    del captured[:]
                    out = _restrict_and_lift(system, coset, SolveStats(), 0)
                    on = coset.lies_on(system)
                    assert (out == [coset]) == on == (not captured)
                    whole += on
    assert whole >= 20 and restricted >= 60


def test_fibers_match_reference():
    # the preimage of a candidate point, a line, against the fiber of the
    # specialization: points and whole fiber lines alike
    rng = random.Random(1902)
    lines = points = 0
    for n in (2, 3, 4):
        for level in LEVELS:
            for draw in range(5):
                nums = [rng.randrange(12) for _ in range(n - 1)]
                zeta = TorsionPoint(nums, 12)
                preimage = TorsionCoset(
                    TorsionPoint(zeta.nums + (0,), zeta.order),
                    IntegerLattice(n, identity_matrix(n)[:-1]))
                f = _random_poly(rng, n, level, 3, 3)
                if draw % 2:
                    # a planted point above zeta, or the whole line
                    rows = identity_matrix(n)[:-1 if draw == 3 else n]
                    plant = TorsionCoset(
                        TorsionPoint(nums + [rng.randrange(12)], 12),
                        IntegerLattice(n, rows))
                    f = _planted(rng, plant, level, plant.lattice.rows)
                stats = SolveStats()
                new = _restrict_and_lift([f], preimage, stats, 0)
                old = reference_fiber_points(f, zeta, n - 1)
                assert _keys(new) == _keys(old)
                lines += new == [preimage]
                points += sum(c.dimension == 0 for c in new)
    assert lines >= 3 and points >= 10


def test_codimension_one_slices_match_reference():
    # the coset {X^a = omega} against the slice through a unimodular
    # completion of a, for one- and two-polynomial systems
    rng = random.Random(1903)
    nonempty = whole = 0
    for n in (2, 3, 4):
        for level in LEVELS:
            for draw in range(3):
                a = _small_unimodular(rng, n, 3)[0]
                omega = RootOfUnity(rng.randrange(6), 6)
                coset = TorsionCoset.from_binomial(a, omega)
                count = 1 if n == 4 else 1 + draw % 2
                system = [_random_poly(rng, n, level, 3, 2)
                          for _ in range(count)]
                if draw == 1:
                    # the whole slice lies on the variety
                    system = [_planted(rng, coset, level, [a])
                              for _ in range(count)]
                if draw == 2:
                    # a coset of codimension two inside the slice
                    b = [rng.randint(-1, 1) for _ in range(n)]
                    system = [_planted(rng, coset, level, [a, b])
                              for _ in range(count)]
                new = _restrict_and_lift(system, coset, SolveStats(), 0)
                old = reference_slice_and_lift(system, a, omega,
                                               SolveStats(), 0)
                assert _keys(new) == _keys(old)
                nonempty += bool(new)
                whole += new == [coset]
    assert nonempty >= 10 and whole >= 5


def test_restriction_finds_every_torsion_point_of_the_coset():
    # cosets of every dimension (lattices of rank up to 3): each output
    # is a subcoset that lies on the system, and every point of order 6
    # of the coset on the variety is covered
    rng = random.Random(1904)
    covered = 0
    for n in (2, 3, 4):
        for level in (1, 3, 4):
            for dim in range(1, n):
                coset = _random_coset(rng, n, dim, 6, steps=2)
                g = transpose(coset.exponent_matrix())
                # a point of the coset and k <= dim more characters: the
                # planted variety meets the coset in dimension >= dim - k
                base = coset.point * TorsionPoint(
                    [rng.randrange(6) for _ in range(dim)], 6).powers(g)
                rows = [[rng.randint(-1, 1) for _ in range(n)]
                        for _ in range(rng.randint(1, dim))]
                plant = TorsionCoset(base, IntegerLattice(n, rows))
                system = [_planted(rng, plant, level, rows)]
                out = _restrict_and_lift(system, coset, SolveStats(), 0)
                for c in out:
                    assert c.is_subcoset_of(coset) and c.lies_on(system)
                for nums in itertools.product(range(6), repeat=dim):
                    at = coset.point * TorsionPoint(nums, 6).powers(g)
                    if all(f.vanishes_at(at) for f in system):
                        assert any(c.contains_point(at) for c in out)
                        covered += 1
    assert covered >= 50


def test_four_variable_varieties_pass_the_oracle(monkeypatch):
    # two polynomials in four variables with a planted common coset; the
    # solve restricts to cosets whose lattice has rank 2 or 3
    ranks = []

    def counting(system, coset, stats, depth):
        ranks.append(coset.lattice.rank)
        return restrict(system, coset, stats, depth)

    restrict = solver._restrict_and_lift
    monkeypatch.setattr(solver, "_restrict_and_lift", counting)
    rng = random.Random(1905)
    dims = []
    for draw in range(12):
        level = LEVELS[draw % 4]
        order = (1, 2, 3, 4, 6, 12)[draw % 6]
        common = _random_coset(rng, 4, 1 + draw % 2, order, steps=2)
        rows = common.lattice.rows
        system = [_planted(rng, common, level, rows, top) for top in (0, 1)]
        report = variety_cosets(system)
        assert cross_check(report, system, 12).passed, (draw, system)
        assert any(common.is_subcoset_of(c) for c in report.cosets)
        dims += [c.dimension for c in report.cosets]
    assert max(ranks) >= 3 and sum(r >= 2 for r in ranks) >= 5
    assert {0, 1, 2} <= set(dims)
