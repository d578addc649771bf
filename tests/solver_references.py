"""Reference solver steps used only by the tests: the candidate loop of
solver._solve_full_lattice before it took the point candidates one
Galois orbit at a time, kept verbatim (with the solver's helpers read
off the module), so that a test can put it in place of the solver's and
compare whole solves.  It restricts f to the preimage of every
candidate, and builds and solves the whole twisted family whatever the
order classes."""

from torsioncosets import solver
from torsioncosets.arith import TorsionPoint
from torsioncosets.cosets import TorsionCoset, maximal_filter
from torsioncosets.lattices import IntegerLattice


def reference_solve_full_lattice(f, stats, depth, classes=None):
    # L(f) = Z^n, level-normalized, binomial-free
    n = f.nvars
    kind, aux = solver.auxiliary_polynomials(f)
    if kind == "split":
        stats.splits += 1
        h = f.divide_exact(aux)
        if h is None:
            raise RuntimeError("internal error: split factor does not divide f")
        return (solver._solve_hypersurface(aux, stats, depth + 1)
                + solver._solve_hypersurface(h, stats, depth + 1))
    candidates: dict = {}
    seen_resultants: set = set()
    stats.resultants += len(aux)
    stats.dropped_candidates += 2 ** (n + 1) - 1 - len(aux)
    for _, _, gk in aux:
        gk, _ = gk.strip_monomial_content()
        if gk.is_unit():
            continue
        stats.max_resultant_degree = max(stats.max_resultant_degree,
                                         gk.total_degree())
        key = solver._poly_associate_key(gk)
        if key in seen_resultants:
            continue
        seen_resultants.add(key)
        for c in solver._solve_hypersurface(gk, stats, depth + 1):
            candidates.setdefault(c.int_key(), c)
    results: list[TorsionCoset] = []
    for cand in sorted(candidates.values(), key=TorsionCoset.sort_key):
        # the preimage of the candidate under the projection dropping X_n
        preimage = TorsionCoset(
            TorsionPoint(cand.point.nums + (0,), cand.point.order),
            IntegerLattice(n, [list(r) + [0] for r in cand.lattice.rows]))
        results.extend(solver._restrict_and_lift([f], preimage, stats, depth))
    return maximal_filter(results)
