"""Reference transformations used only by the tests: the images of a
Laurent polynomial and of a torsion coset under a monoidal (unimodular)
coordinate change, and the specialization of a polynomial's leading
variables at a torsion point.  The solver needs none of them: it
restricts a polynomial to a torsion coset with
LaurentPolynomial.slice_values at the coset's exponent matrix, and its
one isogeny step pulls cosets back by exponent congruences."""

from torsioncosets.cosets import TorsionCoset
from torsioncosets.lattices import (
    IntegerLattice,
    identity_matrix,
    mat_inverse_unimodular,
    mat_mul,
)
from torsioncosets.poly import LaurentPolynomial


def map_exponents(f: LaurentPolynomial, m) -> LaurentPolynomial:
    """The term at exponent e moves to e * m."""
    out = {}
    for e, c in f.terms.items():
        j = tuple(sum(e[k] * m[k][t] for k in range(f.nvars))
                  for t in range(f.nvars))
        out[j] = c
    return LaurentPolynomial(f.nvars, out)


def monoidal_image(f: LaurentPolynomial, u) -> LaurentPolynomial:
    """Image under the coordinate change Y_i = X^{u_i} for the rows u_i
    of the unimodular matrix u: the term at exponent i moves to the
    exponent j with j*u = i.  Raises ValueError when u is not
    unimodular."""
    return map_exponents(f, mat_inverse_unimodular([list(r) for r in u]))


def transform(coset: TorsionCoset, u) -> TorsionCoset:
    """The image coset under the monoidal transformation of the
    unimodular matrix u (rows u_i): the point maps to (w^{u_1}, ...,
    w^{u_n}) and the lattice to A * u^{-1}, so that it lies on
    monoidal_image(f, u) exactly when the coset lies on f."""
    v = mat_inverse_unimodular([list(r) for r in u])
    point = coset.point.powers(u)
    rows = mat_mul(coset.lattice.rows, v)
    return TorsionCoset(point, IntegerLattice(coset.ambient, rows))


def specialize(f: LaurentPolynomial, point) -> LaurentPolynomial:
    """Exact specialization of the leading len(point) variables to the
    coordinates of the torsion point; the result lives in the remaining
    variables (and may be identically zero)."""
    k = len(point)
    rows = identity_matrix(f.nvars)[k:]
    return LaurentPolynomial(f.nvars - k, f.slice_values(point, rows))
