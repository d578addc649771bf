"""Reference transformations used only by the tests: the images of a
Laurent polynomial and of a torsion coset under a monoidal (unimodular)
coordinate change, the specialization of a polynomial's leading
variables at a torsion point, and the single-pair modular resultant
kernel that poly.resultant replaced, kept verbatim with its own
determinant and interpolation.  That kernel evaluates f and g at every
grid point, on the nodes t = 1, ..., s of each axis, and its
_sylvester_mod divides by the leading coefficient at every Euclid step,
one modular inverse each; poly.resultant reads every named member's
rows from one table of f's rows, on the nodes 1, -1, 2, -2, ..., with
a fraction-free Euclid loop and one inverse per grid.  So the same
answers from both test the member-row maps, the parity half-grid and
the fraction-free loop against code that has none of them.  The solver
needs none of these references: it restricts a polynomial to a torsion
coset with LaurentPolynomial.slice_values at the coset's exponent
matrix, its one isogeny step pulls cosets back by exponent
congruences, and it takes the resultants of one auxiliary family
through one ResultantFamily."""

from itertools import product
from math import lcm

from torsioncosets.arith import CyclotomicNumber, euler_phi
from torsioncosets.cosets import TorsionCoset
from torsioncosets.lattices import (
    IntegerLattice,
    identity_matrix,
    mat_inverse_unimodular,
    mat_mul,
)
from torsioncosets.poly import (
    LaurentPolynomial,
    _exponent_window,
    _integer_coordinates,
    _power_bound,
    _prime_field,
)


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


def _sylvester_mod(a: list[int], b: list[int], p: int) -> int:
    """The Sylvester determinant over F_p of the formal shape (m, n) =
    (len(a) - 1, len(b) - 1), both positive; a and b ascending."""
    m, n = len(a) - 1, len(b) - 1
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not a or not b or (len(a) <= m and len(b) <= n):
        return 0
    # a dropped leading coefficient: Res_{m,n} = (-1)^(n(m-m')) b_n^(m-m')
    # Res_{m',n}; symmetrically Res_{m,n} = a_m^(n-n') Res_{m,n'}
    acc = (pow(b[-1], m + 1 - len(a), p) * (-1) ** (n * (m + 1 - len(a)))
           * pow(a[-1], n + 1 - len(b), p))
    a.reverse()
    b.reverse()
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return acc * pow(b[0], m, p) % p
        if m < n:
            acc = -acc if m * n % 2 else acc
            a, b = b, a
            continue
        inv = pow(b[0], -1, p)
        r = a
        for _ in range(m - n + 1):
            c = r[0] * inv % p
            r = [(x - c * y) % p for x, y in zip(r[1:], b[1:])] + r[n + 1:]
        k = next((i for i, x in enumerate(r) if x), n)
        if k == n:
            return 0
        # res(a, b) = (-1)^(mn) b_n^(m - deg r) res(b, a mod b)
        acc = (-acc if m * n % 2 else acc) * pow(b[0], m - n + 1 + k, p) % p
        a, b = b, r[k:]


def _interpolate(values: list[int], inv: list[int], p: int) -> list[int]:
    # coefficients of the polynomial of degree < len(values) taking values[i]
    # at t = i + 1: Newton divided differences, then Horner
    c = list(values)
    for j in range(1, len(c)):
        c[j:] = [(x - y) * inv[j] % p for x, y in zip(c[j:], c[j - 1:])]
    acc = [c[-1]]
    for k in range(len(c) - 2, -1, -1):
        acc = [(y - (k + 1) * x) % p for x, y in zip(acc + [0], [0] + acc)]
        acc[0] = (acc[0] + c[k]) % p
    return acc


def _resultant_mod(fterms, gterms, shape, window, field):
    """Power-basis coordinates mod p of the resultant coefficients, flat
    in the order (monomial of the output grid, coordinate)."""
    p, roots, vinv = field
    phi = len(roots)

    def at_roots(terms):
        return [(e, k, [sum(x * pow(r, j, p) for j, x in enumerate(v)) % p
                        for r in roots]) for e, k, v in terms]

    fv, gv = at_roots(fterms), at_roots(gterms)
    sizes = [hi - lo + 1 for lo, hi in window]
    # t^(-lo) at the nodes t = 1, ..., s of each axis
    shifts = [[pow(t, -lo, p) for t in range(1, s + 1)]
              for (lo, _), s in zip(window, sizes)]
    vals = []
    for point in product(*(range(1, s + 1) for s in sizes)):
        dense = []
        for terms, deg in zip((fv, gv), shape):
            rows = [[0] * (deg + 1) for _ in range(phi)]
            for e, k, v in terms:
                mono = 1
                for t, x in zip(point, e):
                    mono = mono * pow(t, x, p) % p
                for row, x in zip(rows, v):
                    row[k] += x * mono
            dense.append(rows)
        shift = 1
        for t, table in zip(point, shifts):
            shift = shift * table[t - 1] % p
        vals.extend(_sylvester_mod([x % p for x in a], [x % p for x in b], p)
                    * shift % p for a, b in zip(*dense))
    inv = [0, 1]
    for i in range(2, max(sizes, default=1)):
        inv.append(-(p // i) * inv[p % i] % p)
    stride = len(vals)
    for s in sizes:
        stride //= s
        for start in range(0, len(vals), stride * s):
            for off in range(start, start + stride):
                line = slice(off, off + stride * s, stride)
                vals[line] = _interpolate(vals[line], inv, p)
    if phi == 1:
        return vals
    return [sum(x * y for x, y in zip(row, vals[i:i + phi])) % p
            for i in range(0, len(vals), phi) for row in vinv]


def single_pair_resultant(f: LaurentPolynomial, g: LaurentPolynomial,
                          var: int) -> LaurentPolynomial:
    """Sylvester resultant with respect to X_var, after clearing the
    monomial content of both inputs.  The result lives in the remaining
    variables, with coefficients at the lcm N of the input levels; it
    vanishes at every projection of a common torus zero, and is zero
    exactly when the inputs share a factor of positive degree in X_var.

    One multi-prime kernel for any number of variables.  With p, q the
    degrees of f, g in X_var and d_f, d_g their coefficient
    denominators, d_f f and d_g g have integer coordinates at level N
    and res(f, g) = res(d_f f, d_g g) / (d_f^q d_g^p).  Before reduction
    mod Phi_N that determinant lies in Z[X, z], of 1-norm at most the
    product of the Sylvester row norms; reducing z^k multiplies by at
    most C_N = max |coordinate of zeta_N^k|.  So every coordinate is at
    most B = |d_f f|_1^q |d_g g|_1^p C_N, computed first.  Primes
    P = 1 (mod N) below 2^62, in a fixed descending order, are used
    until their product exceeds 2B, and combined by CRT into symmetric
    residues.

    The exponent window.  Write the formal (p, q) Sylvester matrix with
    the coefficients a_k, b_k of X_var^k as entries, and give each
    nonzero entry the least (greatest) X_j-exponent of its terms.  Let
    lo_j be the least weight of a permutation that avoids the zero
    entries, and hi_j the greatest.  By Leibniz the determinant is a
    signed sum over permutations of products of one entry per row and
    column; a product through a zero entry vanishes, and every monomial
    of any other has its X_j-exponent between that permutation's two
    weights.  So every X_j-exponent of the resultant lies in
    [lo_j, hi_j], whatever the coefficients are, also for degenerate
    supports and leading coefficients that vanish somewhere.  The
    weights are found by a Hungarian assignment in O((p + q)^3).

    Modulo each P, z runs over the roots of Phi_N and each other X_j
    over t = 1, ..., hi_j - lo_j + 1 (never 0); each determinant times
    prod t_j^(-lo_j) is a polynomial of degree at most hi_j - lo_j in
    X_j, and interpolation on these nodes and a Vandermonde solve give
    the coordinates, coefficient k at exponent lo_j + k.  Every point
    takes the determinant of the formal shape (p, q), also where a
    leading coefficient vanishes: the determinant commutes with every
    ring map, so no prime or point is unlucky and none is skipped."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    f, _ = f.strip_monomial_content()
    g, _ = g.strip_monomial_content()
    shape = (f.degree_in(var), g.degree_in(var))
    if 0 in shape:
        raise ValueError("inputs must have positive degree in the variable")
    level = lcm(f.coefficient_level(), g.coefficient_level())
    (fterms, df, fnorm), (gterms, dg, gnorm) = (
        _integer_coordinates(h, level, var) for h in (f, g))
    bound = fnorm ** shape[1] * gnorm ** shape[0] * _power_bound(level)
    window = _exponent_window(f, g, var)
    modulus, coords, index = 1, None, 0
    while modulus <= 2 * bound:
        field = _prime_field(level, index)
        index += 1
        residues = _resultant_mod(fterms, gterms, shape, window, field)
        p = field[0]
        step = pow(modulus, -1, p)
        coords = residues if coords is None else [
            x + modulus * ((r - x) * step % p) for x, r in zip(coords, residues)]
        modulus *= p
    phi = euler_phi(level)
    den = df ** shape[1] * dg ** shape[0]
    out = {}
    for i, e in enumerate(product(*(range(lo, hi + 1) for lo, hi in window))):
        v = [x - modulus if 2 * x > modulus else x
             for x in coords[i * phi:(i + 1) * phi]]
        if any(v):
            out[e] = CyclotomicNumber(level, v, den)
    return LaurentPolynomial(f.nvars - 1, out)
