"""Seeded inputs of the four workloads.

Every workload has a fixed base corpus.  The two solve corpora taken from
the test suite (`g2`, `sparse3`) replay the test generators with their
seeds; `lacunary` is a fixed family; `verify-n3` has its own generator.
The run seed does not redraw these corpora: random corpora put their
heavy-tailed draws (tens of seconds) at random positions, so the seed
would decide how much tail a run sees.  Instead the seed picks a
symmetric variant of every system: a Galois conjugate of its
coefficients, a root-of-unity multiple of each polynomial and a monomial
shift.  A variant is a different input with the same structure, so the
solver has about the same work to do, and its torsion cosets are the
Galois images of the base system's cosets.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from torsioncosets.arith import CyclotomicNumber, euler_phi
from torsioncosets.poly import LaurentPolynomial

# Seeds of the test generators the corpora replay.
G2_SEED = 987654          # tests/test_acceptance.py, criterion 6
SPARSE3_SEED = 271828     # tests/test_solver.py, sparse three-variable test
VERIFY_N3_SEED = 20071017

# Corpus lengths.  Draws are always taken from the front of the seeded
# sequence, so the slow draws g2 #138 and sparse3 #7 stay in.
G2_DRAWS = 139
SPARSE3_DRAWS = 16
LACUNARY_DEGREES = (4, 8, 12, 16, 20, 24)
VERIFY_N3_DRAWS = 16
VERIFY_N3_LEVELS = (1, 3, 4, 8, 12)

# Oracle order of the per-operation correctness check (verify-n3 checks
# itself through the CLI at VERIFY_MAX_ORDER).
CHECK_ORDER = {"g2": 20, "sparse3": 12, "lacunary": 24}
VERIFY_MAX_ORDER = 24

VAR_NAMES = ("x", "y", "w")


def _gaussian_poly(rng, nvars, term_counts, max_exp, coeff_range):
    # the loop of the test generators: draw terms until the polynomial is
    # neither zero nor a unit
    while True:
        terms = {}
        for _ in range(rng.randint(*term_counts)):
            e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
            c = CyclotomicNumber(4, [rng.randint(-coeff_range, coeff_range),
                                     rng.randint(-coeff_range, coeff_range)])
            if not c.is_zero():
                terms[e] = c
        f = LaurentPolynomial(nvars, terms)
        if not f.is_zero() and not f.is_unit():
            return f


def g2_draws(count=G2_DRAWS, seed=G2_SEED):
    """The first `count` systems of the criterion-6 generator: 1-2
    bivariate polynomials, 2-5 terms, exponents 0..4, Gaussian
    coefficients with parts in -3..3."""
    rng = random.Random(seed)
    return [[_gaussian_poly(rng, 2, (2, 5), 4, 3)
             for _ in range(rng.randint(1, 2))] for _ in range(count)]


def sparse3_draws(count=SPARSE3_DRAWS, seed=SPARSE3_SEED):
    """The first `count` systems of the sparse three-variable
    completeness test: 1-2 trivariate polynomials, 2-4 terms, exponents
    0..4, Gaussian coefficients with parts in -2..2."""
    rng = random.Random(seed)
    return [[_gaussian_poly(rng, 3, (2, 4), 4, 2)
             for _ in range(rng.randint(1, 2))] for _ in range(count)]


def lacunary_draws(degrees=LACUNARY_DEGREES):
    """x^d + y^d + x*y + 1 for each d."""
    return [[LaurentPolynomial(2, {(d, 0): 1, (0, d): 1, (1, 1): 1,
                                   (0, 0): 1})] for d in degrees]


def verify_n3_draws(count=VERIFY_N3_DRAWS, seed=VERIFY_N3_SEED):
    """Trivariate systems of 1-2 polynomials with 2-3 terms each,
    exponents 0..3, coefficients at a level drawn per system from
    VERIFY_N3_LEVELS with power-basis coordinates in -2..2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        level = rng.choice(VERIFY_N3_LEVELS)
        phi = euler_phi(level)
        system = []
        for _ in range(rng.randint(1, 2)):
            while True:
                terms = {}
                for _ in range(rng.randint(2, 3)):
                    e = tuple(rng.randint(0, 3) for _ in range(3))
                    c = CyclotomicNumber(
                        level, [rng.randint(-2, 2) for _ in range(phi)])
                    if not c.is_zero():
                        terms[e] = c
                f = LaurentPolynomial(3, terms)
                if not f.is_zero() and not f.is_unit():
                    break
            system.append(f)
        out.append(system)
    return out


BASE_CORPORA = {
    "g2": g2_draws,
    "sparse3": sparse3_draws,
    "lacunary": lacunary_draws,
    "verify-n3": verify_n3_draws,
}


def system_level(system) -> int:
    out = 1
    for f in system:
        out = lcm(out, f.coefficient_level())
    return out


def variant(system, rng):
    """A symmetric copy of the system: the Galois automorphism
    zeta_N -> zeta_N^k on every coefficient (N the system's level, k a
    unit mod N), each polynomial times +-zeta_N^j, and each polynomial
    times a monomial with exponents in -2..2."""
    level = system_level(system)
    k = rng.choice([u for u in range(1, level + 1) if gcd(u, level) == 1])
    out = []
    for f in system:
        unit = CyclotomicNumber.zeta(level, rng.randrange(level))
        if rng.random() < 0.5:
            unit = -unit
        shift = tuple(rng.randint(-2, 2) for _ in range(f.nvars))
        out.append(LaurentPolynomial(f.nvars, {
            tuple(a + b for a, b in zip(e, shift)):
                (c.galois(k % c.level) if c.level > 1 else c) * unit
            for e, c in f.terms.items()}))
    return out


def corpus(workload: str, seed: int):
    """The systems one pass solves: the base corpus with every system
    replaced by its seeded variant.  The same seed gives the same
    systems."""
    rng = random.Random(seed)
    return [variant(system, rng) for system in BASE_CORPORA[workload]()]


def to_input_text(system) -> str:
    """The system in the CLI input language, coefficients in the power
    basis of zeta_N with N the system's level."""
    level = system_level(system)
    nvars = system[0].nvars
    lines = [f"vars: {' '.join(VAR_NAMES[:nvars])}", f"field: {level}"]
    for f in system:
        text = ""
        for e in sorted(f.terms):
            c = f.terms[e].embed_to_level(level)
            mono = "".join(f"*{VAR_NAMES[i]}^{x}" for i, x in enumerate(e)
                           if x)
            for j, x in enumerate(c.num):
                if not x:
                    continue
                q = Fraction(x, c.den)
                sign = "-" if q < 0 else "+"
                text += f" {sign} {abs(q)}" + (f"*z^{j}" if j else "") + mono
        lines.append("poly: " + text.removeprefix(" + ").lstrip())
    return "\n".join(lines) + "\n"
