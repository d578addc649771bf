"""Reference folds used only by the tests: the four loops that folded
powers zeta^k, k >= phi(N), back onto the power basis before
_Level.reduce became the one fold, kept verbatim (CyclotomicNumber's
embed_to_level, multiplication and galois, and
LaurentPolynomial.slice_values, as functions of the receiver), and a
remainder by long division modulo Phi_N that reads no power table."""

from math import gcd, lcm

from torsioncosets.arith import (
    CyclotomicNumber,
    _level,
    cyclotomic_polynomial,
)


def embed_to_level(x: CyclotomicNumber, target: int) -> CyclotomicNumber:
    if target % x.level != 0:
        raise ValueError(
            f"level {x.level} does not divide target level {target}")
    if target == x.level:
        return x
    lv = _level(target)
    step = target // x.level
    vec = [0] * lv.phi
    for k, c in enumerate(x.num):
        if c:
            pw = lv.power(k * step)
            for i, p in enumerate(pw):
                if p:
                    vec[i] += c * p
    return CyclotomicNumber(target, vec, x.den)


def mul(u: CyclotomicNumber, v: CyclotomicNumber) -> CyclotomicNumber:
    level = lcm(u.level, v.level)
    a, b = embed_to_level(u, level), embed_to_level(v, level)
    lv = _level(a.level)
    phi = lv.phi
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a.num):
        if x:
            for j, y in enumerate(b.num):
                if y:
                    conv[i + j] += x * y
    vec = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            pw = lv.power(k)
            for i, p in enumerate(pw):
                if p:
                    vec[i] += c * p
    return CyclotomicNumber(a.level, vec, a.den * b.den)


def galois(x: CyclotomicNumber, k: int) -> CyclotomicNumber:
    if gcd(k, x.level) != 1:
        raise ValueError("exponent not coprime to the level")
    lv = _level(x.level)
    vec = [0] * lv.phi
    for j, c in enumerate(x.num):
        if c:
            pw = lv.power(j * k)
            for i, p in enumerate(pw):
                if p:
                    vec[i] += c * p
    return CyclotomicNumber(x.level, vec, x.den)


def slice_values(f, point, g_rows) -> dict:
    if len(point) > f.nvars:
        raise ValueError("point longer than nvars")
    level, den = 1, 1
    for c in f.terms.values():
        level, den = lcm(level, c.level), lcm(den, c.den)
    big = lcm(level, point.order)
    # zeta_big exponent of each coordinate of the point
    steps = [x * (big // point.order) for x in point.nums]
    accs: dict[tuple[int, ...], list[int]] = {}
    for e, c in f.terms.items():
        key = tuple(sum(x * y for x, y in zip(e, g)) for g in g_rows)
        acc = accs.get(key)
        if acc is None:
            acc = accs[key] = [0] * big
        pos0 = sum(x * y for x, y in zip(e, steps))
        step, mult = big // c.level, den // c.den
        for k, x in enumerate(c.num):
            if x:
                acc[(pos0 + k * step) % big] += x * mult
    lv = _level(big)
    out = {}
    for key, acc in accs.items():
        red = acc[:lv.phi]
        for p in range(lv.phi, big):
            if acc[p]:
                for i, x in enumerate(lv.power(p)):
                    if x:
                        red[i] += acc[p] * x
        out[key] = CyclotomicNumber(big, red, den)
    return out


def reduce_by_division(acc, n: int) -> list[int]:
    """The remainder of sum_k acc[k] x^k modulo the monic Phi_n, as
    phi(n) coordinates, by long division from the top."""
    cyclo = cyclotomic_polynomial(n)
    phi = len(cyclo) - 1
    rem = list(acc) + [0] * (phi - len(acc))
    for k in range(len(rem) - 1, phi - 1, -1):
        c = rem[k]
        if c:
            for i, d in enumerate(cyclo):
                rem[k - phi + i] -= c * d
    return rem[:phi]
