"""The one fold modulo Phi_N (_Level.reduce) against the four loops it
replaced, and the per-level caches under concurrent first use."""

import random
import sys
import threading
from math import gcd

from torsioncosets import poly
from torsioncosets.arith import (
    CyclotomicNumber,
    TorsionPoint,
    _divisors,
    _Level,
    _level,
    cyclotomic_polynomial,
    euler_phi,
)
from torsioncosets.poly import LaurentPolynomial

import arith_references as ref

# every level up to 60 (those that are 2 mod 4 among them) and three
# with many divisors
LEVELS = list(range(1, 61)) + [84, 120, 600]


def _number(rng, level, dense):
    phi = euler_phi(level)
    num = [0] * phi
    for k in (range(phi) if dense else rng.sample(range(phi), min(phi, 2))):
        num[k] = rng.randint(-9, 9)
    return CyclotomicNumber(level, num, rng.choice((1, 1, 2, 6, 35)))


def _parts(x):
    return x.level, x.num, x.den


def test_level_reduce_matches_long_division():
    rng = random.Random(25)
    for n in LEVELS:
        lv, phi = _level(n), euler_phi(n)
        for length in (rng.randrange(phi), n, 2 * n + rng.randint(1, n)):
            for dense in (False, True):
                acc = [0] * length
                for k in (range(length) if dense
                          else rng.sample(range(length), min(length, 3))):
                    acc[k] = rng.randint(-50, 50)
                got = lv.reduce(list(acc))
                assert got == ref.reduce_by_division(acc, n), (n, length)


def test_fold_matches_the_reference_loops():
    rng = random.Random(2025)
    for n in LEVELS:
        divisors = _divisors(n)
        units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
        for dense in (False, True):
            for d in divisors:
                x = _number(rng, d, dense)
                assert _parts(x.embed_to_level(n)) == _parts(
                    ref.embed_to_level(x, n)), (d, n)
            x = _number(rng, rng.choice(divisors), dense)
            y = _number(rng, n, rng.random() < 0.5)
            assert _parts(x * y) == _parts(ref.mul(x, y)), n
            assert _parts(y * y) == _parts(ref.mul(y, y)), n
            k = rng.choice(units) + n * rng.randint(-1, 2)
            assert _parts(y.galois(k)) == _parts(ref.galois(y, k)), (n, k)
            f = LaurentPolynomial(2, {
                (rng.randint(-3, 3), rng.randint(-3, 3)):
                    _number(rng, rng.choice(divisors), dense)
                for _ in range(rng.randint(1, 5))})
            m = rng.choice(divisors)
            point = TorsionPoint([rng.randrange(m)
                                  for _ in range(rng.randint(1, 2))], m)
            rows = rng.choice(([], [[1, 0]], [[1, 1]]))
            got = f.slice_values(point, rows)
            expect = ref.slice_values(f, point, rows)
            assert got.keys() == expect.keys()
            for key, value in got.items():
                assert _parts(value) == _parts(expect[key]), (n, key)


def _serial_fields(level, count):
    # the first count primes 1 (mod level) below 2^62, descending
    out, p = [], 2**62 - 1 - (2**62 - 2) % level
    while len(out) < count:
        if poly._is_prime(p):
            out.append(poly._field_data(p, level))
        p -= level
    return out


def test_per_level_caches_agree_with_serial_values_under_threads():
    # 2 mod 4 levels with a large prime factor, which no other test
    # touches, so the threads meet cold caches
    levels, fields = (178, 194, 206, 214), 6
    serial = {}
    for n in levels:
        fresh = _Level(n)
        serial.update({("power", n, k): fresh.power(k) for k in range(n)})
        serial["cyclo", n] = cyclotomic_polynomial.__wrapped__(n)
        serial.update({("field", n, i): v
                       for i, v in enumerate(_serial_fields(n, fields))})
    tasks = list(serial)
    random.Random(7).shuffle(tasks)
    calls = {"power": lambda n, k: _level(n).power(k),
             "cyclo": cyclotomic_polynomial,
             "field": poly._prime_field}
    threads = 6
    start = threading.Barrier(threads, timeout=60)
    results, errors = {}, []

    def work(share):
        start.wait()
        try:
            for task in share:
                results[task] = calls[task[0]](*task[1:])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(tasks[i::threads],))
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert errors == []
    assert results == serial
    for n in levels:
        primes = [poly._prime_field(n, i)[0] for i in range(fields)]
        assert all(p > q for p, q in zip(primes, primes[1:]))
        assert all(p % n == 1 for p in primes)
