"""Small shared helpers: memoised constructors, square-and-multiply powers,
stable seeding, prime factors, congruences, canonical JSON lines."""

from __future__ import annotations

import functools
import inspect
import json
import random


def canonical(build):
    """Memoise the constructor build with functools.cache, so that equal
    arguments give one shared object however the call spells them: the
    cache key is the arguments bound positionally, defaults filled in.
    Exceptions are not cached, so every check in build runs on each miss.
    """
    signature = inspect.signature(build)
    arity = len(signature.parameters)
    cached = functools.cache(build)

    @functools.wraps(build)
    def get(*args, **kwargs):
        if kwargs or len(args) < arity:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        return cached(*args)

    return get


def binary_power(base, e: int, one):
    """base**e for e >= 0 by square-and-multiply: no product with one and
    no squaring past the top bit, so base**1 is base itself."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return one if result is None else result


def stable_rng(seed: int, *key) -> random.Random:
    """Deterministic RNG derived from a seed and a structured key.

    Stable across processes and runs (unlike hash()).
    """
    # imported here: hashlib loads the OpenSSL library, about 3.6 MB of
    # resident memory that a process which never seeds does not need
    import hashlib

    blob = repr((seed,) + key).encode()
    digest = hashlib.sha256(blob).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def solve_congruence(a: int, b: int, n: int):
    """Solve a*t = b (mod n).  Returns (t0, step) with all solutions
    t0 + k*step mod n, or None if unsolvable."""
    import math

    g = math.gcd(a, n)
    if b % g:
        return None
    n2 = n // g
    t0 = (b // g) * pow((a // g) % n2, -1, n2) % n2
    return t0, n2


# one encoder for every line: json.dumps builds a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_line(obj) -> str:
    """Canonical single-line JSON for byte-stable reports."""
    return _ENCODER.encode(obj)
