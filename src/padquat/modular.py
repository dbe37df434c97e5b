"""Exact modular arithmetic over odd prime moduli.

Primality test and twin-prime enumeration.  Residues and moduli are plain
ints; everything is deterministic and exact, no floats.  No function here
checks its arguments: the CLI checks a p from outside with `is_prime`.
"""

import math


# Miller-Rabin bases, each with psi_k, the least strong pseudoprime to all of
# the first k of them (Jaeschke 1993; OEIS A014233): an n < psi_k that passes
# the first k bases is prime.  All twelve are exact below
# psi_12 = 318_665_857_834_031_151_167_461, which covers the full 63-bit range.
_MR_BASES = (
    (2, 2047),
    (3, 1373653),
    (5, 25326001),
    (7, 3215031751),
    (11, 2152302898747),
    (13, 3474749660383),
    (17, 341550071728321),
    (19, 341550071728321),
    (23, 3825123056546413051),
    (29, 3825123056546413051),
    (31, 3825123056546413051),
    (37, 318665857834031151167461),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n <= 2**63."""
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    # n - 1 = d 2^s with d odd; (n - 1) & (1 - n) is the lowest set bit
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a, psi in _MR_BASES:
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _sieve(bound: int) -> bytearray:
    """Sieve of Eratosthenes: flag n is 1 exactly when n <= bound is prime
    (empty for bound < 2)."""
    if bound < 2:
        return bytearray()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((bound - i * i) // i + 1)
    return sieve


def twin_primes_upto(bound: int) -> list[tuple[int, int]]:
    """Twin prime pairs (p-2, p) with 5 <= p <= bound, ascending in p."""
    sieve = _sieve(bound)
    # (n, n + 2) with n >= 3 is a pair exactly where the flags from n read
    # 1, 0, 1: n + 1 is even and past 2, so its flag is 0
    pairs, n = [], sieve.find(b"\x01\x00\x01", 3)
    while n >= 0:
        pairs.append((n, n + 2))
        n = sieve.find(b"\x01\x00\x01", n + 1)
    return pairs
