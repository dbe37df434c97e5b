"""Exact modular arithmetic over odd prime moduli.

Primality and twin-prime tests and twin-prime enumeration.  Residues and
moduli are plain ints; everything is deterministic and exact, no floats.
`require_odd_prime` and `require_twin_prime` check a p from outside; the
CLI calls them, and every other function takes its arguments as given.
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
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return sieve


def twin_primes_upto(bound: int) -> list[tuple[int, int]]:
    """Twin prime pairs (p-2, p) with 5 <= p <= bound, ascending in p."""
    sieve = _sieve(bound)
    # flag i of `both` is sieve[i + 3] & sieve[i + 5], the pair (i + 3, i + 5):
    # every flag is 0 or 1, so the AND of the two views as integers is bytewise
    n = bound - 4
    if n <= 0:
        return []
    heads = int.from_bytes(sieve[5:], "little") & int.from_bytes(sieve[3:-2], "little")
    both = heads.to_bytes(n, "little")
    pairs, i = [], both.find(1)
    while i >= 0:
        pairs.append((i + 3, i + 5))
        i = both.find(1, i + 1)
    return pairs


def require_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime in [3, 2^63)."""
    if p < 3 or p % 2 == 0 or p.bit_length() > 63:
        raise ValueError(f"modulus must be an odd prime in [3, 2^63), got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


def require_twin_prime(p: int) -> None:
    """Raise ValueError unless p - 2 and p are both prime, p >= 5."""
    if p < 5 or not (is_prime(p) and is_prime(p - 2)):
        raise ValueError(f"{p} does not head a twin prime pair (p-2, p)")

