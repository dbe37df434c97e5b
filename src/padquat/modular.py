"""Exact modular arithmetic over odd prime moduli.

Primality testing, twin-prime enumeration, modular inverses,
Legendre/Jacobi symbols, Tonelli-Shanks square roots, and quadratic
congruence solving.  Residues and moduli are plain ints; everything is
deterministic and exact, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass


class ZeroNotInvertible(ZeroDivisionError):
    """Raised when asking for the inverse of 0 mod p."""


class LeadingCoefficientNotInvertible(ValueError):
    """Raised when a quadratic congruence has p | c2."""


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


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n <= 2**63."""
    if n < 0:
        raise ValueError(f"primality is defined for nonnegative integers, got {n}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
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
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return sieve


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    return [i for i, flag in enumerate(_sieve(bound)) if flag]


def twin_primes_upto(bound: int) -> list[tuple[int, int]]:
    """Twin prime pairs (p-2, p) with 5 <= p <= bound, ascending in p."""
    sieve = _sieve(bound)
    return [(p - 2, p) for p in range(5, bound + 1) if sieve[p] and sieve[p - 2]]


def mod_inverse(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p; raises ZeroNotInvertible when p | a."""
    if a % p == 0:
        raise ZeroNotInvertible(f"0 is not invertible mod {p}")
    return pow(a, -1, p)


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime modulus p >= 3 (validated on construction)."""

    p: int

    def __post_init__(self) -> None:
        if self.p < 3 or self.p % 2 == 0 or self.p.bit_length() > 63:
            raise ValueError(f"modulus must be an odd prime in [3, 2^63), got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")


@dataclass(frozen=True)
class ResidueClass:
    """An integer residue in [0, p) paired with its modulus."""

    value: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p; a is
    reduced mod p first."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 3; 0 when gcd(a, n) > 1."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs an odd n >= 3, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> tuple[int, int] | None:
    """Square roots of a mod the odd prime p, or None when a is a non-residue.

    Returns the unordered pair {r, p-r} with r <= p-r; a = 0 gives (0, 0).
    Tonelli-Shanks, with the p = 3 (mod 4) shortcut.
    """
    a %= p
    if a == 0:
        return (0, 0)
    if legendre(a, p) == -1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        r = _tonelli_shanks(a, p)
    r = min(r, p - r)
    return (r, p - r)


def _tonelli_shanks(n: int, p: int) -> int:
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


@dataclass(frozen=True)
class QuadCongruence:
    """The congruence c2*x^2 + c1*x + c0 = 0 (mod p)."""

    c2: int
    c1: int
    c0: int
    modulus: PrimeModulus

    @property
    def discriminant(self) -> int:
        """Full integer discriminant c1^2 - 4*c2*c0."""
        return self.c1 * self.c1 - 4 * self.c2 * self.c0

    @property
    def discriminant_mod(self) -> int:
        return self.discriminant % self.modulus.p

    def evaluate(self, x: int) -> int:
        p = self.modulus.p
        return (self.c2 * x * x + self.c1 * x + self.c0) % p


@dataclass(frozen=True)
class QuadSolution:
    """Root set of a quadratic congruence plus its solvability verdict."""

    roots: tuple[int, ...]
    discriminant_symbol: int  # legendre(disc, p)

    @property
    def solvable(self) -> bool:
        return self.discriminant_symbol >= 0


def solve_quadratic(q: QuadCongruence) -> QuadSolution:
    """Complete root set of c2*x^2 + c1*x + c0 = 0 (mod p).

    Solves by completing the square, (2*c2*x + c1)^2 = disc (mod p):
    two roots when the discriminant is a nonzero residue, one double root
    when it is 0, none when it is a non-residue.
    Raises LeadingCoefficientNotInvertible when p | c2.
    """
    p = q.modulus.p
    if q.c2 % p == 0:
        raise LeadingCoefficientNotInvertible(
            f"leading coefficient {q.c2} is 0 mod {p}; not a quadratic congruence"
        )
    symbol = legendre(q.discriminant, p)
    if symbol == -1:
        return QuadSolution((), -1)
    pair = sqrt_mod(q.discriminant, p)
    assert pair is not None
    inv = mod_inverse(2 * q.c2, p)
    roots = sorted({(y - q.c1) * inv % p for y in pair})
    return QuadSolution(tuple(roots), symbol)
