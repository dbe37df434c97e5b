"""Fibonacci numbers modulo m: fast doubling, entry point, Pisano period.

The entry point z(p) is the least positive index with p | F_z; the Pisano
period pi(p) is the period of the Fibonacci sequence mod p.  z(p) divides
p - (5/p) (Wall 1960, Vinson 1963), so it is found by order reduction over
the prime factors of that number.  For odd primes pi(p) is one of z(p),
2*z(p), 4*z(p), decided by z(p) mod 4, which gives a three-candidate
shortcut for computing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .modular import PrimeModulus, legendre


def fib_pair(n: int, m: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) mod m by fast doubling, O(log n) steps."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a, b = 0, 1  # F_0, F_1
    for bit in bin(n)[2:]:
        # F_{2k} = F_k (2 F_{k+1} - F_k),  F_{2k+1} = F_k^2 + F_{k+1}^2
        c = a * (2 * b - a) % m
        d = (a * a + b * b) % m
        if bit == "0":
            a, b = c, d
        else:
            a, b = d, (c + d) % m
    return a, b


def fib_mod(n: int, m: int) -> int:
    """F_n mod m."""
    return fib_pair(n, m)[0]


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _entry_point(p: int) -> int:
    PrimeModulus(p)  # validates p once; every other function goes through here
    # the indices n with p | F_n are the multiples of z(p), and z(p) divides
    # p - (5/p) (which is p itself for p = 5): divide out each prime factor
    # while the quotient still indexes a zero
    z = p - legendre(5, p)
    for q in _prime_factors(z):
        while z % q == 0 and fib_pair(z // q, p)[0] == 0:
            z //= q
    return z


def entry_point(p: int) -> int:
    """Least z > 0 with F_z = 0 (mod p), for an odd prime p >= 3."""
    return _entry_point(p)


@lru_cache(maxsize=None)
def _pisano_period(p: int) -> int:
    z = _entry_point(p)
    # the period is z, 2z or 4z; take the first candidate with F_{L+1} = 1
    for mult in (1, 2, 4):
        length = mult * z
        if fib_pair(length, p) == (0, 1):
            return length
    raise AssertionError(f"no Pisano period among z, 2z, 4z for p={p}")


def pisano_period(p: int) -> int:
    """Pisano period pi(p) for an odd prime p >= 3."""
    return _pisano_period(p)


@dataclass(frozen=True)
class FibProfile:
    """Entry point and Pisano period of an odd prime, with their ratio."""

    p: int
    entry_point: int
    pisano_period: int

    @classmethod
    def of(cls, p: int) -> "FibProfile":
        return cls(p, _entry_point(p), _pisano_period(p))

    @property
    def ratio(self) -> int:
        """pisano_period / entry_point, always 1, 2 or 4."""
        return self.pisano_period // self.entry_point

    def relation(self) -> str:
        """Which z(p)-to-pi(p) case applies, as a printable line."""
        z = self.entry_point
        if z % 2 == 1:
            return "pi(p) = 4*z(p) (z odd)"
        if z % 4 == 0:
            return "pi(p) = 2*z(p) (z = 0 mod 4)"
        return "pi(p) = z(p) (z = 2 mod 4)"

