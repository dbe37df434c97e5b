"""Fibonacci numbers modulo m: fast doubling, entry point, Pisano period.

The entry point z(p) is the least positive index with p | F_z; the Pisano
period pi(p) is the period of the Fibonacci sequence mod p.  For odd primes
pi(p) is one of z(p), 2*z(p), 4*z(p), decided by z(p) mod 4, which gives a
three-candidate shortcut for computing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .modular import PrimeModulus


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


@lru_cache(maxsize=None)
def _entry_point(p: int) -> int:
    PrimeModulus(p)  # validates p once; every other function goes through here
    a, b = 0, 1
    z = 0
    while True:
        a, b = b, (a + b) % p
        z += 1
        if a == 0:
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


def fib_residue_indices(p: int, c: int) -> tuple[int, ...]:
    """All i in [0, pi(p)) with F_i = c (mod p), ascending.

    By periodicity these classes mod pi(p) describe every index n with
    F_n = c (mod p).
    """
    period = _pisano_period(p)
    c %= p
    out = []
    a, b = 0, 1
    for i in range(period):
        if a == c:
            out.append(i)
        a, b = b, (a + b) % p
    return tuple(out)
