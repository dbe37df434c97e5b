"""Fibonacci numbers modulo m: fast doubling, entry point, Pisano period.

The entry point z(p) is the least positive index with p | F_z; the Pisano
period pi(p) is the period of the Fibonacci sequence mod p.  z(p) divides
p - (5/p) (Wall 1960, Vinson 1963), so it is found by order reduction over
the prime factors of that number.  F_z = 0 makes Q^z = r I for the
Fibonacci matrix Q and r = F_{z+1}, so pi(p) = z(p) ord_p(r), with
ord_p(r) one of 1, 2, 4: `FibProfile.of` reads it from one fast-doubling
pair (F_z, F_{z+1}).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def entry_point(p: int) -> int:
    """Least z > 0 with F_z = 0 (mod p), for an odd prime p >= 3."""
    PrimeModulus(p)  # validates p once; every other function goes through here
    # the indices n with p | F_n are the multiples of z(p), and z(p) divides
    # p - (5/p) (which is p itself for p = 5): divide out each prime factor
    # while the quotient still indexes a zero
    z = p - legendre(5, p)
    for q in _prime_factors(z):
        while z % q == 0 and fib_pair(z // q, p)[0] == 0:
            z //= q
    return z


def pisano_period(p: int) -> int:
    """Pisano period pi(p) for an odd prime p >= 3."""
    return FibProfile.of(p).pisano_period


@dataclass(frozen=True)
class FibProfile:
    """Entry point and Pisano period of an odd prime, with the powers
    r^j mod p, j = 1 .. pi(p)/z(p), of r = F_{z+1}."""

    p: int
    entry_point: int
    powers: tuple[int, ...]  # r, r^2, ..., 1: one period of r

    @classmethod
    def of(cls, p: int) -> "FibProfile":
        """The profile of p, certified: raises AssertionError unless
        F_z = 0, r^j = 1 for some j <= 4 and pi(p) is even."""
        z = entry_point(p)
        f_z, r = fib_pair(z, p)
        powers = [r]
        while powers[-1] != 1 and len(powers) < 4:
            powers.append(powers[-1] * r % p)
        if f_z or powers[-1] != 1 or z * len(powers) % 2:
            raise AssertionError(f"F_z, F_(z+1) certify no Pisano period for p={p}, z={z}")
        return cls(p, z, tuple(powers))

    @property
    def pisano_period(self) -> int:
        """z(p) times the order of r: Q^z = r I, so Q^{jz} = I iff r^j = 1."""
        return self.entry_point * len(self.powers)

    @property
    def ratio(self) -> int:
        """pisano_period / entry_point, always 1, 2 or 4."""
        return len(self.powers)

    def relation(self) -> str:
        """Which z(p)-to-pi(p) case applies, as a printable line."""
        z = self.entry_point
        if z % 2 == 1:
            return "pi(p) = 4*z(p) (z odd)"
        if z % 4 == 0:
            return "pi(p) = 2*z(p) (z = 0 mod 4)"
        return "pi(p) = z(p) (z = 2 mod 4)"

