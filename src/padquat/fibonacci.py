"""Fibonacci numbers modulo m: fast doubling, entry point, Pisano period.

The entry point z(p) is the least positive index with p | F_z; the Pisano
period pi(p) is the period of the Fibonacci sequence mod p.  z(p) divides
p - (5/p) (Wall 1960, Vinson 1963), so it is found by order reduction over
the prime factors of that number, found by trial division.  At a split
prime, (5/p) = 1, z(p) is the multiplicative order of -phi^2 for the root
phi of x^2 - x - 1 mod p, so each order test is one builtin `pow`, and
phi comes from a square root of 5 by builtin `pow` and int products (its
non-residue by Euler's criterion); at an inert prime, and at 5, each test
is a fast-doubling pair.  F_z = 0 makes Q^z = r I for the Fibonacci
matrix Q and r = F_{z+1}, so pi(p) = z(p) ord_p(r), with ord_p(r) one of
1, 2, 4: `FibProfile.of` reads it from the pair (F_z, F_{z+1}) that the
order reduction hands over, from Binet's formula at a split prime and by
fast doubling at an inert one.  Functions of a prime p take it as given;
`modular.require_odd_prime` is the check.
"""

from __future__ import annotations

from collections import namedtuple


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


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division over the
    2*3 wheel: 2, 3, then the 6k -+ 1."""
    out = []
    q, step = 2, 1
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q, step = q + step, 2 if q < 5 else 6 - step
    if n > 1:
        out.append(n)
    return out


def _sqrt5(p: int) -> int:
    """A square root of 5 mod a prime p = +-1 (mod 5) (unchecked)."""
    if p % 4 == 3:
        return pow(5, (p + 1) // 4, p)
    if p % 8 == 5:
        # Atkin: with v = 10^((p-5)/8) and i = 10 v^2, a square root of -1,
        # 5 v (i - 1) squares to 5
        v = pow(10, (p - 5) // 8, p)
        return 5 * v * (10 * v * v - 1) % p
    # Tonelli-Shanks, p - 1 = q 2^e.  n is a non-square mod p when
    # n^((p-1)/2) = -1, by Euler's criterion; the least non-square is an odd
    # prime, as 2 is a square at p = 1 (mod 8)
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = p >> e
    n = 3
    while pow(n, (p - 1) >> 1, p) != p - 1:
        n += 2
    # x^2 = 5 t keeps the error t in the 2^m-th roots of unity, c of order
    # 2^m; each round lowers the order of t
    w = pow(5, q >> 1, p)
    x, c, m = 5 * w % p, pow(n, q, p), e
    t = x * w % p
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        x, c, m = x * b % p, b * b % p, i
        t = t * c % p
    return x


def _entry_pair(p: int) -> tuple[int, tuple[int, int]]:
    """z(p) and (F_z, F_{z+1}) mod p, for an odd prime p >= 3 (unchecked)."""
    # the indices n with p | F_n are the multiples of z(p), and z(p) divides
    # p - (5/p), where (5/p) = (p/5) is +1 at p = +-1, -1 at p = +-2 and 0 at
    # p = 5 (mod 5)
    if p % 5 in (1, 4):
        # split: F_n = (phi^n - psi^n)/s with s^2 = 5, phi, psi = (1 -+ s)/2
        # and phi psi = -1, so F_n = 0 iff g^n = 1 for g = phi/psi = -phi^2:
        # z(p) is the order of g, which divides p - 1
        s = _sqrt5(p)
        if s * s % p != 5:
            raise AssertionError(f"{s} is no square root of 5 mod {p}")
        half = (p + 1) // 2
        phi, psi = (1 + s) * half % p, (1 - s) * half % p
        g = -phi * phi % p
        z = p - 1
        for q in _prime_factors(z):
            while z % q == 0 and pow(g, z // q, p) == 1:
                z //= q
        # the pair by Binet, apart from the order test: psi^z = (-1)^z/phi^z
        a = pow(phi, z, p)
        psi_z = pow(-a if z % 2 else a, -1, p)
        inv_s = pow(s, -1, p)
        return z, ((a - psi_z) * inv_s % p, (a * phi - psi_z * psi) * inv_s % p)
    # inert, and p = 5: divide out each prime factor of p + 1 (of 5) while
    # the quotient still indexes a zero, keeping that zero's pair
    z, pair = p + 1 if p % 5 else p, None
    for q in _prime_factors(z):
        while z % q == 0 and (below := fib_pair(z // q, p))[0] == 0:
            z, pair = z // q, below
    return z, pair or fib_pair(z, p)


class FibProfile(namedtuple("FibProfile", "p entry_point powers")):
    """Entry point and Pisano period of an odd prime p, with the powers
    r^j mod p, j = 1 .. pi(p)/z(p), of r = F_{z+1}: powers is
    (r, r^2, ..., 1), one period of r."""

    __slots__ = ()

    @classmethod
    def of(cls, p: int) -> "FibProfile":
        """The profile of an odd prime p >= 3 (unchecked), certified:
        raises AssertionError unless F_z = 0, r^j = 1 for some j <= 4 and
        pi(p) is even."""
        z, (f_z, r) = _entry_pair(p)
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

    def relation(self) -> str:
        """Which z(p)-to-pi(p) case applies, as a printable line."""
        z = self.entry_point
        if z % 2 == 1:
            return "pi(p) = 4*z(p) (z odd)"
        if z % 4 == 0:
            return "pi(p) = 2*z(p) (z = 0 mod 4)"
        return "pi(p) = z(p) (z = 2 mod 4)"

