"""Fibonacci numbers modulo m: fast doubling, entry point, Pisano period.

The entry point z(p) is the least positive index with p | F_z; the Pisano
period pi(p) is the period of the Fibonacci sequence mod p.  z(p) divides
p - (5/p) (Wall 1960, Vinson 1963), so it is found by order reduction over
the prime factors of that number, found by trial division: by a table of
the primes below 2^12, all that any n < 2^24 needs, then over the 2*3
wheel until the cofactor is 1 or passes `modular.is_prime`.  At a split
prime, (5/p) = 1, z(p) is the multiplicative order of -phi^2 for the root
phi of x^2 - x - 1 mod p, so each order test is one builtin `pow`, and phi
comes from a square root of 5 by builtin `pow` and int products (at
p = 1 (mod 8), Tonelli-Shanks takes the least non-residue, a prime n found
by quadratic reciprocity, (n/p) = (p/n), with small `pow`s mod n); at an
inert prime, and at 5, each test is a fast-doubling pair.  F_z = 0 makes
Q^z = r I for the Fibonacci matrix Q and r = F_{z+1}, and Cassini's
identity then gives r^2 = (-1)^z, so pi(p) = z(p) ord_p(r) with r of order
4 at an odd z and r = +-1 at an even one: `FibProfile.of` reads r from the
pair (F_z, F_{z+1}) that the order reduction hands over, from Binet's
formula (one `pow` and a square) at a split prime and by fast doubling at
an inert one, and writes its powers in closed form.  Every function takes
its arguments as given; the CLI checks a p from outside with
`modular.require_odd_prime`.
"""

from collections import namedtuple
from itertools import compress

from .modular import _sieve, is_prime


def fib_pair(n: int, m: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) mod m by fast doubling, O(log n) steps, for n >= 0
    and m >= 2 (unchecked)."""
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


# (q, q^2) for each prime q < 2^12, the last 4093: no n < 4097^2, which is
# past 2^24, needs a trial divisor beyond the table
_PRIME_TABLE = tuple((q, q * q) for q in compress(range(4096), _sieve(4095)))
# the odd primes of the table, which _sqrt5 tries as non-residues in turn
_ODD_PRIMES = tuple(q for q, _ in _PRIME_TABLE[1:])


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division:
    over the prime table, then, while what is left is neither 1 nor prime,
    over the 2*3 wheel's 6k -+ 1 from 4097 = 6*682 + 5.  Past the table the
    cost grows with the second-largest prime factor of n."""
    out = []
    for q, square in _PRIME_TABLE:
        if square > n:
            break
        if n % q == 0:
            out.append(q)
            n //= q
            while n % q == 0:
                n //= q
    else:
        # n has no prime factor below 2^12, and changes only at a division:
        # it is tested for primality here and after each one, and the search
        # ends once it is 1 or prime.  A composite n has a prime factor up to
        # its square root, which the wheel meets first; the bound keeps a
        # wrong wheel from running on towards n.  4097 is a 6k + 5, so the
        # steps run 2, 4, 2, ...; these steps from a 6k + 1 would skip every
        # 6k + 5 and miss those prime factors
        q, step = 4097, 2
        while n > 1 and not is_prime(n):
            while q * q <= n and n % q:
                q, step = q + step, 6 - step
            if q * q > n:
                break
            out.append(q)
            n //= q
            while n % q == 0:
                n //= q
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
    # Tonelli-Shanks, p - 1 = q 2^e, with a non-square n.  The least one is
    # an odd prime, as 2 is a square at p = 1 (mod 8), and p = 1 (mod 4)
    # makes (n/p) = (p/n) by reciprocity: Euler's criterion mod n reads it
    # with a pow of small numbers.  The least non-square is below p, so no n
    # reaches p, where p % n would read 0, and far below the table's last
    # prime: under GRH below 2 ln(p)^2 (Bach 1990), 1,527 at p = 10^12
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = p >> e
    for n in _ODD_PRIMES:
        if pow(p % n, n >> 1, n) == n - 1:
            break
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
        phi = (1 + s) * ((p + 1) // 2) % p
        g = -phi * phi % p
        z = p - 1
        for q in _prime_factors(z):
            while z % q == 0 and pow(g, z // q, p) == 1:
                z //= q
        # the pair by Binet, apart from the order test: F_z s = phi^z - psi^z
        # is 0, and then F_{z+1} s = phi^z (phi - psi) = phi^z s.  As
        # psi^z = (-1)^z / phi^z, phi^z = psi^z iff (phi^z)^2 = (-1)^z
        a = pow(phi, z, p)
        if a * a % p != (p - 1 if z % 2 else 1):
            raise AssertionError(f"F_z != 0 mod {p} at z = {z}")
        return z, (0, a)
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
        raises AssertionError unless F_z = 0 and r^2 = (-1)^z.  By
        Cassini's identity F_{z-1} F_{z+1} - F_z^2 = (-1)^z, where
        F_{z-1} = F_{z+1} once F_z = 0, every true pair passes; the
        certificate makes r^4 = 1 and pi(p) even.  It does not show that z
        is the least zero index."""
        z, (f_z, r) = _entry_pair(p)
        if f_z or r * r % p != (p - 1 if z % 2 else 1):
            raise AssertionError(f"F_z, F_(z+1) certify no Pisano period for p={p}, z={z}")
        # r^2 = -1 gives (r, -1, -r, 1); r^2 = 1 gives r = 1 or r = -1
        powers = (r, p - 1, p - r, 1) if z % 2 else (1,) if r == 1 else (r, 1)
        return tuple.__new__(cls, (p, z, powers))

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

