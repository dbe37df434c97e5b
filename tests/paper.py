"""The paper's algebra and identities, which the reproduction tests check
and the CLI does not run.

The quaternion algebra Q(-1,-1) over Z_p (`QuatElem`): i^2 = j^2 = k^2 = -1,
ij = -ji = k, jk = -kj = i and ki = -ik = j, with the multiplicative norm
N(x + yi + zj + wk) = x^2 + y^2 + z^2 + w^2.  Over Z_p the algebra splits:
a nonzero element is a zero divisor exactly when its norm vanishes, and
invertible otherwise.  Also the QP/QR sequence quaternions, modular and
symbolic, their generating-function numerators and expansion, the
twin-prime closed forms of P_m, the re-derived even-index Perrin norm
reduction, and `swap`, `evaluate` and `evaluate_mod` of a `BiPoly`.

`THEOREM_STATEMENTS` holds each theorem's side condition and excluded
primes as the paper states them: a congruence, or a Legendre symbol by
Euler's criterion (`legendre`).  `padquat.verifier` derives both from the
theorem's norm reduction instead, so the references check it against
these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from padquat.fibonacci import fib_pair
from padquat.modular import is_prime
from padquat.sequences import (
    BiPoly,
    SeqParams,
    padovan_mod,
    padovan_sym_terms,
    perrin_mod,
    perrin_sym_terms,
)
from padquat.verifier import NormReduction

# Re-derived even-index Perrin reduction.  Expanding the norm through the
# Padovan closed forms with the cross-term signs carried exactly gives
# N(QR_{2k}) = 2*(51 f^2 + 28 f + 26) with f = F_{k+1}, under the same
# hypothesis.  This variant agrees with the brute-force oracle for every
# twin prime; the primary perrin-even form disagrees at p = 5, 7.
PERRIN_EVEN_ADJUSTED = NormReduction("perrin-even-adjusted", 51, 28, 26)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p, by Euler's
    criterion; a is reduced mod p first."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


@dataclass(frozen=True)
class TheoremStatement:
    """When a theorem predicts zero divisors at a prime p it applies at
    (`condition`), and the primes it does not apply at (`excluded`)."""

    condition: Callable[[int], bool]
    excluded: tuple[int, ...] = ()


# claim id -> the paper's statement of each theorem
THEOREM_STATEMENTS = {
    "thm-padovan-even": TheoremStatement(lambda p: p % 4 == 1),
    "thm-padovan-odd": TheoremStatement(lambda p: p % 3 == 1),
    "thm-perrin-even": TheoremStatement(lambda p: legendre(-8 * 181, p) == 1, (181,)),
    "thm-perrin-odd": TheoremStatement(lambda p: legendre(-4 * 13 * 239, p) == 1, (7, 13, 239)),
}


def swap(poly: BiPoly) -> BiPoly:
    """`poly` with the roles of a and b exchanged."""
    return BiPoly({(j, i): c for (i, j), c in poly.coeffs.items()})


def evaluate(poly: BiPoly, a: int, b: int) -> int:
    """`poly` at the integers (a, b)."""
    return sum(c * a**i * b**j for (i, j), c in poly.coeffs.items())


def evaluate_mod(poly: BiPoly, a: int, b: int, m: int) -> int:
    """`poly` at (a, b), reduced mod m."""
    return sum(
        c * pow(a, i, m) * pow(b, j, m) for (i, j), c in poly.coeffs.items()
    ) % m


def gf_expand(
    numerator: Sequence[BiPoly | int],
    count: int,
    params: SeqParams | None = None,
) -> list[BiPoly] | list[int]:
    """First `count` series coefficients of numerator / denominator.

    The denominator is fixed to 1 - (a+b)x^2 + ab*x^4 - x^6, so coefficients
    obey c_n = num_n + (a+b)c_{n-2} - ab*c_{n-4} + c_{n-6}.  With no params
    the expansion is fully symbolic (BiPoly terms); with params it is exact
    at the params' integer (a, b), reduced mod their modulus.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")

    if params is None:
        a, b, m, zero = BiPoly.a(), BiPoly.b(), None, BiPoly.zero()
        nums = [n if isinstance(n, BiPoly) else BiPoly.const(n) for n in numerator]
    else:
        a, b, m, zero = params.a, params.b, params.modulus, 0
        nums = [evaluate(n, a, b) if isinstance(n, BiPoly) else int(n) for n in numerator]
    apb, ab = a + b, a * b
    out: list = []
    for n in range(count):
        c = nums[n] if n < len(nums) else zero
        if n >= 2:
            c = c + apb * out[n - 2]
        if n >= 4:
            c = c - ab * out[n - 4]
        if n >= 6:
            c = c + out[n - 6]
        out.append(c if m is None else c % m)
    return out


def padovan_even_binomial(k: int, p: int) -> int:
    """Closed binomial form for P_{2k} mod p under twin-prime coefficients.

    (-1)^k * sum_{i=0..k//3} (-1)^i C(k-2i, i) 2^(k-3i), computed with exact
    binomial coefficients and reduced mod p at the end.
    """
    if k < 0:
        raise ValueError(f"index must be nonnegative, got {k}")
    total = sum(
        (-1) ** i * math.comb(k - 2 * i, i) * 2 ** (k - 3 * i)
        for i in range(k // 3 + 1)
    )
    return (-1) ** k * total % p


def padovan_fib_form(m: int, p: int) -> int:
    """P_m mod p through Fibonacci numbers, under twin-prime coefficients.

    (-1)^k (F_{k+3} - 1) for m = 2k and (-1)^(k+1) (F_{k+2} - 1) for
    m = 2k + 1.
    """
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    k, odd = divmod(m, 2)
    if odd:
        # k + 1, not k - 1: (-1) ** -1 is the float -1.0
        return (-1) ** (k + 1) * (fib_pair(k + 2, p)[0] - 1) % p
    return (-1) ** k * (fib_pair(k + 3, p)[0] - 1) % p


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime modulus p in [3, 2^63), where `is_prime` is exact
    (validated on construction)."""

    p: int

    def __post_init__(self) -> None:
        p = self.p
        if p < 3 or p % 2 == 0 or p.bit_length() > 63:
            raise ValueError(f"modulus must be an odd prime in [3, 2^63), got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")


class AlgebraMismatch(ValueError):
    """Raised when combining elements over different primes."""


class NotInvertible(ZeroDivisionError):
    """Raised when inverting an element of zero norm."""


@dataclass(frozen=True)
class QuatElem:
    """x + y*i + z*j + w*k in Q(-1,-1) over Z_p, coefficients reduced mod p."""

    modulus: PrimeModulus
    x: int
    y: int
    z: int
    w: int

    def __post_init__(self) -> None:
        p = self.modulus.p
        for name in ("x", "y", "z", "w"):
            object.__setattr__(self, name, getattr(self, name) % p)

    @property
    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.w)

    def _check(self, other: "QuatElem") -> None:
        if other.modulus != self.modulus:
            raise AlgebraMismatch(
                f"primes differ: {self.modulus.p} vs {other.modulus.p}"
            )

    def __add__(self, other: "QuatElem") -> "QuatElem":
        self._check(other)
        return QuatElem(
            self.modulus,
            self.x + other.x,
            self.y + other.y,
            self.z + other.z,
            self.w + other.w,
        )

    def __sub__(self, other: "QuatElem") -> "QuatElem":
        return self + -other

    def __neg__(self) -> "QuatElem":
        return QuatElem(self.modulus, -self.x, -self.y, -self.z, -self.w)

    def __mul__(self, other: "QuatElem | int") -> "QuatElem":
        if isinstance(other, int):  # the scalar s is the element s + 0i + 0j + 0k
            other = QuatElem(self.modulus, other, 0, 0, 0)
        self._check(other)
        x1, y1, z1, w1 = self.coefficients
        x2, y2, z2, w2 = other.coefficients
        return QuatElem(
            self.modulus,
            x1 * x2 - y1 * y2 - z1 * z2 - w1 * w2,
            x1 * y2 + y1 * x2 + z1 * w2 - w1 * z2,
            x1 * z2 + z1 * x2 - y1 * w2 + w1 * y2,
            x1 * w2 + w1 * x2 + y1 * z2 - z1 * y2,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuatElem":
        """(x, -y, -z, -w); satisfies u * conj(u) = N(u) * 1."""
        return QuatElem(self.modulus, self.x, -self.y, -self.z, -self.w)

    def norm(self) -> int:
        """N(u) = x^2 + y^2 + z^2 + w^2 mod p."""
        return sum(c * c for c in self.coefficients) % self.modulus.p

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0, 0, 0, 0)

    def is_zero_divisor(self) -> bool:
        """Nonzero with vanishing norm."""
        return not self.is_zero and self.norm() == 0

    def inverse(self) -> "QuatElem":
        """conj(u) * N(u)^-1; raises NotInvertible when N(u) = 0."""
        n = self.norm()
        if n == 0:
            raise NotInvertible("element has zero norm")
        return self.conj() * pow(n, -1, self.modulus.p)

    def __str__(self) -> str:
        return f"({self.x}, {self.y}, {self.z}, {self.w}) in Q(-1,-1) mod {self.modulus.p}"


def family_stream(params: SeqParams, family: str, count: int) -> list[int]:
    """t_0 .. t_{count-1} mod p, the coefficient stream of a quaternion family.

    Quaternion n of the family is t_n + t_{n+1} i + t_{n+2} j + t_{n+3} k.
    QP takes t_i = P_i.  QR takes t_i = R_i(a, b) at even i and R_i(b, a)
    at odd i, which is the parity-dependent coefficient-order swap.
    """
    if family == "QP":
        return padovan_mod(params, count)
    if family == "QR":
        terms = perrin_mod(params, count)
        params_ba = SeqParams(params.b, params.a, modulus=params.modulus)
        terms[1::2] = perrin_mod(params_ba, count)[1::2]
        return terms
    raise ValueError(f"family must be 'QP' or 'QR', got {family!r}")


def _elements(params: SeqParams, family: str, count: int) -> list[QuatElem]:
    mod = PrimeModulus(params.modulus)
    t = family_stream(params, family, count + 3)
    return [QuatElem(mod, *t[n : n + 4]) for n in range(count)]


def qp_elements(params: SeqParams, count: int) -> list[QuatElem]:
    """The first `count` Padovan quaternions P_n + P_{n+1} i + P_{n+2} j + P_{n+3} k."""
    return _elements(params, "QP", count)


def qr_elements(params: SeqParams, count: int) -> list[QuatElem]:
    """The first `count` Perrin quaternions, with the parity-dependent
    coefficient-order swap applied per component."""
    return _elements(params, "QR", count)


@dataclass(frozen=True)
class SymQuat:
    """A quaternion with exact polynomial coefficients (symbolic a, b)."""

    x: BiPoly
    y: BiPoly
    z: BiPoly
    w: BiPoly

    @property
    def components(self) -> tuple[BiPoly, BiPoly, BiPoly, BiPoly]:
        return (self.x, self.y, self.z, self.w)

    def __add__(self, other: "SymQuat") -> "SymQuat":
        return SymQuat(*(s + o for s, o in zip(self.components, other.components)))

    def __sub__(self, other: "SymQuat") -> "SymQuat":
        return SymQuat(*(s - o for s, o in zip(self.components, other.components)))

    def __mul__(self, scalar: "BiPoly | int") -> "SymQuat":
        return SymQuat(*(c * scalar for c in self.components))

    __rmul__ = __mul__

    def evaluate_mod(self, params: SeqParams) -> QuatElem:
        """Specialize at integer (a, b) mod p in Q(-1,-1)."""
        m = params.modulus
        return QuatElem(
            PrimeModulus(m),
            *(evaluate_mod(c, params.a, params.b, m) for c in self.components),
        )

    def __str__(self) -> str:
        return f"({self.x}) + ({self.y})i + ({self.z})j + ({self.w})k"


def qp_symbolic(n: int) -> SymQuat:
    """Exact Padovan quaternion: components P_n, P_{n+1}, P_{n+2}, P_{n+3}."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    terms = padovan_sym_terms(n + 4)
    return SymQuat(*terms[n : n + 4])


def qr_symbolic(n: int) -> SymQuat:
    """Exact Perrin quaternion with the parity-dependent (a, b) swap."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    terms = perrin_sym_terms(n + 4)
    # components are t_n .. t_{n+3} of the QR stream of family_stream
    return SymQuat(*(swap(t) if i % 2 else t for i, t in enumerate(terms[n:], n)))


def qp_gf_numerators() -> tuple[list[BiPoly], list[BiPoly], list[BiPoly], list[BiPoly]]:
    """x-coefficient lists of the four Padovan-quaternion GF numerators.

    Componentwise expansion against 1 - (a+b)x^2 + ab x^4 - x^6 reproduces
    the quaternion coefficient streams.
    """
    one = BiPoly.one()
    zero = BiPoly.zero()
    a, b = BiPoly.a(), BiPoly.b()
    ab = a * b
    return (
        [one, zero, -b, one],
        [zero, a, one, -ab, zero, one],
        [a, one, -ab, zero, one],
        [one, a * a, zero, one - a * a * b, zero, a],
    )


def qr_gf_numerators() -> tuple[list[BiPoly], list[BiPoly], list[BiPoly], list[BiPoly]]:
    """x-coefficient lists of the four Perrin-quaternion GF numerators."""
    c = BiPoly.const
    zero = BiPoly.zero()
    a, b = BiPoly.a(), BiPoly.b()
    ab = a * b
    return (
        [c(3), zero, c(2) - 3 * a - 3 * b, c(3), b * (3 * a - c(2)), c(2) - 3 * b],
        [zero, c(2), c(3), -2 * b, c(2) - 3 * b, c(3)],
        [c(2), c(3), -2 * b, c(2) - 3 * b, c(3)],
        [c(3), 2 * a, c(2) - 3 * b, c(3) - 2 * ab, zero, c(2)],
    )
