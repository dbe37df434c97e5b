"""The quaternion algebra Q(-1,-1) over Z_p.

Basis 1, i, j, k with i^2 = j^2 = k^2 = -1, ij = -ji = k, jk = -kj = i
and ki = -ik = j.  The norm form is N(x + yi + zj + wk) = x^2 + y^2 +
z^2 + w^2 and is multiplicative.  Over Z_p the algebra splits: a nonzero
element is a zero divisor exactly when its norm vanishes, and invertible
otherwise.

Also provides the quaternion extensions of the bi-periodic Padovan and
Perrin sequences, in modular and exact symbolic (polynomial coefficient)
form, together with their generating-function numerators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modular import PrimeModulus, mod_inverse
from .sequences import BiPoly, SeqParams, padovan_mod, padovan_sym_terms, perrin_mod, perrin_sym_terms


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
        return self.conj() * mod_inverse(n, self.modulus.p)

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
        terms[1::2] = perrin_mod(params.swapped(), count)[1::2]
        return terms
    raise ValueError(f"family must be 'QP' or 'QR', got {family!r}")


def _elements(params: SeqParams, family: str, count: int) -> list[QuatElem]:
    mod = PrimeModulus(params._require_modulus())
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
        m = params._require_modulus()
        return QuatElem(
            PrimeModulus(m),
            *(c.evaluate_mod(params.a, params.b, m) for c in self.components),
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
    return SymQuat(*(t.swap() if i % 2 else t for i, t in enumerate(terms[n:], n)))


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
