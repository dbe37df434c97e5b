"""Bi-periodic Padovan and Perrin sequences, symbolic and modular.

Both sequences follow t_n = a*t_{n-2} + t_{n-3} for even n and
t_n = b*t_{n-2} + t_{n-3} for odd n; Padovan starts (1, 0, a), Perrin
starts (3, 0, 2).  Symbolic terms are exact bivariate polynomials in a, b;
modular terms are plain ints in [0, m).  Parameters are taken as given: the
CLI checks that a --p heads a twin prime pair before it builds them.
"""

from __future__ import annotations

from collections import namedtuple


class BiPoly:
    """Bivariate polynomial in a and b with exact integer coefficients.

    Stored as a map from exponent pairs (i, j) of a^i * b^j to nonzero
    coefficients.  Immutable by convention; all operations return new
    instances.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        self.coeffs: dict[tuple[int, int], int] = {
            k: v for k, v in (coeffs or {}).items() if v != 0
        }

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls.const(1)

    @classmethod
    def a(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def b(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def _as_poly(self, other: "BiPoly | int") -> "BiPoly | None":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, int):
            return BiPoly.const(other)
        return None

    def __add__(self, other: "BiPoly | int") -> "BiPoly":
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BiPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "BiPoly | int") -> "BiPoly":
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: int) -> "BiPoly":
        return (-self) + other

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other: "BiPoly | int") -> "BiPoly":
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in o.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == BiPoly.const(other).coeffs
        return NotImplemented

    def _monomials(self) -> list[tuple[tuple[int, int], int]]:
        # canonical order: total degree descending, then a-degree descending
        return sorted(self.coeffs.items(), key=lambda kv: (-sum(kv[0]), -kv[0][0]))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for (i, j), c in self._monomials():
            mag = abs(c)
            body = ""
            if i:
                body += "a" if i == 1 else f"a^{i}"
            if j:
                body += "b" if j == 1 else f"b^{j}"
            if mag != 1 or not body:
                body = f"{mag}{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self})"


_PADOVAN_INIT_SYM = (BiPoly.one(), BiPoly.zero(), BiPoly.a())
_PERRIN_INIT_SYM = (BiPoly.const(3), BiPoly.zero(), BiPoly.const(2))


def _extend(terms: list, a, b, count: int, m: int | None = None) -> list:
    """Extend `terms` in place to `count` terms of the bi-periodic step
    t_n = a t_{n-2} + t_{n-3} (even n), b t_{n-2} + t_{n-3} (odd n), over
    BiPoly (m None) or over ints reduced mod m."""
    while len(terms) < count:
        n = len(terms)
        t = (a if n % 2 == 0 else b) * terms[n - 2] + terms[n - 3]
        terms.append(t if m is None else t % m)
    return terms


def padovan_sym_terms(count: int) -> list[BiPoly]:
    """P_0 .. P_{count-1} as exact polynomials in a, b."""
    return _extend(list(_PADOVAN_INIT_SYM[:count]), BiPoly.a(), BiPoly.b(), count)


def perrin_sym_terms(count: int) -> list[BiPoly]:
    """R_0 .. R_{count-1} as exact polynomials in a, b."""
    return _extend(list(_PERRIN_INIT_SYM[:count]), BiPoly.a(), BiPoly.b(), count)


class SeqParams(namedtuple("SeqParams", "a b modulus")):
    """The coefficient pair (a, b) with a modulus m >= 2, stored reduced
    mod m (a twin-prime pair (p-2, p) keeps a = p-2 literally; b = p
    reduces to 0)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, modulus: int) -> "SeqParams":
        return super().__new__(cls, a % modulus, b % modulus, modulus)

    @classmethod
    def twin_prime(cls, p: int) -> "SeqParams":
        """Params (p-2, p) mod p, for the head p of a twin prime pair
        (unchecked)."""
        return cls(p - 2, p, modulus=p)


def padovan_mod(params: SeqParams, count: int) -> list[int]:
    """P_0 .. P_{count-1} mod m."""
    a, b, m = params
    return _extend([1, 0, a][:count], a, b, count, m)


def perrin_mod(params: SeqParams, count: int) -> list[int]:
    """R_0 .. R_{count-1} mod m."""
    a, b, m = params
    return _extend([3 % m, 0, 2 % m][:count], a, b, count, m)
