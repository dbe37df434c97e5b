"""Output checks for the benchmark, made apart from padquat.

Nothing here imports padquat.  The checks use their own prime sieve,
their own Fibonacci arithmetic (2x2 matrix powers and plain stepping),
their own run of the bi-periodic recurrence and their own norm oracle
for Q(-1,-1) mod p, where N(x + yi + zj + wk) = x^2 + y^2 + z^2 + w^2.
Every check reads the text the CLI printed and raises CheckFailed on the
first disagreement.  Each check returns the number of output items
(verdicts, profiles or symbolic terms) that it validated.

The streaming oracle keeps O(1) state per stream, so the checks do not
raise the peak resident memory that the benchmark reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re


class CheckFailed(Exception):
    """An operation's output disagrees with an independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# Claim table, as the padquat README lists it:
# claim id -> (family, parity of the index m, fixed prime or None, excluded primes)
CLAIMS = {
    "thm-padovan-even": ("QP", 0, None, ()),
    "thm-padovan-odd": ("QP", 1, None, ()),
    "thm-perrin-even": ("QR", 0, None, (181,)),
    "thm-perrin-odd": ("QR", 1, None, (7, 13)),
    "cor-7": ("QR", 1, 7, ()),
    "cor-13": ("QR", 1, 13, ()),
    "cor-181": ("QR", 0, 181, ()),
}

# The paper's Fibonacci-expressed norm reductions, which counterexamples
# report: under z(p) | k + 3, N vanishes with c2 f^2 + c1 f + c0, where
# f = F_{k+2} - 1 for QP and f = F_{k+1} for QR.  (family, parity) -> (c2, c1, c0)
REDUCTIONS = {
    ("QP", 0): (1, 0, 1),
    ("QP", 1): (3, 0, 1),
    ("QR", 0): (27, -8, 14),
    ("QR", 1): (63, 26, 52),
}


def applicable_claims(p: int) -> list[str]:
    return sorted(
        cid
        for cid, (_, _, fixed, excluded) in CLAIMS.items()
        if (fixed is None or fixed == p) and p not in excluded
    )


# ---------------------------------------------------------------- primes


def sieve(bound: int) -> bytearray:
    """flags[n] == 1 exactly when n <= bound is prime."""
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    return flags


def twin_heads(lo: int, hi: int) -> list[int]:
    """Every p in [lo, hi] with p and p - 2 prime and p >= 5."""
    flags = sieve(hi)
    return [p for p in range(max(lo, 5), hi + 1) if flags[p] and flags[p - 2]]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
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


# ------------------------------------------------------------- Fibonacci


def fib_pair(n: int, m: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) mod m from the matrix power [[1, 1], [1, 0]]^n."""
    # Q^n = [[F_{n+1}, F_n], [F_n, F_{n-1}]]; keep (F_{n+1}, F_n, F_{n-1})
    r0, r1, r2 = 1, 0, 1  # identity
    b0, b1, b2 = 1, 1, 0  # Q
    while n:
        if n & 1:
            r0, r1, r2 = (
                (r0 * b0 + r1 * b1) % m,
                (r0 * b1 + r1 * b2) % m,
                (r1 * b1 + r2 * b2) % m,
            )
        b0, b1, b2 = (
            (b0 * b0 + b1 * b1) % m,
            (b0 * b1 + b1 * b2) % m,
            (b1 * b1 + b2 * b2) % m,
        )
        n >>= 1
    return r1, r0


def euler_symbol(a: int, q: int) -> int:
    """The Legendre symbol (a/q) for an odd prime q, by Euler's criterion."""
    r = pow(a, (q - 1) // 2, q)
    return 1 if r == 1 else (0 if r == 0 else -1)


def legendre5(p: int) -> int:
    """(5/p) for an odd prime p."""
    return euler_symbol(5, p)


def entry_and_pisano(p: int) -> tuple[int, int]:
    """z(p) and pi(p) by stepping F_n mod p from (F_0, F_1) = (0, 1)."""
    a, b = 1, 1  # F_1, F_2
    n = 1
    z = 0
    while not (a == 0 and b == 1):
        if a == 0 and z == 0:
            z = n
        a, b = b, (a + b) % p
        n += 1
    return z or n, n


def entry_point_by_divisors(p: int) -> int:
    """z(p) as the least divisor d of p - (5/p) with F_d = 0 mod p."""
    z = p - legendre5(p)
    for q in prime_factors(z):
        while z % q == 0 and fib_pair(z // q, p)[0] == 0:
            z //= q
    return z


# -------------------------------------------------- bi-periodic recurrence
#
# t_n = a t_{n-2} + t_{n-3} for even n and b t_{n-2} + t_{n-3} for odd n.
# Padovan starts (1, 0, a), Perrin starts (3, 0, 2).  Twin-prime
# coefficients are (a, b) = (p - 2, p); the swapped stream uses (p, p - 2).


def _starts(p: int, kind: str, swapped: bool) -> tuple[tuple[int, int, int], int, int]:
    a, b = (p, p - 2) if swapped else (p - 2, p)
    a, b = a % p, b % p
    init = (1, 0, a) if kind == "padovan" else (3, 0, 2)
    return init, a, b


def min_period(p: int, kind: str, swapped: bool = False) -> int:
    """Least d > 0 with t_{n+d} = t_n mod p for every n.

    The parity-aligned return time L of the state (t_n, t_{n+1}, t_{n+2}),
    n even, is the least even period.  An odd period d would make 2d an
    even period, so L | 2d and d | L, which leaves d = L/2 as the only
    candidate below L.
    """
    (x0, x1, x2), a, b = _starts(p, kind, swapped)
    s0, s1, s2 = x0, x1, x2
    n = 0
    while True:
        x0, x1, x2 = x2, (b * x1 + x0) % p, (a * x2 + x1) % p
        n += 2
        if x0 == s0 and x1 == s1 and x2 == s2:
            break
    half = n // 2
    if half % 2 == 1 and _shifted_equal(p, kind, swapped, half):
        return half
    return n


def _shifted_equal(p: int, kind: str, swapped: bool, h: int) -> bool:
    """t_{i+h} == t_i for 0 <= i < h, by two streams in lockstep."""
    (x0, x1, x2), a, b = _starts(p, kind, swapped)
    y0, y1, y2 = x0, x1, x2
    for i in range(h):  # advance the second stream by h terms
        c = b if (i + 3) % 2 else a
        y0, y1, y2 = y1, y2, (c * y1 + y0) % p
    for i in range(h):
        if x0 != y0:
            return False
        c = b if (i + 3) % 2 else a
        x0, x1, x2 = x1, x2, (c * x1 + x0) % p
        c = b if (i + h + 3) % 2 else a
        y0, y1, y2 = y1, y2, (c * y1 + y0) % p
    return True


def family_window(p: int, family: str, pisano: int) -> int:
    """lcm(period of the quaternion coefficient stream, 2 pi(p)).

    The period is that of P for QP and lcm of the periods of R(a, b) and
    R(b, a) for QR.
    """
    if family == "QP":
        period = min_period(p, "padovan")
    else:
        period = math.lcm(min_period(p, "perrin"), min_period(p, "perrin", True))
    return math.lcm(period, 2 * pisano)


def family_elements(p: int, family: str, indices) -> dict[int, tuple[int, int, int, int]]:
    """Quaternion coefficients (x, y, z, w) at each wanted index m.

    QP_m = (P_m, P_{m+1}, P_{m+2}, P_{m+3}).  QR_m takes R(a, b) at the
    even offsets from m and R(b, a) at the odd ones when m is even, and
    the other way round when m is odd.  One streaming pass, O(1) state.
    """
    wanted = sorted(set(indices))
    out: dict[int, tuple[int, int, int, int]] = {}
    if not wanted:
        return out
    if family == "QP":
        (x0, x1, x2), a, b = _starts(p, "padovan", False)
        n = 0
        for m in wanted:
            while n < m:
                c = b if (n + 3) % 2 else a
                x0, x1, x2 = x1, x2, (c * x1 + x0) % p
                n += 1
            c = b if (n + 3) % 2 else a
            out[m] = (x0, x1, x2, (c * x1 + x0) % p)
        return out
    (u0, u1, u2), a, b = _starts(p, "perrin", False)
    (v0, v1, v2), _, _ = _starts(p, "perrin", True)
    # the swapped stream uses coefficients (b, a)
    n = 0
    for m in wanted:
        while n < m:
            odd = (n + 3) % 2
            u0, u1, u2 = u1, u2, ((b if odd else a) * u1 + u0) % p
            v0, v1, v2 = v1, v2, ((a if odd else b) * v1 + v0) % p
            n += 1
        odd = (n + 3) % 2
        u3 = ((b if odd else a) * u1 + u0) % p
        v3 = ((a if odd else b) * v1 + v0) % p
        out[m] = (u0, v1, u2, v3) if m % 2 == 0 else (v0, u1, v2, u3)
    return out


def norm(coeffs: tuple[int, int, int, int], p: int) -> int:
    return sum(c * c for c in coeffs) % p


def is_zero_divisor(coeffs: tuple[int, int, int, int], p: int) -> bool:
    return any(coeffs) and norm(coeffs, p) == 0


class PrimeOracle:
    """Everything the verdict checks need about one twin prime p."""

    def __init__(self, p: int):
        self.p = p
        self.z, self.pi = entry_and_pisano(p)
        self.hclass = (self.z - 3) % self.z
        self._windows: dict[str, int] = {}
        self._elements: dict[str, dict[int, tuple[int, int, int, int]]] = {}

    def window(self, family: str) -> int:
        if family not in self._windows:
            self._windows[family] = family_window(self.p, family, self.pi)
        return self._windows[family]

    def hypothesis_indices(self, parity: int, limit: int) -> list[int]:
        """m < limit with m = parity mod 2 and (m - parity)/2 = -3 mod z."""
        return list(range(2 * self.hclass + parity, limit, 2 * self.z))

    def elements(self, family: str, indices) -> dict[int, tuple[int, int, int, int]]:
        """Coefficients at indices reduced mod the family window."""
        w = self.window(family)
        cache = self._elements.setdefault(family, {})
        missing = {m % w for m in indices} - cache.keys()
        cache.update(family_elements(self.p, family, missing))
        return {m: cache[m % w] for m in indices}

    def observed(self, family: str, parity: int) -> list[int]:
        """Zero-divisor hypothesis indices, as classes mod the window."""
        hyp = self.hypothesis_indices(parity, self.window(family))
        elems = self.elements(family, hyp)
        return [m for m in hyp if is_zero_divisor(elems[m], self.p)]

    def predicted(self, claim_id: str) -> list[int]:
        """Hypothesis indices the claim calls zero divisors, as classes mod the window."""
        family, parity, _, _ = CLAIMS[claim_id]
        hyp = self.hypothesis_indices(parity, self.window(family))
        return [m for m in hyp if self.claim_predicts(claim_id, (m - parity) // 2)]

    def claim_predicts(self, claim_id: str, k: int) -> bool:
        """The claim's statement at k: the corollaries' fixed classes, or a
        side condition on p and the four candidate classes (j z - 3) mod pi,
        j = 1..4."""
        p = self.p
        if claim_id == "cor-7":
            return k % 16 in (4, 10)
        if claim_id == "cor-13":
            return False
        if claim_id == "cor-181":
            return k % 90 == 47
        side = {
            "thm-padovan-even": p % 4 == 1,
            "thm-padovan-odd": p % 3 == 1,
            # p = 1, 3 mod 8 with p a residue mod 181, or p = 5, 7 mod 8 with a non-residue
            "thm-perrin-even": euler_symbol(p, 181) == (1 if p % 8 in (1, 3) else -1),
            # the Jacobi symbol (p / 13*239) is +1
            "thm-perrin-odd": euler_symbol(p, 13) * euler_symbol(p, 239) == 1,
        }[claim_id]
        classes = {(j * self.z - 3) % self.pi for j in range(1, 5)}
        return side and k % self.pi in classes

    def reduced(self, family: str, parity: int, k: int) -> int:
        """The claimed norm reduction at k (see REDUCTIONS)."""
        c2, c1, c0 = REDUCTIONS[(family, parity)]
        f = fib_pair(k + 2, self.p)[0] - 1 if family == "QP" else fib_pair(k + 1, self.p)[0]
        return (c2 * f * f + c1 * f + c0) % self.p

    def verdict(self, claim_id: str, predicted: list[int], observed: list[int]) -> str:
        """The classification that follows from the two class lists."""
        family, parity, _, _ = CLAIMS[claim_id]
        if not self.hypothesis_indices(parity, self.window(family)):
            return "HOLDS_VACUOUSLY"
        if predicted != observed:
            return "FAILS"
        # cor-13 claims invertibility, which has content even with no zero divisor
        return "HOLDS" if predicted or claim_id == "cor-13" else "HOLDS_VACUOUSLY"


# ------------------------------------------------------- verdict checks


def _check_status(status: int, verdicts: list[str]) -> None:
    fails = any(v == "FAILS" for v in verdicts)
    _require(status == (2 if fails else 0),
             f"exit status {status} with {'a' if fails else 'no'} FAILS verdict")


def check_scan(bound: int, status: int, text: str) -> int:
    """`scan --upto bound --format csv`: returns the number of verdicts."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == [
        "prime", "case_id", "parity", "hypothesis_class", "predicted_count",
        "observed_count", "classification", "first_counterexample",
    ], "unexpected CSV header")
    body = rows[1:]
    keys = [(int(r[0]), r[1]) for r in body]
    expected = [(p, cid) for p in twin_heads(5, bound) for cid in applicable_claims(p)]
    _require(sorted(keys) == expected and len(set(keys)) == len(keys),
             "rows differ from twin primes x applicable claims")
    oracles: dict[int, PrimeOracle] = {}
    for prime, cid, parity, hclass, predicted, observed, verdict, first in body:
        p = int(prime)
        if p not in oracles:
            oracles[p] = PrimeOracle(p)
        oracle = oracles[p]
        family, par, _, _ = CLAIMS[cid]
        where = f"p={p} {cid}"
        _require(parity == ("even", "odd")[par], f"{where}: parity {parity}")
        _require(int(hclass) == oracle.hclass, f"{where}: hypothesis class {hclass}")
        obs = oracle.observed(family, par)
        pred = oracle.predicted(cid)
        _require(int(observed) == len(obs), f"{where}: observed_count {observed}")
        _require(int(predicted) == len(pred), f"{where}: predicted_count {predicted}")
        _require(verdict == oracle.verdict(cid, pred, obs), f"{where}: verdict {verdict!r}")
        # the first disagreeing index; every class is itself an index of the scan
        disagree = sorted(set(pred) ^ set(obs))
        _require(first == (str(disagree[0]) if disagree else ""),
                 f"{where}: first counterexample {first!r}")
    _check_status(status, [r[6] for r in body])
    return len(body)


def check_verify(p: int, status: int, text: str) -> int:
    """`verify --p p --format json`: returns the number of verdicts."""
    doc = json.loads(text)
    verdicts = doc["verdicts"]
    keys = sorted((v["case"]["p"], v["case"]["claim_id"]) for v in verdicts)
    _require(keys == [(p, cid) for cid in applicable_claims(p)],
             "verdicts differ from the applicable claims")
    oracle = PrimeOracle(p)
    for v in verdicts:
        case, scan = v["case"], v["scan"]
        cid = case["claim_id"]
        family, par, _, _ = CLAIMS[cid]
        where = f"p={p} {cid}"
        _require(case["family"] == family and case["parity"] == ("even", "odd")[par],
                 f"{where}: family or parity")
        _require((case["entry_point"], case["pisano_period"]) == (oracle.z, oracle.pi),
                 f"{where}: z, pi = {case['entry_point']}, {case['pisano_period']}")
        _require(case["hypothesis_class"] == oracle.hclass, f"{where}: hypothesis class")
        window = oracle.window(family)
        limit = 2 * window  # the default --scan-multiplier
        _require(scan["window_modulus"] == window and scan["scan_limit"] == limit,
                 f"{where}: window {scan['window_modulus']}, scan limit {scan['scan_limit']}")
        observed = oracle.observed(family, par)
        _require(v["observed_classes"] == observed, f"{where}: observed classes")
        _require(v["observed_count"] == len(observed), f"{where}: observed_count")
        expected = oracle.predicted(cid)
        _require(v["predicted_classes"] == expected, f"{where}: predicted classes")
        _require(v["predicted_count"] == len(expected), f"{where}: predicted_count")
        _require(v["classification"] == oracle.verdict(cid, expected, observed),
                 f"{where}: verdict {v['classification']!r}")
        predicted = set(expected)
        # every hypothesis index in the scan where prediction and oracle disagree
        obs = set(observed)
        hyp = oracle.hypothesis_indices(par, limit)
        disagree = [m for m in hyp if ((m % window) in predicted) != ((m % window) in obs)]
        cexs = v["counterexamples"]
        _require([c["index"] for c in cexs] == disagree, f"{where}: counterexample indices")
        elems = oracle.elements(family, disagree)
        for c in cexs:
            m = c["index"]
            _require(c["k"] == (m - par) // 2, f"{where}: k at {m}")
            _require(c["reduced"] == oracle.reduced(family, par, c["k"]),
                     f"{where}: reduced norm at {m}")
            _require(c["norm"] == norm(elems[m], p), f"{where}: norm at {m}")
            _require(c["observed"] == is_zero_divisor(elems[m], p), f"{where}: observed at {m}")
            _require(c["predicted"] == ((m % window) in predicted), f"{where}: predicted at {m}")
    _check_status(status, [v["classification"] for v in verdicts])
    return len(verdicts)


# ------------------------------------------------------ Fibonacci check

_RELATION = re.compile(r"pi\(p\) = (?:(\d)\*)?z\(p\) \(z (odd|= 0 mod 4|= 2 mod 4)\)")
_RATIO_BY_Z_MOD_4 = {"odd": 4, "= 0 mod 4": 2, "= 2 mod 4": 1}


def check_fib(p: int, status: int, text: str) -> int:
    """`fib --p p` (table format): returns 1, the number of profiles."""
    _require(status == 0, f"exit status {status}")
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    _require(int(fields["p"]) == p, "wrong p")
    z, pi = int(fields["entry_point"]), int(fields["pisano_period"])
    _require(z > 0 and fib_pair(z, p)[0] == 0, f"F_z != 0 mod p for z = {z}")
    for q in prime_factors(z):
        _require(fib_pair(z // q, p)[0] != 0, f"z = {z} is not minimal: F_(z/{q}) = 0")
    _require((p - legendre5(p)) % z == 0, f"z = {z} does not divide p - (5/p)")
    _require(pi > 0 and fib_pair(pi, p) == (0, 1), f"(F_pi, F_pi+1) != (0, 1) for pi = {pi}")
    for q in prime_factors(pi):
        _require(fib_pair(pi // q, p) != (0, 1), f"pi = {pi} is not minimal at pi/{q}")
    match = _RELATION.fullmatch(fields["relation"])
    _require(match is not None, f"relation line {fields['relation']!r}")
    ratio = int(match.group(1) or 1)
    _require(pi == ratio * z, f"relation says pi = {ratio} z, but pi/z = {pi / z}")
    z_mod_4 = "odd" if z % 2 else ("= 0 mod 4" if z % 4 == 0 else "= 2 mod 4")
    _require(match.group(2) == z_mod_4 and ratio == _RATIO_BY_Z_MOD_4[z_mod_4],
             f"relation {fields['relation']!r} for z = {z}")
    return 1


# ------------------------------------------------------ symbolic check

M61 = (1 << 61) - 1
# (a, b) pairs at which each printed polynomial is evaluated, mod M61
EVAL_POINTS = ((2, 3), (-5, 7), (123456789, 987654321))
_MONOMIAL = re.compile(r"(\d*)(?:a(?:\^(\d+))?)?(?:b(?:\^(\d+))?)?")


def parse_poly(text: str) -> list[tuple[int, int, int]]:
    """'3a^2b - ab + 2' -> [(3, 2, 1), (-1, 1, 1), (2, 0, 0)]."""
    tokens = text.split(" ")
    signs = ["+"] + tokens[1::2]
    bodies = tokens[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = "-", bodies[0][1:]
    _require(len(signs) == len(bodies) and all(s in "+-" for s in signs),
             f"malformed polynomial {text[:60]!r}")
    terms = []
    for sign, body in zip(signs, bodies):
        match = _MONOMIAL.fullmatch(body)
        _require(match is not None and body != "", f"malformed monomial {body!r}")
        digits, ai, bj = match.groups()
        has_a, has_b = "a" in body, "b" in body
        coeff = int(digits) if digits else 1
        i = int(ai) if ai else int(has_a)
        j = int(bj) if bj else int(has_b)
        terms.append((-coeff if sign == "-" else coeff, i, j))
    return terms


def recurrence_values(kind: str, count: int, a: int, b: int, mod: int | None) -> list[int]:
    """t_0 .. t_{count-1} at integer (a, b), reduced mod `mod` if given."""
    t = [1, 0, a] if kind == "padovan" else [3, 0, 2]
    while len(t) < count:
        n = len(t)
        v = (a if n % 2 == 0 else b) * t[n - 2] + t[n - 3]
        t.append(v % mod if mod else v)
    return [v % mod if mod else v for v in t[:count]]


def classical(kind: str, count: int) -> list[int]:
    """Classical Padovan (OEIS A000931 from its index 3) or Perrin numbers."""
    if kind == "padovan":
        t = [1, 0, 0]  # A000931(0..2)
        while len(t) < count + 3:
            t.append(t[-2] + t[-3])
        return t[3 : count + 3]
    t = [3, 0, 2]
    while len(t) < count:
        t.append(t[-2] + t[-3])
    return t[:count]


def check_seq_symbolic(count: int, status: int, text: str) -> int:
    """`seq --symbolic --upto count --format csv`: returns the number of terms."""
    _require(status == 0, f"exit status {status}")
    lines = text.splitlines()
    _require(lines[0] == "n,padovan,perrin" and len(lines) == count + 1,
             "unexpected header or row count")
    kinds = ("padovan", "perrin")
    expect = {
        kind: (
            classical(kind, count),
            [recurrence_values(kind, count, a % M61, b % M61, M61) for a, b in EVAL_POINTS],
        )
        for kind in kinds
    }
    maxdeg = count + 2
    powers = [
        ([pow(a, i, M61) for i in range(maxdeg)], [pow(b, j, M61) for j in range(maxdeg)])
        for a, b in EVAL_POINTS
    ]
    for n, line in enumerate(lines[1:]):
        fields = line.split(",")
        _require(len(fields) == 3 and fields[0] == str(n), f"row {n}: {line[:60]!r}")
        for kind, poly_text in zip(kinds, fields[1:]):
            terms = parse_poly(poly_text)
            at_one, at_points = expect[kind]
            _require(sum(c for c, _, _ in terms) == at_one[n],
                     f"{kind}_{n} at a = b = 1 is not the classical number")
            for k, (apow, bpow) in enumerate(powers):
                value = sum(c * apow[i] * bpow[j] for c, i, j in terms) % M61
                _require(value == at_points[k][n],
                         f"{kind}_{n} differs from the recurrence at {EVAL_POINTS[k]}")
    return 2 * count
