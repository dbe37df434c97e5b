"""Slow, independent references for the verifier's production oracle, and
the number theory only the tests use (`primes_upto`, `prime_factors`,
`sqrt_mod`, `solve_quadratic`, `reduced_norm_value` from fast doubling,
`satisfies_hypothesis`, the per-index predicate `predicts` and the
symbolic Perrin-from-Padovan check `perrin_padovan_identity`).  Each
theorem's side condition and excluded primes are the paper's
(`paper.THEOREM_STATEMENTS`, with `paper.legendre` by Euler's criterion),
not the ones `padquat.verifier` derives from the norm reductions.

- `sorted_case_ids`: the claim ids that apply at p, sorted out of
  `CLAIMS` at every call, the reference for the claim table that
  `verifier.applicable_case_ids` reads;
- `entry_pair_by_fib_pair`: z(p) and (F_z, F_{z+1}) by trial division
  and a fast-doubling pair at every order test, the reference for
  `fibonacci._entry_pair`, which tests a split prime by a power of
  -phi^2 and builds its pair from Binet;
- `fib_by_matrix`: F_n mod m from a power of the Fibonacci matrix, apart
  from fast doubling, the reference for where the zeros fall that
  `fibonacci._entry_pair` reads from p mod 4;
- `pisano_by_candidates`: pi(p) as the first of z, 2z, 4z at which the
  pair (F_L, F_{L+1}) returns to (0, 1), the reference for the order of
  r = F_{z+1} that `FibProfile.of` reads;
- `norm_oracle`: every quaternion norm of a family over the whole integer
  coefficient stream, one linear pass;
- `family_period` and `seq_period`: exact stream periods by linear scan,
  the reference for the window that `verifier` certifies;
- `matrix_jump_oracle`: each recurrence stream stepped through the
  two-step 3x3 map with general (a, b), so it relies on none of the
  twin-prime closed forms that the production oracle reads;
- `scan_record`: the `verify --format json` record from a reference's
  reads of every hypothesis index of the scan, asking `predicts` at every
  index, and `full_window_verdict`, its reads each by its own step: the
  reference for `verifier.decide_prime` and `verifier.verdict_record`, and
  through `verdict_row` for the rows that `scan` prints;
- `closed_form_rows`: the `scan` rows from the paper's side conditions,
  z(p) and pi(p)/z(p) alone, with no norm read, outside the primes 5, 7
  and 13 where a hypothesis-index zero divisor exists;
- `twin_primes_by_comprehension`: twin pairs by testing both sieve flags
  at every n, the reference for `modular.twin_primes_upto`;
- `fib_form_rows` and `hypothesis_row`: each family's parity rows
  (A, B, C) solved from three terms of its integer stream
  (`integer_family_stream`) at any (a, b) and Perrin seed, and a row's
  terms and norm quadratic at k = j z(p) - 3, the references for
  `verifier.FIB_FORMS` and `verifier.CASE_ROWS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from paper import (
    PERRIN_EVEN_ADJUSTED,
    THEOREM_STATEMENTS,
    PrimeModulus,
    family_stream,
    legendre,
    swap,
)

from padquat.fibonacci import FibProfile, fib_pair
from padquat.modular import _sieve
from padquat.sequences import (
    SeqParams,
    _extend,
    padovan_mod,
    padovan_sym_terms,
    perrin_mod,
    perrin_sym_terms,
)
from padquat.verifier import (
    CASE_ROWS,
    CLAIMS,
    FAILS,
    FIB_FORMS,
    HOLDS,
    HOLDS_VACUOUSLY,
    NORM_REDUCTIONS,
    _reduce,
)


class HypothesisViolated(ValueError):
    """Raised when an index breaks a claim's hypothesis congruence."""


def predicted_classes(claim_id: str, profile: FibProfile) -> tuple[int, ...]:
    """The k classes mod pi(p) that claim `claim_id` predicts at
    p = profile.p: a corollary's fixed classes, else the candidate classes
    {(j z(p) - 3) mod pi(p) : j = 1..4} where the paper's side condition
    (`THEOREM_STATEMENTS`) holds."""
    claim = CLAIMS[claim_id]
    if claim.classes is not None:
        return claim.classes
    if not THEOREM_STATEMENTS[claim_id].condition(profile.p):
        return ()
    z, pi = profile.entry_point, profile.pisano_period
    return tuple(sorted({(j * z - 3) % pi for j in range(1, 5)}))


def predicts(claim_id: str, profile: FibProfile, m: int) -> bool:
    """Whether claim `claim_id` says quaternion m is a zero divisor at
    p = profile.p.

    Rejects indices of the wrong parity.  The z(p)-hypothesis congruence
    on k is not checked, so callers may probe the class condition at any k.
    """
    if m % 2 != CLAIMS[claim_id].parity:
        raise HypothesisViolated(f"index {m} has the wrong parity for this claim")
    return m // 2 % profile.pisano_period in predicted_classes(claim_id, profile)


def sorted_case_ids(p: int) -> list[str]:
    """Claim ids that apply to p, in canonical (sorted) order: a corollary
    at its prime, a theorem wherever the paper does not exclude p."""
    return sorted(
        cid
        for cid, claim in CLAIMS.items()
        if claim.prime == p
        or (claim.prime is None and p not in THEOREM_STATEMENTS[cid].excluded)
    )


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    return [i for i, flag in enumerate(_sieve(bound)) if flag]


def twin_primes_by_comprehension(bound: int) -> list[tuple[int, int]]:
    """Twin prime pairs (p-2, p) with 5 <= p <= bound, testing both sieve
    flags at every p."""
    sieve = _sieve(bound)
    return [(p - 2, p) for p in range(5, bound + 1) if sieve[p] and sieve[p - 2]]


def prime_factors(n: int) -> set[int]:
    """The distinct prime factors of |n|, by trial division."""
    n, q, out = abs(n), 2, set()
    while q * q <= n:
        while n % q == 0:
            out.add(q)
            n //= q
        q += 1 if q == 2 else 2
    return out | ({n} if n > 1 else set())


class LeadingCoefficientNotInvertible(ValueError):
    """Raised when a quadratic congruence has p | c2."""


def sqrt_mod(a: int, p: int) -> tuple[int, int] | None:
    """Square roots of a mod the odd prime p, or None when a is a non-residue.

    Returns the unordered pair {r, p-r} with r <= p-r; a = 0 gives (0, 0).
    Tonelli-Shanks.
    """
    a %= p
    if a == 0:
        return (0, 0)
    if legendre(a, p) == -1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
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
    return (min(r, p - r), max(r, p - r))


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
    pair = sqrt_mod(q.discriminant, p)  # None exactly when (disc/p) = -1
    if pair is None:
        return QuadSolution((), -1)
    inv = pow(2 * q.c2, -1, p)
    roots = sorted({(y - q.c1) * inv % p for y in pair})
    return QuadSolution(tuple(roots), legendre(q.discriminant, p))


_REDUCTIONS_BY_KIND = {**NORM_REDUCTIONS, "perrin-even-adjusted": PERRIN_EVEN_ADJUSTED}


def reduced_norm_value(kind: str, k: int, p: int) -> int:
    """The Fibonacci-expressed norm quadratic at k, reduced mod p.

    Requires the hypothesis z(p) | (k+3); raises HypothesisViolated
    otherwise, since the rewriting is only valid there.
    """
    red = _REDUCTIONS_BY_KIND.get(kind)
    if red is None:
        raise ValueError(f"unknown reduction kind {kind!r}")
    z = FibProfile.of(p).entry_point
    if (k + 3) % z != 0:
        raise HypothesisViolated(f"k={k} violates z({p}) | k+3 (z = {z})")
    return _reduce(red, fib_pair(k + 2, p)[0], p)


def satisfies_hypothesis(claim_id: str, profile: FibProfile, m: int) -> bool:
    """Whether m has the parity of claim `claim_id` and k = (m - parity)/2
    lies in the hypothesis class z(p) - 3 mod z(p), p = profile.p."""
    if m % 2 != CLAIMS[claim_id].parity:
        return False
    z = profile.entry_point
    return m // 2 % z == z - 3


def perrin_padovan_identity(n: int) -> bool:
    """Exact symbolic check of the Perrin-from-Padovan relation at index n.

    R_n(a,b) = 3 P_{n-3} + 2 P_{n-2}, taken at (a,b) for even n and at
    (b,a) for odd n.  Fully symbolic, no evaluation involved.
    """
    if n < 3:
        raise ValueError(f"the relation needs n >= 3, got {n}")
    pad = padovan_sym_terms(n)
    lhs = perrin_sym_terms(n + 1)[n]
    rhs = 3 * pad[n - 3] + 2 * pad[n - 2]
    if n % 2 == 1:
        rhs = swap(rhs)
    return lhs == rhs


def entry_pair_by_fib_pair(p: int) -> tuple[int, tuple[int, int]]:
    """z(p) and (F_z, F_{z+1}) mod p for an odd prime p, by order reduction:
    divide each prime factor out of p - (5/p) while the quotient still
    indexes a zero, testing every quotient by its fast-doubling pair."""
    z, pair = p - legendre(5, p), None
    for q in prime_factors(z):
        while z % q == 0 and (below := fib_pair(z // q, p))[0] == 0:
            z, pair = z // q, below
    return z, pair or fib_pair(z, p)


def fib_by_matrix(n: int, m: int) -> int:
    """F_n mod m, the off-diagonal entry of Q^n for Q = ((1, 1), (1, 0)),
    by repeated squaring.  The powers of Q are symmetric and commute, so
    each is kept as (top-left, off-diagonal, bottom-right)."""
    a, b, c = 1, 0, 1  # Q^0
    x, y, w = 1, 1, 0  # Q^(2^i)
    while n:
        if n & 1:
            a, b, c = (a * x + b * y) % m, (a * y + b * w) % m, (b * y + c * w) % m
        n >>= 1
        x, y, w = (x * x + y * y) % m, (x * y + y * w) % m, (y * y + w * w) % m
    return b


def pisano_by_candidates(p: int) -> int:
    """pi(p) for an odd prime p: it is z(p), 2 z(p) or 4 z(p), so the first
    of those lengths L with (F_L, F_{L+1}) = (0, 1) mod p."""
    z = FibProfile.of(p).entry_point
    for length in (z, 2 * z, 4 * z):
        if fib_pair(length, p) == (0, 1):
            return length
    raise AssertionError(f"no Pisano period among z, 2z, 4z for p={p}")


def norm_oracle(
    params: SeqParams, family: str, scan_limit: int
) -> tuple[list[int], set[int]]:
    """Norms and zero divisors of the quaternions m < scan_limit, in one pass.

    In Q(-1,-1) the norm of t_m + t_{m+1} i + t_{m+2} j + t_{m+3} k is the
    sum of the four squares; it is computed on the plain int coefficient
    stream.  A zero divisor is a nonzero quaternion of norm 0 (mod p).
    This linear scan is deliberately independent of the claim table.
    """
    p = params.modulus
    t = family_stream(params, family, max(scan_limit, 0) + 3)
    sq = [x * x for x in t]
    norms = [(w + x + y + z) % p for w, x, y, z in zip(sq, sq[1:], sq[2:], sq[3:])]
    zero_divisors = {m for m, n in enumerate(norms) if n == 0 and any(t[m : m + 4])}
    return norms, zero_divisors


def seq_period(params: SeqParams, kind: str) -> int:
    """Exact minimal period of the modular sequence.

    The order-3 step has trailing coefficient 1, hence is invertible over
    Z_m and the sequence is purely periodic (no preperiod).  The scan first
    finds the recurrence of the initial parity-tagged state, which happens
    at an even offset, then minimizes over divisors so that a sequence
    insensitive to the parity alternation reports its true (possibly odd)
    period.
    """
    if kind not in ("padovan", "perrin"):
        raise ValueError(f"kind must be 'padovan' or 'perrin', got {kind!r}")
    m = params.modulus
    gen = padovan_mod(params, 8) if kind == "padovan" else perrin_mod(params, 8)
    init = tuple(gen[:3])
    limit = 2 * m**3 + 4  # parity-tagged state space bound
    n = 2
    while n <= limit:
        _extend(gen, params.a, params.b, n + 3, m)
        if tuple(gen[n : n + 3]) == init:
            break
        n += 2
    else:
        raise AssertionError("period scan exceeded the state-space bound")
    aligned = n
    _extend(gen, params.a, params.b, 2 * aligned, m)
    for d in sorted(d for d in range(1, aligned + 1) if aligned % d == 0):
        if all(gen[i + d] == gen[i] for i in range(aligned)):
            return d
    return aligned


@lru_cache(maxsize=None)
def family_period(params: SeqParams, family: str) -> int:
    """A period of the full quaternion coefficient stream, by linear scan."""
    if family == "QP":
        return seq_period(params, "padovan")
    params_ba = SeqParams(params.b, params.a, modulus=params.modulus)
    return math.lcm(seq_period(params, "perrin"), seq_period(params_ba, "perrin"))


Matrix = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]


def pair_map(a: int, b: int) -> Matrix:
    """Two steps of the recurrence as one 3x3 map: M (t_n, t_{n+1}, t_{n+2})
    = (t_{n+2}, t_{n+3}, t_{n+4}) for even n.  det M = 1, so M is invertible."""
    return ((0, 0, 1), (1, b, 0), (0, 1, a))


def mat_vec(mat: Matrix, v: Sequence[int], m: int) -> tuple[int, int, int]:
    """mat * v over Z_m."""
    x, y, z = v
    return tuple((r0 * x + r1 * y + r2 * z) % m for r0, r1, r2 in mat)


def mat_mul(x: Matrix, y: Matrix, m: int) -> Matrix:
    """x * y over Z_m, for 3x3 matrices."""
    (a, b, c), (d, e, f), (g, h, i) = y
    return tuple(
        ((r0 * a + r1 * d + r2 * g) % m,
         (r0 * b + r1 * e + r2 * h) % m,
         (r0 * c + r1 * f + r2 * i) % m)
        for r0, r1, r2 in x
    )


def mat_pow(mat: Matrix, e: int, m: int) -> Matrix:
    """mat^e over Z_m by repeated squaring, O(log e) products."""
    out = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    while e:
        if e & 1:
            out = mat_mul(out, mat, m)
        e >>= 1
        if e:
            mat = mat_mul(mat, mat, m)
    return out


def matrix_jump_oracle(
    params: SeqParams, family: str, profile: FibProfile, indices: range
) -> tuple[dict[int, int], set[int]]:
    """The norms and zero divisors at `indices` by 3x3 matrix powers.

    Each recurrence stream of the family (Padovan for QP; Perrin at (a, b)
    and at (b, a) for QR) is carried as its state (t_n, t_{n+1}, t_{n+2})
    at n = m - parity: it starts at M^{k0} s0, k0 = n/2 for the first
    index, and advances by M^{z(p)}, where M is `pair_map`; t_n .. t_{n+4}
    hold quaternion m.  Raises AssertionError unless M^{pi(p)} fixes every
    stream's initial state s0, that is unless 2 pi(p) is a period of the
    family's stream.
    """
    p = params.modulus
    z, pi = profile.entry_point, profile.pisano_period
    k0, parity = divmod(indices.start, 2)
    if indices.step != 2 * z or k0 >= z:
        raise ValueError("indices must start below 2 z(p) and step by 2 z(p)")
    if family == "QP":
        streams = [(params, padovan_mod(params, 3))]
    else:
        params_ba = SeqParams(params.b, params.a, modulus=params.modulus)
        streams = [(s, perrin_mod(s, 3)) for s in (params, params_ba)]
    windows = []  # per stream and index m, the terms t_n .. t_{n+4}, n = m - parity
    for s, init in streams:
        mat = pair_map(s.a, s.b)
        start = mat_pow(mat, k0, p)
        step = mat_mul(start, mat_pow(mat, z - k0, p), p)  # M^z
        states = [mat_vec(start, init, p)]
        while len(states) < max(len(indices), pi // z + 1):
            states.append(mat_vec(step, states[-1], p))
        # M is invertible, so M^{k0 + pi} s0 = M^{k0} s0 iff M^{pi} s0 = s0
        if states[pi // z] != states[0]:
            raise AssertionError(f"2*pi({p}) is not a period of the {family} stream")
        windows.append([v + mat_vec(mat, v, p)[1:] for v in states])
    norms: dict[int, int] = {}
    zero_divisors: set[int] = set()
    for i, m in enumerate(indices):
        # QR reads Perrin(a, b) at even stream positions and Perrin(b, a) at odd ones
        t = [windows[j % len(windows)][i][j] for j in range(parity, parity + 4)]
        norms[m] = sum(x * x for x in t) % p
        if norms[m] == 0 and any(t):
            zero_divisors.add(m)
    return norms, zero_divisors


# The windows of 2 pi(p) that a `verify --format json` record covers, stated
# here apart from `verifier.SCAN_WINDOWS`
WINDOWS = 2


def scan_record(
    claim_id: str, profile: FibProfile, window: int, read, windows: int = WINDOWS
) -> dict:
    """The `verify --format json` record of claim `claim_id` at p = profile.p
    over `windows` windows of `window`, from one reference's reads:
    `read(hypothesis)` maps every hypothesis index m of the scan to its norm,
    whether it is a zero divisor, and F_{k+2} mod p, k = floor(m/2).  It
    asks `predicts` at every index and lists every disagreeing index."""
    claim, p, z = CLAIMS[claim_id], profile.p, profile.entry_point
    scan_limit = windows * window
    hypothesis = range(2 * (z - 3) + claim.parity, scan_limit, 2 * z)
    reads = read(hypothesis)
    observed = [m for m in hypothesis if reads[m][1]]
    predicted = [m for m in hypothesis if predicts(claim_id, profile, m)]

    if not hypothesis:
        classification = HOLDS_VACUOUSLY
    elif predicted == observed:
        if predicted or claim.classes == ():  # an invertibility claim
            classification = HOLDS
        else:
            classification = HOLDS_VACUOUSLY
    else:
        classification = FAILS

    counterexamples = []
    if classification == FAILS:
        red = CASE_ROWS[claim.family, claim.parity][1]
        for m in sorted(set(predicted) ^ set(observed)):
            norm, _, f2 = reads[m]
            counterexamples.append({
                "index": m, "k": m // 2, "norm": norm, "reduced": _reduce(red, f2, p),
                "predicted": m in predicted, "observed": m in observed,
            })

    predicted_classes = sorted({m % window for m in predicted})
    observed_classes = sorted({m % window for m in observed})
    return {
        "case": {
            "claim_id": claim_id, "p": p, "family": claim.family,
            "parity": "even" if claim.parity == 0 else "odd",
            "entry_point": z, "pisano_period": profile.pisano_period, "hypothesis_class": z - 3,
        },
        "scan": {"multiplier": windows, "window_modulus": window, "scan_limit": scan_limit},
        "predicted_classes": predicted_classes,
        "observed_classes": observed_classes,
        "predicted_count": len(predicted_classes),
        "observed_count": len(observed_classes),
        "classification": classification,
        "counterexamples": counterexamples,
    }


def full_window_verdict(claim_id: str, profile: FibProfile, windows: int = WINDOWS) -> dict:
    """The `scan_record` of claim `claim_id` at p = profile.p over `windows`
    windows of 2 pi(p), reading every hypothesis index k = j z(p) - 3 of the
    scan by stepping F_k .. F_{k+3} by r = F_{z+1} from one index to the
    next; it uses no periodicity of the reads."""
    claim, p, z = CLAIMS[claim_id], profile.p, profile.entry_point
    r = fib_pair(z, p)[1]
    forms = FIB_FORMS[claim.family]

    def step(hypothesis):
        fibs = [2, p - 1, 1, 0]  # F_{-3} .. F_0
        reads = {}
        for m in hypothesis:
            fibs = [r * f % p for f in fibs]
            t = []
            for j in range(claim.parity, claim.parity + 4):
                a, b, c = forms[j % 2]
                t.append((a + b * fibs[j // 2] + c * fibs[j // 2 + 1]) % p)
            norm = sum(x * x for x in t) % p
            reads[m] = (norm, norm == 0 and any(t), fibs[2])
        return reads

    return scan_record(claim_id, profile, 2 * profile.pisano_period, step, windows)


def verdict_row(record: dict) -> list[str]:
    """The `scan` report row of a `verify --format json` record, as strings,
    as `csv` reads it."""
    case, counterexamples = record["case"], record["counterexamples"]
    return [str(x) for x in (
        case["p"], case["claim_id"], case["parity"], case["hypothesis_class"],
        record["predicted_count"], record["observed_count"], record["classification"],
        counterexamples[0]["index"] if counterexamples else "",
    )]


# The twin primes with a zero divisor at some hypothesis index: the only
# prime factors of the row norms N(1), N(-1) and N(i) N(-i) that head a
# twin pair (tests/test_exceptional.py)
EXCEPTIONAL_PRIMES = (5, 7, 13)


def closed_form_rows(bound: int) -> list[list[str]]:
    """The `scan --upto bound` rows, as strings, from the paper's side
    conditions, z(p) and pi(p)/z(p) alone.  Outside `EXCEPTIONAL_PRIMES` no
    hypothesis index holds a zero divisor, so a claim FAILS exactly when it
    predicts one of the first window's hypothesis classes k = j z(p) - 3 <
    pi(p), first at m = 2 k + parity for the least; else it HOLDS as an
    invertibility claim or HOLDS_VACUOUSLY.  The exceptional rows come from
    `full_window_verdict`."""
    rows = []
    for _, p in twin_primes_by_comprehension(bound):
        profile = FibProfile.of(p)
        for cid in sorted_case_ids(p):
            if p in EXCEPTIONAL_PRIMES:
                rows.append(verdict_row(full_window_verdict(cid, profile)))
                continue
            claim, z = CLAIMS[cid], profile.entry_point
            hypothesis = range(z - 3, profile.pisano_period, z)
            if claim.classes is None:
                predicted = list(hypothesis) if THEOREM_STATEMENTS[cid].condition(p) else []
            else:
                predicted = [k for k in hypothesis if k in claim.classes]
            if predicted:
                classification, first = FAILS, 2 * predicted[0] + claim.parity
            else:
                classification, first = HOLDS if claim.classes == () else HOLDS_VACUOUSLY, ""
            rows.append([str(x) for x in (
                p, cid, "odd" if claim.parity else "even", z - 3, len(predicted), 0,
                classification, first)])
    return rows


def integer_stream(a: int, b: int, init: Sequence[int], count: int) -> list[int]:
    """The bi-periodic recurrence over Z from `init`, no modulus: t_n =
    a t_{n-2} + t_{n-3} at even n and b t_{n-2} + t_{n-3} at odd n."""
    t = list(init)
    while len(t) < count:
        n = len(t)
        t.append((a if n % 2 == 0 else b) * t[n - 2] + t[n - 3])
    return t


def integer_family_stream(a: int, b: int, family: str, count: int,
                          seed: Sequence[int] = (3, 0, 2)) -> list[int]:
    """t_0 .. t_{count-1} of `family` over Z at coefficients (a, b): P from
    (1, 0, a) for QP; for QR, R from `seed` (the Perrin seed (3, 0, 2) by
    default) at (a, b) at even positions and at (b, a) at odd ones."""
    if family == "QP":
        return integer_stream(a, b, (1, 0, a), count)
    even, odd = integer_stream(a, b, seed, count), integer_stream(b, a, seed, count)
    return [t if n % 2 == 0 else s for n, (t, s) in enumerate(zip(even, odd))]


def _det3(m: Sequence[Sequence[int]]) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def fib_form_rows(a: int, b: int, family: str,
                  seed: Sequence[int] = (3, 0, 2)) -> tuple[tuple[int, int, int], ...]:
    """The rows (A, B, C) for r = 0 and r = 1 with t_{2k+r} = (-1)^k (A +
    B F_k + C F_{k+1}) for `family`'s integer stream at (a, b), R seeded
    with `seed`, solved by Cramer's rule from k = 0, 1, 2.  Three terms fix
    the row for every k where the parity subsequences satisfy
    e_k = -2 e_{k-1} + e_{k-3}, as at (a, b) = (-2, 0) and (0, -2); the
    caller checks that they do."""
    t = integer_family_stream(a, b, family, 6, seed)
    fib = (0, 1, 1, 2)
    basis = [((-1) ** k, (-1) ** k * fib[k], (-1) ** k * fib[k + 1]) for k in range(3)]
    det = _det3(basis)
    rows = []
    for r in (0, 1):
        terms = t[r::2]  # t_r, t_{r+2}, t_{r+4}
        row = []
        for col in range(3):
            m = [[terms[k] if c == col else basis[k][c] for c in range(3)] for k in range(3)]
            x = Fraction(_det3(m), det)
            assert x.denominator == 1, (family, r, x)
            row.append(int(x))
        rows.append(tuple(row))
    return tuple(rows)


def hypothesis_row(rows: Sequence[Sequence[int]], parity: int) -> tuple:
    """(terms, (c0, c1, c2)) of quaternion m = 2k + parity at k = j z(p) - 3
    from its family's `rows`: each term t_{m+i} = +-(A + D R) as (A, D) with
    R = r^j, and the norm sum t^2 = c0 + c1 R + c2 R^2 by interpolation at
    R = 0, 1, -1.  There Q^{jz} = R I, so F_{k+n} = R F_{n-3}, with
    F_{-3} .. F_0 stepped back from F_1 = 1, F_0 = 0."""
    back = [1, 0]  # F_1, F_0, F_{-1}, ...: F_{n-2} = F_n - F_{n-1}
    while len(back) < 5:
        back.append(back[-2] - back[-1])
    f = back[:0:-1]  # F_{-3} .. F_0
    terms = []
    for i in range(parity, parity + 4):
        q, r = divmod(i, 2)  # t_{2(k+q)+r}, up to the sign (-1)^(k+q)
        a, b, c = rows[r]
        terms.append((a, b * f[q] + c * f[q + 1]))
    n0, n1, n_1 = (sum((a + d * x) ** 2 for a, d in terms) for x in (0, 1, -1))
    return tuple(terms), (n0, (n1 - n_1) // 2, (n1 + n_1) // 2 - n0)
