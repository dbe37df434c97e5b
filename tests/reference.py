"""Slow, independent references for the verifier's production oracle.

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
- `full_window_verdict`: a verdict from every hypothesis index of the
  scan, each read by its own step, the reference for the one-period
  verdict of `verifier.verify_case`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from padquat.fibonacci import FibProfile, entry_point, fib_pair
from padquat.quaternion import family_stream
from padquat.sequences import SeqParams, _extend, padovan_mod, perrin_mod
from padquat.verifier import (
    FAILS,
    FIB_FORMS,
    HOLDS,
    HOLDS_VACUOUSLY,
    NORM_REDUCTIONS,
    Counterexample,
    TheoremCase,
    TheoremVerdict,
    _reduce,
    _reduction_kind,
)


def pisano_by_candidates(p: int) -> int:
    """pi(p) for an odd prime p: it is z(p), 2 z(p) or 4 z(p), so the first
    of those lengths L with (F_L, F_{L+1}) = (0, 1) mod p."""
    z = entry_point(p)
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
    m = params._require_modulus()
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
    return math.lcm(
        seq_period(params, "perrin"), seq_period(params.swapped(), "perrin")
    )


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
        streams = [(s, perrin_mod(s, 3)) for s in (params, params.swapped())]
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


def full_window_verdict(case: TheoremCase, scan_multiplier: int) -> TheoremVerdict:
    """The verdict of `case` over scan_multiplier windows of 2 pi(p) that
    reads every hypothesis index k = j z(p) - 3 of the scan, stepping
    F_k .. F_{k+3} by r = F_{z+1} from one index to the next, and lists
    every disagreeing index; it uses no periodicity of the reads."""
    p = case.p
    z, pi = case.profile.entry_point, case.profile.pisano_period
    window = 2 * pi
    scan_limit = scan_multiplier * window
    hypothesis = range(2 * case.hypothesis_class + case.parity, scan_limit, 2 * z)
    r = fib_pair(z, p)[1]
    forms = FIB_FORMS[case.family]
    fibs = [2, p - 1, 1, 0]  # F_{-3} .. F_0
    reads = {}
    for m in hypothesis:
        fibs = [r * f % p for f in fibs]
        t = []
        for j in range(case.parity, case.parity + 4):
            a, b, c = forms[j % 2]
            t.append((a + b * fibs[j // 2] + c * fibs[j // 2 + 1]) % p)
        norm = sum(x * x for x in t) % p
        reads[m] = (fibs[2], norm, norm == 0 and any(t))
    observed = [m for m in hypothesis if reads[m][2]]
    predicted = [m for m in hypothesis if case.predicts(m)]

    if not hypothesis:
        classification = HOLDS_VACUOUSLY
    elif predicted == observed:
        if predicted or case.claims_invertibility:
            classification = HOLDS
        else:
            classification = HOLDS_VACUOUSLY
    else:
        classification = FAILS

    counterexamples = []
    if classification == FAILS:
        pred_set, obs_set = set(predicted), set(observed)
        red = NORM_REDUCTIONS[_reduction_kind(case)]
        for m in sorted(pred_set ^ obs_set):
            f2, norm, _ = reads[m]
            counterexamples.append(
                Counterexample(
                    index=m,
                    k=case.k_of(m),
                    norm=norm,
                    reduced=_reduce(red, f2, p),
                    predicted=m in pred_set,
                    observed=m in obs_set,
                )
            )

    return TheoremVerdict(
        case=case,
        scan_multiplier=scan_multiplier,
        window_modulus=window,
        scan_limit=scan_limit,
        predicted=tuple(sorted({m % window for m in predicted})),
        observed=tuple(sorted({m % window for m in observed})),
        classification=classification,
        counterexamples=tuple(counterexamples),
    )
