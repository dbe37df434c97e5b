"""The matrix jump oracle: an independent reference for `verifier.jump_oracle`.

It steps each recurrence stream of a family through the two-step 3x3 map
with general (a, b), so it relies on none of the twin-prime closed forms
that the production oracle reads.
"""

from __future__ import annotations

from typing import Sequence

from padquat.fibonacci import FibProfile
from padquat.sequences import SeqParams, padovan_mod, perrin_mod

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
    """`jump_oracle` by 3x3 matrix powers.

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
