"""Zero-divisor claim verification for twin-prime quaternion sequences.

Each claim predicts, for indices m satisfying the hypothesis congruence
(m/2 or (m-1)/2 congruent to -3 mod z(p)), exactly which quaternions
QP_m or QR_m are zero divisors in Q(-1,-1) over Z_p.  Every claim is one
row of the `CLAIMS` table.  The engine reads only the hypothesis indices
k = j z(p) - 3, where F_k .. F_{k+3} are r^j (2, -1, 1, 0) with
r = F_{z+1} mod p, through the Fibonacci closed forms of the coefficients
(`FIB_FORMS`).  As r^{pi/z} = 1, one period j = 1 .. pi(p)/z(p), the powers
of r that `FibProfile.of` certifies, decides every window.

There the norm of each (family, parity) row is an integer quadratic N(R)
in R = r^j (`CASE_ROWS`).  Cassini's identity with F_z = 0 gives
r^2 = (-1)^z, so R^4 = 1 and N(R) = 0 mod p needs p to divide the row's
resultant N(1) N(-1) N(i) N(-i).  `decide_prime` reads a row with
`jump_oracle` only at the primes that divide it (among twin primes 5, 7
and 13); elsewhere no hypothesis index is a zero divisor, and it decides
each claim from its prediction alone, as plain tuples: HOLDS,
HOLDS_VACUOUSLY or FAILS with the disagreeing indices.  `scan` and
csv/table `verify` print rows from those; `verdict_record` turns one into
the `verify --format json` record, every counterexample of the scan
included.  Nothing here checks its input: the CLI hands over twin primes
and the claim ids that apply at them.  The linear, matrix and full-window
references live in the tests.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .fibonacci import FibProfile


HOLDS = "HOLDS"
HOLDS_VACUOUSLY = "HOLDS_VACUOUSLY"
FAILS = "FAILS"


def perrin_even_side_condition(p: int) -> bool:
    """The split condition of the even-index Perrin claim: either
    p = 1,3 (mod 8) with p a residue mod 181, or p = 5,7 (mod 8) with p a
    non-residue mod 181.  Equivalent to (-8*181 / p) = +1 for p != 181.
    By Euler's criterion p is a residue mod the prime 181 exactly when
    p^90 = 1 (mod 181)."""
    return (pow(p, 90, 181) == 1) == (p % 8 in (1, 3))


class Claim(namedtuple("Claim", "family parity prime excluded side_condition classes",
                       defaults=(None, (), None, None))):
    """One zero-divisor claim: which quaternions it is about (family "QP"
    or "QR", parity of the quaternion index m), at which primes it applies
    (a corollary's only prime, or every prime but the excluded ones) and
    which k classes mod pi(p) it predicts.

    A theorem (classes None) predicts every hypothesis class j z(p) - 3,
    j = 1 .. pi(p)/z(p), at primes where its side condition holds and
    nothing elsewhere; a corollary about one prime predicts its fixed
    `classes`.
    A corollary predicting no class claims invertibility.
    """

    __slots__ = ()


CLAIMS = {
    "thm-padovan-even": Claim("QP", 0, side_condition=lambda p: p % 4 == 1),
    "thm-padovan-odd": Claim("QP", 1, side_condition=lambda p: p % 3 == 1),
    "thm-perrin-even": Claim(
        "QR", 0, excluded=(181,), side_condition=perrin_even_side_condition
    ),
    # (p/13) (p/239) = +1, each Legendre symbol by Euler's criterion
    "thm-perrin-odd": Claim(
        "QR", 1, excluded=(7, 13, 239),
        side_condition=lambda p: (pow(p, 6, 13) == 1) == (pow(p, 119, 239) == 1),
    ),
    "cor-7": Claim("QR", 1, prime=7, classes=(4, 10)),  # pi(7) = 16
    "cor-13": Claim("QR", 1, prime=13, classes=()),
    "cor-181": Claim("QR", 0, prime=181, classes=(47,)),  # pi(181) = 90
}

CASE_IDS = tuple(CLAIMS)


class NormReduction(namedtuple("NormReduction", "kind c2 c1 c0")):
    """A norm congruence rewritten as a quadratic in a Fibonacci value.

    Under the hypothesis z(p) | (k+3) the quaternion norm at index 2k (or
    2k+1) vanishes exactly when c2*f^2 + c1*f + c0 does, where f is
    F_{k+2} - 1 for the Padovan kinds and F_{k+1} for the Perrin kinds.
    """

    __slots__ = ()

    def value(self, f: int, p: int) -> int:
        return (self.c2 * f * f + self.c1 * f + self.c0) % p


NORM_REDUCTIONS = {
    "padovan-even": NormReduction("padovan-even", 1, 0, 1),
    "padovan-odd": NormReduction("padovan-odd", 3, 0, 1),
    "perrin-even": NormReduction("perrin-even", 27, -8, 14),
    "perrin-odd": NormReduction("perrin-odd", 63, 26, 52),
}

def _reduce(red: NormReduction, f2: int, p: int) -> int:
    """The quadratic of `red` at a hypothesis index, from F_{k+2} mod p.

    There F_{k+3} = 0, so F_{k+1} = -F_{k+2}: f is F_{k+2} - 1 for the
    Padovan kinds and -F_{k+2} for the Perrin kinds.
    """
    f = f2 - 1 if red.kind.startswith("padovan") else -f2
    return red.value(f % p, p)


# The claim ids that apply at each prime some claim names (7, 13, 181, 239),
# in canonical (sorted) order; key None holds those of every other prime.
_APPLICABLE_IDS = {
    q: tuple(sorted(cid for cid, claim in CLAIMS.items()
                    if claim.prime in (None, q) and q not in claim.excluded))
    for q in {None}.union(*((c.prime, *c.excluded) for c in CLAIMS.values()))
}


def applicable_case_ids(p: int) -> list[str]:
    """Claim ids that apply to twin prime p, in canonical (sorted) order."""
    return list(_APPLICABLE_IDS.get(p, _APPLICABLE_IDS[None]))


# Under (a, b) = (-2, 0) mod p the coefficient stream t of each family (P
# for QP; R(a, b) at even and R(b, a) at odd positions for QR) is, for k >= 0,
#   t_{2k+r} = (-1)^k (A + B F_k + C F_{k+1})
# with (A, B, C) the family's row for r = 0 and r = 1.  The parity
# subsequences of t and the three sequences (-1)^k, (-1)^k F_k, (-1)^k F_{k+1}
# all satisfy e_k = -2 e_{k-1} + e_{k-3}, so three initial terms fix a row.
FIB_FORMS = {
    "QP": ((-1, 1, 2), (1, -1, -1)),
    "QR": ((5, -5, -2), (1, -3, -1)),
}


def _jump_terms(family: str, parity: int) -> tuple[tuple[int, int], ...]:
    # t_{2k+i} is row i % 2 of FIB_FORMS at F_{k+i//2}, F_{k+i//2+1} up to the
    # sign (-1)^{k+i//2}, which changes neither a square nor whether a term
    # is 0; at k = j z(p) - 3, F_k .. F_{k+3} = r^j (2, -1, 1, 0)
    forms, f_back = FIB_FORMS[family], (2, -1, 1, 0)
    terms = []
    for i in range(parity, parity + 4):
        a, b, c = forms[i % 2]
        terms.append((a, b * f_back[i // 2] + c * f_back[i // 2 + 1]))
    return tuple(terms)


def _norm_quadratic(terms: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    # sum (A + D R)^2 = sum A^2 + 2 (sum A D) R + (sum D^2) R^2
    return (sum(a * a for a, _ in terms), 2 * sum(a * d for a, d in terms),
            sum(d * d for _, d in terms))


# (family, parity) -> (the terms t_m .. t_{m+3} of quaternion m = 2k + parity
# at k = j z(p) - 3, each (A, D) with t = A + D r^j up to sign; the norm
# reduction of the row's cases; the norm as the integer quadratic
# (c0, c1, c2) in R = r^j, N(R) = c0 + c1 R + c2 R^2, from those terms)
CASE_ROWS = {
    (family, parity): (_jump_terms(family, parity), NORM_REDUCTIONS[kind],
                       _norm_quadratic(_jump_terms(family, parity)))
    for family, parity, kind in (("QP", 0, "padovan-even"), ("QP", 1, "padovan-odd"),
                                 ("QR", 0, "perrin-even"), ("QR", 1, "perrin-odd"))
}


# (family, parity) -> the resultant of the row's norm N(R) and R^4 - 1,
# N(1) N(-1) N(i) N(-i) with N(i) N(-i) = (c0 - c2)^2 + c1^2: a hypothesis
# norm can vanish mod p only where p divides it
_ROW_RESULTANTS = {
    row: (c0 + c1 + c2) * (c0 - c1 + c2) * ((c0 - c2) ** 2 + c1 * c1)
    for row, (_, _, (c0, c1, c2)) in CASE_ROWS.items()
}

# claim id -> (family, parity, classes, side condition, row resultant): all
# that `decide_prime` reads of a claim, in one lookup
_CLAIM_READS = {
    cid: (c.family, c.parity, c.classes, c.side_condition, _ROW_RESULTANTS[c.family, c.parity])
    for cid, c in CLAIMS.items()
}


def jump_oracle(profile: FibProfile, family: str, parity: int) -> list[tuple[int, int, bool]]:
    """(F_{k+2}, norm, is zero divisor) mod p = profile.p for the quaternions
    m = 2k + parity of `family` at one period of the hypothesis indices
    k = j z(p) - 3, j = 1 .. pi(p)/z(p), without building the coefficient
    stream.

    There F_z = 0 makes Q^z = r I, so with R = r^j, the j-th of
    `profile.powers`, F_{k+2} = R and each term is affine in R
    (`CASE_ROWS`).  The norm is then the row's integer quadratic
    c0 + c1 R + c2 R^2 mod p; only where it vanishes are the terms read, to
    tell a zero divisor from the zero quaternion.  As r^{pi/z} = 1 the reads
    repeat with period pi(p)/z(p) in j.
    """
    p, (terms, _, (c0, c1, c2)) = profile.p, CASE_ROWS[family, parity]
    reads = []
    for power in profile.powers:
        norm = (c0 + (c1 + c2 * power) * power) % p
        reads.append((power, norm, norm == 0 and any((a + d * power) % p for a, d in terms)))
    return reads


def decide_prime(profile: FibProfile, case_ids: Iterable[str]) -> list[tuple]:
    """The decision of each claim of `case_ids` at p = profile.p, in order:
    (claim id, predicted, observed, disagreements, classification).

    Precondition, not checked: p heads a twin prime pair and each id is in
    `applicable_case_ids(p)`.  No two such claims share a (family, parity)
    row, as each corollary stands in for the theorem its prime excludes, so
    each row is read at most once.  A claim is decided over the first
    window's hypothesis indices k = j z(p) - 3 < pi(p): m = 2k + parity is
    predicted when k is one of its classes mod pi(p), and observed when the
    row's `jump_oracle` read finds a zero divisor there.  That read is taken
    only when p divides the row's resultant (`_CLAIM_READS`); otherwise
    R^4 = 1 leaves no zero norm and nothing is observed.  `predicted`,
    `observed` and `disagreements`, the indices where prediction and oracle
    differ, list m ascending.  FAILS when some index disagrees, else HOLDS
    when the comparison has content (nonempty sets, or an invertibility
    claim) and HOLDS_VACUOUSLY when nothing satisfies the claim.  Every
    window repeats the first, so the scan multiplier changes none of it.
    """
    p, z = profile.p, profile.entry_point
    # {(jz - 3) mod pi : j = 1..4} is this range, as pi = z ord(r), ord(r) <= 4
    hypothesis = range(z - 3, z * len(profile.powers), z)
    decisions = []
    for cid in case_ids:
        family, parity, classes, side_condition, resultant = _CLAIM_READS[cid]
        if classes is None:  # a theorem: every hypothesis class, if its side condition holds
            predicted = [2 * k + parity for k in hypothesis] if side_condition(p) else []
        else:
            predicted = [2 * k + parity for k in hypothesis if k in classes]
        if resultant % p:
            observed, disagreements = [], predicted
        else:
            reads = jump_oracle(profile, family, parity)
            observed = [2 * k + parity
                        for k, (_, _, zero) in zip(hypothesis, reads, strict=True) if zero]
            disagreements = sorted(set(predicted).symmetric_difference(observed))
        if disagreements:
            classification = FAILS
        elif predicted or classes == ():
            classification = HOLDS
        else:
            classification = HOLDS_VACUOUSLY
        decisions.append((cid, predicted, observed, disagreements, classification))
    return decisions


def verdict_record(profile: FibProfile, decision: tuple, multiplier: int) -> dict:
    """The `verify --format json` record of one `decide_prime` decision at
    p = profile.p, over `multiplier` windows of 2 pi(p).  The window
    lcm(sequence period, 2 pi(p)) is 2 pi(p): the profile certifies
    Q^pi = I, so 2 pi(p) is a period of every coefficient stream.  A
    decision with disagreements reads its row once with `jump_oracle`, for
    F_{k+2} and the norm at each disagreeing index m = 2k + parity, the
    read j = (k + 3)/z(p).  Each first-window disagreement recurs in window
    t = 0 .. multiplier-1 at index m + 2 pi t and k + pi t, with the same
    norm and reduced value; the counterexamples list every one, ascending."""
    claim_id, predicted, observed, disagreements, classification = decision
    claim, p, pi = CLAIMS[claim_id], profile.p, profile.pisano_period
    z, parity = profile.entry_point, claim.parity
    reduction = CASE_ROWS[claim.family, parity][1]
    reads = jump_oracle(profile, claim.family, parity) if disagreements else ()
    first_window = []
    for m in disagreements:
        k = (m - parity) // 2
        f2, norm, _ = reads[(k + 3) // z - 1]
        first_window.append((m, k, norm, _reduce(reduction, f2, p), m in predicted))
    return {
        "case": {
            "claim_id": claim_id,
            "p": p,
            "family": claim.family,
            "parity": "odd" if parity else "even",
            "entry_point": z,
            "pisano_period": pi,
            # z(p) >= 5 for p >= 5, so the hypothesis class z - 3 is positive
            "hypothesis_class": z - 3,
        },
        "scan": {"multiplier": multiplier, "window_modulus": 2 * pi,
                 "scan_limit": multiplier * 2 * pi},
        "predicted_classes": predicted,
        "observed_classes": observed,
        "predicted_count": len(predicted),
        "observed_count": len(observed),
        "classification": classification,
        "counterexamples": [
            {"index": m + 2 * pi * t, "k": k + pi * t, "norm": norm, "reduced": reduced,
             "predicted": predicts, "observed": not predicts}
            for t in range(multiplier) for m, k, norm, reduced, predicts in first_window
        ],
    }
