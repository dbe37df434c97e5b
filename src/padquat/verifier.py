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
resultant N(1) N(-1) N(i) N(-i).  `decide_prime` returns each claim's
report row (`ROW_HEADER`).  A theorem at a prime that does not divide its
row's resultant sees no zero divisor, so its row follows in closed form
from its side condition: FAILS at every hypothesis index, or
HOLDS_VACUOUSLY.  A corollary, and a theorem at a prime that divides the
resultant (among twin primes 5, 7 and 13), gets its predicted, observed
and disagreeing indices as lists from `_claim_lists`, reading the row with
`jump_oracle` where the resultant allows a zero norm.  `scan` and
csv/table `verify` print the rows as they come; `verdict_record` turns one
into the `verify --format json` record, every counterexample of the scan
included, with its lists from the same `_claim_lists`.  Nothing here
checks its input: the CLI hands over twin primes and the claim ids that
apply at them.  The linear, matrix and full-window references live in the
tests.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .fibonacci import FibProfile


HOLDS = "HOLDS"
HOLDS_VACUOUSLY = "HOLDS_VACUOUSLY"
FAILS = "FAILS"


def _nonzero_squares(q: int) -> frozenset[int]:
    """The nonzero squares mod q."""
    return frozenset(x * x % q for x in range(1, q))


_SQUARES_13, _SQUARES_181, _SQUARES_239 = map(_nonzero_squares, (13, 181, 239))


def perrin_even_side_condition(p: int) -> bool:
    """The split condition of the even-index Perrin claim: either
    p = 1,3 (mod 8) with p a residue mod 181, or p = 5,7 (mod 8) with p a
    non-residue mod 181.  Equivalent to (-8*181 / p) = +1 for p != 181.
    p is a residue mod the prime 181 exactly when p mod 181 is one of the
    nonzero squares mod 181."""
    return (p % 181 in _SQUARES_181) == (p % 8 in (1, 3))


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
    # (p/13) (p/239) = +1, each Legendre symbol read from the nonzero squares
    "thm-perrin-odd": Claim(
        "QR", 1, excluded=(7, 13, 239),
        side_condition=lambda p: (p % 13 in _SQUARES_13) == (p % 239 in _SQUARES_239),
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

# claim id -> (family, parity, parity name, classes, side condition, row
# resultant): all that `decide_prime` reads of a claim, in one lookup
_CLAIM_READS = {
    cid: (c.family, c.parity, "odd" if c.parity else "even", c.classes, c.side_condition,
          _ROW_RESULTANTS[c.family, c.parity])
    for cid, c in CLAIMS.items()
}

# The fields of a report row, in the order `decide_prime` returns them
ROW_HEADER = ("prime", "case_id", "parity", "hypothesis_class", "predicted_count",
              "observed_count", "classification", "first_counterexample")


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


def _claim_lists(profile: FibProfile, claim_id: str,
                 reads: list[tuple[int, int, bool]] | None) -> tuple:
    """(predicted, observed, disagreements, classification) of one claim at
    p = profile.p over the first window's hypothesis indices
    k = j z(p) - 3 < pi(p).  m = 2k + parity is predicted when k is one of
    the claim's classes mod pi(p), and observed where `reads`, the row's
    `jump_oracle` reads, find a zero divisor; None stands for a row with no
    zero norm, where nothing is observed.  The disagreements are the indices
    where prediction and oracle differ.  Each list holds m ascending; they
    may be one list object, which no caller mutates.  FAILS when some index
    disagrees, else HOLDS when the comparison has content (nonempty sets, or
    an invertibility claim) and HOLDS_VACUOUSLY when nothing satisfies the
    claim."""
    _, parity, _, classes, side_condition, _ = _CLAIM_READS[claim_id]
    z = profile.entry_point
    # {(jz - 3) mod pi : j = 1..4} is this range, as pi = z ord(r), ord(r) <= 4
    hypothesis = range(z - 3, z * len(profile.powers), z)
    if classes is None:  # a theorem: every hypothesis class, if its side condition holds
        predicted = [2 * k + parity for k in hypothesis] if side_condition(profile.p) else []
    else:
        predicted = [2 * k + parity for k in hypothesis if k in classes]
    if reads is None:
        observed, disagreements = [], predicted
    else:
        observed = [2 * k + parity for k, (_, _, zero) in zip(hypothesis, reads, strict=True)
                    if zero]
        disagreements = sorted(set(predicted).symmetric_difference(observed))
    if disagreements:
        classification = FAILS
    elif predicted or classes == ():
        classification = HOLDS
    else:
        classification = HOLDS_VACUOUSLY
    return predicted, observed, disagreements, classification


def decide_prime(profile: FibProfile, case_ids: Iterable[str]) -> list[tuple]:
    """The report row of each claim of `case_ids` at p = profile.p, in
    order: one tuple of the `ROW_HEADER` fields, the first counterexample
    being the first disagreeing index m, or "" when none disagrees.

    Precondition, not checked: p heads a twin prime pair and each id is in
    `applicable_case_ids(p)`.  No two such claims share a (family, parity)
    row, as each corollary stands in for the theorem its prime excludes, so
    each row is read at most once.  Where p does not divide a row's
    resultant (`_CLAIM_READS`), R^4 = 1 leaves no zero norm and nothing is
    observed.  A theorem there is decided in closed form: when its side
    condition holds it predicts all pi(p)/z(p) hypothesis indices of the
    first window and FAILS, first at m = 2 (z(p) - 3) + parity; otherwise
    it HOLDS_VACUOUSLY.  Every other claim gets its lists from
    `_claim_lists`, with the row's `jump_oracle` reads where p divides the
    resultant.  Every window repeats the first, so the scan multiplier
    changes none of it.
    """
    p, hypothesis_class = profile.p, profile.entry_point - 3
    count, first = len(profile.powers), 2 * hypothesis_class
    rows = []
    for cid in case_ids:
        family, parity, parity_name, classes, side_condition, resultant = _CLAIM_READS[cid]
        if classes is None and resultant % p:
            if side_condition(p):
                rows.append((p, cid, parity_name, hypothesis_class, count, 0, FAILS,
                             first + parity))
            else:
                rows.append((p, cid, parity_name, hypothesis_class, 0, 0, HOLDS_VACUOUSLY, ""))
            continue
        reads = None if resultant % p else jump_oracle(profile, family, parity)
        predicted, observed, disagreements, classification = _claim_lists(profile, cid, reads)
        rows.append((p, cid, parity_name, hypothesis_class, len(predicted), len(observed),
                     classification, disagreements[0] if disagreements else ""))
    return rows


def verdict_record(profile: FibProfile, row: tuple, multiplier: int) -> dict:
    """The `verify --format json` record of one `decide_prime` row at
    p = profile.p, over `multiplier` windows of 2 pi(p).  The window
    lcm(sequence period, 2 pi(p)) is 2 pi(p): the profile certifies
    Q^pi = I, so 2 pi(p) is a period of every coefficient stream.  The
    lists come from `_claim_lists`.  A row that does not fail observes
    exactly what it predicts, so only a failing one reads its row, once,
    with `jump_oracle`: for what it observes, and for F_{k+2} and the norm
    at each disagreeing index m = 2k + parity, the read j = (k + 3)/z(p).
    Each first-window disagreement recurs in window t = 0 .. multiplier-1
    at index m + 2 pi t and k + pi t, with the same norm and reduced value;
    the counterexamples list every one, ascending."""
    claim_id, classification = row[1], row[6]
    claim, p, pi = CLAIMS[claim_id], profile.p, profile.pisano_period
    z, parity = profile.entry_point, claim.parity
    reads = jump_oracle(profile, claim.family, parity) if classification == FAILS else None
    predicted, observed, disagreements, _ = _claim_lists(profile, claim_id, reads)
    if reads is None:
        observed, disagreements = predicted, []
    reduction = CASE_ROWS[claim.family, parity][1]
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
