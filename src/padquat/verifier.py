"""Zero-divisor claim verification for twin-prime quaternion sequences.

Each claim predicts, for indices m satisfying the hypothesis congruence
(m/2 or (m-1)/2 congruent to -3 mod z(p)), exactly which quaternions
QP_m or QR_m are zero divisors in Q(-1,-1) over Z_p.  Every claim is one
row of the `CLAIMS` table.  A theorem's side condition is (D/p) = +1 for
D = c1^2 - 4 c2 c0 of its row's norm reduction c2 f^2 + c1 f + c0
(`NORM_REDUCTIONS`), read by quadratic reciprocity from p mod 8 and one
set (`_split_test`); it excludes the primes >= 5 dividing c2 D.

The engine reads only the hypothesis indices k = j z(p) - 3, where
F_k .. F_{k+3} are r^j (2, -1, 1, 0) with r = F_{z+1} mod p, through the
Fibonacci closed forms of the coefficients (`FIB_FORMS`); one period
j = 1 .. pi(p)/z(p), the powers of r that `FibProfile.of` certifies,
decides every window.  There the norm of each (family, parity) row is an
integer quadratic N(R) in R = r^j (`CASE_ROWS`), and R^4 = 1 (Cassini's
identity with F_z = 0), so N(R) = 0 mod p needs p to divide the row's
resultant N(1) N(-1) N(i) N(-i).  `decide_prime` returns each claim's
report row (`ROW_HEADER`): in closed form for a theorem at a prime that
does not divide its resultant, which sees no zero divisor, else from the
lists of `_claim_lists`, which reads the row with `jump_oracle` where the
resultant allows a zero norm.  `scan` and csv/table `verify` print the
rows; `verdict_record` turns one into the `verify --format json` record,
every counterexample included.  Nothing here checks its input: the CLI
hands over twin primes and the claim ids that apply at them.  The linear,
matrix and full-window references live in the tests.
"""

from collections import namedtuple
from collections.abc import Iterable

from .fibonacci import FibProfile, _prime_factors


HOLDS = "HOLDS"
HOLDS_VACUOUSLY = "HOLDS_VACUOUSLY"
FAILS = "FAILS"


class Claim(namedtuple("Claim", "family parity prime classes", defaults=(None, None))):
    """One zero-divisor claim about the quaternions of `family` ("QP" or
    "QR") with index parity `parity`.  A theorem (classes None) applies at
    every prime but those >= 5 dividing c2 D, D = c1^2 - 4 c2 c0 of its
    row's norm reduction, and predicts every hypothesis class j z(p) - 3,
    j = 1 .. pi(p)/z(p), where (D/p) = +1, nothing elsewhere.  A corollary
    applies at its `prime` alone and predicts its `classes` mod pi(p); one
    predicting no class claims invertibility."""

    __slots__ = ()


CLAIMS = {
    "thm-padovan-even": Claim("QP", 0),
    "thm-padovan-odd": Claim("QP", 1),
    "thm-perrin-even": Claim("QR", 0),
    "thm-perrin-odd": Claim("QR", 1),
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


def _split_test(red: NormReduction) -> tuple[int, tuple[frozenset[int], ...], tuple[int, ...]]:
    """(n, by_p8, excluded) of the reduction c2 f^2 + c1 f + c0.  At an odd
    prime p not dividing c2 D, D = c1^2 - 4 c2 c0, it has a root mod p
    exactly when (D/p) = +1, that is, when p % n is in by_p8[p % 8]; a p
    dividing n reads False.  By quadratic reciprocity (D/p) is the Jacobi
    symbol (p/n), n the product of the odd primes dividing D to an odd
    power, times a sign from p mod 8: -1 at p = 3 (mod 4) for D < 0, again
    for n = 3 (mod 4), and -1 at p = 3, 5 (mod 8) for an odd power of 2 in
    D.  `excluded` is the primes >= 5 dividing c2 D."""
    d = red.c1 * red.c1 - 4 * red.c2 * red.c0
    n, symbol, odd_two = 1, [1], False  # symbol[x] = (x/n)
    for q in _prime_factors(abs(d)):
        v = 1
        while d % q ** (v + 1) == 0:
            v += 1
        if v % 2 and q == 2:
            odd_two = True
        elif v % 2:
            squares = {x * x % q for x in range(1, q)}
            symbol = [symbol[x % n] * (1 if x % q in squares else -1 if x % q else 0)
                      for x in range(n * q)]
            n *= q
    by_sign = {s: frozenset(x for x, t in enumerate(symbol) if t == s) for s in (1, -1)}
    flip = (d < 0) != (n % 4 == 3)
    by_p8 = tuple(by_sign[(-1) ** ((flip and r % 4 == 3) + (odd_two and r % 8 in (3, 5)))]
                  if r % 2 else frozenset() for r in range(8))
    return n, by_p8, tuple(q for q in _prime_factors(abs(red.c2 * d)) if q >= 5)


# (family, parity) -> (n, by_p8, excluded) of the row's norm reduction
_SPLIT_TESTS = {row: _split_test(reduction) for row, (_, reduction, _) in CASE_ROWS.items()}
# claim id -> the primes it does not apply at; a corollary names its prime
_EXCLUDED = {cid: () if c.prime else _SPLIT_TESTS[c.family, c.parity][2]
             for cid, c in CLAIMS.items()}

# The claim ids that apply at each prime some claim names (7, 13, 181, 239),
# in canonical (sorted) order; key None holds those of every other prime.
_APPLICABLE_IDS = {
    q: tuple(sorted(cid for cid, claim in CLAIMS.items()
                    if claim.prime in (None, q) and q not in _EXCLUDED[cid]))
    for q in {None}.union(*((c.prime, *_EXCLUDED[cid]) for cid, c in CLAIMS.items()))
}


def applicable_case_ids(p: int) -> list[str]:
    """Claim ids that apply to twin prime p, in canonical (sorted) order."""
    return list(_APPLICABLE_IDS.get(p, _APPLICABLE_IDS[None]))


# claim id -> (family, parity, parity name, classes, n and by_p8 of the row's
# split test, row resultant): all that `decide_prime` reads, in one lookup
_CLAIM_READS = {
    cid: (c.family, c.parity, "odd" if c.parity else "even", c.classes,
          *_SPLIT_TESTS[c.family, c.parity][:2], _ROW_RESULTANTS[c.family, c.parity])
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
    p, (_, parity, _, classes, n, by_p8, _) = profile.p, _CLAIM_READS[claim_id]
    z = profile.entry_point
    # {(jz - 3) mod pi : j = 1..4} is this range, as pi = z ord(r), ord(r) <= 4
    hypothesis = range(z - 3, z * len(profile.powers), z)
    if classes is None:  # a theorem: every hypothesis class, if (D/p) = +1
        predicted = [2 * k + parity for k in hypothesis] if p % n in by_p8[p % 8] else []
    else:
        predicted = [2 * k + parity for k in hypothesis if k in classes]
    if reads is None:
        observed, disagreements = [], predicted
    else:
        observed = [2 * k + parity for k, (_, _, zero) in zip(hypothesis, reads, strict=True)
                    if zero]
        disagreements = sorted(set(predicted).symmetric_difference(observed))
    classification = (FAILS if disagreements else
                      HOLDS if predicted or classes == () else HOLDS_VACUOUSLY)
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
    observed.  A theorem there is decided in closed form: where (D/p) = +1
    it predicts all pi(p)/z(p) hypothesis indices of the first window and
    FAILS, first at m = 2 (z(p) - 3) + parity; otherwise it
    HOLDS_VACUOUSLY.  Every other claim gets its lists from
    `_claim_lists`, with the row's `jump_oracle` reads where p divides the
    resultant.  Every window repeats the first, so the scan multiplier
    changes none of it.
    """
    p, hypothesis_class = profile.p, profile.entry_point - 3
    count, first = len(profile.powers), 2 * hypothesis_class
    rows = []
    for cid in case_ids:
        family, parity, parity_name, classes, n, by_p8, resultant = _CLAIM_READS[cid]
        if classes is None and resultant % p:
            rows.append((p, cid, parity_name, hypothesis_class, count, 0, FAILS, first + parity)
                        if p % n in by_p8[p % 8] else
                        (p, cid, parity_name, hypothesis_class, 0, 0, HOLDS_VACUOUSLY, ""))
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
