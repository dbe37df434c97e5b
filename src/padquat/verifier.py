"""Zero-divisor claim verification for twin-prime quaternion sequences.

Each claim predicts, for indices m satisfying the hypothesis congruence
(m/2 or (m-1)/2 congruent to -3 mod z(p)), exactly which quaternions
QP_m or QR_m are zero divisors in Q(-1,-1) over Z_p.  Every claim is one
row of the `CLAIMS` table.  The engine reads only the hypothesis indices
k = j z(p) - 3, where F_k .. F_{k+3} are r^j (2, -1, 1, 0) with
r = F_{z+1} mod p, through the Fibonacci closed forms of the coefficients
(`FIB_FORMS`).  As r^{pi/z} = 1, one period j = 1 .. pi(p)/z(p), the powers
of r that `FibProfile.of` certifies, decides every window: HOLDS,
HOLDS_VACUOUSLY, or FAILS with the full counterexample list, built only
when read.  The linear, matrix and full-window references live in the
tests.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass

from .fibonacci import FibProfile, entry_point, fib_mod
from .modular import is_prime, jacobi, legendre
from .sequences import NotTwinPrime


class HypothesisViolated(ValueError):
    """Raised when an index breaks a claim's hypothesis congruence."""


class ExcludedPrime(ValueError):
    """Raised for primes a claim explicitly excludes."""


HOLDS = "HOLDS"
HOLDS_VACUOUSLY = "HOLDS_VACUOUSLY"
FAILS = "FAILS"


def perrin_even_side_condition(p: int) -> bool:
    """The split condition of the even-index Perrin claim: either
    p = 1,3 (mod 8) with p a residue mod 181, or p = 5,7 (mod 8) with p a
    non-residue mod 181.  Equivalent to legendre(-8*181, p) = +1."""
    sym = legendre(p, 181)
    if p % 8 in (1, 3):
        return sym == 1
    return sym == -1


@dataclass(frozen=True)
class Claim:
    """One zero-divisor claim: which quaternions it is about, at which
    primes it applies and which k classes mod pi(p) it predicts.

    A theorem (classes None) predicts the candidate classes of
    `_index_classes` at primes where its side condition holds and nothing
    elsewhere; a corollary about one prime predicts its fixed `classes`.
    A corollary predicting no class claims invertibility.
    """

    family: str  # "QP" or "QR"
    parity: int  # parity of the quaternion index m
    prime: int | None = None  # the only prime a corollary applies to
    excluded: tuple[int, ...] = ()
    side_condition: Callable[[int], bool] | None = None
    classes: tuple[int, ...] | None = None


CLAIMS = {
    "thm-padovan-even": Claim("QP", 0, side_condition=lambda p: p % 4 == 1),
    "thm-padovan-odd": Claim("QP", 1, side_condition=lambda p: p % 3 == 1),
    "thm-perrin-even": Claim(
        "QR", 0, excluded=(181,), side_condition=perrin_even_side_condition
    ),
    # (p / 13*239) is the Jacobi symbol
    "thm-perrin-odd": Claim(
        "QR", 1, excluded=(7, 13, 239), side_condition=lambda p: jacobi(p, 13 * 239) == 1
    ),
    "cor-7": Claim("QR", 1, prime=7, classes=(4, 10)),  # pi(7) = 16
    "cor-13": Claim("QR", 1, prime=13, classes=()),
    "cor-181": Claim("QR", 0, prime=181, classes=(47,)),  # pi(181) = 90
}

CASE_IDS = tuple(CLAIMS)


@dataclass(frozen=True)
class NormReduction:
    """A norm congruence rewritten as a quadratic in a Fibonacci value.

    Under the hypothesis z(p) | (k+3) the quaternion norm at index 2k (or
    2k+1) vanishes exactly when c2*f^2 + c1*f + c0 does, where f is
    F_{k+2} - 1 for the Padovan kinds and F_{k+1} for the Perrin kinds.
    """

    kind: str
    c2: int
    c1: int
    c0: int

    def value(self, f: int, p: int) -> int:
        return (self.c2 * f * f + self.c1 * f + self.c0) % p


NORM_REDUCTIONS = {
    "padovan-even": NormReduction("padovan-even", 1, 0, 1),
    "padovan-odd": NormReduction("padovan-odd", 3, 0, 1),
    "perrin-even": NormReduction("perrin-even", 27, -8, 14),
    "perrin-odd": NormReduction("perrin-odd", 63, 26, 52),
}

# Re-derived even-index Perrin reduction.  Expanding the norm through the
# Padovan closed forms with the cross-term signs carried exactly gives
# N(QR_{2k}) = 2*(51 f^2 + 28 f + 26) with f = F_{k+1}, under the same
# hypothesis.  This variant agrees with the brute-force oracle for every
# twin prime; the primary perrin-even form above disagrees at p = 5, 7.
PERRIN_EVEN_ADJUSTED = NormReduction("perrin-even-adjusted", 51, 28, 26)

_REDUCTIONS_BY_KIND = dict(NORM_REDUCTIONS)
_REDUCTIONS_BY_KIND["perrin-even-adjusted"] = PERRIN_EVEN_ADJUSTED


def _reduce(red: NormReduction, f2: int, p: int) -> int:
    """The quadratic of `red` at a hypothesis index, from F_{k+2} mod p.

    There F_{k+3} = 0, so F_{k+1} = -F_{k+2}: f is F_{k+2} - 1 for the
    Padovan kinds and -F_{k+2} for the Perrin kinds.
    """
    f = f2 - 1 if red.kind.startswith("padovan") else -f2
    return red.value(f % p, p)


def reduced_norm_value(kind: str, k: int, p: int) -> int:
    """The Fibonacci-expressed norm quadratic at k, reduced mod p.

    Requires the hypothesis z(p) | (k+3); raises HypothesisViolated
    otherwise, since the rewriting is only valid there.
    """
    red = _REDUCTIONS_BY_KIND.get(kind)
    if red is None:
        raise ValueError(f"unknown reduction kind {kind!r}")
    z = entry_point(p)
    if (k + 3) % z != 0:
        raise HypothesisViolated(f"k={k} violates z({p}) | k+3 (z = {z})")
    return _reduce(red, fib_mod(k + 2, p), p)


def _index_classes(profile: FibProfile) -> tuple[int, ...]:
    """The candidate k classes mod pi(p): (j*z - 3) mod pi for j = 1..4,
    deduplicated and kept below pi(p)."""
    z, pi = profile.entry_point, profile.pisano_period
    return tuple(sorted({(j * z - 3) % pi for j in range(1, 5)}))


@dataclass(frozen=True)
class TheoremCase:
    """One claim instantiated at one twin prime."""

    claim_id: str
    p: int
    profile: FibProfile
    parity: int  # parity of the quaternion index m
    hypothesis_class: int  # k must be in this class mod z(p)
    family: str  # "QP" or "QR"
    predicted_classes: tuple[int, ...]  # k classes mod pi(p) claimed zero divisors
    claims_invertibility: bool = False

    @classmethod
    def build(cls, claim_id: str, p: int) -> "TheoremCase":
        """The case of `claim_id` at p, after `check_claim`."""
        check_claim(claim_id, p)
        return cls.trusted(claim_id, FibProfile.of(p))

    @classmethod
    def trusted(cls, claim_id: str, profile: FibProfile) -> "TheoremCase":
        """The case of `claim_id` at p = profile.p with no checks: p must
        head a twin prime pair and `claim_id` be one of
        `applicable_case_ids(p)`, as for the p that `twin_primes_upto` gives."""
        claim = CLAIMS[claim_id]
        p, z = profile.p, profile.entry_point
        classes = claim.classes
        if classes is None:
            classes = _index_classes(profile) if claim.side_condition(p) else ()
        return cls(
            claim_id=claim_id,
            p=p,
            profile=profile,
            parity=claim.parity,
            hypothesis_class=z - 3,  # z(p) >= 5 for p >= 5
            family=claim.family,
            predicted_classes=classes,
            claims_invertibility=claim.classes == (),
        )

    def satisfies_hypothesis(self, m: int) -> bool:
        if m % 2 != self.parity:
            return False
        return self.k_of(m) % self.profile.entry_point == self.hypothesis_class

    def k_of(self, m: int) -> int:
        return (m - self.parity) // 2

    def predicts(self, m: int) -> bool:
        """Whether the claim says quaternion m is a zero divisor.

        Rejects indices of the wrong parity.  The z(p)-hypothesis
        congruence on k is a caller obligation: the verdict engine only
        asks at hypothesis-compatible indices, while direct callers may
        probe the class condition at any k.
        """
        if m % 2 != self.parity:
            raise HypothesisViolated(f"index {m} has the wrong parity for this claim")
        return self.k_of(m) % self.profile.pisano_period in self.predicted_classes


def check_claim(claim_id: str, p: int) -> None:
    """Raise unless `claim_id` names a claim, p heads a twin prime pair and
    the claim applies to p."""
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise ValueError(f"unknown claim id {claim_id!r}")
    if not (p >= 5 and is_prime(p) and is_prime(p - 2)):
        raise NotTwinPrime(f"{p} does not head a twin prime pair")
    if claim.prime is not None and p != claim.prime:
        raise ExcludedPrime(f"{claim_id} applies only to p = {claim.prime}")
    if p in claim.excluded:
        raise ExcludedPrime(f"{claim_id} excludes p = {p}")


def applicable_case_ids(p: int) -> list[str]:
    """Claim ids that apply to twin prime p, in canonical (sorted) order."""
    return sorted(
        cid
        for cid, claim in CLAIMS.items()
        if claim.prime in (None, p) and p not in claim.excluded
    )


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


def jump_oracle(case: TheoremCase) -> list[tuple[int, int, bool]]:
    """(F_{k+2}, norm, is zero divisor) mod p for the quaternions m = 2k +
    parity of the case at one period of its hypothesis indices k = j z(p) - 3,
    j = 1 .. pi(p)/z(p), without building the coefficient stream.

    There F_z = 0 makes Q^z = r I, so F_k .. F_{k+3} = R (2, -1, 1, 0) with
    R = r^j, the j-th of `case.profile.powers`; quaternion m is t_m ..
    t_{m+3}, which `FIB_FORMS` makes affine in R, and F_{k+2} = R.  As
    r^{pi/z} = 1 the reads repeat with period pi(p)/z(p) in j.
    """
    p, forms, f_back = case.p, FIB_FORMS[case.family], (2, -1, 1, 0)
    # t_{2k+j} is row j % 2 at F_{k+j//2}, F_{k+j//2+1} up to the sign
    # (-1)^{k+j//2}, which changes neither a square nor whether a term is 0
    terms = []
    for j in range(case.parity, case.parity + 4):
        a, b, c = forms[j % 2]
        terms.append((a, b * f_back[j // 2] + c * f_back[j // 2 + 1]))
    reads = []
    for power in case.profile.powers:
        t0, t1, t2, t3 = [(a + d * power) % p for a, d in terms]
        norm = (t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3) % p
        reads.append((power, norm, norm == 0 and any((t0, t1, t2, t3))))
    return reads


@dataclass(frozen=True)
class Counterexample:
    """One index where prediction and oracle disagree."""

    index: int
    k: int
    norm: int
    reduced: int
    predicted: bool
    observed: bool

    def to_dict(self) -> dict:
        return asdict(self)


class Counterexamples(Sequence):
    """The counterexamples of a FAILS verdict, each built when it is read:
    the disagreements (m, F_{k+2}, norm, predicted) of the first window
    recur in window t = 0 .. multiplier-1 at index m + 2 pi t and k + pi t,
    with the same norm and reduced value."""

    def __init__(self, case: TheoremCase, multiplier: int, first_window: list[tuple]):
        self.case, self.multiplier, self.first_window = case, multiplier, first_window

    def __len__(self) -> int:
        return self.multiplier * len(self.first_window)

    def __getitem__(self, i: int) -> Counterexample:
        t, s = divmod(range(len(self))[i], len(self.first_window))
        m, f2, norm, predicted = self.first_window[s]
        pi = self.case.profile.pisano_period
        return Counterexample(
            index=m + 2 * pi * t,
            k=self.case.k_of(m) + pi * t,
            norm=norm,
            reduced=_reduce(NORM_REDUCTIONS[_reduction_kind(self.case)], f2, self.case.p),
            predicted=predicted,
            observed=not predicted,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class TheoremVerdict:
    """Predicted vs observed zero-divisor index sets for one case."""

    case: TheoremCase
    scan_multiplier: int
    window_modulus: int  # lcm(sequence period, 2*pi(p)), certified to be 2*pi(p)
    scan_limit: int
    predicted: tuple[int, ...]  # canonical residues mod window_modulus
    observed: tuple[int, ...]
    classification: str
    counterexamples: Sequence[Counterexample]

    def to_dict(self) -> dict:
        return {
            "case": {
                "claim_id": self.case.claim_id,
                "p": self.case.p,
                "family": self.case.family,
                "parity": "even" if self.case.parity == 0 else "odd",
                "entry_point": self.case.profile.entry_point,
                "pisano_period": self.case.profile.pisano_period,
                "hypothesis_class": self.case.hypothesis_class,
            },
            "scan": {
                "multiplier": self.scan_multiplier,
                "window_modulus": self.window_modulus,
                "scan_limit": self.scan_limit,
            },
            "predicted_classes": list(self.predicted),
            "observed_classes": list(self.observed),
            "predicted_count": len(self.predicted),
            "observed_count": len(self.observed),
            "classification": self.classification,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
        }

    def first_counterexample(self) -> int | None:
        return self.counterexamples[0].index if self.counterexamples else None


def _reduction_kind(case: TheoremCase) -> str:
    fam = "padovan" if case.family == "QP" else "perrin"
    par = "even" if case.parity == 0 else "odd"
    return f"{fam}-{par}"


def verify_case(case: TheoremCase, scan_multiplier: int = 2) -> TheoremVerdict:
    """Compare a claim's predicted zero divisors against the quaternion norms.

    The window is lcm(sequence period, 2*pi(p)), which is 2*pi(p): the
    profile certifies Q^pi = I, so 2*pi(p) is a period of every coefficient
    stream.  The scan covers scan_multiplier windows.  The reads and the
    predicted classes of k mod pi(p) repeat in every window, so the first
    window's pi(p)/z(p) hypothesis indices, read by `jump_oracle`, decide
    the verdict.  Classification: HOLDS when the sets agree and the
    comparison has content (nonempty sets, or an invertibility claim);
    HOLDS_VACUOUSLY when a zero-divisor claim matches the oracle only
    because nothing satisfies it; FAILS otherwise, with every disagreeing
    index of the scan in `counterexamples`.
    """
    if scan_multiplier < 2:
        raise ValueError("scan multiplier must be >= 2")
    window = 2 * case.profile.pisano_period
    z = case.profile.entry_point  # m = 2(jz - 3) + parity < window for j <= pi/z
    hypothesis = range(2 * case.hypothesis_class + case.parity, window, 2 * z)
    reads = jump_oracle(case)
    predicted = [m for m in hypothesis if case.predicts(m)]
    observed = [m for m, (_, _, zero) in zip(hypothesis, reads) if zero]

    counterexamples: Sequence[Counterexample] = ()
    if predicted == observed:
        has_content = predicted or case.claims_invertibility
        classification = HOLDS if has_content else HOLDS_VACUOUSLY
    else:
        classification = FAILS
        counterexamples = Counterexamples(case, scan_multiplier, [
            (m, f2, norm, not zero)
            for m, (f2, norm, zero) in zip(hypothesis, reads)
            if (m in predicted) != zero
        ])

    return TheoremVerdict(
        case=case,
        scan_multiplier=scan_multiplier,
        window_modulus=window,
        scan_limit=scan_multiplier * window,
        predicted=tuple(predicted),
        observed=tuple(observed),
        classification=classification,
        counterexamples=counterexamples,
    )


def verify_prime(
    p: int, case_ids: Iterable[str], scan_multiplier: int = 2
) -> list[TheoremVerdict]:
    """The verdicts of the claims `case_ids` at p, in order, from one
    FibProfile.  Each claim must apply to p, as `applicable_case_ids(p)` at
    a p from `twin_primes_upto` or ids that passed `check_claim` do."""
    profile = FibProfile.of(p)
    return [
        verify_case(TheoremCase.trusted(cid, profile), scan_multiplier) for cid in case_ids
    ]
