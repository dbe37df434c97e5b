"""Where a hypothesis-index quaternion can be a zero divisor.

At k = j z(p) - 3 the norm of each (family, parity) row is the integer
quadratic N(R) = c0 + c1 R + c2 R^2 of `CASE_ROWS` in R = r^j, with
r = F_{z+1} mod p.  Cassini's identity with F_z = 0 gives r^2 = (-1)^z, so
R is +-1, or also +-i (R^2 = -1) when z(p) is odd.  A zero norm therefore
needs p | N(1), p | N(-1) or p | N(i) N(-i) = (c0 - c2)^2 + c1^2.  The
candidate primes of a row are the prime factors of those three integers;
every other prime has no zero divisor at any hypothesis index of that row.
Among the twin primes only 5, 7 and 13 are candidates, so everywhere else a
claim's verdict follows from its prediction alone (`closed_form_rows`).
"""

import csv
import hashlib
import io

from reference import EXCEPTIONAL_PRIMES, closed_form_rows, prime_factors, primes_upto

from padquat.fibonacci import FibProfile
from padquat import verifier
from padquat.verifier import CASE_ROWS, jump_oracle


def candidates(quadratic):
    c0, c1, c2 = quadratic
    values = (c0 + c1 + c2, c0 - c1 + c2, (c0 - c2) ** 2 + c1**2)
    return set().union(*(prime_factors(v) for v in values))


CANDIDATES = {row: candidates(quadratic) for row, (_, _, quadratic) in CASE_ROWS.items()}


def test_candidates_come_from_the_row_quadratics():
    # 1409 divides N(i) N(-i) of QR even, but z(1409) is even
    assert CANDIDATES == {
        ("QP", 0): {2, 5},
        ("QP", 1): {13, 37},
        ("QR", 0): {2, 3, 5, 7, 1409},
        ("QR", 1): {3, 47, 89, 797},
    }
    assert FibProfile.of(1409).powers == (1408, 1)


def test_production_resultants_have_the_candidate_primes():
    # the gate of decide_prime reads a row only at the prime factors of its
    # resultant N(1) N(-1) N(i) N(-i)
    assert {row: prime_factors(d) for row, d in verifier._ROW_RESULTANTS.items()} == CANDIDATES


def test_zero_norms_only_at_candidate_primes_to_1e5():
    # every prime 5 <= p <= 10^5, twin or not: the closed form needs only
    # (a, b) = (-2, 0) mod p.  A row whose resultant p does not divide, where
    # decide_prime decides a theorem in closed form, has no zero norm.
    realised = {row: set() for row in CASE_ROWS}
    for p in primes_upto(10**5)[2:]:
        profile = FibProfile.of(p)
        for family, parity in CASE_ROWS:
            if 0 in jump_oracle(profile, family, parity):
                assert p in CANDIDATES[family, parity], (family, parity, p)
                assert verifier._ROW_RESULTANTS[family, parity] % p == 0, (family, parity, p)
                realised[family, parity].add(p)
    assert realised == {
        ("QP", 0): {5},
        ("QP", 1): {13, 37},
        ("QR", 0): {5, 7},
        ("QR", 1): {47, 89, 797},
    }


def test_exceptional_primes_are_the_twin_candidates():
    primes = set(primes_upto(2000))
    candidates = set().union(*CANDIDATES.values())
    assert {p for p in candidates if p >= 5 and p - 2 in primes} == set(EXCEPTIONAL_PRIMES)


def test_closed_form_rows_reproduce_the_scan_to_1e6(monkeypatch):
    # the rows of every twin prime but 5, 7 and 13 come from the predictions
    # alone; the digest is the one pinned for `scan --upto 1000000 --format csv`
    def refuse(*args):
        raise AssertionError("the verifier decided a row")

    for name in ("jump_oracle", "decide_prime", "verdict_record"):
        monkeypatch.setattr(verifier, name, refuse)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["prime", "case_id", "parity", "hypothesis_class", "predicted_count",
                     "observed_count", "classification", "first_counterexample"])
    writer.writerows(closed_form_rows(10**6))
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "b4e45c6bca4ace086c832f2dcbe0aad2b6188a52811f9635a357c58dd6bc6e82"
    )
