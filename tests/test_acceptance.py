"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison is equality; the stated
runtime budgets are asserted as well.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion report lines.
"""

import csv
import functools
import io
import math
import subprocess
import sys
import time

from paper import (
    PrimeModulus,
    evaluate,
    gf_expand,
    padovan_even_binomial,
    padovan_fib_form,
    qp_elements,
    qp_gf_numerators,
    qp_symbolic,
    qr_elements,
    qr_gf_numerators,
    qr_symbolic,
)
from reference import (
    QuadCongruence,
    family_period,
    legendre,
    norm_oracle,
    primes_upto,
    reduced_norm_value,
    satisfies_hypothesis,
    solve_quadratic,
)

from padquat.fibonacci import FibProfile, fib_pair
from padquat.modular import twin_primes_upto
from padquat.sequences import (
    BiPoly,
    SeqParams,
    padovan_mod,
    padovan_sym_terms,
    perrin_mod,
    perrin_sym_terms,
)
from padquat.verifier import (
    HOLDS,
    ROW_HEADER,
    applicable_case_ids,
    decide_prime,
)

TWINS_200 = [p for _, p in twin_primes_upto(200)]


def criterion(number, name, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"[acceptance] criterion {number} ({name}): FAIL ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
        return wrapper
    return decorate


# Canonical renderings of the first eleven terms of both sequences.
EXPECTED_P = [
    "1", "0", "a", "1", "a^2", "a + b", "a^3 + 1", "a^2 + ab + b^2",
    "a^4 + 2a + b", "a^3 + a^2b + ab^2 + b^3 + 1", "a^5 + 3a^2 + 2ab + b^2",
]
EXPECTED_R = [
    "3", "0", "2", "3", "2a", "3b + 2", "2a^2 + 3", "3b^2 + 2a + 2b",
    "2a^3 + 3a + 3b + 2", "3b^3 + 2a^2 + 2ab + 2b^2 + 3",
    "2a^4 + 3a^2 + 3ab + 3b^2 + 4a + 2b",
]

CLASSICAL_P = [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49, 65, 86, 114]
CLASSICAL_R = [3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17, 22, 29, 39, 51, 68, 90, 119, 158, 209, 277]


@criterion(1, "reference-table reproduction", 1.0)
def test_criterion_1_symbolic_table():
    pad = padovan_sym_terms(11)
    per = perrin_sym_terms(11)
    for n in range(11):
        assert str(pad[n]) == EXPECTED_P[n], f"P_{n}: {pad[n]}"
        assert str(per[n]) == EXPECTED_R[n], f"R_{n}: {per[n]}"


@criterion(2, "classical specialization", 1.0)
def test_criterion_2_classical_sequences():
    pad = padovan_sym_terms(21)
    per = perrin_sym_terms(21)
    p_vals = [evaluate(t, 1, 1) for t in pad]
    r_vals = [evaluate(t, 1, 1) for t in per]
    assert p_vals == CLASSICAL_P
    assert r_vals == CLASSICAL_R
    for n in range(3, 21):
        assert r_vals[n] == 3 * p_vals[n - 3] + 2 * p_vals[n - 2], n
    # same through the modular generators with a modulus above every term
    params = SeqParams(1, 1, modulus=281)
    assert padovan_mod(params, 21) == CLASSICAL_P
    assert perrin_mod(params, 21) == CLASSICAL_R


@criterion(3, "recurrence and generating functions", 5.0)
def test_criterion_3_recurrences_and_gf():
    a, b = BiPoly.a(), BiPoly.b()
    apb, ab = a + b, a * b

    pad = padovan_sym_terms(51)
    per = perrin_sym_terms(51)
    for terms in (pad, per):
        for n in range(6, 51):
            assert terms[n] == apb * terms[n - 2] - ab * terms[n - 4] + terms[n - 6], n

    qp = [qp_symbolic(n) for n in range(51)]
    qr = [qr_symbolic(n) for n in range(51)]
    for seq in (qp, qr):
        for n in range(6, 51):
            expected = apb * seq[n - 2] - ab * seq[n - 4] + seq[n - 6]
            assert seq[n].components == expected.components, n

    assert gf_expand(qp_gf_numerators()[0], 51) == pad

    for comp, numerator in enumerate(qp_gf_numerators()):
        series = gf_expand(numerator, 51)
        assert all(series[n] == qp[n].components[comp] for n in range(51)), comp
    for comp, numerator in enumerate(qr_gf_numerators()):
        series = gf_expand(numerator, 51)
        assert all(series[n] == qr[n].components[comp] for n in range(51)), comp


@criterion(4, "mod-p reduction suite", 10.0)
def test_criterion_4_modular_reductions():
    for p in TWINS_200:
        params = SeqParams.twin_prime(p)
        terms = padovan_mod(params, 605)
        for k in range(301):
            assert terms[2 * k] == terms[2 * k + 3], (p, k)
            assert padovan_even_binomial(k, p) == terms[2 * k], (p, k)
        for m in range(601):
            assert padovan_fib_form(m, p) == terms[m], (p, m)


@criterion(5, "entry-point and Pisano relations", 30.0)
def test_criterion_5_wall_vinson():
    for p in primes_upto(1000):
        if p == 2:
            continue
        # brute-force z: first zero in the iterated sequence
        seq_a, seq_b = 0, 1
        z_brute = 0
        while True:
            seq_a, seq_b = seq_b, (seq_a + seq_b) % p
            z_brute += 1
            if seq_a == 0:
                break
        # brute-force pi: blind cycle scan for the state (0, 1)
        seq_a, seq_b = 0, 1
        pi_brute = 0
        while True:
            seq_a, seq_b = seq_b, (seq_a + seq_b) % p
            pi_brute += 1
            if (seq_a, seq_b) == (0, 1):
                break

        z, pi = FibProfile.of(p).entry_point, FibProfile.of(p).pisano_period
        assert z == z_brute and pi == pi_brute, p
        assert pi % z == 0, p  # (i)
        if z % 2 == 1:
            assert pi == 4 * z, p  # (iv)
        elif z % 4 == 0:
            assert pi == 2 * z, p  # (iii)
        else:
            assert pi == z, p  # (ii)
        # (v): divisibility characterizes Fibonacci zeros
        seq_a, seq_b = 0, 1
        for m in range(10 * pi + 1):
            assert (seq_a == 0) == (m % z == 0), (p, m)
            seq_a, seq_b = seq_b, (seq_a + seq_b) % p


@criterion(6, "norm-reduction equivalences", 60.0)
def test_criterion_6_norm_reductions():
    mismatches = []
    for p in TWINS_200:
        params = SeqParams.twin_prime(p)
        z = FibProfile.of(p).entry_point
        window = 2 * math.lcm(family_period(params, "QR"), 2 * FibProfile.of(p).pisano_period)
        ks = [k for k in range(window // 2) if (k + 3) % z == 0]
        qp = qp_elements(params, window + 2)
        qr = qr_elements(params, window + 2)
        for k in ks:
            checks = (
                ("padovan-even", qp[2 * k]),
                ("padovan-odd", qp[2 * k + 1]),
                ("perrin-even", qr[2 * k]),
                ("perrin-odd", qr[2 * k + 1]),
            )
            for kind, elem in checks:
                norm = elem.norm()
                reduced = reduced_norm_value(kind, k, p)
                if (norm == 0) != (reduced == 0):
                    mismatches.append((kind, p, k, norm, reduced))
    assert not mismatches, (
        f"{len(mismatches)} biconditional mismatches; first: "
        f"kind={mismatches[0][0]} p={mismatches[0][1]} k={mismatches[0][2]} "
        f"norm={mismatches[0][3]} reduced={mismatches[0][4]}"
    )


@criterion(7, "discriminant solvability bridges", 60.0)
def test_criterion_7_discriminant_bridges():
    for p in primes_upto(500):
        if p < 5:
            continue
        if p != 181:
            q = QuadCongruence(27, -8, 14, PrimeModulus(p))
            scan = tuple(x for x in range(p) if q.evaluate(x) == 0)
            assert solve_quadratic(q).roots == scan, p
            assert bool(scan) == (legendre(-8 * 181, p) == 1), p
        if p not in (7, 13, 239):
            q = QuadCongruence(63, 26, 52, PrimeModulus(p))
            scan = tuple(x for x in range(p) if q.evaluate(x) == 0)
            assert solve_quadratic(q).roots == scan, p
            assert bool(scan) == (legendre(-4 * 13 * 239, p) == 1), p


@criterion(8, "anchor values at p = 181", 1.0)
def test_criterion_8_anchor_values():
    sol = solve_quadratic(QuadCongruence(27, -8, 14, PrimeModulus(181)))
    assert sol.roots == (94,)
    assert pow(27, -1, 181) == 114
    assert FibProfile.of(181).pisano_period == 90
    assert fib_pair(48, 181)[0] == 94


@criterion(9, "p = 13 invertibility", 5.0)
def test_criterion_9_cor_13():
    assert "cor-13" in applicable_case_ids(13)
    params, profile = SeqParams.twin_prime(13), FibProfile.of(13)
    window = 2 * math.lcm(family_period(params, "QR"), 2 * profile.pisano_period)
    found = norm_oracle(params, "QR", window)[1]
    assert not {m for m in found if satisfies_hypothesis("cor-13", profile, m)}
    (row,) = decide_prime(profile, ["cor-13"])
    assert dict(zip(ROW_HEADER, row))["classification"] == HOLDS


@criterion(10, "deterministic full scan", 120.0)
def test_criterion_10_scan_determinism(tmp_path):
    outputs = []
    for run in range(2):
        target = tmp_path / f"scan-{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "padquat", "scan", "--upto", "200",
             "--format", "csv", "--out", str(target)],
            capture_output=True,
        )
        assert proc.returncode in (0, 2), proc.stderr.decode()
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1], "scan output must be byte-deterministic"

    rows = list(csv.DictReader(io.StringIO(outputs[0].decode())))
    expected_keys = {
        (p, cid) for p in TWINS_200 for cid in applicable_case_ids(p)
    }
    assert {(int(r["prime"]), r["case_id"]) for r in rows} == expected_keys
    for r in rows:
        assert r["classification"] in ("HOLDS", "HOLDS_VACUOUSLY", "FAILS")
        if r["classification"] == "FAILS":
            assert r["first_counterexample"] != ""
        else:
            assert r["first_counterexample"] == ""
