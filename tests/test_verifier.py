import itertools
import json
import math
from fractions import Fraction

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from paper import (
    PERRIN_EVEN_ADJUSTED,
    THEOREM_STATEMENTS,
    PrimeModulus,
    padovan_fib_form,
    qp_elements,
    qr_elements,
)
from reference import (
    HypothesisViolated,
    QuadCongruence,
    family_period,
    fib_form_rows,
    full_window_verdict,
    hypothesis_row,
    integer_family_stream,
    integer_stream,
    legendre,
    matrix_jump_oracle,
    norm_oracle,
    prime_factors,
    primes_upto,
    reduced_norm_value,
    satisfies_hypothesis,
    solve_quadratic,
    sorted_case_ids,
)

from padquat import cli, verifier
from padquat.fibonacci import FibProfile, fib_pair
from padquat.modular import is_prime, twin_primes_upto
from padquat.sequences import SeqParams
from padquat.verifier import (
    CASE_ROWS,
    CLAIMS,
    FAILS,
    FIB_FORMS,
    HOLDS,
    HOLDS_VACUOUSLY,
    NORM_REDUCTIONS,
    applicable_case_ids,
    decide_prime,
    jump_oracle,
    verdict_record,
)

TWINS_200 = [p for _, p in twin_primes_upto(200)]
TWINS_2000 = [p for _, p in twin_primes_upto(2000)]
THEOREM_IDS = ("thm-padovan-even", "thm-padovan-odd", "thm-perrin-even", "thm-perrin-odd")
# D = c1^2 - 4 c2 c0 of each theorem's norm reduction, as typed constants
DISCRIMINANTS = {"thm-padovan-even": -4, "thm-padovan-odd": -12,
                 "thm-perrin-even": -8 * 181, "thm-perrin-odd": -4 * 13 * 239}


def derived_condition(claim_id, n):
    """The side condition that `verifier` derives for theorem `claim_id`,
    at n, as `decide_prime` reads it."""
    n_d, by_p8 = verifier._CLAIM_READS[claim_id][4:6]
    return n % n_d in by_p8[n % 8]


def hypothesis_ks(p, periods=2):
    """Hypothesis-compatible k values covering `periods` family periods."""
    z = FibProfile.of(p).entry_point
    limit = periods * math.lcm(
        family_period(SeqParams.twin_prime(p), "QR"), 2 * FibProfile.of(p).pisano_period
    ) // 2
    return [k for k in range(limit) if (k + 3) % z == 0]


class TestCaseConstruction:
    def test_applicable_ids(self):
        assert applicable_case_ids(5) == sorted(
            ["thm-padovan-even", "thm-padovan-odd", "thm-perrin-even", "thm-perrin-odd"]
        )
        assert "cor-7" in applicable_case_ids(7)
        assert "thm-perrin-odd" not in applicable_case_ids(7)
        assert "cor-13" in applicable_case_ids(13)
        assert "thm-perrin-odd" not in applicable_case_ids(13)
        assert "cor-181" in applicable_case_ids(181)
        assert "thm-perrin-even" not in applicable_case_ids(181)
        # 239 heads no twin pair, so only the applicability list shows its exclusion
        assert "thm-perrin-odd" not in applicable_case_ids(239)

    def test_derived_exclusions_are_the_papers(self):
        # the primes >= 5 dividing c2 D of each theorem's reduction
        assert verifier._EXCLUDED == {
            "thm-padovan-even": (), "thm-padovan-odd": (), "thm-perrin-even": (181,),
            "thm-perrin-odd": (7, 13, 239), "cor-7": (), "cor-13": (), "cor-181": ()}
        for cid in THEOREM_IDS:
            assert verifier._EXCLUDED[cid] == THEOREM_STATEMENTS[cid].excluded, cid
        assert set(verifier._APPLICABLE_IDS) == {None, 7, 13, 181, 239}

    def test_applicable_ids_at_the_named_primes(self):
        theorems = list(THEOREM_IDS[:2])
        assert applicable_case_ids(5) == applicable_case_ids(1021) == sorted(THEOREM_IDS)
        assert applicable_case_ids(7) == ["cor-7", *theorems, "thm-perrin-even"]
        assert applicable_case_ids(13) == ["cor-13", *theorems, "thm-perrin-even"]
        assert applicable_case_ids(181) == ["cor-181", *theorems, "thm-perrin-odd"]
        assert applicable_case_ids(239) == [*theorems, "thm-perrin-even"]

    def test_claim_table_matches_sorting_the_claims(self):
        for p in range(10**4 + 1):  # 7, 13, 181 and 239 among them
            assert applicable_case_ids(p) == sorted_case_ids(p), p

    def test_applicable_ids_are_a_fresh_list(self):
        for p in (5, 7, 13, 181, 239):
            ids = applicable_case_ids(p)
            ids.clear()
            assert applicable_case_ids(p) == sorted_case_ids(p) != [], p

    def test_hypothesis_class(self):
        assert record("thm-padovan-even", 13)["case"]["hypothesis_class"] == 4  # -3 mod z(13)=7
        profile = FibProfile.of(13)
        assert satisfies_hypothesis("thm-padovan-even", profile, 8)  # m=8 -> k=4
        assert not satisfies_hypothesis("thm-padovan-even", profile, 9)  # odd
        assert not satisfies_hypothesis("thm-padovan-even", profile, 10)  # k=5


def record(claim_id, p):
    """The `verify --format json` record of `claim_id`, which applies at p."""
    assert claim_id in applicable_case_ids(p)
    return verdict_record(FibProfile.of(p), claim_id)


def predicts(claim_id, p, m):
    assert claim_id in applicable_case_ids(p)
    return reference.predicts(claim_id, FibProfile.of(p), m)


def predicted_ks(claim_id, p):
    """The k of the quaternions m = 2k + parity that `claim_id` predicts in
    the first window at p, from the lists under `decide_prime` and
    `verdict_record`."""
    profile, claim = FibProfile.of(p), CLAIMS[claim_id]
    norms = jump_oracle(profile, claim.family, claim.parity)
    return tuple(m // 2 for m in verifier._claim_lists(profile, claim_id, norms)[0])


class TestPredicates:
    def test_padovan_even_side_condition(self):
        # p = 3 (mod 4) predicts nothing
        cid, profile7 = "thm-padovan-even", FibProfile.of(7)
        m = next(m for m in range(0, 200, 2) if satisfies_hypothesis(cid, profile7, m))
        assert reference.predicts(cid, profile7, m) is False
        # p = 1 (mod 4) predicts every candidate class
        profile13 = FibProfile.of(13)
        for m in range(0, 120, 2):
            if satisfies_hypothesis(cid, profile13, m):
                assert reference.predicts(cid, profile13, m) is True

    def test_padovan_odd_side_condition(self):
        assert predicts("thm-padovan-odd", 5, 2 * 2 + 1) is False  # 5 = 2 (mod 3), k=2 = -3 mod 5
        cid, profile7 = "thm-padovan-odd", FibProfile.of(7)
        m = next(m for m in range(1, 200, 2) if satisfies_hypothesis(cid, profile7, m))
        assert reference.predicts(cid, profile7, m) is True

    def test_parity_rejected(self):
        for claim_id, p, m in (
            ("thm-padovan-even", 13, 9),
            ("thm-padovan-odd", 13, 8),
            ("cor-7", 7, 8),
            ("cor-13", 13, 8),
            ("cor-181", 181, 9),
        ):
            with pytest.raises(HypothesisViolated):
                predicts(claim_id, p, m)

    def test_cor_examples(self):
        assert predicts("cor-181", 181, 2 * 47) is True
        assert predicts("cor-181", 181, 2 * 137) is True
        assert predicts("cor-181", 181, 2 * 46) is False
        assert predicts("cor-7", 7, 2 * 4 + 1) is True
        assert predicts("cor-7", 7, 2 * 20 + 1) is True
        assert predicts("cor-7", 7, 2 * 5 + 1) is False
        profile = FibProfile.of(13)
        for m in range(1, 300, 2):
            if satisfies_hypothesis("cor-13", profile, m):
                assert reference.predicts("cor-13", profile, m) is False

    def test_perrin_even_condition_equals_discriminant_symbol(self):
        # every odd prime the claim does not exclude; every nonzero residue
        # mod 181 occurs among them
        excluded = verifier._EXCLUDED["thm-perrin-even"]
        for p in primes_upto(10**5)[1:]:
            if p not in excluded:
                assert derived_condition("thm-perrin-even", p) == (
                    legendre(-8 * 181, p) == 1), p
        for _, p in twin_primes_upto(10**5):
            if p not in excluded:
                assert bool(predicted_ks("thm-perrin-even", p)) == (legendre(-8 * 181, p) == 1), p

    def test_perrin_odd_jacobi_equals_discriminant_symbol(self):
        # the Jacobi symbol (p / 13*239) is (p/13) (p/239), at every odd
        # prime the claim does not exclude
        excluded = verifier._EXCLUDED["thm-perrin-odd"]
        for p in primes_upto(10**5)[1:]:
            if p not in excluded:
                jacobi = legendre(p, 13) * legendre(p, 239)
                assert (jacobi == 1) == (legendre(-4 * 13 * 239, p) == 1), p
                assert derived_condition("thm-perrin-odd", p) == (jacobi == 1), p
        for _, p in twin_primes_upto(10**5):
            if p not in excluded:
                # the claim table predicts classes exactly when the symbol is +1
                jacobi = legendre(p, 13) * legendre(p, 239)
                assert bool(predicted_ks("thm-perrin-odd", p)) == (jacobi == 1), p

    @pytest.mark.parametrize("cid", THEOREM_IDS)
    def test_derived_condition_is_the_jacobi_symbol_over_a_full_period(self, cid):
        # (D/n) for every odd n of one period mod lcm(8, n_D), multiples of
        # each prime of D included, where the symbol is 0 and the condition
        # must read False; the Jacobi symbol multiplies the Legendre symbols
        # of n's prime factors, each as often as it divides n
        d = DISCRIMINANTS[cid]
        n_d = verifier._CLAIM_READS[cid][4]
        for n in range(1, math.lcm(8, n_d), 2):
            jacobi, rest = 1, n
            for q in prime_factors(n):
                while rest % q == 0:
                    jacobi, rest = jacobi * legendre(d, q), rest // q
            assert derived_condition(cid, n) == (jacobi == 1), (cid, n)

    def test_derived_split_tests(self):
        # D = c1^2 - 4 c2 c0 of each theorem's reduction, and n, the product
        # of the odd primes that divide D to an odd power
        for cid, d in DISCRIMINANTS.items():
            red = CASE_ROWS[CLAIMS[cid].family, CLAIMS[cid].parity][1]
            assert red.c1 * red.c1 - 4 * red.c2 * red.c0 == d, cid
        assert {cid: verifier._CLAIM_READS[cid][4] for cid in THEOREM_IDS} == {
            "thm-padovan-even": 1, "thm-padovan-odd": 3,
            "thm-perrin-even": 181, "thm-perrin-odd": 13 * 239}

    def test_paper_statements_equal_derived_conditions(self):
        # the paper's congruences and symbols, at every odd prime each
        # theorem applies at
        for cid in THEOREM_IDS:
            statement = THEOREM_STATEMENTS[cid]
            for p in primes_upto(2 * 10**4)[1:]:
                if p not in statement.excluded:
                    assert derived_condition(cid, p) == statement.condition(p), (cid, p)

    def test_theorem_classes_are_the_candidate_formula(self):
        # the candidate classes {(j z - 3) mod pi(p) : j = 1..4} when the side
        # condition, stated here as a symbol, holds; none otherwise
        side_conditions = {
            "thm-padovan-even": lambda p: legendre(-1, p) == 1,
            "thm-padovan-odd": lambda p: legendre(-3, p) == 1,
            "thm-perrin-even": lambda p: legendre(-8 * 181, p) == 1,
            "thm-perrin-odd": lambda p: legendre(-4 * 13 * 239, p) == 1,
        }
        seen = set()
        for _, p in twin_primes_upto(10**4):
            profile = FibProfile.of(p)
            z, pi = profile.entry_point, profile.pisano_period
            for cid in set(applicable_case_ids(p)) & set(side_conditions):
                expected = ()
                if side_conditions[cid](p):
                    expected = tuple(sorted({(j * z - 3) % pi for j in range(1, 5)}))
                    seen.add(cid)
                # k < pi(p) in the first window, so its k are the classes
                assert predicted_ks(cid, p) == expected, (cid, p)
                assert reference.predicted_classes(cid, profile) == expected
        assert seen == set(side_conditions)


class TestNormReductions:
    def test_reduction_table(self):
        assert NORM_REDUCTIONS["padovan-even"].c2 == 1
        assert (NORM_REDUCTIONS["perrin-even"].c2, NORM_REDUCTIONS["perrin-even"].c1) == (27, -8)
        assert NORM_REDUCTIONS["perrin-odd"].value(0, 7) == 52 % 7

    def test_reduced_value_enforces_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            reduced_norm_value("padovan-even", 0, 13)  # z(13)=7 does not divide 3
        with pytest.raises(ValueError):
            reduced_norm_value("bogus", 4, 13)

    def test_anchor_value_at_the_double_root(self):
        # F = 94 is the double root of 27x^2 - 8x + 14 mod 181
        assert NORM_REDUCTIONS["perrin-even"].value(94, 181) == 0
        # and the only root: completing the square pins x = 94
        sol = solve_quadratic(QuadCongruence(27, -8, 14, PrimeModulus(181)))
        assert sol.roots == (94,)

    def test_padovan_even_unconditional_identity(self):
        # N(QP_{2k}) = 2(F_{k+3}-1)^2 + (F_{k+2}-1)^2 + (F_{k+4}-1)^2, no hypothesis
        for p in TWINS_200:
            params = SeqParams.twin_prime(p)
            pi = FibProfile.of(p).pisano_period
            elems = qp_elements(params, 4 * pi + 2)
            for k in range(2 * pi):
                f2, f3, f4 = (fib_pair(k + j, p)[0] for j in (2, 3, 4))
                rhs = (2 * (f3 - 1) ** 2 + (f2 - 1) ** 2 + (f4 - 1) ** 2) % p
                assert elems[2 * k].norm() == rhs, (p, k)

    def test_padovan_biconditionals_all_twins(self):
        for p in TWINS_200:
            params = SeqParams.twin_prime(p)
            ks = hypothesis_ks(p)
            elems = qp_elements(params, 2 * ks[-1] + 6)
            for k in ks:
                even = reduced_norm_value("padovan-even", k, p)
                odd = reduced_norm_value("padovan-odd", k, p)
                assert (elems[2 * k].norm() == 0) == (even == 0), (p, k)
                assert (elems[2 * k + 1].norm() == 0) == (odd == 0), (p, k)

    def test_perrin_odd_biconditional_all_twins(self):
        for p in TWINS_200:
            params = SeqParams.twin_prime(p)
            ks = hypothesis_ks(p)
            elems = qr_elements(params, 2 * ks[-1] + 6)
            for k in ks:
                value = reduced_norm_value("perrin-odd", k, p)
                assert (elems[2 * k + 1].norm() == 0) == (value == 0), (p, k)

    def test_perrin_even_adjusted_biconditional_all_twins(self):
        # The re-derived quadratic 51f^2 + 28f + 26 tracks the oracle at
        # every hypothesis index; the norm equals exactly twice its value.
        for p in TWINS_200:
            params = SeqParams.twin_prime(p)
            ks = hypothesis_ks(p)
            elems = qr_elements(params, 2 * ks[-1] + 6)
            for k in ks:
                value = reduced_norm_value("perrin-even-adjusted", k, p)
                norm = elems[2 * k].norm()
                assert norm == 2 * value % p, (p, k)
                assert (norm == 0) == (value == 0), (p, k)

    def test_perrin_even_primary_form_known_disagreements(self):
        # The primary perrin-even quadratic disagrees with the oracle at
        # p = 5 (first at k = 7) and p = 7 (first at k = 5); the adjusted
        # form above does not.  Pin that fact so it cannot regress silently.
        for p, first_k in ((5, 7), (7, 5)):
            params = SeqParams.twin_prime(p)
            elems = qr_elements(params, 2 * first_k + 2)
            norm = elems[2 * first_k].norm()
            value = reduced_norm_value("perrin-even", first_k, p)
            assert norm == 0 and value != 0, (p, first_k)
        # everywhere else in range the primary form agrees
        for p in TWINS_200:
            if p in (5, 7):
                continue
            params = SeqParams.twin_prime(p)
            ks = hypothesis_ks(p)
            elems = qr_elements(params, 2 * ks[-1] + 6)
            for k in ks:
                value = reduced_norm_value("perrin-even", k, p)
                assert (elems[2 * k].norm() == 0) == (value == 0), (p, k)

    def test_adjusted_reduction_registered(self):
        assert PERRIN_EVEN_ADJUSTED.kind == "perrin-even-adjusted"
        assert (PERRIN_EVEN_ADJUSTED.c2, PERRIN_EVEN_ADJUSTED.c1, PERRIN_EVEN_ADJUSTED.c0) == (51, 28, 26)


class TestSolvabilityBridges:
    def test_even_congruence_bridge(self):
        # roots of 27x^2 - 8x + 14 exist mod p iff legendre(-8*181, p) = +1
        for p in primes_upto(500):
            if p < 5 or p == 181:
                continue
            q = QuadCongruence(27, -8, 14, PrimeModulus(p))
            sol = solve_quadratic(q)
            scan = [x for x in range(p) if q.evaluate(x) == 0]
            assert sorted(sol.roots) == scan
            assert bool(scan) == (legendre(-8 * 181, p) == 1), p

    def test_odd_congruence_bridge(self):
        for p in primes_upto(500):
            if p < 5 or p in (7, 13, 239):
                continue
            q = QuadCongruence(63, 26, 52, PrimeModulus(p))
            sol = solve_quadratic(q)
            scan = [x for x in range(p) if q.evaluate(x) == 0]
            assert sorted(sol.roots) == scan
            assert bool(scan) == (legendre(-4 * 13 * 239, p) == 1), p


class TestBruteForce:
    def test_edge_cases(self):
        params = SeqParams.twin_prime(5)
        assert norm_oracle(params, "QP", 0)[1] == set()
        assert norm_oracle(params, "QP", 1)[1] == set()

    def test_cor_13_oracle_empty_on_hypothesis(self):
        params, profile = SeqParams.twin_prime(13), FibProfile.of(13)
        limit = 2 * math.lcm(family_period(params, "QR"), 2 * profile.pisano_period)
        found = norm_oracle(params, "QR", limit)[1]
        assert not {m for m in found if satisfies_hypothesis("cor-13", profile, m)}

    def test_zero_divisors_are_periodic(self):
        params = SeqParams.twin_prime(7)
        period = family_period(params, "QR")
        found = norm_oracle(params, "QR", 2 * period)[1]
        assert {m % period for m in found if m < period} == {
            m % period for m in found
        }


class TestFamilyPeriod:
    def test_periods_cover_both_orders(self):
        for p in (5, 7, 13):
            params = SeqParams.twin_prime(p)
            qr_period = family_period(params, "QR")
            elems = qr_elements(params, 2 * qr_period + 4)
            assert all(
                elems[n + qr_period] == elems[n] for n in range(qr_period)
            )
            qp_period = family_period(params, "QP")
            qp = qp_elements(params, 2 * qp_period + 4)
            assert all(qp[n + qp_period] == qp[n] for n in range(qp_period))


class TestVerdictRecord:
    def test_cor_13_holds(self):
        rec = record("cor-13", 13)
        assert rec["classification"] == HOLDS
        assert rec["predicted_classes"] == [] and rec["observed_classes"] == []
        assert rec["counterexamples"] == []

    def test_cor_181_vacuous(self):
        # hypothesis class 87 mod 90 never meets the predicted class 47
        rec = record("cor-181", 181)
        assert rec["classification"] == HOLDS_VACUOUSLY
        assert rec["predicted_classes"] == [] and rec["observed_classes"] == []

    def test_cor_7_vacuous(self):
        rec = record("cor-7", 7)
        assert rec["classification"] == HOLDS_VACUOUSLY
        assert rec["predicted_classes"] == [] and rec["observed_classes"] == []

    def test_perrin_even_holds_at_7(self):
        # nonvacuous agreement: all four candidate classes carry zero divisors
        rec = record("thm-perrin-even", 7)
        assert rec["classification"] == HOLDS
        assert rec["predicted_classes"] == rec["observed_classes"] != []
        profile = FibProfile.of(7)
        assert all(satisfies_hypothesis("thm-perrin-even", profile, m)
                   for m in rec["observed_classes"])

    def test_padovan_even_fails_at_13_with_counterexamples(self):
        # side condition is on (13 = 1 mod 4) but the oracle finds no zero
        # divisors at hypothesis indices: honest FAILS with full detail
        rec = record("thm-padovan-even", 13)
        assert rec["classification"] == FAILS
        assert rec["observed_classes"] == []
        assert rec["predicted_count"] == 4
        cexs = rec["counterexamples"]
        assert cexs
        assert cexs[0]["index"] == min(c["index"] for c in cexs)
        assert cexs[0]["predicted"] and not cexs[0]["observed"]
        assert cexs[0]["norm"] != 0

    def test_perrin_even_fails_at_5_observed_only(self):
        # zero divisors exist although the predicted side condition is off
        rec = record("thm-perrin-even", 5)
        assert rec["classification"] == FAILS
        assert rec["predicted_classes"] == []
        assert rec["observed_classes"] != []
        for c in rec["counterexamples"]:
            assert c["observed"] and not c["predicted"]
            assert c["norm"] == 0

    def test_determinism(self):
        assert record("thm-padovan-odd", 7) == record("thm-padovan-odd", 7)

    def test_window_covers_both_periodicities(self):
        scan = record("thm-padovan-even", 5)["scan"]
        assert scan["scan_limit"] == 2 * scan["window_modulus"]
        assert scan["window_modulus"] % (2 * FibProfile.of(5).pisano_period) == 0
        assert scan["window_modulus"] % family_period(SeqParams.twin_prime(5), "QP") == 0

    @pytest.mark.parametrize("windows", [3, 4, 5])
    def test_later_windows_repeat_the_first(self, windows):
        # why a record covers a fixed count of windows: the reference that
        # steps through `windows` of them, assuming no period, finds the
        # record's classes and classification, and each later window's
        # disagreements are the first window's, moved on by 2 pi(p)
        for _, p in twin_primes_upto(10**4):
            profile = FibProfile.of(p)
            window = 2 * profile.pisano_period
            for cid in applicable_case_ids(p):
                rec = verdict_record(profile, cid)
                longer = full_window_verdict(cid, profile, windows)
                for key in ("predicted_classes", "observed_classes", "classification"):
                    assert longer[key] == rec[key], (cid, p, key)
                first = [c for c in rec["counterexamples"] if c["index"] < window]
                assert longer["counterexamples"] == [
                    {**c, "index": c["index"] + window * t, "k": c["k"] + window // 2 * t}
                    for t in range(windows) for c in first
                ], (cid, p)

    def test_counterexample_reduced_values_trace_the_chain(self):
        for c in record("thm-padovan-even", 13)["counterexamples"]:
            expected = reduced_norm_value("padovan-even", c["k"], 13)
            assert c["reduced"] == expected
            # biconditional: nonzero norm must pair with nonzero reduced value
            assert (c["norm"] == 0) == (c["reduced"] == 0)

    def test_full_scan_emits_verdict_for_every_case(self):
        for p in (5, 7, 13):
            for cid in applicable_case_ids(p):
                assert record(cid, p)["classification"] in (HOLDS, HOLDS_VACUOUSLY, FAILS)

    def test_record_shape(self):
        d = record("cor-13", 13)
        assert d["case"]["claim_id"] == "cor-13"
        assert d["case"]["parity"] == "odd"
        assert d["classification"] == HOLDS
        assert d["predicted_count"] == 0
        assert isinstance(d["counterexamples"], list)

    def test_reduces_each_disagreement_once(self, monkeypatch):
        # the second window repeats the first window's disagreements, so a
        # record reduces each of them once
        reduced = []
        reduce = verifier._reduce

        def counted(red, f2, p):
            reduced.append(f2)
            return reduce(red, f2, p)

        monkeypatch.setattr(verifier, "_reduce", counted)
        profile = FibProfile.of(13)
        disagreements = verifier._claim_lists(
            profile, "thm-padovan-even", jump_oracle(profile, "QP", 0))[2]
        # F_{k+2} = r^j at each disagreeing index m = 2k, k = j z(p) - 3
        z = profile.entry_point
        f2s = [profile.powers[(m // 2 + 3) // z - 1] for m in disagreements]
        rec = verdict_record(profile, "thm-padovan-even")
        assert reduced == f2s != []
        assert len(rec["counterexamples"]) == 2 * len(reduced)


def hypothesis_indices(claim_id, profile, limit):
    """The claim's hypothesis indices m < limit, as `decide_prime` reads them."""
    z = profile.entry_point
    return range(2 * (z - 3) + CLAIMS[claim_id].parity, limit, 2 * z)


def tiled_norms(claim_id, profile, count):
    """The first `count` hypothesis-index norms, taking `jump_oracle`'s one
    period of r to repeat: the references check that it does."""
    claim = CLAIMS[claim_id]
    norms = jump_oracle(profile, claim.family, claim.parity)
    return [norms[i % len(norms)] for i in range(count)]


def linear_verdict(claim_id, profile, linear):
    """The `verify --format json` record the linear reference gives: `linear`
    holds the window lcm(family_period, 2 pi(p)) and the `norm_oracle` norms
    and zero divisors over at least two such windows."""
    window, norms, zero_divisors = linear
    p = profile.p
    return reference.scan_record(claim_id, profile, window, lambda hypothesis: {
        m: (norms[m], m in zero_divisors, fib_pair(m // 2 + 2, p)[0]) for m in hypothesis})


class TestJumpOracle:
    @pytest.mark.parametrize("p", TWINS_2000)
    def test_verdicts_match_linear_reference(self, p):
        params, profile = SeqParams.twin_prime(p), FibProfile.of(p)
        linear = {}
        for family in ("QP", "QR"):
            window = math.lcm(family_period(params, family), 2 * profile.pisano_period)
            linear[family] = (window, *norm_oracle(params, family, 4 * window))
        for cid in applicable_case_ids(p):
            expected = linear_verdict(cid, profile, linear[CLAIMS[cid].family])
            assert verdict_record(profile, cid) == expected, (cid, p)

    def test_norms_match_linear_reference_at_every_hypothesis_index(self):
        # every norm, and every zero divisor as a zero norm, against the
        # linear norm pass over six Pisano periods; and F_{k+2}, which a
        # record reduces, as the power of r the read takes, against fast
        # doubling
        for p in TWINS_200:
            params, profile = SeqParams.twin_prime(p), FibProfile.of(p)
            powers = profile.powers
            for cid in applicable_case_ids(p):
                limit = 6 * profile.pisano_period
                norms, zero_divisors = norm_oracle(params, CLAIMS[cid].family, limit)
                indices = hypothesis_indices(cid, profile, limit)
                read = tiled_norms(cid, profile, len(indices))
                assert read == [norms[m] for m in indices], (cid, p)
                assert [m for m, norm in zip(indices, read) if norm == 0] == [
                    m for m in indices if m in zero_divisors], (cid, p)
                assert [powers[i % len(powers)] for i in range(len(indices))] == [
                    fib_pair(m // 2 + 2, p)[0] for m in indices], (cid, p)

    def test_matches_matrix_reference_for_every_twin_prime_to_1e5(self):
        # every hypothesis index over two windows, for cases of both
        # families and both parities at every prime: the closed form
        # against 3x3 matrix powers over general (a, b)
        for _, p in twin_primes_upto(10**5):
            params, profile = SeqParams.twin_prime(p), FibProfile.of(p)
            for cid in applicable_case_ids(p):
                indices = hypothesis_indices(cid, profile, 4 * profile.pisano_period)
                read = tiled_norms(cid, profile, len(indices))
                assert (
                    dict(zip(indices, read)),
                    {m for m, norm in zip(indices, read) if norm == 0},
                ) == matrix_jump_oracle(params, CLAIMS[cid].family, profile, indices), (cid, p)

    def test_matches_matrix_reference_at_every_prime_to_2000(self):
        # the closed form needs only (a, b) = (-2, 0) mod p, so it holds at
        # every prime, twin or not; this reaches the zero-norm branch at
        # real zero divisors, which the twin primes give only at 5, 7, 13
        zero_divisor_primes = {cid: set() for cid in THEOREM_IDS}
        for p in primes_upto(2000)[2:]:  # 5, 7, ..., 1999
            params, profile = SeqParams(p - 2, p, modulus=p), FibProfile.of(p)
            for cid in THEOREM_IDS:
                family = CLAIMS[cid].family
                indices = hypothesis_indices(cid, profile, 2 * profile.pisano_period)
                read = jump_oracle(profile, family, CLAIMS[cid].parity)
                norms, zero_divisors = matrix_jump_oracle(params, family, profile, indices)
                assert read == [norms[m] for m in indices], (cid, p)
                assert {
                    m for m, norm in zip(indices, read, strict=True) if norm == 0
                } == zero_divisors, (cid, p)
                if zero_divisors:
                    zero_divisor_primes[cid].add(p)
        assert zero_divisor_primes == {
            "thm-padovan-even": {5},
            "thm-padovan-odd": {13, 37},
            "thm-perrin-even": {5, 7},
            "thm-perrin-odd": {47, 89, 797},
        }

    def test_wrong_window_fails_the_certificate(self):
        # z(5) = 5 and pi(5) = 20; a claimed pi of 5 makes the window 10,
        # which the QP stream mod 5 (minimal period 40) does not repeat in
        params = SeqParams.twin_prime(5)
        assert 10 % family_period(params, "QP") != 0
        # pi(7) = 16 = 2 z(7); a claimed pi of 8 is even and a multiple of z
        params7 = SeqParams.twin_prime(7)
        assert 16 % family_period(params7, "QR") != 0
        assert FibProfile(5, 5, (1,)).pisano_period == 5
        with pytest.raises(AssertionError):
            matrix_jump_oracle(params, "QP", FibProfile(5, 5, (1,)), range(2, 80, 10))
        with pytest.raises(AssertionError):
            matrix_jump_oracle(params7, "QR", FibProfile(7, 8, (1,)), range(10, 64, 16))


def verify_json(p):
    """The records and exit status of `verify --p p --format json`."""
    text, status = cli.cmd_verify(cli._parse_args(["verify", "--p", str(p), "--format", "json"]))
    return json.loads(text)["verdicts"], status


class TestOnePeriodVerdict:
    """Records from one period of r against `full_window_verdict`, which
    reads every hypothesis index of the scan."""

    def test_matches_full_window_reference_for_every_twin_prime_to_1e4(self):
        # whole records, every counterexample included, as verify prints them
        for _, p in twin_primes_upto(10**4):
            profile = FibProfile.of(p)
            expected = [full_window_verdict(cid, profile) for cid in applicable_case_ids(p)]
            records, status = verify_json(p)
            assert records == expected, p
            assert status == (2 if any(r["classification"] == FAILS for r in expected) else 0)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(min_value=5, max_value=10**12), st.booleans())
    def test_matches_full_window_reference_at_drawn_twin_primes_to_1e12(self, n, from_top):
        # far from 5, 7 and 13, where theorem rows FAIL with nothing
        # observed; drawn integers lean small, so half the draws count down
        # from 10^12
        p = 10**12 + 5 - n if from_top else n
        while not (is_prime(p) and is_prime(p - 2)):
            p -= 1
        profile = FibProfile.of(p)
        expected = [full_window_verdict(cid, profile) for cid in applicable_case_ids(p)]
        records, status = verify_json(p)
        assert records == expected, p
        assert status == (2 if any(r["classification"] == FAILS for r in expected) else 0)

    def test_verdicts_ask_no_per_index_predicate(self, monkeypatch):
        # the full-window reference asks `predicts` at every index; the
        # production pass reads the claim table and calls no per-index test
        primes = (5, 7, 13, 181)
        expected = {
            p: [full_window_verdict(cid, FibProfile.of(p)) for cid in applicable_case_ids(p)]
            for p in primes
        }

        def refuse(*args):
            raise AssertionError("a per-index predicate asked")

        monkeypatch.setattr(reference, "predicts", refuse)
        monkeypatch.setattr(reference, "satisfies_hypothesis", refuse)
        records = {p: verify_json(p)[0] for p in primes}
        assert records == expected
        assert {r["classification"] for rs in records.values() for r in rs} == {
            HOLDS, HOLDS_VACUOUSLY, FAILS
        }

    def test_period_is_one_period_of_r(self):
        for _, p in twin_primes_upto(2000):
            profile = FibProfile.of(p)
            z, pi = profile.entry_point, profile.pisano_period
            r = fib_pair(z + 1, p)[0]
            assert profile.powers == tuple(pow(r, j, p) for j in range(1, pi // z + 1)), p
            assert profile.powers[-1] == 1, p


class TestDecidePrime:
    """`decide_prime`, the one decision path under `scan` and csv/table `verify`."""

    @staticmethod
    def count_reads(monkeypatch):
        reads = []
        read = verifier.jump_oracle

        def counted(profile, family, parity):
            reads.append((profile.p, family, parity))
            return read(profile, family, parity)

        monkeypatch.setattr(verifier, "jump_oracle", counted)
        return reads

    @staticmethod
    def read_rows(p, case_ids):
        # the rows decide_prime reads: a theorem's where p divides its norm
        # resultant, a corollary's at its prime
        rows = [(CLAIMS[cid].family, CLAIMS[cid].parity, CLAIMS[cid].classes is None)
                for cid in case_ids]
        return sorted((p, family, parity) for family, parity, theorem in rows
                      if not theorem or verifier._ROW_RESULTANTS[family, parity] % p == 0)

    def test_reads_theorem_rows_only_where_p_divides_the_resultant(self, monkeypatch):
        # decide_prime reads at most one row per claim, once (the corollaries
        # read the rows of the theorems that 7, 13 and 181 exclude; 239 heads
        # no twin pair): a theorem's row only where p divides its resultant
        # (7 divides that of QR even, 13 that of QP odd, 181 and 239 none),
        # and each corollary's row at its prime.  verify's JSON decides no
        # row and reads each record's row once.
        reads = self.count_reads(monkeypatch)
        decided, json_reads = {}, {}
        for p in (7, 13, 181, 239):
            ids = applicable_case_ids(p)
            reads.clear()
            decide_prime(FibProfile.of(p), ids)
            decided[p] = sorted(reads)
            assert decided[p] == self.read_rows(p, ids), p
            if p == 239:
                continue
            for fmt in ("json", "csv", "table"):
                reads.clear()
                cli.cmd_verify(cli._parse_args(["verify", "--p", str(p), "--format", fmt]))
                if fmt == "json":
                    json_reads[p] = sorted(reads)
                else:
                    assert sorted(reads) == decided[p], (p, fmt)
        assert decided == {7: [(7, "QR", 0), (7, "QR", 1)], 13: [(13, "QP", 1), (13, "QR", 1)],
                           181: [(181, "QR", 0)], 239: []}
        assert json_reads == {
            p: sorted((p, CLAIMS[cid].family, CLAIMS[cid].parity)
                      for cid in applicable_case_ids(p))
            for p in (7, 13, 181)
        } == {
            7: [(7, "QP", 0), (7, "QP", 1), (7, "QR", 0), (7, "QR", 1)],
            13: [(13, "QP", 0), (13, "QP", 1), (13, "QR", 0), (13, "QR", 1)],
            181: [(181, "QP", 0), (181, "QP", 1), (181, "QR", 0), (181, "QR", 1)],
        }

    def test_reads_only_these_rows_at_every_twin_prime_to_2000(self, monkeypatch):
        reads = self.count_reads(monkeypatch)
        expected = []
        for p in TWINS_2000:
            ids = applicable_case_ids(p)
            decide_prime(FibProfile.of(p), ids)
            expected += self.read_rows(p, ids)
        assert sorted(reads) == expected == [
            (5, "QP", 0), (5, "QR", 0), (7, "QR", 0), (7, "QR", 1), (13, "QP", 1), (13, "QR", 1),
            (181, "QR", 0)]

    @staticmethod
    def rows_reading_every_row(profile, case_ids):
        # the rows with every resultant replaced by 0: every row is read and
        # every claim decided from the lists of `_claim_lists`, none in
        # closed form
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verifier, "_CLAIM_READS",
                          {cid: (*reads[:-1], 0)
                           for cid, reads in verifier._CLAIM_READS.items()})
            return decide_prime(profile, case_ids)

    def test_gate_agrees_with_reading_every_row(self):
        # the gate only skips reads, and the closed form it opens gives the
        # rows the read path gives: each row is the same when every row is read
        for _, p in twin_primes_upto(20000):
            profile = FibProfile.of(p)
            ids = applicable_case_ids(p)
            assert decide_prime(profile, ids) == self.rows_reading_every_row(profile, ids), p

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(min_value=5, max_value=10**12), st.booleans())
    def test_closed_form_agrees_with_reading_every_row_at_drawn_twin_primes_to_1e12(
        self, n, from_top
    ):
        # past 13 no resultant has p as a factor, so every theorem row is in
        # closed form; drawn integers lean small, so half the draws count
        # down from 10^12
        p = 10**12 + 5 - n if from_top else n
        while not (is_prime(p) and is_prime(p - 2)):
            p -= 1
        assert p <= 13 or all(r % p for r in verifier._ROW_RESULTANTS.values()), p
        profile = FibProfile.of(p)
        ids = applicable_case_ids(p)
        assert decide_prime(profile, ids) == self.rows_reading_every_row(profile, ids), p


FIB = [0, 1]
while len(FIB) < 210:
    FIB.append(FIB[-1] + FIB[-2])


class TestRowQuadratics:
    """The norm of each `CASE_ROWS` row as N(R) = c0 + c1 R + c2 R^2."""

    @staticmethod
    def is_sum_of_squared_terms(terms, quadratic):
        c0, c1, c2 = quadratic
        return all(
            c0 + c1 * r + c2 * r * r == sum((a + d * r) ** 2 for a, d in terms)
            for r in range(-5, 6)
        )

    def test_quadratic_is_the_sum_of_squared_terms(self):
        for row, (terms, _, quadratic) in CASE_ROWS.items():
            assert self.is_sum_of_squared_terms(terms, quadratic), row

    def test_values_at_the_reachable_powers(self):
        # r^2 = (-1)^z by Cassini, so R = r^j is +-1, or +-i when z(p) is
        # odd: a zero norm needs p to divide N(1), N(-1) or N(i) N(-i)
        assert {
            row: (c0 + c1 + c2, c0 - c1 + c2, (c0 - c2) ** 2 + c1**2)
            for row, (_, _, (c0, c1, c2)) in CASE_ROWS.items()
        } == {
            ("QP", 0): (2, 10, 20),
            ("QP", 1): (1, 13, 37),
            ("QR", 0): (98, 210, 5636),
            ("QR", 1): (89, 141, 797),
        }

    def test_a_wrong_coefficient_is_not_a_sum_of_squares(self):
        # c1 = sum A D drops the cross term's factor 2
        for row, (terms, _, (c0, c1, c2)) in CASE_ROWS.items():
            for wrong in ((c0, c1 // 2, c2), (c0 + 1, c1, c2), (c0, c1, c2 - 1)):
                assert not self.is_sum_of_squared_terms(terms, wrong), (row, wrong)


class TestNormsInF:
    """Each `CASE_ROWS` norm N(R) over Z in the paper's f, R = f + 1 for QP
    (f = F_{k+2} - 1 with F_{k+2} = R) and R = -f for QR (f = F_{k+1} = -R),
    against the encoded reductions: why acceptance criterion 6 is red."""

    @staticmethod
    def norm_in_f(row):
        # N(u f + v) as (c2, c1, c0) in f
        c0, c1, c2 = CASE_ROWS[row][2]
        u, v = (1, 1) if row[0] == "QP" else (-1, 0)
        form = (c2 * u * u, (2 * c2 * v + c1) * u, c0 + c1 * v + c2 * v * v)
        assert all(c0 + c1 * (u * f + v) + c2 * (u * f + v) ** 2
                   == form[0] * f * f + form[1] * f + form[2] for f in range(-3, 4))
        return form

    @staticmethod
    def discriminant(c2, c1, c0):
        return c1 * c1 - 4 * c2 * c0

    @pytest.mark.parametrize("row, kind, factor", [
        (("QP", 0), "padovan-even", 2), (("QP", 1), "padovan-odd", 1),
        (("QR", 1), "perrin-odd", 1)])
    def test_reduction_is_its_norm_up_to_a_factor(self, row, kind, factor):
        red = NORM_REDUCTIONS[kind]
        assert CASE_ROWS[row][1] == red
        assert self.norm_in_f(row) == (factor * red.c2, factor * red.c1, factor * red.c0)

    def test_perrin_even_norm_is_twice_the_adjusted_form(self):
        red = PERRIN_EVEN_ADJUSTED
        assert self.norm_in_f(("QR", 0)) == (2 * red.c2, 2 * red.c1, 2 * red.c0)

    def test_perrin_even_encoded_form_is_no_affine_image_of_its_norm(self):
        # f -> u f + v and a factor lambda multiply a discriminant by
        # (lambda u)^2, so the two forms would need a rational square ratio
        red = NORM_REDUCTIONS["perrin-even"]
        norm = self.discriminant(*self.norm_in_f(("QR", 0)))
        encoded = self.discriminant(red.c2, red.c1, red.c0)
        assert (norm, encoded) == (-18080, -1448)
        ratio = Fraction(norm, encoded)
        assert ratio == Fraction(2260, 181)
        assert not all(math.isqrt(n) ** 2 == n for n in (ratio.numerator, ratio.denominator))


class TestZeroQuaternion:
    """No hypothesis-index quaternion is zero, so `jump_oracle` takes a zero
    norm for a zero divisor."""

    @pytest.mark.parametrize("row", sorted(CASE_ROWS))
    def test_no_hypothesis_index_quaternion_is_zero(self, row):
        # A_i + D_i R = 0 (mod p) for all four terms makes p divide every
        # 2x2 minor A_i D_j - A_j D_i; a row whose minors are coprime has a
        # nonzero term at every p and R
        terms = CASE_ROWS[row][0]
        minors = [a1 * d2 - a2 * d1 for (a1, d1), (a2, d2) in itertools.combinations(terms, 2)]
        assert math.gcd(*minors) == 1


class TestFibForms:
    """`FIB_FORMS` checked over Z with no modulus, (a, b) = (-2, 0)."""

    K = 200
    # for QR, R(a, b) at even positions, R(b, a) = R at (0, -2) at odd ones
    STREAMS = {"QP": integer_family_stream(-2, 0, "QP", 2 * K + 2),
               "QR": integer_family_stream(-2, 0, "QR", 2 * K + 2)}

    @staticmethod
    def satisfies_parity_recurrence(e):
        return all(e[k] == -2 * e[k - 1] + e[k - 3] for k in range(3, len(e)))

    @pytest.mark.parametrize("family", ["QP", "QR"])
    def test_rows_reproduce_the_integer_streams(self, family):
        for r, (a, b, c) in enumerate(FIB_FORMS[family]):
            for k in range(self.K + 1):
                expected = (-1) ** k * (a + b * FIB[k] + c * FIB[k + 1])
                assert self.STREAMS[family][2 * k + r] == expected, (family, r, k)

    def test_both_sides_satisfy_one_order_three_recurrence(self):
        # the parity subsequences of a stream by the generating-function
        # denominator 1 - (a+b) x^2 + ab x^4 - x^6, the Fibonacci side since
        # 2 F_{k-1} - F_{k-3} = F_k: so rows that fit k = 0, 1, 2 fit every k
        ks = range(self.K + 1)
        assert self.satisfies_parity_recurrence([(-1) ** k for k in ks])
        assert self.satisfies_parity_recurrence([(-1) ** k * FIB[k] for k in ks])
        assert self.satisfies_parity_recurrence([(-1) ** k * FIB[k + 1] for k in ks])
        for stream in self.STREAMS.values():
            assert self.satisfies_parity_recurrence(stream[0::2])
            assert self.satisfies_parity_recurrence(stream[1::2])

    def test_padovan_rows_are_padovan_fib_form(self):
        # a modulus above every |P_m| here makes padovan_fib_form exact
        big = 10**60
        for m in range(2 * self.K):
            k, r = divmod(m, 2)
            a, b, c = FIB_FORMS["QP"][r]
            row = (-1) ** k * (a + b * FIB[k] + c * FIB[k + 1])
            assert padovan_fib_form(m, big) == row % big, m


class TestFibFormsFromStreams:
    """The rows solved from three terms of each integer stream
    (`reference.fib_form_rows`) at both orders of the twin coefficients
    mod p, (a, b) = (-2, 0) and (0, -2)."""

    K = 200
    ZERO_MINUS_TWO = {"QP": ((1, -1, 0), (1, -1, -1)), "QR": ((1, -5, 2), (-5, -3, 5))}

    def test_rows_at_zero_minus_two_reproduce_the_integer_streams(self):
        # at (-2, 0) the rows are FIB_FORMS, which TestFibForms checks
        for family in FIB_FORMS:
            stream = integer_family_stream(0, -2, family, 2 * self.K + 2)
            for r, (x, y, z) in enumerate(fib_form_rows(0, -2, family)):
                for k in range(self.K + 1):
                    assert stream[2 * k + r] == (-1) ** k * (x + y * FIB[k] + z * FIB[k + 1]), (
                        family, r, k)

    def test_rows_at_minus_two_zero_are_fib_forms(self):
        assert {family: fib_form_rows(-2, 0, family) for family in FIB_FORMS} == FIB_FORMS

    def test_rows_at_zero_minus_two(self):
        assert {family: fib_form_rows(0, -2, family) for family in FIB_FORMS} == self.ZERO_MINUS_TWO

    def test_hypothesis_terms_and_norms_are_case_rows(self):
        for (family, parity), (terms, _, quadratic) in CASE_ROWS.items():
            assert hypothesis_row(fib_form_rows(-2, 0, family), parity) == (terms, quadratic), (
                family, parity)

    def test_norms_at_zero_minus_two(self):
        # the (c0, c1, c2) of each row at the swapped order; no claim reads them
        assert {
            (family, parity): hypothesis_row(fib_form_rows(0, -2, family), parity)[1]
            for family, parity in CASE_ROWS
        } == {("QP", 0): (4, -4, 6), ("QP", 1): (4, -2, 3),
              ("QR", 0): (52, 20, 378), ("QR", 1): (52, 34, 259)}


class TestPerrinSeeds:
    """ROADMAP item 11's finite search over Z: no Perrin seed (3, 0, x),
    |x| <= 6, puts a QR hypothesis-index norm in the discriminant class of
    the paper's perrin-even form, D = -1448 = -2 * 181 * 2^2.  It covers
    both orders (a, b) = (-2, 0) and (0, -2), both parities, and R(b, a) or
    R(a, b) at the odd positions of the stream."""

    K = 60
    SEEDS = [(3, 0, x) for x in range(-6, 7)]
    ORDERS = [(-2, 0), (0, -2)]

    @staticmethod
    def conventions(a, b, seed):
        # the QR rows with R(b, a) at odd positions, as `integer_family_stream`
        # has them, and with R(a, b) there: that odd row is the odd row of
        # the swapped order, whose stream has R(a, b) at its odd positions
        rows = fib_form_rows(a, b, "QR", seed)
        return {"R(b, a) odd": rows, "R(a, b) odd": (rows[0], fib_form_rows(b, a, "QR", seed)[1])}

    @staticmethod
    def in_papers_class(d):
        # d / (-2 * 181) is a nonzero rational square exactly when
        # -2 * 181 * d is a positive integer square
        n = -2 * 181 * d
        return n > 0 and math.isqrt(n) ** 2 == n

    def test_rows_reproduce_each_convention_stream(self):
        count = 2 * self.K + 2
        for seed in self.SEEDS:
            for a, b in self.ORDERS:
                streams = {"R(b, a) odd": integer_family_stream(a, b, "QR", count, seed),
                           "R(a, b) odd": integer_stream(a, b, seed, count)}
                for name, rows in self.conventions(a, b, seed).items():
                    for r, (x, y, z) in enumerate(rows):
                        for k in range(self.K + 1):
                            assert streams[name][2 * k + r] == (
                                (-1) ** k * (x + y * FIB[k] + z * FIB[k + 1])), (
                                seed, a, b, name, r, k)

    def test_class_test_tells_the_papers_form_from_the_norm(self):
        paper = NORM_REDUCTIONS["perrin-even"]
        assert self.in_papers_class(paper.c1 ** 2 - 4 * paper.c2 * paper.c0)
        c0, c1, c2 = CASE_ROWS["QR", 0][2]
        assert not self.in_papers_class(c1 * c1 - 4 * c0 * c2)

    def test_no_seed_gives_a_norm_in_the_papers_class(self):
        searched, degenerate = 0, set()
        for seed in self.SEEDS:
            for a, b in self.ORDERS:
                for name, rows in self.conventions(a, b, seed).items():
                    for parity in (0, 1):
                        c0, c1, c2 = hypothesis_row(rows, parity)[1]
                        d = c1 * c1 - 4 * c0 * c2
                        assert not self.in_papers_class(d), (seed, a, b, name, parity, d)
                        searched += 1
                        if d == 0:
                            degenerate.add((seed[2], a, b, name, parity))
        assert searched == 13 * 2 * 2 * 2
        # four norms are c2 R^2, D = 0: a unit times a constant, in no class
        assert degenerate == {(-3, -2, 0, "R(a, b) odd", 0), (-3, -2, 0, "R(a, b) odd", 1),
                              (3, 0, -2, "R(a, b) odd", 0), (3, 0, -2, "R(a, b) odd", 1)}
