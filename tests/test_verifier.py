import itertools
import json
import math

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from paper import PERRIN_EVEN_ADJUSTED, PrimeModulus, padovan_fib_form, qp_elements, qr_elements
from reference import (
    HypothesisViolated,
    QuadCongruence,
    family_period,
    full_window_verdict,
    legendre,
    matrix_jump_oracle,
    norm_oracle,
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
    perrin_even_side_condition,
    verdict_record,
)

TWINS_200 = [p for _, p in twin_primes_upto(200)]
TWINS_2000 = [p for _, p in twin_primes_upto(2000)]
THEOREM_IDS = ("thm-padovan-even", "thm-padovan-odd", "thm-perrin-even", "thm-perrin-odd")


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


def record(claim_id, p, multiplier=2):
    """The `verify --format json` record of `claim_id`, which applies at p."""
    assert claim_id in applicable_case_ids(p)
    profile = FibProfile.of(p)
    return verdict_record(profile, decide_prime(profile, [claim_id])[0], multiplier)


def predicts(claim_id, p, m):
    assert claim_id in applicable_case_ids(p)
    return reference.predicts(claim_id, FibProfile.of(p), m)


def predicted_ks(claim_id, p):
    """The k of the quaternions m = 2k + parity that `claim_id` predicts in
    the first window at p, from the lists under `decide_prime` and
    `verdict_record`."""
    predicted = verifier._claim_lists(FibProfile.of(p), claim_id, None)[0]
    return tuple(m // 2 for m in predicted)


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
        excluded = CLAIMS["thm-perrin-even"].excluded
        for p in primes_upto(10**5)[1:]:
            if p not in excluded:
                assert perrin_even_side_condition(p) == (legendre(-8 * 181, p) == 1), p
        for _, p in twin_primes_upto(10**5):
            if p not in excluded:
                assert bool(predicted_ks("thm-perrin-even", p)) == (legendre(-8 * 181, p) == 1), p

    def test_perrin_odd_jacobi_equals_discriminant_symbol(self):
        # the Jacobi symbol (p / 13*239) is (p/13) (p/239), at every odd
        # prime the claim does not exclude
        claim = CLAIMS["thm-perrin-odd"]
        for p in primes_upto(10**5)[1:]:
            if p not in claim.excluded:
                jacobi = legendre(p, 13) * legendre(p, 239)
                assert (jacobi == 1) == (legendre(-4 * 13 * 239, p) == 1), p
                assert claim.side_condition(p) == (jacobi == 1), p
        for _, p in twin_primes_upto(10**5):
            if p not in claim.excluded:
                # the claim table predicts classes exactly when the symbol is +1
                jacobi = legendre(p, 13) * legendre(p, 239)
                assert bool(predicted_ks("thm-perrin-odd", p)) == (jacobi == 1), p

    def test_perrin_side_conditions_at_every_residue_class(self):
        # one full period of each condition in n, multiples of 181, 13 and
        # 239 included: a symbol that is 0 reads as no residue
        odd = CLAIMS["thm-perrin-odd"].side_condition
        for n in range(8 * 181):
            assert perrin_even_side_condition(n) == (
                (legendre(n, 181) == 1) == (n % 8 in (1, 3))), n
        for n in range(13 * 239):
            assert odd(n) == ((legendre(n, 13) == 1) == (legendre(n, 239) == 1)), n

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

    def test_side_condition_congruence_equivalences(self):
        for _, p in twin_primes_upto(500):
            assert (p % 4 == 1) == (legendre(-1, p) == 1)
            assert (p % 3 == 1) == (legendre(-3, p) == 1)


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
        scan = record("thm-padovan-even", 5, multiplier=3)["scan"]
        assert scan["scan_limit"] == 3 * scan["window_modulus"]
        assert scan["window_modulus"] % (2 * FibProfile.of(5).pisano_period) == 0
        assert scan["window_modulus"] % family_period(SeqParams.twin_prime(5), "QP") == 0

    def test_classes_stable_under_multiplier(self):
        v2 = record("thm-padovan-even", 5, 2)
        v4 = record("thm-padovan-even", 5, 4)
        for key in ("predicted_classes", "observed_classes", "classification"):
            assert v2[key] == v4[key], key

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
        # the windows repeat the first window's disagreements, so a record
        # reduces each of them once, whatever the multiplier
        reduced = []
        reduce = verifier._reduce

        def counted(red, f2, p):
            reduced.append(f2)
            return reduce(red, f2, p)

        monkeypatch.setattr(verifier, "_reduce", counted)
        profile = FibProfile.of(13)
        row = decide_prime(profile, ["thm-padovan-even"])[0]
        disagreements = verifier._claim_lists(
            profile, "thm-padovan-even", jump_oracle(profile, "QP", 0))[2]
        # F_{k+2} = r^j at each disagreeing index m = 2k, k = j z(p) - 3
        z = profile.entry_point
        f2s = [profile.powers[(m // 2 + 3) // z - 1] for m in disagreements]
        for multiplier in (2, 7):
            reduced.clear()
            rec = verdict_record(profile, row, multiplier)
            assert reduced == f2s != []
            assert len(rec["counterexamples"]) == multiplier * len(reduced)


def hypothesis_indices(claim_id, profile, limit):
    """The claim's hypothesis indices m < limit, as `decide_prime` reads them."""
    z = profile.entry_point
    return range(2 * (z - 3) + CLAIMS[claim_id].parity, limit, 2 * z)


def tiled_reads(claim_id, profile, count):
    """The first `count` hypothesis-index reads, taking `jump_oracle`'s one
    period of r to repeat: the references check that it does."""
    claim = CLAIMS[claim_id]
    reads = jump_oracle(profile, claim.family, claim.parity)
    return [reads[i % len(reads)] for i in range(count)]


def linear_verdict(claim_id, profile, scan_multiplier, linear):
    """The `verify --format json` record the linear reference gives: `linear`
    holds the window lcm(family_period, 2 pi(p)) and the `norm_oracle` norms
    and zero divisors over at least scan_multiplier such windows."""
    window, norms, zero_divisors = linear
    claim, p = CLAIMS[claim_id], profile.p
    scan_limit = scan_multiplier * window
    hypothesis = hypothesis_indices(claim_id, profile, scan_limit)
    observed = [m for m in hypothesis if m in zero_divisors]
    predicted = [m for m in hypothesis if reference.predicts(claim_id, profile, m)]
    if not hypothesis:
        classification = HOLDS_VACUOUSLY
    elif predicted == observed:
        has_content = predicted or claim.classes == ()
        classification = HOLDS if has_content else HOLDS_VACUOUSLY
    else:
        classification = FAILS
    counterexamples = []
    if classification == FAILS:
        kind = ("padovan" if claim.family == "QP" else "perrin") + (
            "-odd" if claim.parity else "-even"
        )
        counterexamples = [
            {"index": m, "k": m // 2, "norm": norms[m],
             "reduced": reduced_norm_value(kind, m // 2, p),
             "predicted": m in predicted, "observed": m in observed}
            for m in sorted(set(predicted) ^ set(observed))
        ]
    predicted_classes = sorted({m % window for m in predicted})
    observed_classes = sorted({m % window for m in observed})
    z = profile.entry_point
    return {
        "case": {"claim_id": claim_id, "p": p, "family": claim.family,
                 "parity": "odd" if claim.parity else "even", "entry_point": z,
                 "pisano_period": profile.pisano_period, "hypothesis_class": z - 3},
        "scan": {"multiplier": scan_multiplier, "window_modulus": window,
                 "scan_limit": scan_limit},
        "predicted_classes": predicted_classes,
        "observed_classes": observed_classes,
        "predicted_count": len(predicted_classes),
        "observed_count": len(observed_classes),
        "classification": classification,
        "counterexamples": counterexamples,
    }


class TestJumpOracle:
    @pytest.mark.parametrize("p", TWINS_2000)
    def test_verdicts_match_linear_reference(self, p):
        params, profile = SeqParams.twin_prime(p), FibProfile.of(p)
        linear = {}
        for family in ("QP", "QR"):
            window = math.lcm(family_period(params, family), 2 * profile.pisano_period)
            linear[family] = (window, *norm_oracle(params, family, 4 * window))
        ids = applicable_case_ids(p)
        for multiplier in (2, 3, 4):
            for cid, decision in zip(ids, decide_prime(profile, ids), strict=True):
                expected = linear_verdict(cid, profile, multiplier, linear[CLAIMS[cid].family])
                assert verdict_record(profile, decision, multiplier) == expected, (
                    cid, p, multiplier)

    def test_norms_match_linear_reference_at_every_hypothesis_index(self):
        # every read against the linear norm pass over six Pisano periods,
        # and F_{k+2} against fast doubling
        for p in TWINS_200:
            params, profile = SeqParams.twin_prime(p), FibProfile.of(p)
            for cid in applicable_case_ids(p):
                limit = 6 * profile.pisano_period
                norms, zero_divisors = norm_oracle(params, CLAIMS[cid].family, limit)
                indices = hypothesis_indices(cid, profile, limit)
                assert tiled_reads(cid, profile, len(indices)) == [
                    (fib_pair(m // 2 + 2, p)[0], norms[m], m in zero_divisors)
                    for m in indices
                ], (cid, p)

    def test_matches_matrix_reference_for_every_twin_prime_to_1e5(self):
        # every hypothesis index over two windows, for cases of both
        # families and both parities at every prime: the closed form
        # against 3x3 matrix powers over general (a, b)
        for _, p in twin_primes_upto(10**5):
            params, profile = SeqParams.twin_prime(p), FibProfile.of(p)
            for cid in applicable_case_ids(p):
                indices = hypothesis_indices(cid, profile, 4 * profile.pisano_period)
                reads = tiled_reads(cid, profile, len(indices))
                assert (
                    {m: norm for m, (_, norm, _) in zip(indices, reads)},
                    {m for m, (_, _, zd) in zip(indices, reads) if zd},
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
                reads = jump_oracle(profile, family, CLAIMS[cid].parity)
                norms, zero_divisors = matrix_jump_oracle(params, family, profile, indices)
                assert [norm for _, norm, _ in reads] == [norms[m] for m in indices], (cid, p)
                assert {
                    m for m, (_, _, zd) in zip(indices, reads, strict=True) if zd
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


def verify_json(p, multiplier):
    """The records and exit status of `verify --p p --format json`."""
    text, status = cli.cmd_verify(cli._parse_args(
        ["verify", "--p", str(p), "--format", "json", "--scan-multiplier", str(multiplier)]))
    return json.loads(text)["verdicts"], status


class TestOnePeriodVerdict:
    """Records from one period of r against `full_window_verdict`, which
    reads every hypothesis index of the scan."""

    @pytest.mark.parametrize("multiplier", [2, 3, 4, 5])
    def test_matches_full_window_reference_for_every_twin_prime_to_1e4(self, multiplier):
        # whole records, every counterexample included, as verify prints them
        for _, p in twin_primes_upto(10**4):
            profile = FibProfile.of(p)
            expected = [full_window_verdict(cid, profile, multiplier)
                        for cid in applicable_case_ids(p)]
            records, status = verify_json(p, multiplier)
            assert records == expected, (p, multiplier)
            assert status == (2 if any(r["classification"] == FAILS for r in expected) else 0)

    def test_verdicts_ask_no_per_index_predicate(self, monkeypatch):
        # the full-window reference asks `predicts` at every index; the
        # production pass reads the claim table and calls no per-index test
        primes = (5, 7, 13, 181)
        expected = {
            p: [full_window_verdict(cid, FibProfile.of(p), 2) for cid in applicable_case_ids(p)]
            for p in primes
        }

        def refuse(*args):
            raise AssertionError("a per-index predicate asked")

        monkeypatch.setattr(reference, "predicts", refuse)
        monkeypatch.setattr(reference, "satisfies_hypothesis", refuse)
        records = {p: verify_json(p, 2)[0] for p in primes}
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
    """`decide_prime`, the one decision path under `scan` and `verify`."""

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
    def gated_rows(p, case_ids):
        # the rows of the claims whose norm resultant p divides
        rows = {(CLAIMS[cid].family, CLAIMS[cid].parity) for cid in case_ids}
        return sorted((p, *row) for row in rows if verifier._ROW_RESULTANTS[row] % p == 0)

    def test_reads_only_rows_whose_resultant_p_divides(self, monkeypatch):
        # decide_prime reads at most one row per claim (the corollaries read
        # the rows of the theorems that 7, 13 and 181 exclude; 239 heads no
        # twin pair), and only where p divides its resultant: 7 divides that
        # of QR even, 13 that of QP odd, 181 and 239 none.  verify's JSON
        # reads one row more for each record with disagreements.
        reads = self.count_reads(monkeypatch)
        decided, json_reads = {}, {}
        for p in (7, 13, 181, 239):
            ids = applicable_case_ids(p)
            reads.clear()
            decide_prime(FibProfile.of(p), ids)
            decided[p] = sorted(reads)
            assert decided[p] == self.gated_rows(p, ids), p
            if p == 239:
                continue
            for fmt in ("json", "csv", "table"):
                reads.clear()
                cli.cmd_verify(cli._parse_args(
                    ["verify", "--p", str(p), "--format", fmt, "--scan-multiplier", "3"]))
                if fmt == "json":
                    json_reads[p] = sorted(reads)
                else:
                    assert sorted(reads) == decided[p], (p, fmt)
        assert decided == {7: [(7, "QR", 0)], 13: [(13, "QP", 1)], 181: [], 239: []}
        assert json_reads == {
            7: [(7, "QP", 1), (7, "QR", 0)],  # thm-padovan-odd FAILS
            13: [(13, "QP", 0), (13, "QP", 1), (13, "QP", 1)],  # both QP theorems FAIL
            181: [(181, "QP", 0), (181, "QP", 1)],
        }

    def test_reads_only_gated_rows_at_every_twin_prime_to_2000(self, monkeypatch):
        reads = self.count_reads(monkeypatch)
        expected = []
        for p in TWINS_2000:
            ids = applicable_case_ids(p)
            decide_prime(FibProfile.of(p), ids)
            expected += self.gated_rows(p, ids)
        assert sorted(reads) == expected == [
            (5, "QP", 0), (5, "QR", 0), (7, "QR", 0), (13, "QP", 1)]

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


def integer_stream(a, b, init, count):
    """The bi-periodic recurrence over Z, no modulus."""
    t = list(init)
    while len(t) < count:
        n = len(t)
        t.append((a if n % 2 == 0 else b) * t[n - 2] + t[n - 3])
    return t


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


class TestZeroQuaternion:
    """`jump_oracle` tells a zero divisor from the zero quaternion."""

    @pytest.mark.parametrize("row", sorted(CASE_ROWS))
    def test_no_hypothesis_index_quaternion_is_zero(self, row):
        # A_i + D_i R = 0 (mod p) for all four terms makes p divide every
        # 2x2 minor A_i D_j - A_j D_i; a row whose minors are coprime has a
        # nonzero term at every p and R, so on a real row the zero-quaternion
        # test in jump_oracle never decides, and only the patched row below
        # exercises it
        terms = CASE_ROWS[row][0]
        minors = [a1 * d2 - a2 * d1 for (a1, d1), (a2, d2) in itertools.combinations(terms, 2)]
        assert math.gcd(*minors) == 1

    def test_zero_quaternion_is_not_a_zero_divisor(self, monkeypatch):
        # terms that all vanish mod 7 at R = 1, and whose norm also vanishes
        # at R = 6 (2, 4, 6, 0 there); 7's profile: z = 8, r = F_9 = 6
        terms = ((1, -1), (2, -2), (3, 4), (7, 0))
        reduction = CASE_ROWS["QP", 0][1]
        monkeypatch.setitem(CASE_ROWS, ("QP", 0),
                            (terms, reduction, verifier._norm_quadratic(terms)))
        reads = jump_oracle(FibProfile(7, 8, (6, 1)), "QP", 0)
        assert reads == [(6, 0, True), (1, 0, False)]


class TestFibForms:
    """`FIB_FORMS` checked over Z with no modulus, (a, b) = (-2, 0)."""

    K = 200
    STREAMS = {
        "QP": integer_stream(-2, 0, (1, 0, -2), 2 * K + 2),
        # R(a, b) at even positions, R(b, a) = R at (0, -2) at odd ones
        "QR": [
            t if n % 2 == 0 else s
            for n, (t, s) in enumerate(zip(
                integer_stream(-2, 0, (3, 0, 2), 2 * K + 2),
                integer_stream(0, -2, (3, 0, 2), 2 * K + 2),
            ))
        ],
    }

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
