import math

import pytest
from reference import family_period, full_window_verdict, matrix_jump_oracle, norm_oracle

from padquat import verifier
from padquat.fibonacci import FibProfile, entry_point, fib_mod, pisano_period
from padquat.modular import (
    PrimeModulus,
    QuadCongruence,
    legendre,
    jacobi,
    primes_upto,
    solve_quadratic,
    twin_primes_upto,
)
from padquat.quaternion import qp_elements, qr_elements
from padquat.sequences import NotTwinPrime, SeqParams, padovan_fib_form
from padquat.verifier import (
    FAILS,
    FIB_FORMS,
    HOLDS,
    HOLDS_VACUOUSLY,
    NORM_REDUCTIONS,
    PERRIN_EVEN_ADJUSTED,
    Counterexample,
    Counterexamples,
    ExcludedPrime,
    HypothesisViolated,
    TheoremCase,
    TheoremVerdict,
    applicable_case_ids,
    jump_oracle,
    perrin_even_side_condition,
    reduced_norm_value,
    verify_case,
    verify_prime,
)

TWINS_200 = [p for _, p in twin_primes_upto(200)]
TWINS_2000 = [p for _, p in twin_primes_upto(2000)]


def hypothesis_ks(p, periods=2):
    """Hypothesis-compatible k values covering `periods` family periods."""
    z = entry_point(p)
    limit = periods * math.lcm(
        family_period(SeqParams.twin_prime(p), "QR"), 2 * pisano_period(p)
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

    def test_build_validates_twin_prime(self):
        with pytest.raises(NotTwinPrime):
            TheoremCase.build("thm-padovan-even", 9)
        with pytest.raises(NotTwinPrime):
            TheoremCase.build("thm-padovan-even", 11)

    def test_exclusions(self):
        with pytest.raises(ExcludedPrime):
            TheoremCase.build("thm-perrin-even", 181)
        with pytest.raises(ExcludedPrime):
            TheoremCase.build("thm-perrin-odd", 7)
        with pytest.raises(ExcludedPrime):
            TheoremCase.build("thm-perrin-odd", 13)
        with pytest.raises(ExcludedPrime):
            TheoremCase.build("cor-7", 13)
        with pytest.raises(ValueError):
            TheoremCase.build("cor-99", 5)

    def test_hypothesis_class(self):
        case = TheoremCase.build("thm-padovan-even", 13)
        assert case.hypothesis_class == 4  # -3 mod z(13)=7
        assert case.satisfies_hypothesis(8)  # m=8 -> k=4
        assert not case.satisfies_hypothesis(9)  # odd
        assert not case.satisfies_hypothesis(10)  # k=5


def predicts(claim_id, p, m):
    return TheoremCase.build(claim_id, p).predicts(m)


class TestPredicates:
    def test_padovan_even_side_condition(self):
        # p = 3 (mod 4) predicts nothing
        case7 = TheoremCase.build("thm-padovan-even", 7)
        m = next(m for m in range(0, 200, 2) if case7.satisfies_hypothesis(m))
        assert case7.predicts(m) is False
        # p = 1 (mod 4) predicts every candidate class
        case13 = TheoremCase.build("thm-padovan-even", 13)
        for m in range(0, 120, 2):
            if case13.satisfies_hypothesis(m):
                assert case13.predicts(m) is True

    def test_padovan_odd_side_condition(self):
        assert predicts("thm-padovan-odd", 5, 2 * 2 + 1) is False  # 5 = 2 (mod 3), k=2 = -3 mod 5
        case7 = TheoremCase.build("thm-padovan-odd", 7)
        m = next(m for m in range(1, 200, 2) if case7.satisfies_hypothesis(m))
        assert case7.predicts(m) is True

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
        case = TheoremCase.build("cor-13", 13)
        for m in range(1, 300, 2):
            if case.satisfies_hypothesis(m):
                assert case.predicts(m) is False

    def test_perrin_even_condition_equals_discriminant_symbol(self):
        for p in primes_upto(500):
            if p < 5 or p == 181:
                continue
            assert perrin_even_side_condition(p) == (legendre(-8 * 181, p) == 1), p
        for _, p in twin_primes_upto(500):
            if p != 181:
                case = TheoremCase.build("thm-perrin-even", p)
                assert bool(case.predicted_classes) == (legendre(-8 * 181, p) == 1), p

    def test_perrin_odd_jacobi_equals_discriminant_symbol(self):
        for _, p in twin_primes_upto(500):
            if p in (7, 13):
                continue
            assert (jacobi(p, 3107) == 1) == (legendre(-4 * 13 * 239, p) == 1), p
            # the claim table predicts classes exactly when the symbol is +1
            case = TheoremCase.build("thm-perrin-odd", p)
            assert bool(case.predicted_classes) == (jacobi(p, 3107) == 1), p

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
            pi = pisano_period(p)
            elems = qp_elements(params, 4 * pi + 2)
            for k in range(2 * pi):
                f2, f3, f4 = (fib_mod(k + j, p) for j in (2, 3, 4))
                rhs = (2 * (f3 - 1) ** 2 + (f2 - 1) ** 2 + (f4 - 1) ** 2) % p
                assert elems[2 * k].norm().value == rhs, (p, k)

    def test_padovan_biconditionals_all_twins(self):
        for p in TWINS_200:
            params = SeqParams.twin_prime(p)
            ks = hypothesis_ks(p)
            elems = qp_elements(params, 2 * ks[-1] + 6)
            for k in ks:
                even = reduced_norm_value("padovan-even", k, p)
                odd = reduced_norm_value("padovan-odd", k, p)
                assert (elems[2 * k].norm().value == 0) == (even == 0), (p, k)
                assert (elems[2 * k + 1].norm().value == 0) == (odd == 0), (p, k)

    def test_perrin_odd_biconditional_all_twins(self):
        for p in TWINS_200:
            params = SeqParams.twin_prime(p)
            ks = hypothesis_ks(p)
            elems = qr_elements(params, 2 * ks[-1] + 6)
            for k in ks:
                value = reduced_norm_value("perrin-odd", k, p)
                assert (elems[2 * k + 1].norm().value == 0) == (value == 0), (p, k)

    def test_perrin_even_adjusted_biconditional_all_twins(self):
        # The re-derived quadratic 51f^2 + 28f + 26 tracks the oracle at
        # every hypothesis index; the norm equals exactly twice its value.
        for p in TWINS_200:
            params = SeqParams.twin_prime(p)
            ks = hypothesis_ks(p)
            elems = qr_elements(params, 2 * ks[-1] + 6)
            for k in ks:
                value = reduced_norm_value("perrin-even-adjusted", k, p)
                norm = elems[2 * k].norm().value
                assert norm == 2 * value % p, (p, k)
                assert (norm == 0) == (value == 0), (p, k)

    def test_perrin_even_primary_form_known_disagreements(self):
        # The primary perrin-even quadratic disagrees with the oracle at
        # p = 5 (first at k = 7) and p = 7 (first at k = 5); the adjusted
        # form above does not.  Pin that fact so it cannot regress silently.
        for p, first_k in ((5, 7), (7, 5)):
            params = SeqParams.twin_prime(p)
            elems = qr_elements(params, 2 * first_k + 2)
            norm = elems[2 * first_k].norm().value
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
                assert (elems[2 * k].norm().value == 0) == (value == 0), (p, k)

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
        params = SeqParams.twin_prime(13)
        case = TheoremCase.build("cor-13", 13)
        limit = 2 * math.lcm(family_period(params, "QR"), 2 * pisano_period(13))
        found = norm_oracle(params, "QR", limit)[1]
        assert not {m for m in found if case.satisfies_hypothesis(m)}

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


class TestVerifyCase:
    def test_cor_13_holds(self):
        verdict = verify_case(TheoremCase.build("cor-13", 13))
        assert verdict.classification == HOLDS
        assert verdict.predicted == () and verdict.observed == ()
        assert verdict.counterexamples == ()

    def test_cor_181_vacuous(self):
        # hypothesis class 87 mod 90 never meets the predicted class 47
        verdict = verify_case(TheoremCase.build("cor-181", 181))
        assert verdict.classification == HOLDS_VACUOUSLY
        assert verdict.predicted == () and verdict.observed == ()

    def test_cor_7_vacuous(self):
        verdict = verify_case(TheoremCase.build("cor-7", 7))
        assert verdict.classification == HOLDS_VACUOUSLY
        assert verdict.predicted == () and verdict.observed == ()

    def test_perrin_even_holds_at_7(self):
        # nonvacuous agreement: all four candidate classes carry zero divisors
        verdict = verify_case(TheoremCase.build("thm-perrin-even", 7))
        assert verdict.classification == HOLDS
        assert verdict.predicted == verdict.observed != ()
        case = verdict.case
        assert all(case.satisfies_hypothesis(m) for m in verdict.observed)

    def test_padovan_even_fails_at_13_with_counterexamples(self):
        # side condition is on (13 = 1 mod 4) but the oracle finds no zero
        # divisors at hypothesis indices: honest FAILS with full detail
        verdict = verify_case(TheoremCase.build("thm-padovan-even", 13))
        assert verdict.classification == FAILS
        assert verdict.observed == ()
        assert len(verdict.predicted) == 4
        assert verdict.counterexamples
        first = verdict.counterexamples[0]
        assert first.index == min(c.index for c in verdict.counterexamples)
        assert first.predicted and not first.observed
        assert first.norm != 0

    def test_perrin_even_fails_at_5_observed_only(self):
        # zero divisors exist although the predicted side condition is off
        verdict = verify_case(TheoremCase.build("thm-perrin-even", 5))
        assert verdict.classification == FAILS
        assert verdict.predicted == ()
        assert verdict.observed != ()
        for c in verdict.counterexamples:
            assert c.observed and not c.predicted
            assert c.norm == 0

    def test_determinism(self):
        case = TheoremCase.build("thm-padovan-odd", 7)
        assert verify_case(case) == verify_case(case)
        assert verify_case(case).to_dict() == verify_case(case).to_dict()

    def test_window_covers_both_periodicities(self):
        case = TheoremCase.build("thm-padovan-even", 5)
        verdict = verify_case(case, scan_multiplier=3)
        assert verdict.scan_limit == 3 * verdict.window_modulus
        assert verdict.window_modulus % (2 * pisano_period(5)) == 0
        assert verdict.window_modulus % family_period(SeqParams.twin_prime(5), "QP") == 0

    def test_multiplier_validated(self):
        with pytest.raises(ValueError):
            verify_case(TheoremCase.build("cor-13", 13), scan_multiplier=1)

    def test_classes_stable_under_multiplier(self):
        case = TheoremCase.build("thm-padovan-even", 5)
        v2 = verify_case(case, 2)
        v4 = verify_case(case, 4)
        assert v2.predicted == v4.predicted
        assert v2.observed == v4.observed
        assert v2.classification == v4.classification

    def test_counterexample_reduced_values_trace_the_chain(self):
        verdict = verify_case(TheoremCase.build("thm-padovan-even", 13))
        for c in verdict.counterexamples:
            expected = reduced_norm_value("padovan-even", c.k, 13)
            assert c.reduced == expected
            # biconditional: nonzero norm must pair with nonzero reduced value
            assert (c.norm == 0) == (c.reduced == 0)

    def test_full_scan_emits_verdict_for_every_case(self):
        for p in (5, 7, 13):
            for cid in applicable_case_ids(p):
                verdict = verify_case(TheoremCase.build(cid, p))
                assert verdict.classification in (HOLDS, HOLDS_VACUOUSLY, FAILS)

    def test_to_dict_shape(self):
        d = verify_case(TheoremCase.build("cor-13", 13)).to_dict()
        assert d["case"]["claim_id"] == "cor-13"
        assert d["case"]["parity"] == "odd"
        assert d["classification"] == HOLDS
        assert d["predicted_count"] == 0
        assert isinstance(d["counterexamples"], list)


def hypothesis_indices(case, limit):
    """The case's hypothesis indices m < limit, as `verify_case` reads them."""
    z = case.profile.entry_point
    return range(2 * case.hypothesis_class + case.parity, limit, 2 * z)


def tiled_reads(case, count):
    """The first `count` hypothesis-index reads, taking `jump_oracle`'s one
    period of r to repeat: the references check that it does."""
    reads = jump_oracle(case)
    return [reads[i % len(reads)] for i in range(count)]


def linear_verdict(case, scan_multiplier, linear):
    """The verdict the linear reference gives: `linear` holds the window
    lcm(family_period, 2 pi(p)) and the `norm_oracle` norms and zero
    divisors over at least scan_multiplier such windows."""
    window, norms, zero_divisors = linear
    scan_limit = scan_multiplier * window
    hypothesis = hypothesis_indices(case, scan_limit)
    observed = [m for m in hypothesis if m in zero_divisors]
    predicted = [m for m in hypothesis if case.predicts(m)]
    if not hypothesis:
        classification = HOLDS_VACUOUSLY
    elif predicted == observed:
        has_content = predicted or case.claims_invertibility
        classification = HOLDS if has_content else HOLDS_VACUOUSLY
    else:
        classification = FAILS
    counterexamples = ()
    if classification == FAILS:
        kind = ("padovan" if case.family == "QP" else "perrin") + (
            "-odd" if case.parity else "-even"
        )
        counterexamples = tuple(
            Counterexample(
                index=m,
                k=case.k_of(m),
                norm=norms[m],
                reduced=reduced_norm_value(kind, case.k_of(m), case.p),
                predicted=m in predicted,
                observed=m in observed,
            )
            for m in sorted(set(predicted) ^ set(observed))
        )
    return TheoremVerdict(
        case=case,
        scan_multiplier=scan_multiplier,
        window_modulus=window,
        scan_limit=scan_limit,
        predicted=tuple(sorted({m % window for m in predicted})),
        observed=tuple(sorted({m % window for m in observed})),
        classification=classification,
        counterexamples=counterexamples,
    )


class TestJumpOracle:
    @pytest.mark.parametrize("p", TWINS_2000)
    def test_verdicts_match_linear_reference(self, p):
        params = SeqParams.twin_prime(p)
        linear = {}
        for family in ("QP", "QR"):
            window = math.lcm(family_period(params, family), 2 * pisano_period(p))
            linear[family] = (window, *norm_oracle(params, family, 4 * window))
        for cid in applicable_case_ids(p):
            case = TheoremCase.build(cid, p)
            for multiplier in (2, 3, 4):
                verdict = verify_case(case, multiplier)
                assert verdict.window_modulus == linear[case.family][0], (cid, p)
                expected = linear_verdict(case, multiplier, linear[case.family])
                assert verdict.to_dict() == expected.to_dict(), (cid, p, multiplier)

    def test_norms_match_linear_reference_at_every_hypothesis_index(self):
        # every read against the linear norm pass over six Pisano periods,
        # and F_{k+2} against fast doubling
        for p in TWINS_200:
            params = SeqParams.twin_prime(p)
            for cid in applicable_case_ids(p):
                case = TheoremCase.build(cid, p)
                limit = 6 * case.profile.pisano_period
                norms, zero_divisors = norm_oracle(params, case.family, limit)
                indices = hypothesis_indices(case, limit)
                assert tiled_reads(case, len(indices)) == [
                    (fib_mod(case.k_of(m) + 2, p), norms[m], m in zero_divisors)
                    for m in indices
                ], (cid, p)

    def test_matches_matrix_reference_for_every_twin_prime_to_1e5(self):
        # every hypothesis index over two windows, for cases of both
        # families and both parities at every prime: the closed form
        # against 3x3 matrix powers over general (a, b)
        for _, p in twin_primes_upto(10**5):
            params, profile = SeqParams.twin_prime(p), FibProfile.of(p)
            for cid in applicable_case_ids(p):
                case = TheoremCase.trusted(cid, profile)
                indices = hypothesis_indices(case, 4 * case.profile.pisano_period)
                reads = tiled_reads(case, len(indices))
                assert (
                    {m: norm for m, (_, norm, _) in zip(indices, reads)},
                    {m for m, (_, _, zd) in zip(indices, reads) if zd},
                ) == matrix_jump_oracle(params, case.family, case.profile, indices), (cid, p)

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


class TestOnePeriodVerdict:
    """Verdicts from one period of r against `full_window_verdict`, which
    reads every hypothesis index of the scan."""

    @pytest.mark.parametrize("multiplier", [2, 3, 4, 5])
    def test_matches_full_window_reference_for_every_twin_prime_to_1e4(self, multiplier):
        for _, p in twin_primes_upto(10**4):
            ids = applicable_case_ids(p)
            for cid, verdict in zip(ids, verify_prime(p, ids, multiplier), strict=True):
                case = TheoremCase.build(cid, p)
                expected = full_window_verdict(case, multiplier).to_dict()
                assert verdict.to_dict() == expected, (cid, p, multiplier)
                assert verify_case(case, multiplier).to_dict() == expected, (cid, p, multiplier)

    def test_period_is_one_period_of_r(self):
        for _, p in twin_primes_upto(2000):
            profile = FibProfile.of(p)
            z, pi = profile.entry_point, profile.pisano_period
            r = fib_mod(z + 1, p)
            assert profile.powers == tuple(pow(r, j, p) for j in range(1, pi // z + 1)), p
            assert profile.powers[-1] == 1, p

    def test_counterexamples_behave_as_the_reference_tuple(self):
        case = TheoremCase.build("thm-padovan-even", 13)
        verdict = verify_case(case, 3)
        cexs = verdict.counterexamples
        expected = full_window_verdict(case, 3).counterexamples
        assert isinstance(cexs, Counterexamples) and len(cexs) == len(expected) > 3
        assert cexs == expected and expected == cexs and hash(cexs) == hash(expected)
        assert cexs[-1] == expected[-1] and cexs[2] == expected[2]
        with pytest.raises(IndexError):
            cexs[len(expected)]

    def test_counterexamples_are_built_only_when_read(self, monkeypatch):
        built = []

        def counted(**fields):
            built.append(fields["index"])
            return Counterexample(**fields)

        monkeypatch.setattr(verifier, "Counterexample", counted)
        verdicts = verify_prime(13, applicable_case_ids(13), 4)
        fails = [v for v in verdicts if v.classification == FAILS]
        assert fails and built == []
        assert [v.first_counterexample() for v in fails] == built
        assert len(fails[0].to_dict()["counterexamples"]) == len(fails[0].counterexamples)
        assert len(built) == len(fails) + len(fails[0].counterexamples)


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
