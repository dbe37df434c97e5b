import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from paper import (
    evaluate,
    evaluate_mod,
    gf_expand,
    padovan_even_binomial,
    padovan_fib_form,
    qp_gf_numerators,
    qr_gf_numerators,
    swap,
)
from reference import perrin_padovan_identity, seq_period

from padquat.fibonacci import FibProfile
from padquat.modular import twin_primes_upto
from padquat.sequences import (
    BiPoly,
    SeqParams,
    padovan_mod,
    padovan_sym_terms,
    perrin_mod,
    perrin_sym_terms,
)

# First eleven terms of both sequences, as exponent-pair -> coefficient maps.
TABLE_P = [
    {(0, 0): 1},
    {},
    {(1, 0): 1},
    {(0, 0): 1},
    {(2, 0): 1},
    {(1, 0): 1, (0, 1): 1},
    {(3, 0): 1, (0, 0): 1},
    {(2, 0): 1, (1, 1): 1, (0, 2): 1},
    {(4, 0): 1, (1, 0): 2, (0, 1): 1},
    {(0, 0): 1, (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1},
    {(5, 0): 1, (2, 0): 3, (1, 1): 2, (0, 2): 1},
]
TABLE_R = [
    {(0, 0): 3},
    {},
    {(0, 0): 2},
    {(0, 0): 3},
    {(1, 0): 2},
    {(0, 0): 2, (0, 1): 3},
    {(0, 0): 3, (2, 0): 2},
    {(1, 0): 2, (0, 1): 2, (0, 2): 3},
    {(3, 0): 2, (1, 0): 3, (0, 1): 3, (0, 0): 2},
    {(0, 0): 3, (2, 0): 2, (1, 1): 2, (0, 2): 2, (0, 3): 3},
    {(4, 0): 2, (2, 0): 3, (1, 0): 4, (1, 1): 3, (0, 1): 2, (0, 2): 3},
]

CLASSICAL_PADOVAN = [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49, 65, 86, 114]
CLASSICAL_PERRIN = [3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17, 22, 29, 39, 51, 68, 90, 119, 158, 209, 277]


class TestBiPoly:
    def test_arithmetic(self):
        a, b = BiPoly.a(), BiPoly.b()
        assert (a + b) * (a - b) == a * a - b * b
        assert a * 0 == BiPoly.zero()
        assert 2 * a + a == 3 * a
        assert (a + 1) - (a + 1) == 0
        assert -(a - b) == b - a

    def test_no_stored_zeros(self):
        p = BiPoly.a() + BiPoly.b() - BiPoly.a()
        assert p.coeffs == {(0, 1): 1}
        assert (p - BiPoly.b()).coeffs == {}

    def test_swap(self):
        p = BiPoly({(2, 1): 3, (0, 0): 5})
        assert swap(p) == BiPoly({(1, 2): 3, (0, 0): 5})
        assert swap(swap(p)) == p

    def test_evaluate(self):
        p = BiPoly({(2, 0): 1, (1, 1): 2, (0, 0): -7})
        assert evaluate(p, 3, 5) == 9 + 30 - 7
        assert evaluate_mod(p, 3, 5, 11) == 32 % 11

    def test_rendering(self):
        assert str(BiPoly.zero()) == "0"
        assert str(BiPoly.const(-1)) == "-1"
        assert str(BiPoly({(1, 0): 1, (0, 1): -2})) == "a - 2b"
        assert str(BiPoly({(2, 1): 1})) == "a^2b"
        assert str(BiPoly({(0, 2): -1, (3, 0): 1})) == "a^3 - b^2"

    @given(
        coeffs=st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.integers(-20, 20),
            max_size=6,
        ),
        av=st.integers(-5, 5),
        bv=st.integers(-5, 5),
    )
    @settings(max_examples=200, derandomize=True)
    def test_mul_matches_evaluation(self, coeffs, av, bv):
        p = BiPoly(coeffs)
        q = p * p + 3 * p - 1
        assert evaluate(q, av, bv) == evaluate(p, av, bv) ** 2 + 3 * evaluate(p, av, bv) - 1


class TestSymbolicTerms:
    def test_first_terms_match_reference_table(self):
        pad = padovan_sym_terms(11)
        per = perrin_sym_terms(11)
        for n in range(11):
            assert pad[n] == BiPoly(TABLE_P[n]), f"P_{n}"
            assert per[n] == BiPoly(TABLE_R[n]), f"R_{n}"

    def test_single_term_accessors(self):
        assert padovan_sym_terms(9)[8] == BiPoly(TABLE_P[8])
        assert padovan_sym_terms(1)[0] == 1
        assert padovan_sym_terms(11)[10] == BiPoly(TABLE_P[10])
        assert perrin_sym_terms(10)[9] == BiPoly(TABLE_R[9])
        assert perrin_sym_terms(2)[1] == 0
        assert perrin_sym_terms(11)[10] == BiPoly(TABLE_R[10])
        assert padovan_sym_terms(0) == perrin_sym_terms(0) == []

    def test_order_six_recurrence(self):
        # t_n = (a+b) t_{n-2} - ab t_{n-4} + t_{n-6}, exactly, for both kinds
        a, b = BiPoly.a(), BiPoly.b()
        apb, ab = a + b, a * b
        for terms in (padovan_sym_terms(201), perrin_sym_terms(201)):
            for n in range(6, 201):
                assert terms[n] == apb * terms[n - 2] - ab * terms[n - 4] + terms[n - 6], n

    def test_odd_terms_symmetric(self):
        pad = padovan_sym_terms(202)
        for k in range(101):
            assert swap(pad[2 * k + 1]) == pad[2 * k + 1], k

    def test_even_terms_not_symmetric_in_general(self):
        p8 = padovan_sym_terms(9)[8]
        assert swap(p8) != p8


class TestSeqParams:
    def test_reduction_and_twin_flag(self):
        params = SeqParams.twin_prime(5)
        assert (params.a, params.b, params.modulus) == (3, 0, 5)

        plain = SeqParams(3, 5, modulus=5)  # literally (p-2, p)
        assert (plain.a, plain.b) == (3, 0)
        assert plain == params

        assert (SeqParams(9, 11, modulus=13).a, SeqParams(9, 11, modulus=13).b) == (9, 11)

    def test_twin_prime_is_the_reduced_pair_at_every_head_to_1000(self):
        for _, p in twin_primes_upto(1000):
            params = SeqParams.twin_prime(p)
            assert params == SeqParams(p - 2, p, modulus=p) == (p - 2, 0, p), p

    def test_coefficient_order_reversed(self):
        params = SeqParams(3, 5, modulus=7)
        params_ba = SeqParams(params.b, params.a, modulus=params.modulus)
        assert (params_ba.a, params_ba.b) == (5, 3)


class TestModularTerms:
    def test_padovan_examples(self):
        assert padovan_mod(SeqParams(3, 5, modulus=5), 5) == [1, 0, 3, 1, 4]
        assert padovan_mod(SeqParams(1, 1, modulus=11), 11) == [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7]
        assert padovan_mod(SeqParams(3, 5, modulus=5), 0) == []

    def test_perrin_examples(self):
        assert perrin_mod(SeqParams(1, 1, modulus=23), 11) == [3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17]
        assert perrin_mod(SeqParams(3, 5, modulus=5), 4) == [3, 0, 2, 3]
        assert perrin_mod(SeqParams(3, 5, modulus=5), 0) == []

    def test_matches_symbolic_evaluation(self):
        params = SeqParams(3, 5, modulus=5)
        pad = padovan_mod(params, 30)
        per = perrin_mod(params, 30)
        pad_sym = padovan_sym_terms(30)
        per_sym = perrin_sym_terms(30)
        for n in range(30):
            assert pad[n] == evaluate_mod(pad_sym[n], 3, 5, 5)
            assert per[n] == evaluate_mod(per_sym[n], 3, 5, 5)


def period_oracle(params, kind):
    """Hash-set cycle detection over parity-tagged states, then the least
    divisor that is a period of the raw residue stream."""
    gen = (padovan_mod if kind == "padovan" else perrin_mod)(params, 4)
    m, a, b = params.modulus, params.a, params.b

    def extend(upto):
        while len(gen) < upto:
            n = len(gen)
            c = a if n % 2 == 0 else b
            gen.append((c * gen[n - 2] + gen[n - 3]) % m)

    seen = {}
    n = 0
    while True:
        extend(n + 3)
        key = (tuple(gen[n : n + 3]), n % 2)
        if key in seen:
            assert seen[key] == 0, "sequence must be purely periodic"
            aligned = n
            break
        seen[key] = n
        n += 1
    extend(2 * aligned)
    for d in range(1, aligned + 1):
        if aligned % d == 0 and all(gen[i + d] == gen[i] for i in range(aligned)):
            return d
    return aligned


class TestSeqPeriod:
    def test_classical_perrin_mod_2(self):
        params = SeqParams(1, 1, modulus=2)
        assert perrin_mod(params, 7) == [1, 0, 0, 1, 0, 1, 1]
        assert seq_period(params, "perrin") == 7

    def test_matches_cycle_detection_oracle(self):
        cases = [
            (SeqParams(3, 5, modulus=5), "padovan"),
            (SeqParams(3, 5, modulus=5), "perrin"),
            (SeqParams(5, 3, modulus=5), "perrin"),
            (SeqParams(1, 1, modulus=2), "perrin"),
            (SeqParams(5, 7, modulus=7), "padovan"),
            (SeqParams(2, 6, modulus=7), "perrin"),
            (SeqParams(11, 13, modulus=13), "padovan"),
        ]
        for params, kind in cases:
            assert seq_period(params, kind) == period_oracle(params, kind)

    def test_full_sequence_has_exact_period(self):
        for p in (5, 7, 13):
            params = SeqParams.twin_prime(p)
            for kind, gen in (("padovan", padovan_mod), ("perrin", perrin_mod)):
                L = seq_period(params, kind)
                terms = gen(params, 3 * L)
                assert all(terms[n + L] == terms[n] for n in range(2 * L))
                # exactness: no proper divisor is a period
                for d in range(1, L):
                    if L % d == 0:
                        assert any(terms[n + d] != terms[n] for n in range(L))

    def test_state_scan_injective_until_first_return(self):
        params = SeqParams.twin_prime(7)
        terms = padovan_mod(params, 4 * FibProfile.of(7).pisano_period + 6)
        states = {}
        for n in range(0, len(terms) - 3):
            key = (tuple(terms[n : n + 3]), n % 2)
            if key in states:
                assert states[key] == 0 and n % 2 == 0
                assert seq_period(params, "padovan") in (n, n // 2) or n % seq_period(params, "padovan") == 0
                break
            states[key] = n

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            seq_period(SeqParams(1, 1, modulus=3), "fibonacci")


class TestGeneratingFunction:
    def test_symbolic_expansion_matches_terms(self):
        out = gf_expand(qp_gf_numerators()[0], 11)
        assert out == padovan_sym_terms(11)

    def test_expansion_count_edge_cases(self):
        assert gf_expand(qp_gf_numerators()[0], 0) == []
        assert gf_expand(qp_gf_numerators()[0], 1) == [BiPoly.one()]

    def test_modular_expansion(self):
        params = SeqParams(3, 5, modulus=5)
        out = gf_expand(qp_gf_numerators()[0], 20, params)
        assert out == padovan_mod(params, 20)

    def test_integer_expansion_below_modulus(self):
        # a modulus above every term leaves the integer expansion exact
        params = SeqParams(1, 1, modulus=CLASSICAL_PADOVAN[-1] + 1)
        out = gf_expand(qp_gf_numerators()[0], 21, params)
        assert out == CLASSICAL_PADOVAN

    def test_perrin_scalar_stream(self):
        # The scalar numerator of the Perrin quaternion GF expands to the
        # parity-swapped scalar stream: R_n(a,b) at even n, R_n(b,a) at odd.
        a_prime = qr_gf_numerators()[0]
        out = gf_expand(a_prime, 30)
        per = perrin_sym_terms(30)
        for n in range(30):
            expected = per[n] if n % 2 == 0 else swap(per[n])
            assert out[n] == expected, n
        # even-index terms therefore match the plain Perrin polynomials
        assert all(out[n] == per[n] for n in range(0, 30, 2))


class TestClosedForms:
    def test_binomial_form_examples(self):
        assert padovan_even_binomial(0, 11) == 1
        assert padovan_even_binomial(1, 7) == 5  # -2 mod 7
        assert padovan_even_binomial(3, 11) == 4  # -(8 - 1) mod 11

    def test_fib_form_examples(self):
        assert padovan_fib_form(6, 11) == 4  # -(F_6 - 1) = -7
        assert padovan_fib_form(7, 11) == 4  # +(F_5 - 1) = 4
        assert padovan_fib_form(0, 11) == 1
        assert padovan_fib_form(0, 7) == 1

    def test_against_sequence_small(self):
        for p in (5, 7, 13):
            params = SeqParams.twin_prime(p)
            terms = padovan_mod(params, 101)
            for k in range(50):
                assert padovan_even_binomial(k, p) == terms[2 * k], (p, k)
            for m in range(101):
                assert padovan_fib_form(m, p) == terms[m], (p, m)

    @pytest.mark.parametrize("p", [5, 7, 13, 19])
    def test_fib_form_is_an_exact_int(self, p):
        terms = padovan_mod(SeqParams.twin_prime(p), 64)
        for m in range(64):
            value = padovan_fib_form(m, p)
            assert type(value) is int and value == terms[m], (p, m, value)


class TestParityCongruence:
    def test_even_shift_congruence(self):
        # P_{2k} = P_{2k+3} (mod p) under twin-prime coefficients
        for _, p in twin_primes_upto(200):
            params = SeqParams.twin_prime(p)
            count = 10 * FibProfile.of(p).pisano_period + 5
            terms = padovan_mod(params, count + 3)
            for k in range(5 * FibProfile.of(p).pisano_period):
                assert terms[2 * k] == terms[2 * k + 3], (p, k)


class TestPerrinPadovanIdentity:
    def test_small_cases(self):
        assert perrin_padovan_identity(4)  # R_4 = 2a = 3 P_1 + 2 P_2
        assert perrin_padovan_identity(5)  # R_5 = 2 + 3b, swapped arguments

    def test_range(self):
        assert all(perrin_padovan_identity(n) for n in range(3, 51))

    def test_requires_n_at_least_3(self):
        with pytest.raises(ValueError):
            perrin_padovan_identity(2)
