import math
import random

import pytest
from paper import (
    AlgebraMismatch,
    NotInvertible,
    PrimeModulus,
    QuatElem,
    gf_expand,
    qp_elements,
    qp_gf_numerators,
    qp_symbolic,
    qr_elements,
    qr_gf_numerators,
    qr_symbolic,
)
from reference import family_period, norm_oracle

from padquat.fibonacci import FibProfile
from padquat.modular import twin_primes_upto
from padquat.sequences import BiPoly, SeqParams, padovan_mod


def element(p, x, y=0, z=0, w=0):
    return QuatElem(PrimeModulus(p), x, y, z, w)


def basis(p):
    """(1, i, j, k) of Q(-1,-1) over Z_p."""
    return element(p, 1), element(p, 0, 1), element(p, 0, 0, 1), element(p, 0, 0, 0, 1)


def random_elem(p, rng):
    return element(p, *(rng.randrange(p) for _ in range(4)))


class TestBasisTable:
    def test_generator_relations(self):
        one, i, j, k = basis(13)
        assert i * i == -one and j * j == -one and k * k == -one
        assert i * j == k and j * i == -k
        assert j * k == i and k * j == -i
        assert k * i == j and i * k == -j

    def test_unit_element(self):
        rng = random.Random(7)
        one = element(13, 1)
        for _ in range(20):
            u = random_elem(13, rng)
            assert u * one == u and one * u == u

    def test_hamilton_specialization(self):
        one, i, j, k = basis(13)
        assert i * j * k == -one


class TestRingAxioms:
    def test_associativity_random_triples(self):
        rng = random.Random(20250810)
        for p in (3, 7, 13):
            for _ in range(200):
                u, v, w = (random_elem(p, rng) for _ in range(3))
                assert ((u * v) * w).coefficients == (u * (v * w)).coefficients

    def test_distributivity_random(self):
        rng = random.Random(99)
        for _ in range(200):
            u, v, w = (random_elem(13, rng) for _ in range(3))
            assert (u * (v + w)).coefficients == (u * v + u * w).coefficients

    def test_algebra_mismatch_rejected(self):
        u = element(7, 1, 2, 3, 4)
        v = element(11, 1, 2, 3, 4)
        with pytest.raises(AlgebraMismatch):
            u * v
        with pytest.raises(AlgebraMismatch):
            u + v


class TestNorm:
    def test_examples(self):
        assert element(7, 2, 1, 1, 1).norm() == 0
        assert element(7, 1).norm() == 1
        assert element(13, 1, 2, 3, 4).norm() == (1 + 4 + 9 + 16) % 13

    def test_multiplicative_random_pairs(self):
        rng = random.Random(13)
        for p in (3, 7, 13):
            for _ in range(1000):
                u, v = random_elem(p, rng), random_elem(p, rng)
                assert (u * v).norm() == u.norm() * v.norm() % p

    def test_multiplicative_exhaustive_mod_3(self):
        elems = [
            element(3, x, y, z, w)
            for x in range(3)
            for y in range(3)
            for z in range(3)
            for w in range(3)
        ]
        for u in elems:
            for v in elems:
                assert (u * v).norm() == u.norm() * v.norm() % 3


class TestConjugation:
    def test_examples(self):
        one, i, _, _ = basis(13)
        assert one.conj() == one
        assert i.conj() == -i

    def test_conj_product_gives_norm(self):
        rng = random.Random(5)
        for _ in range(100):
            u = random_elem(13, rng)
            assert u * u.conj() == element(13, u.norm())


class TestZeroDivisorsAndInverses:
    def test_examples(self):
        u = element(5, 1, 2, 0, 0)
        v = element(5, 1, -2, 0, 0)
        assert (u * v).is_zero  # norms vanish: 1 + 4 = 5
        assert u.is_zero_divisor() and v.is_zero_divisor()

        assert element(7, 2, 1, 1, 1).is_zero_divisor()
        assert not element(7, 0, 0, 0, 0).is_zero_divisor()
        assert not element(7, 1).is_zero_divisor()

    def test_inverse_examples(self):
        one, i, _, _ = basis(5)
        assert one.inverse() == one
        assert i.inverse() == element(5, 0, 4, 0, 0)

    def test_inverse_random(self):
        rng = random.Random(42)
        one = element(13, 1)
        done = 0
        while done < 1000:
            u = random_elem(13, rng)
            if u.norm() == 0:
                continue
            inv = u.inverse()
            assert u * inv == one and inv * u == one
            done += 1

    def test_zero_norm_not_invertible(self):
        with pytest.raises(NotInvertible):
            element(7, 2, 1, 1, 1).inverse()

    def test_dichotomy_exhaustive(self):
        # every nonzero element is a zero divisor xor invertible
        for p in (3, 5):
            for x in range(p):
                for y in range(p):
                    for z in range(p):
                        for w in range(p):
                            u = element(p, x, y, z, w)
                            if u.is_zero:
                                continue
                            if u.is_zero_divisor():
                                with pytest.raises(NotInvertible):
                                    u.inverse()
                            else:
                                assert u * u.inverse() == element(p, 1)

    def test_split_witness_every_small_prime(self):
        for p in (3, 5, 7, 11, 13):
            found = any(
                element(p, x, y, 1, 0).norm() == 0
                for x in range(p)
                for y in range(p)
            )
            assert found, f"no zero-norm element found mod {p}"

    def test_zero_divisor_annihilates(self):
        # a zero-norm element times its conjugate is the zero element
        u = element(7, 2, 1, 1, 1)
        assert (u * u.conj()).is_zero


class TestSequenceQuaternions:
    def test_qp_first_terms_symbolic(self):
        a, b = BiPoly.a(), BiPoly.b()
        q0 = qp_symbolic(0)
        assert q0.components == (BiPoly.one(), BiPoly.zero(), a, BiPoly.one())
        q2 = qp_symbolic(2)
        assert q2.components == (a, BiPoly.one(), a * a, a + b)

    def test_qr_first_terms_symbolic(self):
        c = BiPoly.const
        a = BiPoly.a()
        q0 = qr_symbolic(0)
        assert q0.components == (c(3), c(0), c(2), c(3))
        q5 = qr_symbolic(5)
        assert q5.components == (
            3 * a + 2,
            2 * a * a + 3,
            3 * a * a + 2 * a + 2 * BiPoly.b(),
            2 * a * a * a + 3 * a + 3 * BiPoly.b() + 2,
        )

    def test_modular_matches_symbolic(self):
        params = SeqParams(3, 5, modulus=5)
        for n in range(25):
            assert qp_symbolic(n).evaluate_mod(params) == qp_elements(params, n + 1)[n]
            assert qr_symbolic(n).evaluate_mod(params) == qr_elements(params, n + 1)[n]

    def test_qp_coefficients_come_from_sequence(self):
        params = SeqParams(3, 5, modulus=5)
        terms = padovan_mod(params, 10)
        q4 = qp_elements(params, 5)[4]
        assert q4.coefficients == tuple(terms[4:8])

    def test_qr_from_qp_symbolically(self):
        for n in range(3, 51):
            lhs = qr_symbolic(n)
            rhs = 3 * qp_symbolic(n - 3) + 2 * qp_symbolic(n - 2)
            assert lhs.components == rhs.components, n

    def test_qr_from_qp_modular(self):
        params = SeqParams.twin_prime(13)
        qp = qp_elements(params, 60)
        qr = qr_elements(params, 60)
        for n in range(3, 60):
            assert qr[n] == 3 * qp[n - 3] + 2 * qp[n - 2]

    def test_order_six_recurrence_symbolic(self):
        a, b = BiPoly.a(), BiPoly.b()
        apb, ab = a + b, a * b
        for builder in (qp_symbolic, qr_symbolic):
            terms = [builder(n) for n in range(101)]
            for n in range(6, 101):
                expected = apb * terms[n - 2] - ab * terms[n - 4] + terms[n - 6]
                assert terms[n].components == expected.components, n

    def test_order_six_recurrence_modular(self):
        params = SeqParams.twin_prime(7)
        qp = qp_elements(params, 101)
        qr = qr_elements(params, 101)
        s = (params.a + params.b) % 7
        prod = params.a * params.b % 7
        for seq in (qp, qr):
            for n in range(6, 101):
                assert seq[n] == s * seq[n - 2] - prod * seq[n - 4] + seq[n - 6]

    def test_batch_matches_single(self):
        params = SeqParams.twin_prime(5)
        assert qp_elements(params, 12) == [qp_elements(params, n + 1)[n] for n in range(12)]
        assert qr_elements(params, 12) == [qr_elements(params, n + 1)[n] for n in range(12)]


class TestGeneratingFunctions:
    def test_qp_numerators_reproduce_components(self):
        numerators = qp_gf_numerators()
        for comp, numerator in enumerate(numerators):
            series = gf_expand(numerator, 21)
            for n in range(21):
                assert series[n] == qp_symbolic(n).components[comp], (comp, n)

    def test_qr_numerators_reproduce_components(self):
        numerators = qr_gf_numerators()
        for comp, numerator in enumerate(numerators):
            series = gf_expand(numerator, 21)
            for n in range(21):
                assert series[n] == qr_symbolic(n).components[comp], (comp, n)

    def test_i_component_numerator_coefficients(self):
        # B(x) = a x + x^2 - a b x^3 + x^5
        a, b = BiPoly.a(), BiPoly.b()
        assert qp_gf_numerators()[1] == [
            BiPoly.zero(), a, BiPoly.one(), -(a * b), BiPoly.zero(), BiPoly.one(),
        ]

    def test_k_component_numerator_coefficients(self):
        # D'(x) = 3 + 2a x + (2-3b) x^2 + (3-2ab) x^3 + 2 x^5
        a, b = BiPoly.a(), BiPoly.b()
        c = BiPoly.const
        assert qr_gf_numerators()[3] == [
            c(3), 2 * a, c(2) - 3 * b, c(3) - 2 * a * b, c(0), c(2),
        ]


class TestOracleSmoke:
    def test_brute_force_edge_cases(self):
        params = SeqParams.twin_prime(5)
        assert norm_oracle(params, "QP", 0)[1] == set()
        # N(QP_0) = 1 + 0 + 9 + 1 = 11 = 1 (mod 5): not a zero divisor
        assert norm_oracle(params, "QP", 1)[1] == set()

    @pytest.mark.parametrize("family", ["QP", "QR"])
    @pytest.mark.parametrize("p", [p for _, p in twin_primes_upto(200)])
    def test_brute_force_matches_pointwise_check(self, p, family):
        # the one-pass int oracle against the QuatElem algebra, over the
        # scan window of verify --format json
        params = SeqParams.twin_prime(p)
        limit = 2 * math.lcm(family_period(params, family), 2 * FibProfile.of(p).pisano_period)
        elems = (qp_elements if family == "QP" else qr_elements)(params, limit)
        norms, found = norm_oracle(params, family, limit)
        assert norms == [e.norm() for e in elems]
        assert found == {m for m, e in enumerate(elems) if e.is_zero_divisor()}

    def test_family_validated(self):
        with pytest.raises(ValueError):
            norm_oracle(SeqParams.twin_prime(5), "XX", 10)
