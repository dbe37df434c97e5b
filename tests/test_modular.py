import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper import PrimeModulus
from reference import (
    LeadingCoefficientNotInvertible,
    QuadCongruence,
    legendre,
    primes_upto,
    solve_quadratic,
    sqrt_mod,
    twin_primes_by_comprehension,
)

from padquat.modular import _sieve, is_prime, twin_primes_upto

ODD_PRIMES_1000 = [p for p in primes_upto(1000) if p > 2]


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def squares_mod(p):
    return {x * x % p for x in range(1, p)}


class TestIsPrime:
    def test_examples(self):
        assert is_prime(181)
        assert not is_prime(1)
        assert not is_prime(237)  # 3 * 79; 239 - 2

    def test_agrees_with_trial_division(self):
        for n in range(0, 5000):
            assert is_prime(n) == trial_division(n), n

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**62 - 1)
        assert not is_prime((2**31 - 1) * (2**31 + 11))
        assert not is_prime(47 * (2**61 - 1))  # a small factor, far past any sieve

    def test_below_two_is_not_prime(self):
        # negatives are not refused, they are not prime; -1 would reach
        # Miller-Rabin with n - 1 = -2 if the n < 2 branch were dropped
        for n in range(-100, 2):
            assert not is_prime(n), n

    # psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233)
    PSI = {
        2: 1373653,
        3: 25326001,
        4: 3215031751,
        5: 2152302898747,
        6: 3474749660383,
        7: 341550071728321,
        8: 341550071728321,
        9: 3825123056546413051,
    }
    BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

    @staticmethod
    def strong_probable_prime(n, a):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(a, d, n)
        return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))

    @pytest.mark.parametrize("k", sorted(PSI))
    def test_pseudoprime_to_the_first_k_bases_is_composite(self, k):
        # psi_k passes bases 1..k, so a test that stopped at base k would call it prime
        n = self.PSI[k]
        assert all(self.strong_probable_prime(n, a) for a in self.BASES[:k])
        assert not is_prime(n)

    def test_agrees_with_sieve_to_two_million(self):
        flags = _sieve(2 * 10**6)
        wrong = [n for n, flag in enumerate(flags) if is_prime(n) != bool(flag)]
        assert wrong == []


class TestTwinPrimes:
    def test_examples(self):
        assert twin_primes_upto(7) == [(3, 5), (5, 7)]
        assert twin_primes_upto(13) == [(3, 5), (5, 7), (11, 13)]
        assert twin_primes_upto(4) == []

    def test_upto_200(self):
        uppers = [p for _, p in twin_primes_upto(200)]
        assert uppers == [5, 7, 13, 19, 31, 43, 61, 73, 103, 109, 139, 151, 181, 193, 199]

    def test_against_trial_division(self):
        expected = [
            (p - 2, p)
            for p in range(5, 500)
            if trial_division(p) and trial_division(p - 2)
        ]
        assert twin_primes_upto(499) == expected

    def test_matches_prime_set_definition_every_bound_to_5000(self):
        # the definition through a list and a set of all primes, at 5000;
        # at a lower bound it gives the pairs with p <= bound
        prime = set(primes_upto(5000))
        pairs = [(p - 2, p) for p in sorted(prime) if p >= 5 and p - 2 in prime]
        for bound in range(5001):
            assert twin_primes_upto(bound) == [t for t in pairs if t[1] <= bound], bound

    def test_matches_the_comprehension_every_bound_to_5000_and_at_1e6(self):
        # the per-n sieve test that the bytes AND of the shifted views replaced
        for bound in [*range(-2, 5001), 10**6]:
            assert twin_primes_upto(bound) == twin_primes_by_comprehension(bound), bound


class TestPrimeModulus:
    def test_rejects_non_primes(self):
        for bad in (0, 1, 2, 4, 9, 15):
            with pytest.raises(ValueError):
                PrimeModulus(bad)


class TestLegendre:
    def test_examples(self):
        assert legendre(-1, 13) == 1  # 13 = 1 (mod 4)
        assert legendre(-1, 7) == -1  # 7 = 3 (mod 4)
        assert legendre(0, 7) == 0

    def test_matches_square_tables(self):
        for p in ODD_PRIMES_1000[:25]:
            sq = squares_mod(p)
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in sq else -1)
                assert legendre(a, p) == expected

    def test_supplement_laws(self):
        for p in ODD_PRIMES_1000:
            assert legendre(-1, p) == (-1) ** ((p - 1) // 2)
            assert legendre(2, p) == (-1) ** ((p * p - 1) // 8)

    def test_reduces_input_first(self):
        assert legendre(-1448, 181) == 0  # -1448 = -8*181
        assert legendre(181 * 181 + 3, 181) == legendre(3, 181)

    @given(
        a=st.integers(-1000, 1000),
        b=st.integers(-1000, 1000),
        p=st.sampled_from(ODD_PRIMES_1000),
    )
    @settings(max_examples=300, derandomize=True)
    def test_multiplicative(self, a, b, p):
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_quadratic_reciprocity(self):
        primes = [p for p in ODD_PRIMES_1000 if p <= 200]
        for p in primes:
            for q in primes:
                if p == q:
                    continue
                sign = (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
                assert legendre(q, p) * legendre(p, q) == sign


class TestSqrtMod:
    def test_examples(self):
        assert sqrt_mod(-1, 13) == (5, 8)
        assert sqrt_mod(3, 7) is None  # 3 is a non-residue mod 7
        assert sqrt_mod(0, 7) == (0, 0)
        assert sqrt_mod(7, 7) == (0, 0)

    def test_roundtrip_all_small_primes(self):
        for p in ODD_PRIMES_1000[:25]:
            for a in range(p):
                pair = sqrt_mod(a, p)
                if legendre(a, p) == -1:
                    assert pair is None
                else:
                    assert pair is not None
                    for r in pair:
                        assert r * r % p == a
                    assert pair[0] <= pair[1]

    def test_tonelli_shanks_branch(self):
        # primes with p = 1 (mod 4) exercise the full algorithm
        for p in (13, 17, 29, 97, 101, 109, 181, 193):
            sq = squares_mod(p)
            for a in sorted(sq):
                pair = sqrt_mod(a, p)
                assert pair is not None and pair[0] ** 2 % p == a


class TestSolveQuadratic:
    def test_anchor_case_mod_181(self):
        q = QuadCongruence(27, -8, 14, PrimeModulus(181))
        assert q.discriminant == -1448
        assert q.discriminant_mod == 0
        sol = solve_quadratic(q)
        assert sol.roots == (94,)
        assert sol.solvable

    def test_unsolvable_mod_5(self):
        q = QuadCongruence(63, 26, 52, PrimeModulus(5))
        sol = solve_quadratic(q)
        assert sol.roots == ()
        assert not sol.solvable
        assert [x for x in range(5) if q.evaluate(x) == 0] == []

    def test_leading_coefficient_must_be_invertible(self):
        with pytest.raises(LeadingCoefficientNotInvertible):
            solve_quadratic(QuadCongruence(0, 5, -4, PrimeModulus(7)))
        with pytest.raises(LeadingCoefficientNotInvertible):
            solve_quadratic(QuadCongruence(14, 1, 1, PrimeModulus(7)))

    def test_roots_verify_and_match_exhaustive_scan(self):
        cases = [(27, -8, 14), (63, 26, 52), (1, 0, 1), (2, 3, 5), (5, 0, -1)]
        for p in ODD_PRIMES_1000:
            mod = PrimeModulus(p)
            for c2, c1, c0 in cases:
                if c2 % p == 0:
                    continue
                q = QuadCongruence(c2, c1, c0, mod)
                sol = solve_quadratic(q)
                scan = tuple(x for x in range(p) if q.evaluate(x) == 0)
                assert sol.roots == scan
                for r in sol.roots:
                    assert q.evaluate(r) == 0

    @given(
        c2=st.integers(-50, 50),
        c1=st.integers(-50, 50),
        c0=st.integers(-50, 50),
        p=st.sampled_from([p for p in ODD_PRIMES_1000 if p <= 100]),
    )
    @settings(max_examples=200, derandomize=True)
    def test_root_sets_complete(self, c2, c1, c0, p):
        if c2 % p == 0:
            return
        q = QuadCongruence(c2, c1, c0, PrimeModulus(p))
        sol = solve_quadratic(q)
        assert set(sol.roots) == {x for x in range(p) if q.evaluate(x) == 0}
