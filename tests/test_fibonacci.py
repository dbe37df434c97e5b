from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from paper import PrimeModulus
from reference import (
    entry_pair_by_fib_pair,
    legendre,
    pisano_by_candidates,
    prime_factors,
    primes_upto,
)

from padquat import fibonacci
from padquat.cli import MAX_PRIME
from padquat.fibonacci import FibProfile, fib_pair
from padquat.modular import is_prime, require_odd_prime

ODD_PRIMES = [p for p in primes_upto(1000) if p > 2]


def fib_list(count, m):
    """Iterative oracle: [F_0 mod m, ..., F_{count-1} mod m]."""
    out = []
    a, b = 0, 1
    for _ in range(count):
        out.append(a)
        a, b = b, (a + b) % m
    return out


def entry_point_scan(p):
    """Linear reference: the first index of a zero, by stepping the sequence."""
    a, b = 0, 1
    z = 0
    while True:
        a, b = b, (a + b) % p
        z += 1
        if a == 0:
            return z


def assert_entry_point_minimal(profile):
    """F_{z/q} != 0 (mod p) at each prime q | z, z = profile.entry_point.
    The zeros of F mod p are the multiples of z(p), so with F_z = 0, which
    the profile certifies, this makes z the least of them."""
    p, z = profile.p, profile.entry_point
    for q in prime_factors(z):
        assert fib_pair(z // q, p)[0] != 0, (p, z, q)


def pisano_scan(p):
    """Blind cycle scan, independent of the order of r and of z(p)."""
    a, b = 0, 1
    n = 0
    while True:
        a, b = b, (a + b) % p
        n += 1
        if (a, b) == (0, 1):
            return n


class TestFibMod:
    def test_examples(self):
        assert fib_pair(0, 7)[0] == 0
        assert fib_pair(8, 7)[0] == 0  # F_8 = 21
        assert fib_pair(6, 1000)[0] == 8

    def test_fast_doubling_vs_iterative_dense(self):
        for m in (2, 3, 5, 7, 10, 13, 101, 997, 1000):
            oracle = fib_list(10_001, m)
            for n in range(10_001):
                assert fib_pair(n, m)[0] == oracle[n], (n, m)

    def test_fast_doubling_vs_iterative_all_moduli(self):
        checkpoints = [0, 1, 2, 3, 10, 99, 100, 512, 1023, 4000, 9999, 10_000]
        for m in range(2, 1001):
            oracle = fib_list(10_001, m)
            for n in checkpoints:
                assert fib_pair(n, m)[0] == oracle[n], (n, m)

    def test_pair_is_consecutive(self):
        for n in (0, 1, 17, 100, 12345):
            a, b = fib_pair(n, 10**9)
            assert fib_pair(n + 1, 10**9)[0] == b
            assert (a + b) % 10**9 == fib_pair(n + 2, 10**9)[0]


class TestPrimeFactors:
    """`_prime_factors` against `reference.prime_factors`, which divides by
    every odd number: within the prime table's reach, at its end, at prime
    cofactors past it, and at drawn n up to 10^13, where the 2*3 wheel goes
    on from 4097 until what is left is 1 or prime."""

    def test_table_is_the_primes_below_2_to_the_12(self):
        assert fibonacci._PRIME_TABLE == tuple((q, q * q) for q in primes_upto(4095))

    def test_every_n_to_1e5(self):
        for n in range(1, 10**5 + 1):
            assert fibonacci._prime_factors(n) == sorted(prime_factors(n)), n

    # 4099 = 1 and 4127, 4133 = 5 (mod 6): the first primes past the table
    # of each wheel class; the last two leave a composite after the wheel's
    # first division
    @pytest.mark.parametrize("n", [4093**2, 4093 * 4099, 4099**2, 4099 * 4111,
                                   4127 * 4133, 2**24 - 1, 2**24 + 1,
                                   4099 * 4111 * 4127, 4099 * 4111**2])
    def test_products_at_the_end_of_the_table(self, n):
        assert fibonacci._prime_factors(n) == sorted(prime_factors(n))

    # 999999999989 is the largest prime below 10^12: alone, right after the
    # table and beside a second prime past the table, where the wheel stops
    # at the smaller one
    @pytest.mark.parametrize("n", [999999999989, 2 * 3 * 999999999989, 4093 * 999999999989,
                                   4099 * 999999999989, 999983 * 1000003,
                                   1000003 * 999999999989])
    def test_prime_cofactors_past_the_table(self, n):
        assert fibonacci._prime_factors(n) == sorted(prime_factors(n))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(min_value=1, max_value=10**13))
    def test_drawn_n_to_1e13(self, n):
        assert fibonacci._prime_factors(n) == sorted(prime_factors(n))


class TestEntryPoint:
    def test_examples(self):
        assert FibProfile.of(5).entry_point == 5
        assert FibProfile.of(7).entry_point == 8
        assert FibProfile.of(13).entry_point == 7
        assert FibProfile.of(181).entry_point == 90

    def test_rejects_non_prime(self):
        # FibProfile.of takes p as given; the CLI checks it first
        for fn in (PrimeModulus, require_odd_prime):
            for bad in (1, 9, 15):
                with pytest.raises(ValueError):
                    fn(bad)

    @pytest.mark.parametrize("p, message", [
        (-7, "modulus must be an odd prime in [3, 2^63), got -7"),
        (0, "modulus must be an odd prime in [3, 2^63), got 0"),
        (1, "modulus must be an odd prime in [3, 2^63), got 1"),
        (2, "modulus must be an odd prime in [3, 2^63), got 2"),
        (4, "modulus must be an odd prime in [3, 2^63), got 4"),
        (9, "modulus must be prime, got 9"),
        (2**63 + 1, "modulus must be an odd prime in [3, 2^63), got 9223372036854775809"),
    ])
    def test_shares_the_prime_modulus_message(self, p, message):
        for fn in (PrimeModulus, require_odd_prime):
            with pytest.raises(ValueError) as exc:
                fn(p)
            assert str(exc.value) == message, fn

    def test_matches_scan(self):
        for p in primes_upto(20_000)[1:]:
            assert FibProfile.of(p).entry_point == entry_point_scan(p), p

    def test_divides_p_minus_legendre_5(self):
        # Wall-Vinson: z(p) | p - (5/p); p = 5 is the ramified case z(5) = 5
        for p in ODD_PRIMES:
            assert (p - legendre(5, p)) % FibProfile.of(p).entry_point == 0, p

    def test_minimality_and_zero(self):
        for p in (5, 7, 13, 181, 199):
            z = FibProfile.of(p).entry_point
            seq = fib_list(z + 1, p)
            assert seq[z] == 0
            assert all(seq[j] != 0 for j in range(1, z))


class TestEntryPointMinimal:
    """`FibProfile.of` certifies F_z = 0 but not that z is the least such
    index; the test checks it from the prime factors of z."""

    def test_every_odd_prime_to_1e4(self):
        for p in primes_upto(10**4)[1:]:
            assert_entry_point_minimal(FibProfile.of(p))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(min_value=3, max_value=MAX_PRIME), st.booleans())
    def test_drawn_primes_to_max_prime(self, n, from_top):
        # drawn integers lean small, so half the draws count down from the top
        p = MAX_PRIME + 3 - n if from_top else n
        while not is_prime(p):
            p -= 1
        if p > 2:
            assert_entry_point_minimal(FibProfile.of(p))

    @pytest.mark.parametrize("p", [61, 1009])
    def test_rejects_twice_z_that_the_certificate_accepts(self, p, monkeypatch):
        entry_pair = fibonacci._entry_pair
        z = entry_pair(p)[0]
        monkeypatch.setattr(
            fibonacci,
            "_entry_pair",
            lambda n: (2 * z, fib_pair(2 * z, n)) if n == p else entry_pair(n),
        )
        profile = FibProfile.of(p)
        assert profile.entry_point == 2 * z
        with pytest.raises(AssertionError):
            assert_entry_point_minimal(profile)


class TestEntryPair:
    """`_entry_pair` against the order reduction by fast-doubling pairs: the
    split primes take another path (a power of -phi^2 per order test and a
    Binet pair), the inert ones and 5 the same loop."""

    def test_matches_reference_for_every_odd_prime_to_1e6(self):
        for p in primes_upto(10**6)[1:]:
            assert fibonacci._entry_pair(p) == entry_pair_by_fib_pair(p), p

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=3, max_value=10**9))
    def test_matches_reference_at_drawn_primes_to_1e9(self, n):
        p = n
        while not is_prime(p):
            p -= 1
        if p > 2:
            assert fibonacci._entry_pair(p) == entry_pair_by_fib_pair(p), p

    def test_matches_reference_at_split_primes_deep_in_two(self):
        # 2^12 | p - 1: the square root of 5 takes Tonelli-Shanks, whose
        # rounds each lower the 2-power order of the error
        primes = [p for p in (k * 2**12 + 1 for k in range(25_000, 25_400))
                  if is_prime(p) and legendre(5, p) == 1]
        assert len(primes) >= 10
        for p in primes:
            assert fibonacci._entry_pair(p) == entry_pair_by_fib_pair(p), p

    def test_split_pair_is_zero_then_either_root_to_the_z(self):
        # F_z = 0 gives phi^z = psi^z, and then F_{z+1} = phi^z: at a split
        # prime both roots of x^2 - x - 1 raised to z give F_{z+1}
        split = [p for p in primes_upto(10**4) if p % 5 in (1, 4)]
        for p in split:
            roots = [x for x in range(p) if (x * x - x - 1) % p == 0]
            assert len(roots) == 2, p
            z, (f_z, f_z1) = fibonacci._entry_pair(p)
            assert (f_z, f_z1) == fib_pair(z, p) == (0, f_z1), p
            assert [pow(x, z, p) for x in roots] == [f_z1, f_z1], p

    def test_wrong_square_root_fails_the_certificate(self, monkeypatch):
        # at a wrong root of 5 the pair still has F_z = 0, r^4 = 1 and an
        # even pi, so the root itself is checked
        sqrt5 = fibonacci._sqrt5
        monkeypatch.setattr(fibonacci, "_sqrt5", lambda p: sqrt5(p) + 1 if p == 61 else sqrt5(p))
        with pytest.raises(AssertionError):
            FibProfile.of(61)
        assert FibProfile.of(11).pisano_period == 10


class TestSqrt5:
    """`_sqrt5` at p = 1 (mod 8), where Tonelli-Shanks needs a non-square:
    the least one is found by reciprocity over the odd primes."""

    @staticmethod
    def least_non_residue(p):
        return next(n for n in count(2) if legendre(n, p) == -1)

    def test_every_split_prime_1_mod_8_to_1e6(self):
        primes = [p for p in primes_upto(10**6) if p % 8 == 1 and p % 5 in (1, 4)]
        assert max(self.least_non_residue(p) for p in primes) == 37
        for p in primes:
            assert fibonacci._sqrt5(p) ** 2 % p == 5, p

    # the least split prime p = 1 (mod 8) whose least non-residue is n, for
    # each prime n from 41 to 83; none below 6 * 10^9 has a larger one
    @pytest.mark.parametrize("p, n", [(1083289, 41), (7921489, 43), (3818929, 47),
                                      (9257329, 53), (22000801, 59), (68204761, 61),
                                      (48473881, 67), (175244281, 71), (1149374521, 73),
                                      (427733329, 79), (898716289, 83)])
    def test_primes_with_a_large_least_non_residue(self, p, n):
        assert is_prime(p) and p % 8 == 1 and legendre(5, p) == 1
        assert self.least_non_residue(p) == n
        assert fibonacci._sqrt5(p) ** 2 % p == 5
        assert fibonacci._entry_pair(p) == entry_pair_by_fib_pair(p)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12 // 40), st.sampled_from([1, 9]))
    def test_drawn_split_primes_1_mod_8_to_1e12(self, k, residue):
        # p = 1 or 9 (mod 40): p = 1 (mod 8) and p = +-1 (mod 5)
        p = 40 * k + residue
        while not is_prime(p):
            p += 40
        assert fibonacci._sqrt5(p) ** 2 % p == 5, p


class TestPisanoPeriod:
    def test_anchor_values(self):
        assert FibProfile.of(181).pisano_period == 90
        assert FibProfile.of(7).pisano_period == 16
        assert FibProfile.of(5).pisano_period == 20  # z(5)=5 odd, so 4*z

    def test_matches_blind_scan(self):
        for p in ODD_PRIMES:
            if p > 300:
                break
            assert FibProfile.of(p).pisano_period == pisano_scan(p)

    def test_matches_candidate_reference_for_every_odd_prime_to_1e5(self):
        for p in primes_upto(10**5)[1:]:
            assert FibProfile.of(p).pisano_period == pisano_by_candidates(p), p

    def test_defining_property(self):
        for p in (5, 7, 13, 181):
            length = FibProfile.of(p).pisano_period
            assert fib_pair(length, p) == (0, 1)
            seq = fib_list(2 * length, p)
            assert seq[length:] == seq[:length]


class TestProfile:
    def test_ratio_cases(self):
        for p in ODD_PRIMES:
            if p > 500:
                break
            prof = FibProfile.of(p)
            z, pi = prof.entry_point, prof.pisano_period
            assert pi % z == 0 and len(prof.powers) in (1, 2, 4)
            if z % 2 == 1:
                assert len(prof.powers) == 4
            elif z % 4 == 0:
                assert len(prof.powers) == 2
            else:
                assert len(prof.powers) == 1
            assert prof.relation().startswith("pi(p) = ")

    def test_wrong_entry_point_fails_the_certificate(self, monkeypatch):
        # F_1 = 1, so Q^1 is no multiple of I, though r = F_2 = 1 has order 1;
        # F_2 = 1 too, though r = F_3 = 2 has order 3 mod 7 and 2 * 3 is even;
        # z = 8 with r = 2: F_z = 0, 2^3 = 1 and 8 * 3 is even, but 2^2 != 1
        entry_pair = fibonacci._entry_pair
        for wrong in ((1, fib_pair(1, 7)), (2, fib_pair(2, 7)), (8, (0, 2))):
            monkeypatch.setattr(
                fibonacci,
                "_entry_pair",
                lambda p: wrong if p == 7 else entry_pair(p),
            )
            with pytest.raises(AssertionError):
                FibProfile.of(7)
            assert FibProfile.of(13).pisano_period == 28

    def test_powers_are_the_stepped_powers_of_r_to_1e5(self):
        # r = F_{z+1} from fast doubling, multiplied until r^j = 1
        for p in primes_upto(10**5)[1:]:
            profile = FibProfile.of(p)
            r = fib_pair(profile.entry_point, p)[1]
            powers = [r]
            while powers[-1] != 1 and len(powers) < 4:
                powers.append(powers[-1] * r % p)
            assert profile.powers == tuple(powers), p

    def test_divisibility_characterizes_zeros(self):
        for p in (5, 7, 13, 61):
            z = FibProfile.of(p).entry_point
            pi = FibProfile.of(p).pisano_period
            for m in range(10 * pi + 1):
                assert (fib_pair(m, p)[0] == 0) == (m % z == 0), (p, m)


class TestAnchorIndex:
    def test_unique_index_for_94_mod_181(self):
        # the k = 48 anchor of cor-181: the only index in one period with F = 94
        seq = fib_list(FibProfile.of(181).pisano_period, 181)
        assert [i for i, v in enumerate(seq) if v == 94] == [48]
