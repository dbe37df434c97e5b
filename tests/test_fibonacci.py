from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from paper import PrimeModulus
from reference import (
    entry_pair_by_fib_pair,
    fib_by_matrix,
    legendre,
    pisano_by_candidates,
    prime_factors,
    primes_upto,
)

from padquat import fibonacci
from padquat.cli import MAX_PRIME
from padquat.fibonacci import FibProfile, fib_pair
from padquat.modular import is_prime

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


class TestFibHead:
    """`fib_pair` reads n < 2^10 from the exact table `_FIB_HEAD` and
    starts the ladder of every larger n from its top 10 bits: checked
    against `reference.fib_by_matrix` at and past the table's edge, at
    moduli up to 63 bits."""

    def test_table_is_the_exact_sequence(self):
        head = fibonacci._FIB_HEAD
        assert len(head) == 1025 and head[:2] == (0, 1)
        assert all(head[i] == head[i - 1] + head[i - 2] for i in range(2, 1025))

    @pytest.mark.parametrize("m", [2, 3, 1000, 2**61 - 1])
    def test_at_the_edge_of_the_table(self, m):
        for n in [*range(1000, 1101), 2**11 - 1, 2**11, 2**11 + 1]:
            assert fib_pair(n, m) == (fib_by_matrix(n, m), fib_by_matrix(n + 1, m)), (n, m)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=2, max_value=2**63 - 1))
    def test_drawn_n_below_2_to_the_64(self, n, m):
        assert fib_pair(n, m) == (fib_by_matrix(n, m), fib_by_matrix(n + 1, m))


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
        # FibProfile.of takes p as given; the CLI checks it first, and the
        # paper's algebra checks its own modulus
        for bad in (1, 9, 15):
            with pytest.raises(ValueError):
                PrimeModulus(bad)

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
        with pytest.raises(ValueError) as exc:
            PrimeModulus(p)
        assert str(exc.value) == message

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


def half_index(p):
    """(p - (5/p))/2, the index of the order test that p mod 4 decides."""
    return (p - legendre(5, p)) // 2


def two_part_exponent(p):
    """v2(z(p)) by the reference alone: z(p) divides n = p - (5/p), so it is
    the least e with F_{o 2^e} = 0 for the odd part o of n."""
    n = p - legendre(5, p)
    o, e = n // (n & -n), 0
    while fib_by_matrix(o << e, p):
        e += 1
    return e


def v2(n):
    return (n & -n).bit_length() - 1


class TestTwoPart:
    """The power of 2 in z(p) follows from p mod 4, by the reference's
    matrix powers: with g = -phi^2, of order z(p), g^((p - (5/p))/2) is
    (-1)^((p-1)/2) at a split p and (-1)^((p+3)/2) at an inert one.  So
    F at (p - (5/p))/2 is 0 exactly when p = 1 (mod 4), and `_entry_pair`
    never tests that index."""

    def test_half_index_is_a_zero_exactly_at_1_mod_4_to_1e6(self):
        for p in primes_upto(10**6)[1:]:
            if p != 5:
                assert (fib_by_matrix(half_index(p), p) == 0) == (p % 4 == 1), p

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(min_value=7, max_value=10**12))
    def test_half_index_at_drawn_primes_to_1e12(self, n):
        p = n
        while not is_prime(p):
            p -= 1
        if p != 5:
            assert (fib_by_matrix(half_index(p), p) == 0) == (p % 4 == 1), p

    @staticmethod
    def assert_inert_two_part(p):
        e = two_part_exponent(p)
        assert e == (v2(p + 1) if p % 4 == 3 else 0), p
        assert v2(fibonacci._entry_pair(p)[0]) == e, p

    def test_inert_two_part_to_1e5(self):
        inert = [p for p in primes_upto(10**5)[1:] if legendre(5, p) == -1]
        assert {p % 4 for p in inert} == {1, 3}
        for p in inert:
            self.assert_inert_two_part(p)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12 // 20), st.sampled_from([3, 7, 13, 17]))
    def test_inert_two_part_at_drawn_primes_to_1e12(self, k, residue):
        # p = 3, 7, 13 or 17 (mod 20): p = +-2 (mod 5), either class mod 4
        p = 20 * k + residue
        while not is_prime(p):
            p += 20
        self.assert_inert_two_part(p)

    def test_no_order_test_at_the_half_index(self, monkeypatch):
        # every pow mod p and every fast-doubling pair _entry_pair asks for
        calls = []
        monkeypatch.setattr(fibonacci, "pow", raising=False,
                            value=lambda b, e, m: calls.append((e, m)) or pow(b, e, m))
        monkeypatch.setattr(fibonacci, "fib_pair",
                            lambda n, m: calls.append((n, m)) or fib_pair(n, m))
        # the odd primes past 5 below 2000; the largest prime below 10^12 of
        # each class, split or inert and 1 or 3 (mod 4); a split p = 1 (mod 2^12)
        for p in [*primes_upto(2000)[3:], 999999999989, 999999999959, 999999999937,
                  999999999863, 102707201]:
            calls.clear()
            z, pair = fibonacci._entry_pair(p)
            at_half = [n for n, m in calls if m == p and n == half_index(p)]
            assert calls and (z, pair) == entry_pair_by_fib_pair(p), p
            # only the certificate of a final z at the half index runs there
            assert len(at_half) == (z == half_index(p)), (p, z, calls)


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

    def test_a_split_index_below_z_fails_the_certificate(self, monkeypatch):
        # `_entry_pair` hands over (0, phi^z) at a split prime unchecked, so
        # FibProfile.of alone must reject an index z' that is no zero of F:
        # phi^(2 z') = (-1)^z' iff g^z' = 1 for g = -phi^2, of order z(p)
        entry_pair = fibonacci._entry_pair
        for p in primes_upto(10**4):
            if p % 5 not in (1, 4):
                continue
            wrong = FibProfile.of(p).entry_point - 1
            phi = next(x for x in range(p) if (x * x - x - 1) % p == 0)
            monkeypatch.setattr(fibonacci, "_entry_pair",
                                lambda n: (wrong, (0, pow(phi, wrong, n))))
            with pytest.raises(AssertionError):
                FibProfile.of(p)
            monkeypatch.setattr(fibonacci, "_entry_pair", entry_pair)

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
