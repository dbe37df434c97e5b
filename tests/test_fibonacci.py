import pytest
from reference import pisano_by_candidates

from padquat import fibonacci
from padquat.fibonacci import (
    FibProfile,
    entry_point,
    fib_mod,
    fib_pair,
    pisano_period,
)
from padquat.modular import legendre, primes_upto

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
        assert fib_mod(0, 7) == 0
        assert fib_mod(8, 7) == 0  # F_8 = 21
        assert fib_mod(6, 1000) == 8

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fib_mod(-1, 7)
        with pytest.raises(ValueError):
            fib_mod(5, 1)

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
                assert fib_mod(n, m) == oracle[n], (n, m)

    def test_pair_is_consecutive(self):
        for n in (0, 1, 17, 100, 12345):
            a, b = fib_pair(n, 10**9)
            assert fib_mod(n + 1, 10**9) == b
            assert (a + b) % 10**9 == fib_mod(n + 2, 10**9)


class TestEntryPoint:
    def test_examples(self):
        assert entry_point(5) == 5
        assert entry_point(7) == 8
        assert entry_point(13) == 7
        assert entry_point(181) == 90

    def test_rejects_non_prime(self):
        for fn in (entry_point, pisano_period, FibProfile.of):
            for bad in (1, 9, 15):
                with pytest.raises(ValueError):
                    fn(bad)

    def test_matches_scan(self):
        for p in primes_upto(20_000)[1:]:
            assert entry_point(p) == entry_point_scan(p), p

    def test_divides_p_minus_legendre_5(self):
        # Wall-Vinson: z(p) | p - (5/p); p = 5 is the ramified case z(5) = 5
        for p in ODD_PRIMES:
            assert (p - legendre(5, p)) % entry_point(p) == 0, p

    def test_minimality_and_zero(self):
        for p in (5, 7, 13, 181, 199):
            z = entry_point(p)
            seq = fib_list(z + 1, p)
            assert seq[z] == 0
            assert all(seq[j] != 0 for j in range(1, z))


class TestPisanoPeriod:
    def test_anchor_values(self):
        assert pisano_period(181) == 90
        assert pisano_period(7) == 16
        assert pisano_period(5) == 20  # z(5)=5 odd, so 4*z

    def test_matches_blind_scan(self):
        for p in ODD_PRIMES:
            if p > 300:
                break
            assert pisano_period(p) == pisano_scan(p)

    def test_matches_candidate_reference_for_every_odd_prime_to_1e5(self):
        for p in primes_upto(10**5)[1:]:
            assert pisano_period(p) == pisano_by_candidates(p), p

    def test_defining_property(self):
        for p in (5, 7, 13, 181):
            length = pisano_period(p)
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
            assert pi % z == 0 and prof.ratio in (1, 2, 4)
            if z % 2 == 1:
                assert prof.ratio == 4
            elif z % 4 == 0:
                assert prof.ratio == 2
            else:
                assert prof.ratio == 1
            assert prof.relation().startswith("pi(p) = ")

    def test_wrong_entry_point_fails_the_certificate(self, monkeypatch):
        # F_1 = 1, so Q^1 is no multiple of I, though r = F_2 = 1 has order 1;
        # F_2 = 1 too, though r = F_3 = 2 has order 3 mod 7 and 2 * 3 is even
        for wrong_z in (1, 2):
            monkeypatch.setattr(
                fibonacci, "entry_point", lambda p: wrong_z if p == 7 else entry_point(p)
            )
            with pytest.raises(AssertionError):
                FibProfile.of(7)
            assert FibProfile.of(13).pisano_period == 28

    def test_divisibility_characterizes_zeros(self):
        for p in (5, 7, 13, 61):
            z = entry_point(p)
            pi = pisano_period(p)
            for m in range(10 * pi + 1):
                assert (fib_mod(m, p) == 0) == (m % z == 0), (p, m)


class TestAnchorIndex:
    def test_unique_index_for_94_mod_181(self):
        # the k = 48 anchor of cor-181: the only index in one period with F = 94
        seq = fib_list(pisano_period(181), 181)
        assert [i for i, v in enumerate(seq) if v == 94] == [48]
