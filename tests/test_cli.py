import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import paper
from paper import padovan_fib_form
from reference import full_window_verdict, legendre, sorted_case_ids, verdict_row

from padquat import __version__, cli, fibonacci, modular, sequences, verifier
from padquat.cli import (
    MAX_PRIME,
    MAX_SCAN_BOUND,
    MAX_SCAN_MULTIPLIER,
    MAX_SYMBOLIC_TERMS,
    MAX_TERMS,
    main,
)
from padquat.fibonacci import FibProfile


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestSeq:
    def test_symbolic_table_matches_reference_rows(self, capsys):
        status, out, _ = run_cli(capsys, "seq", "--symbolic", "--upto", "11")
        assert status == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "padovan", "perrin"]
        assert len(lines) == 12
        row8 = lines[9]
        assert "a^4 + 2a + b" in row8 and "2a^3 + 3a + 3b + 2" in row8

    def test_modular_perrin(self, capsys):
        status, out, _ = run_cli(capsys, "seq", "--kind", "perrin", "--p", "5", "--upto", "4")
        assert status == 0
        values = [line.split()[1] for line in out.splitlines()[1:]]
        assert values == ["3", "0", "2", "3"]

    def test_upto_zero_empty_table(self, capsys):
        status, out, _ = run_cli(capsys, "seq", "--symbolic", "--upto", "0")
        assert status == 0
        assert out.splitlines() == ["n  padovan  perrin"]

    def test_modular_requires_twin_prime(self, capsys):
        # the CLI is the one place that checks a --p: 3 is below the least
        # head 5, 4 and 9 are composite, 11 - 2 = 9 and 23 - 2 = 21 are not prime
        for p in (3, 4, 9, 11, 23):
            for argv in (("seq", "--p", str(p), "--upto", "4"), ("verify", "--p", str(p))):
                status, out, err = run_cli(capsys, *argv)
                assert (status, out) == (1, ""), argv
                assert err == f"error: {p} does not head a twin prime pair (p-2, p)\n", argv

    def test_needs_p_or_symbolic(self, capsys):
        status, _, err = run_cli(capsys, "seq", "--upto", "4")
        assert status == 1 and "error:" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_symbolic_refuses_p(self, capsys, monkeypatch, tmp_path, fmt):
        # symbolic terms take no modulus, so a --p beside --symbolic (here
        # one that is not even prime) is refused, not recorded in the config
        def refuse(n):
            raise AssertionError("terms built")

        monkeypatch.setattr(sequences, "padovan_sym_terms", refuse)
        monkeypatch.setattr(sequences, "perrin_sym_terms", refuse)
        kept = tmp_path / "kept.txt"
        kept.write_bytes(b"earlier\n")
        for out_args in ((), ("--out", str(kept))):
            status, out, err = run_cli(capsys, "seq", "--symbolic", "--p", "4", "--upto", "3",
                                       "--format", fmt, *out_args)
            assert (status, out) == (1, "")
            assert err == "error: --p does not apply to --symbolic terms\n"
        assert kept.read_bytes() == b"earlier\n"

    def test_json_round_trip(self, capsys):
        status, out, _ = run_cli(capsys, "seq", "--symbolic", "--upto", "3", "--format", "json")
        assert status == 0
        doc = json.loads(out)
        assert doc["tool_version"] == __version__
        assert doc["config"]["command"] == "seq"
        assert doc["terms"][0] == {"n": 0, "padovan": "1", "perrin": "3"}
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out

    def test_csv_format(self, capsys):
        status, out, _ = run_cli(capsys, "seq", "--kind", "padovan", "--p", "5",
                                 "--upto", "5", "--format", "csv")
        assert status == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "padovan"]
        assert [r[1] for r in rows[1:]] == ["1", "0", "3", "1", "4"]


class TestFib:
    def test_profile_181(self, capsys):
        status, out, _ = run_cli(capsys, "fib", "--p", "181")
        assert status == 0
        assert "entry_point: 90" in out
        assert "pisano_period: 90" in out
        assert "relation: pi(p) = z(p)" in out

    def test_profile_7(self, capsys):
        status, out, _ = run_cli(capsys, "fib", "--p", "7")
        assert status == 0 and "pisano_period: 16" in out

    def test_rejects_non_prime(self, capsys):
        for p in (-7, 0, 1, 2, 4, 9, 1000001):  # 1000001 = 101 * 9901
            assert run_cli(capsys, "fib", "--p", str(p)) == (
                1, "", f"error: --p must be an odd prime >= 3, got {p}\n")

    def test_csv(self, capsys):
        status, out, _ = run_cli(capsys, "fib", "--p", "5", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["p", "entry_point", "pisano_period"]
        assert rows[1][:3] == ["5", "5", "20"]


class TestVerify:
    def test_cor_13_holds_exit_zero(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--p", "13", "--case", "cor-13")
        assert status == 0
        assert "HOLDS" in out and "FAILS" not in out

    def test_case_applies_exactly_where_the_claim_table_says(self, capsys):
        for _, p in modular.twin_primes_upto(300):
            for cid in verifier.CASE_IDS:
                status, out, err = run_cli(capsys, "verify", "--p", str(p), "--case", cid)
                if cid in sorted_case_ids(p):
                    assert status in (0, 2) and err == "" and out, (p, cid)
                else:
                    assert (status, out) == (1, ""), (p, cid)
                    assert err == f"error: {cid} does not apply at p = {p}\n"
        for p in (9, 11):  # 11 is prime but 9 is not
            for case in ((), *(("--case", cid) for cid in verifier.CASE_IDS)):
                status, out, err = run_cli(capsys, "verify", "--p", str(p), *case)
                assert (status, out) == (1, "") and "twin prime" in err, (p, case)

    def test_checks_primality_of_the_pair_only(self, capsys, monkeypatch):
        calls = []
        is_prime = modular.is_prime

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(modular, "is_prime", counted)
        status, _, _ = run_cli(capsys, "verify", "--p", "10009")
        assert status == 2
        assert sorted(calls) == [10007, 10009]

    def test_unknown_case_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "13", "--case", "cor-99"])
        assert exc.value.code == 1

    def test_fails_verdict_sets_exit_two(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--p", "13")
        assert status == 2  # the even/odd four-class claims over-predict at 13
        assert "FAILS" in out

    def test_json_document_deterministic_and_round_trips(self, capsys):
        s1, out1, _ = run_cli(capsys, "verify", "--p", "5", "--format", "json")
        s2, out2, _ = run_cli(capsys, "verify", "--p", "5", "--format", "json")
        assert s1 == s2 and out1 == out2
        doc = json.loads(out1)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out1
        ids = [v["case"]["claim_id"] for v in doc["verdicts"]]
        assert ids == sorted(ids)
        fails = [v for v in doc["verdicts"] if v["classification"] == "FAILS"]
        assert all(v["counterexamples"] for v in fails)

    def test_scan_multiplier_below_two_rejected(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--p", "13", "--scan-multiplier", "1")
        assert status == 1 and "scan-multiplier" in err

    def test_scan_multiplier_flag(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--p", "13", "--case", "cor-13",
                                 "--scan-multiplier", "3", "--format", "json")
        assert status == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["scan"]["multiplier"] == 3

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_decides_once_in_every_format(self, capsys, monkeypatch, fmt):
        calls = []
        decide_prime = cli.decide_prime

        def counted(profile, case_ids):
            calls.append((profile.p, list(case_ids)))
            return decide_prime(profile, case_ids)

        monkeypatch.setattr(cli, "decide_prime", counted)
        status, _, _ = run_cli(capsys, "verify", "--p", "13", "--format", fmt,
                               "--scan-multiplier", "4")
        assert status == 2
        assert calls == [(13, verifier.applicable_case_ids(13))]

    def test_large_prime_qp_norms_match_fib_form(self, capsys):
        # above 10^6 the jump oracle's QP norms at every hypothesis index of
        # the scan agree with P_m recomputed through Fibonacci numbers
        p = 1_000_213  # p = 1 (mod 4), so both QP claims predict classes
        status, out, _ = run_cli(capsys, "verify", "--p", str(p), "--format", "json")
        assert status == 2
        qp = [v for v in json.loads(out)["verdicts"] if v["case"]["family"] == "QP"]
        assert len(qp) == 2 and all(v["counterexamples"] for v in qp)
        for v in qp:
            case, scan = v["case"], v["scan"]
            assert scan["window_modulus"] == 2 * case["pisano_period"]
            start = 2 * case["hypothesis_class"] + (case["parity"] == "odd")
            zero = set()
            norms = {}
            for m in range(start, scan["scan_limit"], 2 * case["entry_point"]):
                t = [padovan_fib_form(m + i, p) for i in range(4)]
                norms[m] = sum(x * x for x in t) % p
                if norms[m] == 0 and any(t):
                    zero.add(m % scan["window_modulus"])
            assert v["observed_classes"] == sorted(zero)
            for m in v["observed_classes"]:
                assert norms[m] == 0
            for c in v["counterexamples"]:
                assert c["norm"] == norms[c["index"]]


class TestInputBound:
    # a twin prime above the bound, so only the bound can reject it
    P = 1_000_000_000_063

    @pytest.mark.parametrize("argv", [
        ("fib", "--p"),
        ("verify", "--p"),
        ("seq", "--upto", "4", "--p"),
    ])
    def test_rejects_p_above_bound_before_any_work(self, capsys, monkeypatch, argv):
        assert self.P > MAX_PRIME

        def refuse(n):
            raise AssertionError("validation work ran")

        # every primality check goes through modular.is_prime: fib's
        # require_odd_prime and the require_twin_prime of seq and verify
        monkeypatch.setattr(modular, "is_prime", refuse)
        status, out, err = run_cli(capsys, *argv, str(self.P))
        assert status == 1 and out == ""
        assert err == f"error: --p must be at most {MAX_PRIME}, got {self.P}\n"

    @pytest.mark.parametrize("argv, cap", [
        (("seq", "--symbolic", "--upto"), MAX_SYMBOLIC_TERMS),
        (("seq", "--p", "5", "--upto"), MAX_TERMS),
        (("scan", "--upto"), MAX_SCAN_BOUND),
    ])
    def test_rejects_upto_above_cap_before_any_work(self, capsys, monkeypatch, argv, cap):
        def refuse(*args):
            raise AssertionError("work ran")

        # seq imports the term builders when it runs, so they are refused
        # where they live
        for name in ("padovan_sym_terms", "perrin_sym_terms", "padovan_mod", "perrin_mod"):
            monkeypatch.setattr(sequences, name, refuse)
        monkeypatch.setattr(cli, "twin_primes_upto", refuse)
        status, out, err = run_cli(capsys, *argv, str(cap + 1))
        assert status == 1 and out == ""
        assert err == f"error: --upto must be at most {cap}, got {cap + 1}\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--p", "13"),
        ("scan", "--upto", "200"),
    ])
    def test_rejects_scan_multiplier_above_cap_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("work ran")

        for name in ("verdict_record", "decide_prime", "require_twin_prime", "twin_primes_upto"):
            monkeypatch.setattr(cli, name, refuse)
        n = MAX_SCAN_MULTIPLIER + 1
        status, out, err = run_cli(capsys, *argv, "--scan-multiplier", str(n))
        assert status == 1 and out == ""
        assert err == f"error: --scan-multiplier must be at most {MAX_SCAN_MULTIPLIER}, got {n}\n"

    def test_caps_admit_the_benchmark_and_test_sizes(self):
        assert MAX_SYMBOLIC_TERMS >= 252 and MAX_SCAN_BOUND >= 10**6
        assert MAX_SCAN_MULTIPLIER >= 5


class TestScan:
    def test_small_bound_rows(self, capsys):
        status, out, _ = run_cli(capsys, "scan", "--upto", "7", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "prime", "case_id", "parity", "hypothesis_class",
            "predicted_count", "observed_count", "classification",
            "first_counterexample",
        ]
        primes = sorted({r[0] for r in rows[1:]})
        assert primes == ["5", "7"]
        # ordered by (p, case_id)
        keys = [(int(r[0]), r[1]) for r in rows[1:]]
        assert keys == sorted(keys)
        assert status == 2  # honest FAILS rows exist already at p=5

    def test_below_five_header_only(self, capsys):
        status, out, _ = run_cli(capsys, "scan", "--upto", "4", "--format", "csv")
        assert status == 0
        assert out.splitlines()[1:] == []

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "scan", "--upto", "13", "--format", "csv")
        _, out2, _ = run_cli(capsys, "scan", "--upto", "13", "--format", "csv")
        assert out1 == out2

    def test_json_rows(self, capsys):
        status, out, _ = run_cli(capsys, "scan", "--upto", "7", "--format", "json")
        doc = json.loads(out)
        assert {row["prime"] for row in doc["verdicts"]} == {5, 7}
        for row in doc["verdicts"]:
            assert row["classification"] in ("HOLDS", "HOLDS_VACUOUSLY", "FAILS")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        status = main(["scan", "--upto", "7", "--format", "csv", "--out", str(target)])
        capsys.readouterr()
        assert status == 2
        content = target.read_bytes()
        assert content.startswith(b"prime,case_id")
        assert b"\r" not in content

    @staticmethod
    def refuse_verify(monkeypatch):
        def refuse(*args):
            raise AssertionError("verification ran")

        monkeypatch.setattr(cli, "verdict_record", refuse)
        monkeypatch.setattr(cli, "decide_prime", refuse)

    def check_unwritable_out(self, tmp_path, capsys, monkeypatch, command, where):
        self.refuse_verify(monkeypatch)
        target = tmp_path / where
        status, out, err = run_cli(capsys, *command, "--out", str(target))
        assert status == 1 and out == ""
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert not (tmp_path / "missing-dir").exists()

    def check_out_untouched(self, tmp_path, monkeypatch, command):
        self.refuse_verify(monkeypatch)
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_bytes(b"earlier report\n")
        for target in (kept, absent):
            with pytest.raises(AssertionError):
                main([*command, "--out", str(target)])
        assert kept.read_bytes() == b"earlier report\n"
        assert not absent.exists()

    @pytest.mark.parametrize("where", ["missing-dir/x.csv", "."])
    def test_unwritable_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch, where):
        self.check_unwritable_out(tmp_path, capsys, monkeypatch, ("scan", "--upto", "200"), where)

    @pytest.mark.parametrize("where", ["missing-dir/x.csv", "."])
    def test_verify_unwritable_out_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, where
    ):
        self.check_unwritable_out(tmp_path, capsys, monkeypatch, ("verify", "--p", "13"), where)

    @pytest.mark.parametrize("command", [
        ("fib", "--p", "13"), ("scan", "--upto", "200"), ("verify", "--p", "13"),
    ])
    def test_empty_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # "" names no file: it fails as an unwritable path does, not as no --out
        self.refuse_verify(monkeypatch)
        monkeypatch.chdir(tmp_path)
        status, out, err = run_cli(capsys, *command, "--out", "")
        assert status == 1 and out == ""
        assert err == "error: cannot write --out : empty path\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("make_file", [False, True])
    def test_out_ending_in_separator_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, make_file
    ):
        # "newdir/" or "afile/": no file can be written at either
        def refuse(cls, p):
            raise AssertionError("profile computed")

        monkeypatch.setattr(FibProfile, "of", classmethod(refuse))
        base = tmp_path / ("afile" if make_file else "newdir")
        if make_file:
            base.write_bytes(b"kept\n")
        path = str(base) + os.sep
        status, out, err = run_cli(capsys, "fib", "--p", "13", "--out", path)
        assert status == 1 and out == ""
        assert err == f"error: cannot write --out {path}: is a directory\n"
        assert base.read_bytes() == b"kept\n" if make_file else not base.exists()

    def test_failed_command_leaves_out_untouched(self, tmp_path, monkeypatch):
        self.check_out_untouched(tmp_path, monkeypatch, ("scan", "--upto", "200"))

    def test_verify_failed_command_leaves_out_untouched(self, tmp_path, monkeypatch):
        self.check_out_untouched(tmp_path, monkeypatch, ("verify", "--p", "13"))

    def test_scan_needs_no_linear_stream(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("linear stream built")

        monkeypatch.setattr(paper, "family_stream", refuse)
        extend = sequences._extend

        def short_extend(terms, a, b, count, m=None):
            assert count <= 3, f"a stream of {count} terms"
            return extend(terms, a, b, count, m)

        monkeypatch.setattr(sequences, "_extend", short_extend)
        status, out, _ = run_cli(capsys, "scan", "--upto", "2000", "--format", "csv")
        assert status == 2
        # digest measured with the linear oracle before the jump oracle replaced it
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
        )

    def test_scan_reads_counterexamples_without_fibonacci_recomputation(
        self, capsys, monkeypatch
    ):
        # every Fibonacci number of a prime comes from its FibProfile
        building = []
        of = FibProfile.of.__func__

        def building_of(cls, p):
            building.append(p)
            try:
                return of(cls, p)
            finally:
                building.pop()

        def refuse_outside_profile(fn):
            def guarded(*args):
                if not building:
                    raise AssertionError("a Fibonacci number computed again")
                return fn(*args)
            return guarded

        monkeypatch.setattr(fibonacci, "fib_pair", refuse_outside_profile(fibonacci.fib_pair))
        monkeypatch.setattr(FibProfile, "of", classmethod(building_of))
        status, out, _ = run_cli(capsys, "scan", "--upto", "2000", "--format", "csv")
        assert status == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
        )

    def test_scan_builds_cases_without_primality_checks(self, capsys, monkeypatch):
        # the sieve is the only source of primality a scan has
        argv = ("scan", "--upto", "2000", "--format", "csv")
        unpatched = run_cli(capsys, *argv)

        def refuse(n):
            raise AssertionError("twin primality checked again")

        monkeypatch.setattr(modular, "is_prime", refuse)
        status, out, _ = run_cli(capsys, *argv)
        assert (status, out) == unpatched[:2]
        assert status == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
        )

    def test_scan_reduces_no_norm(self, capsys, monkeypatch):
        # a counterexample's reduced norm value is read only by verify's JSON
        def refuse(*args):
            raise AssertionError("a norm reduced")

        monkeypatch.setattr(verifier, "_reduce", refuse)
        status, out, _ = run_cli(capsys, "scan", "--upto", "2000", "--format", "csv")
        assert status == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
        )

    @pytest.mark.parametrize("argv, digest", [
        (("scan", "--upto", "2000", "--format", "csv"),
         "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"),
        (("scan", "--upto", "2000", "--format", "json"),
         "47527c3d076d843940b9b4000fa639f106f8129c5fcf8933c10cf0a6ded83497"),
        (("scan", "--upto", "2000"),
         "01e7c4e779c9c7f73c47933d0acae79bebb59a9649ce25891802cc4a845c5510"),
        (("verify", "--p", "181", "--format", "csv"),
         "2d1004d45878440841cc00ec85bcb357d71a8f7e47e3b29e39503cfd43c6c1ea"),
        (("verify", "--p", "7"),
         "7277fe96560f0073d2f9903f5b80777be1f36b2d46301b2ccbee69724e5bd436"),
    ])
    def test_rows_build_no_verdict_object(self, capsys, monkeypatch, argv, digest):
        # scan in every format, and verify outside JSON, print the plain rows
        # of decide_prime; digests measured when every row came from a verdict
        def refuse(*args):
            raise AssertionError("a JSON record built")

        monkeypatch.setattr(verifier, "verdict_record", refuse)
        monkeypatch.setattr(cli, "verdict_record", refuse)
        status, out, _ = run_cli(capsys, *argv)
        assert status == 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("multiplier", [2, 5])
    def test_rows_match_full_window_reference_for_every_twin_prime_to_1e4(
        self, capsys, multiplier
    ):
        status, out, _ = run_cli(capsys, "scan", "--upto", "10000", "--format", "csv",
                                 "--scan-multiplier", str(multiplier))
        rows = list(csv.reader(io.StringIO(out)))[1:]
        expected = [
            verdict_row(full_window_verdict(cid, FibProfile.of(p), multiplier))
            for _, p in modular.twin_primes_upto(10**4)
            for cid in verifier.applicable_case_ids(p)
        ]
        assert len(rows) == len(expected) > 800
        for row, reference_row in zip(rows, expected):
            assert row == reference_row
        assert status == 2

    def test_scan_takes_one_profile_per_prime_and_pairs_only_when_inert(
        self, capsys, monkeypatch
    ):
        # a split prime, (5/p) = 1, gets its entry point and pair from powers
        # of -phi^2 and asks for no fast-doubling pair at all; an inert one
        # and 5 ask for the pair at z(p) once
        twins = [p for _, p in modular.twin_primes_upto(2000)]
        z = {p: FibProfile.of(p).entry_point for p in twins}
        calls = {"fib_pair": [], "of": []}
        fib_pair, of = fibonacci.fib_pair, FibProfile.of.__func__

        def counted_pair(n, p):
            # every pair at z(p) itself, and every pair at a split prime,
            # whichever code asks for it
            if n == z[p] or legendre(5, p) == 1:
                calls["fib_pair"].append((p, n))
            return fib_pair(n, p)

        def counted_of(cls, p):
            calls["of"].append(p)
            return of(cls, p)

        monkeypatch.setattr(fibonacci, "fib_pair", counted_pair)
        monkeypatch.setattr(FibProfile, "of", classmethod(counted_of))
        status, out, _ = run_cli(capsys, "scan", "--upto", "2000", "--format", "csv")
        assert status == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
        )
        inert = [p for p in twins if legendre(5, p) != 1]
        assert 5 in inert and len(inert) < len(twins)
        assert calls == {"fib_pair": [(p, z[p]) for p in inert], "of": twins}

    def test_scan_reads_rows_only_where_p_divides_the_resultant(self, capsys, monkeypatch):
        # outside the prime factors of a row's norm resultant no hypothesis
        # norm vanishes, so scan never reads that row; among twin primes the
        # factors are 5, 7 and 13
        read = []
        jump_oracle = verifier.jump_oracle

        def gated(profile, family, parity):
            if verifier._ROW_RESULTANTS[family, parity] % profile.p:
                raise AssertionError(f"row {family} {parity} read at p = {profile.p}")
            read.append((profile.p, family, parity))
            return jump_oracle(profile, family, parity)

        monkeypatch.setattr(verifier, "jump_oracle", gated)
        status, out, _ = run_cli(capsys, "scan", "--upto", "2000", "--format", "csv")
        assert status == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
        )
        assert read == [(5, "QP", 0), (5, "QR", 0), (7, "QR", 0), (13, "QP", 1)]

    def test_scan_reads_do_not_grow_with_the_multiplier(self, capsys, monkeypatch):
        reads = {}
        jump_oracle = verifier.jump_oracle
        for multiplier in (2, MAX_SCAN_MULTIPLIER):
            reads[multiplier] = 0

            def counted(*row, multiplier=multiplier):
                out = jump_oracle(*row)
                reads[multiplier] += len(out)
                return out

            monkeypatch.setattr(verifier, "jump_oracle", counted)
            status, out, _ = run_cli(capsys, "scan", "--upto", "2000", "--format", "csv",
                                     "--scan-multiplier", str(multiplier))
            assert status == 2
            # the rows do not depend on the multiplier either
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
            )
        # one period of r for each row read: QP even and QR even at 5, QR
        # even at 7, QP odd at 13
        period = {p: len(FibProfile.of(p).powers) for p in (5, 7, 13)}
        assert reads[2] == reads[MAX_SCAN_MULTIPLIER] == 2 * period[5] + period[7] + period[13] > 0


class TestCsvText:
    # csv text is one format line per row, nothing quoted: every field of
    # these outputs must be one that the csv module does not quote either, so
    # a field with a comma, a quote or a line break fails here
    @pytest.mark.parametrize("argv", [
        ("seq", "--symbolic", "--upto", "400"),
        ("seq", "--p", "1021", "--upto", "1000"),
        ("fib", "--p", "1009"),
        ("verify", "--p", "7"),
        ("verify", "--p", "13"),
        ("verify", "--p", "181"),
        ("verify", "--p", "999999999961"),
        ("scan", "--upto", "10000"),
    ])
    def test_reads_back_as_header_wide_rows_written_to_the_same_bytes(self, capsys, argv):
        status, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert status in (0, 2)  # exit 1 would be a refused input, such as no twin prime
        lines = out.splitlines(keepends=True)
        # a symbolic term near the cap is longer than the reader's default
        # field limit, 128 KiB
        limit = csv.field_size_limit(len(out))
        try:
            rows = list(csv.reader(lines))
        finally:
            csv.field_size_limit(limit)
        assert len(rows) == len(lines) > 1
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for line, row in zip(lines, rows):
            assert len(row) == len(rows[0]), line
            buf.seek(0)
            buf.truncate()
            writer.writerow(row)
            assert buf.getvalue() == line


def test_import_loads_only_what_every_command_runs():
    # every CLI run pays for the modules `import padquat.cli` loads; -S keeps
    # site-packages, and what a .pth file there imports, out of the count.
    # json (JSON output only) and padquat.sequences (seq only) are imported
    # by the code that needs them
    unwanted = {"dataclasses", "inspect", "csv", "json", "padquat.sequences", "__future__"}
    code = f"import sys, padquat.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    child = subprocess.run([sys.executable, "-S", "-c", code],
                           capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"


class TestGoldenBytes:
    # sha256 of stdout (not --out: the JSON config records the output path)
    @pytest.mark.parametrize("argv, digest, expected_status", [
        (("scan", "--upto", "200", "--format", "csv"),
         "5ab83d3a69163f13436f51c3d28780e7a4475af3b5fc7c646dc18f8c33942fce", 2),
        (("verify", "--p", "5", "--format", "json"),
         "138d590c108c4f43d23a9af5de48a25d3e50da843b622dafadf9a6982f8ad285", 2),
        (("verify", "--p", "13", "--format", "json"),
         "04c39bea215a5fa8a69db3684b3e875dcc52ec44b26042ab9a410152e48e5deb", 2),
        (("fib", "--p", "181", "--format", "json"),
         "7403e6ef09c3ca65c2ced5c9b756d67a2ef4c3199083dc100d3c119df7325e4a", 0),
        # fib's table and csv lines; 1083289 = 1 (mod 8) has least non-residue 41
        (("fib", "--p", "5"),
         "a2a51f820d04e04d341441d5df7f0a4b992cc23230f1d74b40199a98a087b5ec", 0),
        (("fib", "--p", "1083289", "--format", "csv"),
         "e7bf33918e6c94b3b9657dfece7fb9a3c4483cc2b1ff53e4780062c962854c41", 0),
        (("seq", "--p", "5", "--upto", "6", "--format", "json"),
         "7c3e9db86884d50140db4e32db45b73e2ee8af61558c9b581a5b7b7e5b3ff784", 0),
        (("seq", "--symbolic", "--upto", "4", "--format", "json"),
         "f8a379042bb20bc682fcfec37dd2e02c9ec31027f572cf6fa666f5728bb15337", 0),
        (("scan", "--upto", "20000", "--format", "csv"),
         "09d0df440f8ad7817e199051e43d510ff4b0d2e62dbe8b623e71ed384cde3f40", 2),
        (("scan", "--upto", "3000", "--scan-multiplier", "4", "--format", "json"),
         "86cd7db04bbc68462f34d082e23ce62bec895255084c3675087956d777aff56e", 2),
        # many counterexample `reduced` values, far above the small primes
        (("verify", "--p", "10093", "--format", "json"),
         "2cf052bbaf03dcaacaa87a68840a8928d7aa213a637c890f885ff8e60a49ab00", 2),
        (("verify", "--p", "1000213", "--format", "json"),
         "e46e46a87b81db86ace9bdd7380097e3ee3b6ecfb41d36134de64cc7e03e5142", 2),
        # the table and csv rows of scan and verify, made from plain row tuples
        (("scan", "--upto", "2000"),
         "01e7c4e779c9c7f73c47933d0acae79bebb59a9649ce25891802cc4a845c5510", 2),
        (("verify", "--p", "181", "--format", "csv"),
         "2d1004d45878440841cc00ec85bcb357d71a8f7e47e3b29e39503cfd43c6c1ea", 2),
        (("verify", "--p", "7"),
         "7277fe96560f0073d2f9903f5b80777be1f36b2d46301b2ccbee69724e5bd436", 2),
        # 32,676 verdicts, the scale the scan's speed is quoted at
        (("scan", "--upto", "1000000", "--format", "csv"),
         "b4e45c6bca4ace086c832f2dcbe0aad2b6188a52811f9635a357c58dd6bc6e82", 2),
    ])
    def test_stdout_digest(self, capsys, argv, digest, expected_status):
        status, out, _ = run_cli(capsys, *argv)
        assert status == expected_status
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _unique_prefixes(options):
    """The shortest proper prefix of each option that no other of `options`
    starts with, for the options that have one."""
    return [next(name[:end] for end in range(3, len(name))
                 if sum(other.startswith(name[:end]) for other in options) == 1)
            for name in options if len(name) > 3]


# The alphabet argv is drawn from: every option string of every command, a
# unique prefix and an --option=value form of each, then values: help,
# version, `--` and others that start with "-", underscored, space-led,
# empty and non-integer ones, valid and invalid choices, an extra positional
_VALUES = ["-h", "--help", "--version", "--", "-", "-5", "13", "200", "1_000", " 13", "x",
           "", "1.5", "csv", "json", "nope", "perrin", "cor-13", "cor-7", "extra"]
_TOKENS = sorted({token for options in cli._OPTIONS.values()
                  for token in (*options, *_unique_prefixes(options),
                                *(f"{name}=13" for name in options))}) + _VALUES


def _good_values(row):
    """Values that the option of table row `row` takes."""
    kind, choices = row[:2]
    if choices:
        return list(choices)
    return ["13", "200", " 13", "1_000"] if kind is int else ["report.csv", ""]


@st.composite
def _argvs(draw):
    """A command with its required options, then more of its options, most
    with values they take, and a few tokens of the alphabet inserted
    anywhere, before the command too."""
    command = draw(st.sampled_from(list(cli._OPTIONS)))
    options = cli._OPTIONS[command]
    required = [name for name, row in options.items()
                if row[3] and draw(st.sampled_from([True, True, True, False]))]
    argv = [command]
    for name in required + draw(st.lists(st.sampled_from(list(options)), max_size=4)):
        row = options[name]
        argv.append(name)
        if row[0] is not bool:
            argv.append(draw(st.sampled_from(_good_values(row) * 3 + _VALUES)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    return argv


class TestParser:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["seq"])  # missing --upto
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    # main reads a plain argv from the option table without argparse; every
    # message, and the namespace the JSON config comes from, must be those of
    # the full four-command parser
    CORPUS = [
        (),
        ("-h",),
        ("--help",),
        ("--version",),
        ("--version", "scan"),
        ("-h", "scan"),
        ("frobnicate",),
        ("sca",),
        ("--bogus",),
        ("--format", "csv", "scan", "--upto", "20"),
        ("seq", "-h"),
        ("fib", "-h"),
        ("verify", "-h"),
        ("scan", "-h"),
        ("scan", "--version"),
        ("scan", "--upto", "200", "--bogus"),
        ("scan", "--upto", "200", "extra"),
        ("seq",),
        ("seq", "--upto", "x"),
        ("fib",),
        ("fib", "--p"),
        ("fib", "--p", "x"),
        ("verify",),
        ("verify", "--p", "1.5"),
        ("scan",),
        ("scan", "--upto", "ten"),
        ("verify", "--p", "13", "--case", "nope"),
        ("seq", "--p", "5", "--upto", "6"),
        ("fib", "--p", "181", "--format", "json"),
        ("verify", "--p", "13", "--format", "csv"),
        ("scan", "--upto", "200", "--format", "json"),
        ("verify", "--p", "13", "--scan-multiplier", "1"),
        ("verify", "--p", "13", "--scan-multiplier", "5000"),
        ("scan", "--upto", "200", "--scan-multiplier", "1"),
        ("scan", "--upto", "200", "--scan-multiplier", "5000"),
        ("fib", "--p", "13", "--", "x"),
        ("fib", "--p=13", "--fo", "csv"),
        ("fib", "--p", "13", "--p", "17"),
        ("verify", "--p", "13", "-h", "--bogus"),
        ("scan", "--upto", "200", "--out"),
        ("seq", "--symbolic", "--upto", "5", "--kind", "perrin", "--format", "json"),
        ("fib", "--p", "-5"),
        ("scan", "--upto", "1_000"),
        ("verify", "--p", "13", "--case", "cor-13", "--case", "cor-7"),
        ("seq", "--symbolic", "--symbolic", "--upto", "3"),
        ("fib", "--p", "13", "--out", ""),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = ("exit", exc.code)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    @pytest.mark.parametrize("columns", ["80", "30"])
    @pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_partial_build_matches_full_parser(self, capsys, monkeypatch, argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        parsed = []

        def recorded(parse):
            def parse_args(argv):
                args = parse(argv)
                parsed.append(dict(vars(args)))
                return args
            return parse_args

        monkeypatch.setattr(cli, "_parse_args", recorded(cli._parse_args))
        one_command = self.outcome(capsys, argv)
        monkeypatch.setattr(cli, "_parse_args",
                            recorded(lambda argv: cli.build_parser().parse_args(argv)))
        assert one_command == self.outcome(capsys, argv)
        # both sides parsed argv to the same namespace, or neither parsed it
        assert parsed[:1] == parsed[1:]

    # a plain argv builds no parser; anything else builds the full one alone
    @pytest.mark.parametrize("argv, parsers", [
        (("fib", "--p", "13"), 0),
        (("scan", "--upto", "200"), 0),
        (("--help",), 5),
        (("frobnicate",), 5),
        (("scan", "--upto", "200", "--bogus"), 5),
    ])
    def test_builds_only_the_invoked_subparser(self, capsys, monkeypatch, argv, parsers):
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        self.outcome(capsys, argv)
        assert len(built) == parsers

    @staticmethod
    def parse_outcome(parse, argv):
        """The namespace's attributes with the repr of each value (True is not
        1), or the exit status; then stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = sorted((k, repr(v)) for k, v in vars(parse(list(argv))).items())
            except SystemExit as exc:
                result = ("exit", exc.code)
        return result, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("columns", ["80", "30"])
    @settings(max_examples=500, deadline=None)
    @given(argv=_argvs())
    def test_parse_matches_full_parser_on_drawn_argv(self, columns, argv):
        with mock.patch.dict(os.environ, {"COLUMNS": columns}):
            assert self.parse_outcome(cli._parse_args, argv) == self.parse_outcome(
                lambda argv: cli.build_parser().parse_args(argv), argv)

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate' "
                          "(choose from 'seq', 'fib', 'verify', 'scan')"),
    ])
    def test_full_parser_errors_name_the_command_argument(
            self, capsys, monkeypatch, argv, message):
        monkeypatch.setenv("COLUMNS", "80")
        # only the full parser reports a missing or unknown command, and it
        # names the argument by its dest
        status, _, err = self.outcome(capsys, argv)
        assert status == ("exit", 1)
        assert err == ("usage: padquat [-h] [--version] {seq,fib,verify,scan} ...\n"
                       f"padquat: error: {message}\n")

    def test_default_build_offers_every_command_in_order(self):
        # a benchmark setup child times build_parser() with no arguments
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == ["seq", "fib", "verify", "scan"]
