import csv
import hashlib
import io
import json

import pytest

from padquat import __version__, cli, fibonacci, modular, quaternion, sequences, verifier
from padquat.cli import (
    MAX_PRIME,
    MAX_SCAN_BOUND,
    MAX_SCAN_MULTIPLIER,
    MAX_SYMBOLIC_TERMS,
    MAX_TERMS,
    main,
)
from padquat.fibonacci import FibProfile
from padquat.sequences import padovan_fib_form


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
        status, _, err = run_cli(capsys, "seq", "--p", "11", "--upto", "4")
        assert status == 1
        assert "twin prime" in err

    def test_needs_p_or_symbolic(self, capsys):
        status, _, err = run_cli(capsys, "seq", "--upto", "4")
        assert status == 1 and "error:" in err

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
        status, _, err = run_cli(capsys, "fib", "--p", "4")
        assert status == 1 and "odd prime" in err

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

    def test_not_twin_prime(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--p", "9")
        assert status == 1 and "twin prime" in err

    def test_excluded_case_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--p", "13", "--case", "cor-7")
        assert status == 1 and "error:" in err

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

        # every command checks primality before it does anything else
        for module in (cli, sequences, verifier):
            monkeypatch.setattr(module, "is_prime", refuse)
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

        for name in ("padovan_sym_terms", "perrin_sym_terms", "padovan_mod",
                     "perrin_mod", "twin_primes_upto"):
            monkeypatch.setattr(cli, name, refuse)
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

        for name in ("verify_prime", "check_claim", "twin_primes_upto"):
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

        monkeypatch.setattr(cli, "verify_prime", refuse)

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

    def test_failed_command_leaves_out_untouched(self, tmp_path, monkeypatch):
        self.check_out_untouched(tmp_path, monkeypatch, ("scan", "--upto", "200"))

    def test_verify_failed_command_leaves_out_untouched(self, tmp_path, monkeypatch):
        self.check_out_untouched(tmp_path, monkeypatch, ("verify", "--p", "13"))

    def test_scan_needs_no_linear_stream(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("linear stream built")

        monkeypatch.setattr(quaternion, "family_stream", refuse)
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
        def refuse(*args):
            raise AssertionError("a Fibonacci number computed again")

        monkeypatch.setattr(verifier, "fib_mod", refuse)
        status, out, _ = run_cli(capsys, "scan", "--upto", "2000", "--format", "csv")
        assert status == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
        )

    def test_scan_builds_cases_without_primality_checks(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("twin primality checked again")

        monkeypatch.setattr(verifier, "is_prime", refuse)
        status, out, _ = run_cli(capsys, "scan", "--upto", "2000", "--format", "csv")
        assert status == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac11d49c2f4105967af2f2053eca164ce0015527ac85f47df8f9af057fe5759c"
        )

    def test_scan_takes_one_profile_and_one_pair_per_prime(self, capsys, monkeypatch):
        twins = [p for _, p in modular.twin_primes_upto(2000)]
        z = {p: fibonacci.entry_point(p) for p in twins}
        calls = {"fib_pair": [], "of": []}
        fib_pair, of = fibonacci.fib_pair, FibProfile.of.__func__

        def counted_pair(n, p):
            # pairs at multiples of z(p), the z/2z/4z candidates of pi(p) among them
            if n % z[p] == 0:
                calls["fib_pair"].append((p, n))
            return fib_pair(n, p)

        # z(p) from the table, so that the order reduction's own pairs are not counted
        monkeypatch.setattr(fibonacci, "entry_point", z.__getitem__)

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
        assert calls == {"fib_pair": [(p, z[p]) for p in twins], "of": twins}

    def test_scan_reads_do_not_grow_with_the_multiplier(self, capsys, monkeypatch):
        reads = {}
        jump_oracle = verifier.jump_oracle
        for multiplier in (2, MAX_SCAN_MULTIPLIER):
            reads[multiplier] = 0

            def counted(case, multiplier=multiplier):
                out = jump_oracle(case)
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
        assert reads[2] == reads[MAX_SCAN_MULTIPLIER] > 0


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
    ])
    def test_stdout_digest(self, capsys, argv, digest, expected_status):
        status, out, _ = run_cli(capsys, *argv)
        assert status == expected_status
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParser:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["seq"])  # missing --upto
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
