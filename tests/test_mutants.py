"""The mutants of `tests/mutants.py` still apply to src/padquat.

`scripts/run_mutants.py` runs them, by hand; here each must still name one
exact spot of the source and tests that exist, so the list cannot rot
unseen.  `TestRunnerTimeout` checks the runner's handling of a hung
pytest run, and of names that select no mutant, without starting one.
"""

import importlib.util
import re
import shutil
import subprocess
from pathlib import Path

import pytest
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once_in_src(mutant):
    assert mutant.file.startswith("src/padquat/")
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_named_tests_exist(mutant):
    assert mutant.tests  # a mutant no test catches is not listed
    for node in mutant.tests:
        path, *scopes = re.sub(r"\[.*\]$", "", node).split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for scope, keyword in zip(scopes, ["class"] * (len(scopes) - 1) + ["def"]):
            assert re.search(rf"^\s*{keyword} {scope}\b", source, re.MULTILINE), node


def _load_runner():
    path = ROOT / "scripts" / "run_mutants.py"
    spec = importlib.util.spec_from_file_location("run_mutants", path)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


class TestRunnerTimeout:
    """`scripts/run_mutants.py` reports a pytest run that outlasts its
    timeout and goes on, and stops at once on names that select no mutant;
    `subprocess.run` is replaced, so no pytest process starts."""

    @staticmethod
    def patch_run(monkeypatch, passes):
        calls = []

        def run(args, **kwargs):
            calls.append(args)
            if len(calls) <= passes:
                return subprocess.CompletedProcess(args, 0, stdout="", stderr="")
            raise subprocess.TimeoutExpired(args, kwargs["timeout"])

        monkeypatch.setattr(subprocess, "run", run)
        return calls

    def test_a_hung_mutant_is_not_caught_and_the_summary_still_prints(self, monkeypatch, capsys):
        runner = _load_runner()
        calls = self.patch_run(monkeypatch, passes=1)
        names = [m.name for m in MUTANTS[:2]]
        assert runner.main(names) == 1
        assert len(calls) == 3  # the unchanged copy, then one run per mutant
        assert capsys.readouterr().out.splitlines() == [
            *(f"timed out: {name}" for name in names), "0 of 2 mutants caught"]

    def test_a_hung_unchanged_copy_checks_no_mutant(self, monkeypatch, capsys):
        runner = _load_runner()
        calls = self.patch_run(monkeypatch, passes=0)
        assert runner.main([MUTANTS[0].name]) == 1
        assert len(calls) == 1
        assert capsys.readouterr().out == "timed out: the unchanged copy: no mutant is checked\n"

    def test_a_filter_that_selects_nothing_runs_nothing(self, monkeypatch, capsys):
        runner = _load_runner()
        calls = self.patch_run(monkeypatch, passes=0)
        monkeypatch.setattr(shutil, "copytree", lambda *args, **kwargs: pytest.fail("copied"))
        assert runner.main(["no-such-mutant"]) == 1
        assert calls == []
        assert capsys.readouterr().out.splitlines() == ["no mutant matches 'no-such-mutant'"]
