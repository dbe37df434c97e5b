"""Check that the tests catch every mutant of `tests/mutants.py`.

    python3 scripts/run_mutants.py            # every mutant
    python3 scripts/run_mutants.py wheel      # those whose name contains "wheel"

Run from anywhere; standard library and pytest only.  The repository is
copied once to a temporary directory, without `.git` and caches.  First
the named tests of every selected mutant must pass on the unchanged copy.
Then each mutant is applied to the copy in turn, its named tests run in
one pytest process, and every one of them must fail; the file is restored
before the next mutant.  Bytecode is never written, so no stale `.pyc`
can stand in for a mutated source.  A pytest run that outlasts
`TIMEOUT` seconds is stopped and its mutant counted as not caught.
Prints one line per mutant and exits 0 when every mutant is caught, 1
otherwise; names that select no mutant print one line and exit 1 before
anything is copied or run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info", "build")
TIMEOUT = 900


def _failed(copy: Path, tests: tuple[str, ...]) -> tuple[int, set[str]] | None:
    """pytest's exit status on `tests` in `copy`, and the node ids it
    reports as failed; None if the run outlasts `TIMEOUT`."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode, set(re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE))


def _caught(test: str, failed: set[str]) -> bool:
    # a parametrized test named without its parameters fails when any case does
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(argv: list[str]) -> int:
    selected = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    if not selected:
        print(f"no mutant matches {' '.join(argv)!r}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        tests = tuple(dict.fromkeys(t for m in selected for t in m.tests))
        result = _failed(copy, tests)
        if result is None:
            print("timed out: the unchanged copy: no mutant is checked")
            return 1
        status, failed = result
        if status != 0:
            print(f"the unchanged copy fails {sorted(failed) or 'its run'}: no mutant is checked")
            return 1
        survivors = 0
        for mutant in selected:
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new, 1), encoding="utf-8")
            try:
                result = _failed(copy, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            if result is None:
                survivors += 1
                print(f"timed out: {mutant.name}")
                continue
            missed = [t for t in mutant.tests if not _caught(t, result[1])]
            survivors += bool(missed)
            print(f"{'SURVIVED' if missed else 'caught'}: {mutant.name}"
                  + "".join(f"\n    passed: {t}" for t in missed))
    print(f"{len(selected) - survivors} of {len(selected)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
