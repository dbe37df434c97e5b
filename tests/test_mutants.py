"""The mutants of `tests/mutants.py` still apply to src/padquat.

`scripts/run_mutants.py` runs them, by hand; here each must still name one
exact spot of the source and tests that exist, so the list cannot rot
unseen.
"""

import re
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
