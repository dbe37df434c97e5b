"""The README's library example runs and prints what the README says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_documented_lines():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code, printed = re.findall(r"```(?:python|text)\n(.*?)```", section, re.DOTALL)[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == printed
