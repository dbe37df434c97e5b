"""Make the checkout's package importable by the interpreters the tests spawn.

`pythonpath = ["src"]` in pyproject.toml reaches only the pytest process;
acceptance criterion 10 runs `python -m padquat` in a child process, which
reads PYTHONPATH instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
