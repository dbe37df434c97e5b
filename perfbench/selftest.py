"""Self-test of the benchmark's checks, on small inputs (a few seconds).

    python3 perfbench/selftest.py

Runs a few real operations, confirms that their outputs pass, then feeds
each check a deliberately corrupted copy and confirms that the operation
is reported as failed, as is one that the CLI rejects with status 1.
Also confirms that a traced round prints the same bytes as an untraced
one and that uninstalling the tracer restores every patched function.  Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from functools import partial

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import Op  # noqa: E402


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def bump_observed_count(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[3][5] = str(int(rows[3][5]) + 1)
    return _csv(rows)


def bump_predicted_count(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[3][4] = str(int(rows[3][4]) + 1)
    return _csv(rows)


def bump_verify_observed(text: str) -> str:
    doc = json.loads(text)
    doc["verdicts"][0]["observed_count"] += 1
    return json.dumps(doc)


def bump_counterexample_norm(text: str) -> str:
    doc = json.loads(text)
    cex = next(v["counterexamples"][0] for v in doc["verdicts"] if v["counterexamples"])
    cex["norm"] = (cex["norm"] + 1) % 181
    return json.dumps(doc)


def wrong_entry_point(text: str) -> str:
    z = int(re.search(r"entry_point: (\d+)", text).group(1))
    return text.replace(f"entry_point: {z}\n", f"entry_point: {2 * z}\n")


def change_coefficient(text: str) -> str:
    """Adds one to the first numeric coefficient of a monomial in a, b."""
    lines = text.splitlines(keepends=True)
    for n, line in enumerate(lines[1:], start=1):
        new = re.sub(r"(?<=[ ,])(\d+)(?=[ab])", lambda m: str(int(m.group(1)) + 1), line, count=1)
        if new != line:
            lines[n] = new
            return "".join(lines)
    raise AssertionError("no coefficient to change")


CASES = [
    (Op(("scan", "--upto", "200", "--format", "csv"), partial(checks.check_scan, 200)),
     [bump_observed_count, bump_predicted_count, "exit 0"]),
    (Op(("verify", "--p", "181", "--format", "json"), partial(checks.check_verify, 181)),
     [bump_verify_observed, bump_counterexample_norm]),
    (Op(("fib", "--p", "1000037"), partial(checks.check_fib, 1000037)),
     [wrong_entry_point]),
    (Op(("seq", "--symbolic", "--upto", "30", "--format", "csv"),
        partial(checks.check_seq_symbolic, 30)),
     [change_coefficient]),
]


def main() -> int:
    runner = run.Runner()
    problems = []
    for op, corruptions in CASES:
        status, text, _ = runner.call(op.argv)
        before = runner.failed
        if not runner.judge(op, status, text) or runner.failed != before:
            problems.append(f"{' '.join(op.argv)}: the real output did not pass")
        for corrupt in corruptions:
            if corrupt == "exit 0":  # a FAILS verdict with a success status
                name, bad_status, bad = corrupt, 0, text
            else:
                name, bad_status, bad = corrupt.__name__, status, corrupt(text)
            before = runner.failed
            runner.judge(op, bad_status, bad)
            if (bad_status, bad) == (status, text) or runner.failed != before + 1:
                problems.append(f"{' '.join(op.argv)}: {name} was not caught")

    rejected = run.Runner()  # p = 4 is not prime: the CLI exits with status 1
    times = rejected.round([Op(("fib", "--p", "4"), partial(checks.check_fib, 4))])[0]
    if rejected.correct or rejected.failed != 1 or times != [float("inf")]:
        problems.append("an operation that exits 1 was not reported as failed and untimed")

    tracer = layers.Tracer()
    originals = [(c, k, orig) for c, k, orig, _ in tracer.patches]
    plain = [runner.call(op.argv)[:2] for op, _ in CASES]
    tracer.install()
    try:
        traced = [runner.call(op.argv)[:2] for op, _ in CASES]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0)
    if traced != plain:
        problems.append("traced outputs differ from untraced outputs")
    if not (metrics["verifier.cases"] and metrics["sequences.sym_render_s"]
            and metrics["fibonacci.profile_calls"] and metrics["cli.self_s"]):
        problems.append(f"traced round recorded too little: {metrics}")
    for container, key, original in originals:
        current = container[key] if isinstance(container, dict) else vars(container)[key]
        if current is not original:
            problems.append(f"{key} was not restored")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
