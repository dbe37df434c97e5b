"""padquat benchmark: four workloads through the public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; padquat is imported from ./src.
Operations run one after another in this process, through
padquat.cli.main, with every lru_cache in padquat cleared before each
one, since a CLI user pays that cost on every invocation.  Each output is
checked against computations made apart from the program (checks.py),
outside the timed region.  The run repeats whole rounds of the
workload's operations until S seconds have passed.

--trace 0 prints the end-to-end metrics, with every time scaled to a
fixed host speed by a calibration loop run alongside (run_untraced).
--trace 1 alternates an untraced and a traced round and prints the
per-layer metrics (layers.py); the traced outputs must equal the
untraced ones byte for byte.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 27
# The calibration loop's length, and its time on the host the reference
# figures in README.md come from, which every reported time is scaled to.
CALIBRATION_STEPS = 100_000
CALIBRATION_S = 0.05

# The child prints the monotonic clock once padquat is imported and the
# CLI parser is built; the parent read the same clock just before spawning.
_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import padquat.cli\n"
    "padquat.cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def setup_spawn() -> float:
    """Seconds from spawning an interpreter until it has built the CLI parser."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                          check=True, capture_output=True, text=True, timeout=60)
    return float(done.stdout.split()[-1]) - start


class Runner:
    """Runs operations through padquat.cli.main with cold caches."""

    def __init__(self):
        import padquat.cli

        self.cli = padquat.cli
        self.caches = [
            obj
            for name, module in sorted(sys.modules.items())
            if name == "padquat" or name.startswith("padquat.")
            for obj in vars(module).values()
            if callable(getattr(obj, "cache_clear", None))
        ]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.verified: dict[tuple[str, ...], tuple[int, bytes, int]] = {}

    def call(self, argv) -> tuple[int | None, str, float]:
        """(exit status or None on an exception, stdout text, seconds).

        Standard output goes to an unnamed temporary file in the checkout,
        as it would to a redirected stdout, so that capturing it adds no
        in-memory buffer to the peak resident memory of the operation.
        """
        for cached in self.caches:
            cached.cache_clear()
        with tempfile.TemporaryFile(dir=ROOT) as raw:
            out = io.TextIOWrapper(raw, encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    status = self.cli.main(list(argv))
                except SystemExit as exc:
                    status = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # an operation that raises has failed
                    status = None
                    print(f"{' '.join(argv)}: {exc!r}", file=sys.__stderr__)
                out.flush()
                elapsed = time.perf_counter() - start
            out.detach()
            raw.seek(0)
            text = raw.read().decode()
        return status, text, elapsed

    def judge(self, op, status, text) -> int:
        """Count the operation; return its checked output items (0 if it failed).

        An output identical to one that already passed this operation's
        check passes without checking it again.
        """
        self.attempted += 1
        if status is None or status == 1:
            self.failed += 1
            self.correct = False
            return 0
        digest = hashlib.sha256(text.encode()).digest()
        seen = self.verified.get(op.argv)
        if seen is not None and seen[:2] == (status, digest):
            return seen[2]
        try:
            items = op.check(status, text)
        except Exception as exc:  # any disagreement or unreadable output
            print(f"{' '.join(op.argv)}: check failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return 0
        self.verified[op.argv] = (status, digest, items)
        return items

    def round(self, ops) -> tuple[list[float], int, list[tuple[int | None, str]]]:
        """Runs and judges each operation once: (seconds, items, outputs).

        A failed operation's time reads infinite, so that a program that
        crashes or rejects its input quickly does not look faster.
        """
        times, items, outputs = [], 0, []
        for op in ops:
            status, text, elapsed = self.call(op.argv)
            failed = self.failed
            items += self.judge(op, status, text)
            times.append(elapsed if self.failed == failed else float("inf"))
            outputs.append((status, text))
        return times, items, outputs


def calibrate() -> float:
    """Seconds for one pass of a fixed loop shaped like the oracle's work.

    It steps a three-term recurrence mod a small prime, keeps a window of
    4-tuples and sums their squares: the allocation and integer work the
    workloads spend most of their time on, in code that no change to
    padquat can touch.
    """
    start = time.perf_counter()
    x, y, z = 1, 1, 1
    window = [(0, 0, 0, 0)] * 1024  # small, so the peak resident memory stays the program's
    for step in range(CALIBRATION_STEPS):
        x, y, z = y, z, (x + y) % 1009
        window[step % 1024] = (x, y, z, (x + z) % 1009)
        if step % 1024 == 1023:
            sum(1 for a, b, c, d in window if (a * a + b * b + c * c + d * d) % 1009 == 0)
    return time.perf_counter() - start


def middle_mean(values: list[float]) -> float:
    """The mean of the middle half of the values (the interquartile mean)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def run_untraced(runner: Runner, ops, seconds: float) -> dict[str, float]:
    """End-to-end metrics from whole rounds repeated for `seconds`.

    Each operation's time is the middle mean of its times over the run's
    rounds, and the latency is the median of these over the round.  Every
    time is then scaled by CALIBRATION_S over the middle mean of the
    calibration loop's times, run before and after every round: the
    host's speed drifts by up to 2x in spells of seconds to minutes, and
    the loop slows with it, so the ratio holds steady where the bare wall
    time does not.  setup_s comes from SETUP_SPAWNS spawns spread evenly
    over the run, scaled the same way.
    """
    setup_spawn()  # writes the .pyc files a user's installed copy would have
    setups, next_setup = [], 0.0
    samples: list[list[float]] = [[] for _ in ops]
    calibrations = []
    items, rounds = 0, 0
    start = time.perf_counter()
    while True:
        if time.perf_counter() - start >= next_setup:
            setups.append(setup_spawn())
            next_setup += seconds / SETUP_SPAWNS
        calibrations.append(calibrate())
        times, round_items = runner.round(ops)[:2]  # drops the outputs at once
        calibrations.append(calibrate())
        for kept, elapsed in zip(samples, times):
            if elapsed != float("inf"):
                kept.append(elapsed)
        items += round_items
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    while len(setups) < SETUP_SPAWNS:
        setups.append(setup_spawn())
    timed = [middle_mean(kept) for kept in samples if kept]
    if not timed:
        raise SystemExit("error: every operation failed; no timing to report")
    scale = CALIBRATION_S / middle_mean(calibrations)
    print(f"unscaled: setup_s {middle_mean(setups):.4f}, "
          f"op_p50_s {statistics.median(timed):.4f}, "
          f"calibration {middle_mean(calibrations):.4f} s, {rounds} rounds",
          file=sys.stderr)
    return {
        "setup_s": middle_mean(setups) * scale,
        "op_p50_s": statistics.median(timed) * scale,
        "items_per_s": items / rounds / sum(timed) / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(runner: Runner, ops, seconds: float) -> dict[str, dict]:
    """Per-layer metrics from the fastest of alternating traced rounds.

    trace.overhead_s is the median over the rounds of a traced round's
    wall time minus that of the untraced round just before it, so that
    both sides of each difference fall in the same spell of host speed.
    """
    import layers

    tracer = layers.Tracer()
    overheads, traced = [], []
    start = time.perf_counter()
    while True:
        times, _, outputs = runner.round(ops)
        tracer.reset()
        tracer.install()
        try:
            wall, size = 0.0, 0
            for op, plain in zip(ops, outputs):
                status, text, elapsed = runner.call(op.argv)
                wall += elapsed
                size += len(text.encode())
                runner.attempted += 1
                if (status, text) != plain:
                    print(f"{' '.join(op.argv)}: traced output differs", file=sys.stderr)
                    runner.failed += 1
                    runner.correct = False
        finally:
            tracer.uninstall()
        traced.append((wall, tracer.metrics(size)))
        overheads.append(wall - sum(times))
        if time.perf_counter() - start >= seconds:
            break
    wall, values = min(traced, key=lambda t: t[0])
    values["trace.overhead_s"] = statistics.median(overheads)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in layers.METRICS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "padquat" / "cli.py").is_file():
        print(f"error: no padquat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    ops = workloads.build_round(args.workload, args.seed)
    runner = Runner()
    if args.trace:
        metrics = run_traced(runner, ops, args.seconds)
    else:
        values = run_untraced(runner, ops, args.seconds)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
