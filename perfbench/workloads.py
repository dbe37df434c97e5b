"""Seeded inputs for the four workloads.

Each workload is one round of CLI operations; a run repeats the round.
The seed picks the inputs, and the inputs are drawn so that every seed
carries about the same amount of work, which keeps run-to-run spread
below the bounds in BENCHMARK.json:

- scan:           one `scan --upto N --format csv`, N in [900, 1030).
- verify-large-p: `verify --p P --format json` for four twin primes in
                  [9900, 10400], drawn by the length of pi(p), which sets
                  the scan window: one long (pi(p) > 1.5 p), two medium
                  (0.75 p < pi(p) <= 1.5 p) and one short (pi(p) <= 0.75 p).
- fib-sweep:      `fib --p P` for 40 twin primes in (10^6, 1.05 * 10^6],
                  stratified by k = (p - (5/p)) / z(p), the factor that sets
                  the length of the entry-point loop: 14 with k = 1, 10 with
                  k = 2, 6 with k in {3, 4} and 10 with k >= 5, which is the
                  mix of all 374 twin primes in that range.
- seq-symbolic:   one `seq --symbolic --upto N --format csv`, N in [248, 252].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its (status, output)."""

    argv: tuple[str, ...]
    check: Callable[[int, str], int]  # returns the number of output items


def scan_round(rng: random.Random) -> list[Op]:
    bound = 900 + rng.randrange(130)
    argv = ("scan", "--upto", str(bound), "--format", "csv")
    return [Op(argv, partial(checks.check_scan, bound))]


def _window_stratum(p: int) -> str:
    _, pi = checks.entry_and_pisano(p)
    if pi > 1.5 * p:
        return "long"
    return "medium" if pi > 0.75 * p else "short"


def verify_round(rng: random.Random) -> list[Op]:
    strata: dict[str, list[int]] = {"long": [], "medium": [], "short": []}
    for p in checks.twin_heads(9900, 10400):
        strata[_window_stratum(p)].append(p)
    primes = [p for name, n in (("long", 1), ("medium", 2), ("short", 1))
              for p in rng.sample(strata[name], n)]
    return [
        Op(("verify", "--p", str(p), "--format", "json"), partial(checks.check_verify, p))
        for p in primes
    ]


# stratum of k = (p - (5/p)) / z(p) -> number of primes drawn from it
_FIB_QUOTA = {"1": 14, "2": 10, "3-4": 6, "5+": 10}


def _fib_stratum(p: int) -> str:
    k = (p - checks.legendre5(p)) // checks.entry_point_by_divisors(p)
    return "1" if k == 1 else "2" if k == 2 else "3-4" if k <= 4 else "5+"


def fib_round(rng: random.Random) -> list[Op]:
    candidates = checks.twin_heads(1_000_001, 1_050_000)
    rng.shuffle(candidates)
    left = dict(_FIB_QUOTA)
    primes = []
    for p in candidates:
        stratum = _fib_stratum(p)
        if left[stratum]:
            left[stratum] -= 1
            primes.append(p)
        if not any(left.values()):
            break
    return [Op(("fib", "--p", str(p)), partial(checks.check_fib, p)) for p in primes]


def seq_round(rng: random.Random) -> list[Op]:
    count = 248 + rng.randrange(5)
    argv = ("seq", "--symbolic", "--upto", str(count), "--format", "csv")
    return [Op(argv, partial(checks.check_seq_symbolic, count))]


WORKLOADS = {
    "scan": scan_round,
    "verify-large-p": verify_round,
    "fib-sweep": fib_round,
    "seq-symbolic": seq_round,
}


def build_round(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
