"""Mutants of src/padquat that the tests must catch, as data.

Each `Mutant` replaces `old`, which occurs exactly once in `file`, with
`new`; every test of `tests` must then fail.  `scripts/run_mutants.py`
applies each one to a temporary copy of the repository and runs its tests
there; `tests/test_mutants.py` checks, in every tier-1 run, that each `old`
still occurs exactly once, so the list cannot rot unseen.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


VERIFIER = "src/padquat/verifier.py"
FIBONACCI = "src/padquat/fibonacci.py"
CLI = "src/padquat/cli.py"

MUTANTS = (
    Mutant(
        "dropped mod-8 sign of (2/p)",
        VERIFIER,
        "by_sign[(-1) ** ((flip and r % 4 == 3) + (odd_two and r % 8 in (3, 5)))]",
        "by_sign[(-1) ** (flip and r % 4 == 3)]",
        ("tests/test_verifier.py::TestPredicates::"
         "test_derived_condition_is_the_jacobi_symbol_over_a_full_period[thm-perrin-even]",
         "tests/test_verifier.py::TestPredicates::test_perrin_even_condition_equals_discriminant_symbol",
         "tests/test_verifier.py::TestPredicates::test_paper_statements_equal_derived_conditions",
         "tests/test_cli.py::TestGoldenBytes::test_stdout_digest"),
    ),
    Mutant(
        "Jacobi symbol built from the non-residues",
        VERIFIER,
        "(1 if x % q in squares else -1 if x % q else 0)",
        "(-1 if x % q in squares else 1 if x % q else 0)",
        ("tests/test_verifier.py::TestPredicates::"
         "test_derived_condition_is_the_jacobi_symbol_over_a_full_period[thm-padovan-odd]",
         "tests/test_verifier.py::TestPredicates::"
         "test_derived_condition_is_the_jacobi_symbol_over_a_full_period[thm-perrin-even]",
         "tests/test_verifier.py::TestPredicates::test_paper_statements_equal_derived_conditions"),
    ),
    Mutant(
        "exclusions from the primes of c2 alone",
        VERIFIER,
        "_prime_factors(abs(red.c2 * d))",
        "_prime_factors(abs(red.c2))",
        ("tests/test_verifier.py::TestCaseConstruction::test_derived_exclusions_are_the_papers",
         "tests/test_verifier.py::TestCaseConstruction::test_applicable_ids_at_the_named_primes",
         "tests/test_verifier.py::TestCaseConstruction::test_claim_table_matches_sorting_the_claims"),
    ),
    Mutant(
        "wheel restarted at a 6k + 1",
        FIBONACCI,
        "q, step = 4097, 2",
        "q, step = 4099, 2",
        ("tests/test_fibonacci.py::TestPrimeFactors::test_products_at_the_end_of_the_table",
         "tests/test_fibonacci.py::TestPrimeFactors::test_drawn_n_to_1e13"),
    ),
    Mutant(
        "Binet square check inverted",
        FIBONACCI,
        "a * a % p != (p - 1 if z % 2 else 1)",
        "a * a % p != (1 if z % 2 else p - 1)",
        ("tests/test_fibonacci.py::TestEntryPoint::test_examples",
         "tests/test_fibonacci.py::TestEntryPair::test_split_pair_is_zero_then_either_root_to_the_z",
         "tests/test_fibonacci.py::TestEntryPair::test_matches_reference_at_drawn_primes_to_1e9"),
    ),
    Mutant(
        "z(p) doubled at split primes",
        FIBONACCI,
        "return z, (0, a)",
        "return 2 * z, (0, a * a % p)",
        ("tests/test_fibonacci.py::TestEntryPoint::test_examples",
         "tests/test_fibonacci.py::TestEntryPointMinimal::test_every_odd_prime_to_1e4",
         "tests/test_cli.py::TestGoldenBytes::test_stdout_digest"),
    ),
    Mutant(
        "Cassini sign fixed to 1",
        FIBONACCI,
        "r * r % p != (p - 1 if z % 2 else 1)",
        "r * r % p != 1",
        ("tests/test_fibonacci.py::TestEntryPoint::test_examples",
         "tests/test_fibonacci.py::TestProfile::test_powers_are_the_stepped_powers_of_r_to_1e5",
         "tests/test_cli.py::TestGoldenBytes::test_stdout_digest"),
    ),
    Mutant(
        # pow(p % n, n >> 1, n) is 1 or n - 1 for every n below p, so the
        # flip to "!= 1" reads the same; this one takes a square for n
        "non-residue test flipped",
        FIBONACCI,
        "pow(p % n, n >> 1, n) == n - 1",
        "pow(p % n, n >> 1, n) != n - 1",
        ("tests/test_fibonacci.py::TestSqrt5::test_every_split_prime_1_mod_8_to_1e6",
         "tests/test_fibonacci.py::TestSqrt5::test_primes_with_a_large_least_non_residue",
         "tests/test_fibonacci.py::TestSqrt5::test_drawn_split_primes_1_mod_8_to_1e12",
         "tests/test_fibonacci.py::TestEntryPair::test_matches_reference_at_split_primes_deep_in_two"),
    ),
    Mutant(
        "wheel exit without is_prime: stops at its first factor",
        FIBONACCI,
        "while n > 1 and not is_prime(n):",
        "while n > 1 and not out:",
        ("tests/test_fibonacci.py::TestPrimeFactors::test_products_at_the_end_of_the_table",),
    ),
    Mutant(
        "plain argv read without its required options",
        CLI,
        "    if not required <= given.keys():\n        return None\n",
        "",
        ("tests/test_cli.py::TestParser::test_partial_build_matches_full_parser",
         "tests/test_cli.py::TestParser::test_parse_matches_full_parser_on_drawn_argv"),
    ),
)
