"""Command-line front end.

Subcommands:
  seq     print bi-periodic Padovan/Perrin terms, symbolic or mod p
  fib     entry point and Pisano period of an odd prime
  verify  run the zero-divisor claim checks for one twin prime
  scan    aggregate verdicts over all twin primes up to a bound

Exit codes: 0 success (no FAILS), 1 usage/validation error, 2 at least
one FAILS verdict.  All output is deterministic for a given invocation.

A command followed by plain `--option value` pairs is read straight from its
option table; argparse reads anything else (help, version, abbreviations,
`--option=value`, values that start with "-") and reports every usage error.
"""

import argparse
import io
import os
import sys

from . import __version__
from .fibonacci import FibProfile
from .modular import is_prime, twin_primes_upto
from .verifier import (
    CASE_IDS,
    FAILS,
    ROW_HEADER,
    SCAN_WINDOWS,
    applicable_case_ids,
    decide_prime,
    verdict_record,
)


# Largest --p that fib, verify and seq accept: z(p) comes from trial division
# of p - (5/p), whose cost grows with its second-largest prime factor, up to
# sqrt(p).
MAX_PRIME = 10**12
# Largest --upto that seq and scan accept; every term, and every row of a
# scan, is held in memory.  Measured on a 2-vCPU Intel Xeon with Python 3.11:
# seq --symbolic --upto 400 took 9.6 s and 359 MB (500: 19 s and 700 MB),
# seq --p 5 --upto 10**6 3.1 s and 184 MB; later, in a child process, scan
# --upto 10**7 took 1.8 s and 82 MB peak RSS as csv, 3.0 s and 236 MB as a
# table and 5.3-5.6 s and 553 MB as json (the host's speed drifts by up to 2x).
MAX_SYMBOLIC_TERMS = 400
MAX_TERMS = 10**6
MAX_SCAN_BOUND = 10**7


class CliError(Exception):
    """Input validation failure; reported on stderr with exit status 1."""


# every command's JSON config records these two, whether it takes them or not
_CONFIG_DEFAULTS = {"symbolic": False, "scan_multiplier": SCAN_WINDOWS}

# Each command's options, in help order: option -> (type, choices, default,
# required, help); a bool option is a flag.  build_parser adds them to
# argparse, and _plain_args reads a plain argv from tables derived from the
# same rows.
_OUTPUT_OPTIONS = {"--format": (str, ("table", "json", "csv"), "table", False, None),
                   "--out": (str, None, None, False, "output path (default: stdout)")}
_OPTIONS = {
    "seq": {
        "--kind": (str, ("padovan", "perrin"), None, False, "which sequence (default: both)"),
        "--symbolic": (bool, None, False, False, "exact polynomials in a, b instead of residues"),
        "--p": (int, None, None, False, "twin prime modulus; coefficients are (p-2, p)"),
        "--upto": (int, None, None, True, "number of terms (indices 0..N-1)"), **_OUTPUT_OPTIONS},
    "fib": {"--p": (int, None, None, True, None), **_OUTPUT_OPTIONS},
    "verify": {
        "--p": (int, None, None, True, None),
        "--case": (str, CASE_IDS, None, False, "a single claim id (default: all applicable)"),
        **_OUTPUT_OPTIONS},
    "scan": {
        "--upto": (int, None, None, True, "inclusive bound on the twin prime p"),
        **_OUTPUT_OPTIONS},
}


def _attribute(option: str) -> str:
    """The namespace attribute of `option`, as argparse names it."""
    return option[2:].replace("-", "_")


# What _plain_args reads per command, derived from _OPTIONS at import:
# option -> (type, choices, attribute); the namespace of an argv that gives
# no option, with _CONFIG_DEFAULTS; and the attributes of required options.
_PLAIN = {
    command: (
        {name: (row[0], row[1], _attribute(name)) for name, row in options.items()},
        {"command": command, **_CONFIG_DEFAULTS,
         **{_attribute(name): row[2] for name, row in options.items()}},
        {_attribute(name) for name, row in options.items() if row[3]},
    )
    for command, options in _OPTIONS.items()
}
# fib's fields, in output order: the table's format line per field, the
# JSON profile's keys and the CSV header
_FIB_FIELDS = ("p", "entry_point", "pisano_period", "relation")
_FIB_TABLE = "".join(f"{name}: %s\n" for name in _FIB_FIELDS)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve 2 for FAILS
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the options of `command` to `parser`, from `_OPTIONS`."""
    for name, (kind, choices, default, required, help_text) in _OPTIONS[command].items():
        if kind is bool:
            parser.add_argument(name, action="store_true", help=help_text)
        else:
            parser.add_argument(name, type=kind, choices=choices, default=default,
                                required=required, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    """The padquat parser, with a subparser for each command."""
    parser = _Parser(prog="padquat", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(**_CONFIG_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        _add_options(sub.add_parser(command, help=help_text), command)
    return parser


def _json_document(args: argparse.Namespace, payload: dict) -> str:
    import json  # imported here: the table and csv outputs do not need it

    config = {k: v for k, v in vars(args).items() if v is not None}
    doc = {"tool_version": __version__, "config": config, **payload}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    # no field of any command holds a comma, a quote or a line break, so
    # csv.writer would quote nothing: each line is one format, filled from
    # each row tuple as it is.  A StringIO holds no string per line, as a
    # joined list would (+15 MB on scan --upto 10**7)
    line = ",".join(["%s"] * len(header)) + "\n"
    buf = io.StringIO()
    buf.write(line % tuple(header))
    for row in rows:
        buf.write(line % row)
    return buf.getvalue()


def _table_text(header: list[str], rows: list[tuple]) -> str:
    cells = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"


def _report(args: argparse.Namespace, key: str, header: list[str], rows: list[tuple]) -> str:
    """`rows` under `header` in args.format; JSON lists each row as a record
    under `key`."""
    if args.format == "json":
        return _json_document(args, {key: [dict(zip(header, row)) for row in rows]})
    if args.format == "csv":
        return _csv_text(header, rows)
    return _table_text(header, rows)


def _require_twin_prime(p: int) -> None:
    """Raise CliError unless p heads a twin prime pair (p-2, p); no p < 5
    does, as 0, 1 and 4 are not prime."""
    if not (is_prime(p) and is_prime(p - 2)):
        raise CliError(f"{p} does not head a twin prime pair (p-2, p)")


def cmd_seq(args: argparse.Namespace) -> tuple[str, int]:
    # imported here: no other command runs the sequences
    from .sequences import (
        SeqParams,
        padovan_mod,
        padovan_sym_terms,
        perrin_mod,
        perrin_sym_terms,
    )

    n = args.upto
    if args.symbolic and args.p is not None:
        raise CliError("--p does not apply to --symbolic terms")
    if n < 0:
        raise CliError("--upto must be nonnegative")
    cap = MAX_SYMBOLIC_TERMS if args.symbolic else MAX_TERMS
    if n > cap:
        raise CliError(f"--upto must be at most {cap}, got {n}")
    kinds = [args.kind] if args.kind else ["padovan", "perrin"]
    if args.symbolic:
        of_kind = {"padovan": padovan_sym_terms, "perrin": perrin_sym_terms}
        columns = {k: [str(t) for t in of_kind[k](n)] for k in kinds}
    else:
        if args.p is None:
            raise CliError("seq needs --symbolic or a twin prime --p")
        _require_twin_prime(args.p)
        params = SeqParams.twin_prime(args.p)
        of_kind = {"padovan": padovan_mod, "perrin": perrin_mod}
        columns = {k: of_kind[k](params, n) for k in kinds}

    rows = [(i, *[columns[k][i] for k in kinds]) for i in range(n)]
    return _report(args, "terms", ["n"] + kinds, rows), 0


def cmd_fib(args: argparse.Namespace) -> tuple[str, int]:
    if args.p < 3 or not is_prime(args.p):
        raise CliError(f"--p must be an odd prime >= 3, got {args.p}")
    profile = FibProfile.of(args.p)
    values = (profile.p, profile.entry_point, profile.pisano_period, profile.relation())
    if args.format == "json":
        return _json_document(args, {"profile": dict(zip(_FIB_FIELDS, values))}), 0
    if args.format == "csv":
        return _csv_text(_FIB_FIELDS, [values]), 0
    return _FIB_TABLE % values, 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    p, case_ids = args.p, applicable_case_ids(args.p)
    _require_twin_prime(p)
    if args.case is not None:
        if args.case not in case_ids:
            raise CliError(f"{args.case} does not apply at p = {p}")
        case_ids = [args.case]
    profile = FibProfile.of(p)
    if args.format == "json":
        records = [verdict_record(profile, cid) for cid in case_ids]
        status = 2 if any(r["classification"] == FAILS for r in records) else 0
        return _json_document(args, {"verdicts": records}), status
    rows = decide_prime(profile, case_ids)
    status = 2 if any(row[6] == FAILS for row in rows) else 0  # row[6]: classification
    return _report(args, "verdicts", ROW_HEADER, rows), status


def cmd_scan(args: argparse.Namespace) -> tuple[str, int]:
    if args.upto > MAX_SCAN_BOUND:
        raise CliError(f"--upto must be at most {MAX_SCAN_BOUND}, got {args.upto}")
    # in (p, claim id) order: the sieve yields p ascending, the ids come sorted;
    # bounds below 5 yield a header-only report
    rows = []
    for _, p in twin_primes_upto(args.upto):  # p from the sieve: no checks
        rows += decide_prime(FibProfile.of(p), applicable_case_ids(p))
    status = 2 if any(row[6] == FAILS for row in rows) else 0  # row[6]: classification
    return _report(args, "verdicts", ROW_HEADER, rows), status


# The commands, in the order the full parser lists them: (help, handler).
_COMMANDS = {
    "seq": ("print sequence terms", cmd_seq),
    "fib": ("Fibonacci profile of a prime", cmd_fib),
    "verify": ("check the zero-divisor claims for one twin prime", cmd_verify),
    "scan": ("verdicts for every twin prime up to a bound", cmd_scan),
}


def _check_writable(path: str) -> None:
    """Raise CliError unless `path` can be opened for writing.  Creates and
    truncates nothing, so a command that fails later leaves it as it was."""
    full = os.path.abspath(path)  # drops a trailing separator
    if not path:
        reason = "empty path"
    elif os.path.isdir(full) or path[-1] in (os.sep, os.altsep):
        reason = "is a directory"
    elif not os.path.isdir(os.path.dirname(full)):
        reason = "no such directory"
    elif not os.access(full if os.path.exists(full) else os.path.dirname(full), os.W_OK):
        reason = "permission denied"
    else:
        return
    raise CliError(f"cannot write --out {path}: {reason}")


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a plain argv, else None: a command, then only its own
    exact options, each a flag alone or `--option value` with a value that
    does not start with "-" and passes the option's type and choices, every
    required one given.  argparse reads such an argv the same way."""
    plain = _PLAIN.get(argv[0]) if argv else None
    if plain is None:
        return None
    options, defaults, required = plain
    given, tokens = {}, iter(argv[1:])
    for name in tokens:
        if name not in options:
            return None
        kind, choices, attribute = options[name]
        if kind is bool:
            given[attribute] = True
            continue
        value = next(tokens, "-")  # a missing value is argparse's error
        if value.startswith("-"):
            return None
        try:
            given[attribute] = value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
    if not required <= given.keys():
        return None
    return argparse.Namespace(**(defaults | given))


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as build_parser() parses it: a plain argv from the option
    table, anything else, with every help and error message, by argparse."""
    return _plain_args(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        p = getattr(args, "p", None)  # scan has no --p
        if p is not None and p > MAX_PRIME:
            raise CliError(f"--p must be at most {MAX_PRIME}, got {p}")
        if args.out is not None:
            _check_writable(args.out)
        text, status = _COMMANDS[args.command][1](args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            # the system can still refuse a path _check_writable passed, such
            # as one whose directory went away in between
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise CliError(f"cannot write --out {args.out}: {exc.strerror.lower()}") from exc
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
