"""Command-line interface: table generation, single values, bitrace, verification.

Subcommands::

    rookq table   --n N [--restrict-lambda-lt-n] [--format csv|json|latex]
                  [--methods m1,m2,...] [--order paper|revlex]
    rookq char    --lambda [3,1] --mu [5] [--method mn|oracle|iterative|
                  hook|two_row|seminormal] [--check]
    rookq bitrace --mu [2,1] --nu [1,1,1] [--method matrix|def]
    rookq verify  --n N
    rookq dims    --n N

``--method auto`` is accepted as another spelling of the default ``mn``.
``table`` takes oracle, iterative, mn and seminormal; ``char --check`` also
runs every method that covers the cell (``characters.applicable``).

Partitions are written as comma-separated parts in brackets, e.g. ``[3,2,1]``
and ``[]`` for the empty partition.  The environment variable
ROOKQ_MAX_WEIGHT caps the admissible weight (default 12); the seminormal
method is refused above its own lower ceiling, ``seminormal.MAX_TRACE_WEIGHT``.
A part, N and ROOKQ_MAX_WEIGHT are each read as ASCII digits, with an
optional leading ``-`` and surrounding whitespace.

Exit codes: 0 success, 1 stdout closed by its reader (``| head -1``),
2 verification/cross-check failure, 3 parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from typing import List, Sequence, Tuple

from .errors import MethodMismatch, RookqError, VariantMismatch
from .characters import METHODS, ORDERS, CharacterTable, applicable, cross_checked
from .bitrace import btr_def, btr_matrix, dim_rn
from .seminormal import MAX_TRACE_WEIGHT
from . import verify as verify_mod

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_VERIFY = 2
EXIT_PARSE = 3


class CLIError(Exception):
    """Invalid command-line input (maps to exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


# ASCII integers, alone or comma-separated: int() would also take "1_0", "+3" and other digits
_INT = r"\s*-?[0-9]+\s*"
_INTEGER = re.compile(_INT, re.ASCII)
_PARTS = re.compile(rf"{_INT}(?:,{_INT})*", re.ASCII)


def _ascii_int(text: str) -> int:
    """``text`` as an int by the rule of partition parts; the type of every ``--n``."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def max_weight() -> int:
    try:
        return _ascii_int(os.environ.get("ROOKQ_MAX_WEIGHT", "12"))
    except argparse.ArgumentTypeError:
        raise CLIError("ROOKQ_MAX_WEIGHT must be an integer")


def parse_partition(text: str, *, sorted_required: bool = True) -> Tuple[int, ...]:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise CLIError(f"partition must look like [3,2,1] or [], got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    if not _PARTS.fullmatch(body):
        raise CLIError(f"partition parts must be integers: {text!r}")
    parts = tuple(int(x) for x in body.split(","))
    if any(p <= 0 for p in parts):
        raise CLIError(f"partition parts must be positive: {text!r}")
    if sorted_required and any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise CLIError(f"parts must be weakly decreasing: {text!r}")
    if sum(parts) > max_weight():
        raise CLIError(f"weight {sum(parts)} exceeds ROOKQ_MAX_WEIGHT={max_weight()}")
    return parts


def partition_str(p: Sequence[int]) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def _check_seminormal(weight: int) -> None:
    if weight > MAX_TRACE_WEIGHT:
        raise CLIError(f"the seminormal method runs up to weight {MAX_TRACE_WEIGHT}, got {weight}")


def _check_n(n: int) -> int:
    if n < 0:
        raise CLIError("--n must be nonnegative")
    if n > max_weight():
        raise CLIError(f"--n exceeds ROOKQ_MAX_WEIGHT={max_weight()}")
    return n


# ----------------------------------------------------------------------
# table emission
# ----------------------------------------------------------------------
def emit_table_csv(table: CharacterTable, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["lambda/mu"] + [partition_str(mu) for mu in table.cols])
    for lam in table.rows:
        writer.writerow(
            [partition_str(lam)] + [str(table.value(lam, mu)) for mu in table.cols]
        )


def emit_table_json(table: CharacterTable, out) -> None:
    records = []
    for lam in table.rows:
        for mu in table.cols:
            chi = table.cells[(lam, mu)]
            records.append(
                {
                    "lambda": partition_str(lam),
                    "mu": partition_str(mu),
                    "value": str(chi),
                    "method": table.methods[0],
                    "terms": chi.terms_json(),
                }
            )
    doc = {
        "n": table.n,
        "var": "q",
        "restrict_lambda_lt_n": table.restrict,
        "order": table.order,
        "columns": [partition_str(mu) for mu in table.cols],
        "rows": [partition_str(lam) for lam in table.rows],
        "records": records,
    }
    json.dump(doc, out, indent=2)
    out.write("\n")


def emit_table_latex(table: CharacterTable, out) -> None:
    cols = "|c|" + "c|" * len(table.cols)
    out.write("\\begin{tabular}{" + cols + "}\n\\hline\n")
    header = ["$\\lambda\\backslash\\mu$"] + [
        "$(" + ",".join(str(x) for x in mu) + ")$" for mu in table.cols
    ]
    out.write(" & ".join(header) + " \\\\\n\\hline\n")
    for lam in table.rows:
        # each cell is the canonical string without spaces or "*", exponents braced
        texts = (str(table.value(lam, mu)).replace(" ", "").replace("*", "") for mu in table.cols)
        cells = ["$(" + ",".join(str(x) for x in lam) + ")$"] + [
            "$" + re.sub(r"\^(-?\d+)", r"^{\1}", t) + "$" for t in texts
        ]
        out.write(" & ".join(cells) + " \\\\\n\\hline\n")
    out.write("\\end{tabular}\n")


def cmd_table(args) -> int:
    n = _check_n(args.n)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        raise CLIError("--methods must name at least one method")
    if unknown := [m for m in methods if m not in METHODS]:
        raise CLIError(f"unknown method {unknown[0]!r}; choose from {', '.join(METHODS)}")
    if "seminormal" in methods:
        _check_seminormal(n)
    table = CharacterTable.build(
        n, methods, restrict_lambda_lt_n=args.restrict_lambda_lt_n, order=args.order
    )
    emit = {"csv": emit_table_csv, "json": emit_table_json, "latex": emit_table_latex}
    emit[args.format](table, sys.stdout)
    return EXIT_OK


def cmd_char(args) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    if sum(lam) > sum(mu):
        raise CLIError(f"|lambda|={sum(lam)} must not exceed |mu|={sum(mu)}")
    method = args.method
    if method not in METHODS + ("auto",):
        raise CLIError(f"unknown method {method!r}")
    if method == "seminormal":
        _check_seminormal(sum(mu))
    print(cross_checked(lam, mu, (method,) + (applicable(lam, mu) if args.check else ())))
    return EXIT_OK


def cmd_bitrace(args) -> int:
    mu = parse_partition(args.mu, sorted_required=False)
    nu = parse_partition(args.nu, sorted_required=False)
    if sum(mu) != sum(nu):
        raise CLIError("bitrace needs |mu| = |nu|")
    print(btr_matrix(mu, nu) if args.method == "matrix" else btr_def(mu, nu))
    return EXIT_OK


def cmd_verify(args) -> int:
    n = _check_n(args.n)
    results = verify_mod.run_suite(n)
    failed = 0
    for r in results:
        if r.ok:
            print(f"PASS {r.name}")
        else:
            failed += 1
            print(f"FAIL {r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed (weight cap {n})")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_dims(args) -> int:
    n = _check_n(args.n)
    print(dim_rn(n))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rookq", description="Exact q-rook monoid characters and bitrace")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit the character table for weight n")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--restrict-lambda-lt-n", action="store_true")
    p.add_argument("--format", default="csv", choices=["csv", "json", "latex"])
    p.add_argument("--methods", default="mn", help="comma-separated; cells are cross-checked")
    p.add_argument("--order", default="paper", choices=ORDERS)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("char", help="one character value")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--method", default="mn")
    p.add_argument("--check", action="store_true", help="cross-check against all applicable methods")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("bitrace", help="bitrace btr(mu, nu)")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--method", default="matrix", choices=["matrix", "def"])
    p.set_defaults(func=cmd_bitrace)

    p = sub.add_parser("verify", help="run the invariant suite up to weight n")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dims", help="dimension of the algebra for weight n")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.set_defaults(func=cmd_dims)

    return parser


# Built on the first ``main`` call and reused by every later call in the
# process.  Not an ``lru_cache``: the memo clearing between cold requests
# (tests' ``clear_memos``, the benchmark's cache scan) empties every
# ``lru_cache`` in the package, and would rebuild the parser each time.  Not
# built at import either, which would make every import pay for it.
_PARSER: _Parser | None = None


def main(argv: List[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the flush at exit to devnull (Python docs on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (CLIError, VariantMismatch) as e:
        # a shape that a requested closed form does not cover is bad input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except MethodMismatch as e:
        print(f"mismatch: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except RookqError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
