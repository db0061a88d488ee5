"""Command-line front end.

Subcommands: ``construct`` (build, check, and write a matrix file),
``verify`` (re-check a file's claim or measure its best r), ``bounds``
(evaluate the size bounds at a parameter point), ``simulate`` (Monte-Carlo
group-testing rounds on a file), ``oracle`` (tiny exhaustive minimizer).

Exit status: 0 success, 1 a property check failed (witness on stderr),
2 bad usage, 3 precondition violation, 4 evaluation budget exceeded.
Every run echoes its fully resolved parameters, defaults included, so any
output can be reproduced from its log line.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from . import bounds as bnd
from . import construct as cons
from .core import CFFParams, IncidenceMatrix, read_matrix_file, write_matrix_file
from .grouptest import simulate
from .verify import (
    DEFAULT_BUDGET,
    DEFAULT_TRIALS,
    BudgetExceededError,
    CheckResult,
    check_claim,
    max_r,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

_DEFAULT_SEED = 0


class UsageError(Exception):
    """Flag combination that argparse alone cannot reject."""


def _echo(kind: str, pairs: list[tuple[str, object]]) -> None:
    print(kind + " " + " ".join(f"{k}={v}" for k, v in pairs))


def _report(result: CheckResult, trials: int) -> bool:
    """Print the refused exhaustive check and what a sampled pass shows,
    each on a line of its own, then the verdict, and the witness of a
    failure on stderr."""
    if result.refusal is not None:
        print(f"exhaustive check refused: {result.refusal}; sampled instead")
    if result.ok and result.method == "sampled":
        # the rule of three: n uniform (B, A) pairs without a violation
        print(
            f"sampled {trials} pairs, none violating: under {3 / trials:.3g} "
            "of all pairs violate, at 95% confidence"
        )
    print(f"check {result.method} {'ok' if result.ok else 'FAILED'}")
    wit = result.witness
    if wit is not None:
        b = ",".join(map(str, wit.b_rows))
        a = ",".join(map(str, wit.a_rows)) or "-"
        print(
            f"witness: intersect blocks {{{b}}}, subtract blocks {{{a}}}, "
            f"residual {wit.residual}",
            file=sys.stderr,
        )
    return result.ok


# ---------------------------------------------------------------------------
# construct

class _Method(NamedTuple):
    """A construction method: the flags it needs, one builder call, and the
    parameters its run echoes, read after the builder has resolved its
    defaults into the claim."""

    requires: tuple[str, ...]
    build: Callable[[argparse.Namespace], tuple[IncidenceMatrix, CFFParams]]
    echo: Callable[[argparse.Namespace, CFFParams], list[tuple[str, object]]]


_METHODS: dict[str, _Method] = {
    "trivial": _Method(
        ("n", "w", "r"),
        lambda a: cons.trivial_cff(a.n, a.w, a.r),
        lambda a, c: [("n", a.n), ("w", a.w), ("r", a.r)],
    ),
    "sperner": _Method(
        ("n",),
        lambda a: cons.sperner_cff(a.n),
        lambda a, c: [("n", a.n)],
    ),
    "oa": _Method(
        ("q", "t"),
        lambda a: cons.packing_to_cff(cons.oa_to_packing(cons.oa_construct(a.q, a.t)), a.d),
        lambda a, c: [("q", a.q), ("t", a.t), ("d", a.d)],
    ),
    "rs": _Method(
        ("q", "r", "n"),
        lambda a: cons.rs_cff(a.q, a.n, a.r, a.d),
        lambda a, c: [("q", a.q), ("n", a.n), ("r", a.r), ("d", a.d)],
    ),
    "shf-recursive": _Method(
        ("w", "r"),
        lambda a: cons.recursive_cff(a.w, a.r, a.d, a.levels),
        lambda a, c: [("w", a.w), ("r", a.r), ("d", a.d), ("levels", a.levels)],
    ),
    "random": _Method(
        ("w", "r", "T"),
        lambda a: cons.random_cff(
            a.w, a.r, a.d, a.T, a.seed, a.max_attempts,
            N=a.n, budget=a.budget, trials=a.trials,
        ),
        lambda a, c: [
            ("w", a.w), ("r", a.r), ("d", a.d), ("T", a.T), ("N", c.N),
            ("max-attempts", a.max_attempts),
        ],
    ),
    "random-uniform": _Method(
        ("ell", "w", "r", "T"),
        lambda a: cons.random_uniform_cff(
            a.ell, a.w, a.r, a.T, a.seed, a.max_attempts, budget=a.budget, trials=a.trials
        ),
        lambda a, c: [
            ("ell", a.ell), ("w", a.w), ("r", a.r), ("T", a.T),
            ("max-attempts", a.max_attempts),
        ],
    ),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    method = _METHODS[args.method]
    missing = [f"--{f}" for f in method.requires if getattr(args, f) is None]
    if missing:
        raise UsageError(f"method {args.method} requires {', '.join(missing)}")
    m, claim = method.build(args)
    _echo(
        "construct",
        [
            ("method", args.method),
            *method.echo(args, claim),
            ("seed", args.seed),
            ("budget", args.budget),
            ("trials", args.trials),
        ],
    )
    _echo(
        "claim",
        [("w", claim.w), ("r", claim.r), ("d", claim.d), ("N", claim.N), ("T", claim.T)],
    )
    result = check_claim(m, claim, budget=args.budget, trials=args.trials, seed=args.seed)
    if not _report(result, args.trials):
        return EXIT_CHECK_FAILED
    write_matrix_file(args.out, m, claim)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args: argparse.Namespace) -> int:
    m, header = read_matrix_file(args.file)
    if args.max_r:
        for flag in ("r", "trials", "seed"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--max-r takes no --{flag}: it measures the best r exhaustively")
        w = args.w if args.w is not None else (header.w if header else 1)
        d = args.d if args.d is not None else (header.d if header else 0)
        _echo(
            "verify",
            [("file", args.file), ("mode", "max-r"), ("w", w), ("d", d), ("budget", args.budget)],
        )
        print(f"max_r {max_r(m, w, d, budget=args.budget)}")
        return EXIT_OK
    w = args.w if args.w is not None else (header.w if header else None)
    r = args.r if args.r is not None else (header.r if header else None)
    d = args.d if args.d is not None else (header.d if header else 0)
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    seed = _DEFAULT_SEED if args.seed is None else args.seed
    if w is None or r is None:
        raise UsageError("file carries no claim; pass --w and --r (and --d)")
    claim = CFFParams(w=w, r=r, d=d, N=m.num_points, T=m.num_blocks)
    _echo(
        "verify",
        [
            ("file", args.file),
            ("w", w),
            ("r", r),
            ("d", d),
            ("N", claim.N),
            ("T", claim.T),
            ("trials", trials),
            ("seed", seed),
            ("budget", args.budget),
        ],
    )
    result = check_claim(m, claim, budget=args.budget, trials=trials, seed=seed)
    return EXIT_OK if _report(result, trials) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# bounds

# digits per piece of an int written in decimal: Python 3.11 and later
# refuse to convert an int of more than 4300 digits in one go
_PIECE = 4000


def _decimal(value: int) -> str:
    """The exact decimal digits of ``value``, written in pieces of at most
    ``_PIECE`` digits, so that the interpreter's limit on one conversion
    does not apply."""
    if value < 0:
        return "-" + _decimal(-value)
    pieces = []
    while value >= 10**_PIECE:
        value, low = divmod(value, 10**_PIECE)
        pieces.append(f"{low:0{_PIECE}d}")
    pieces.append(str(value))
    return "".join(reversed(pieces))


def _format_value(value: int | float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return _decimal(value)
    return f"{value:.6f}"


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.k is not None and (args.n is None or not 1 <= args.k <= args.n):
        raise UsageError(f"--k {args.k} needs --N and 1 <= k <= N")
    if args.n is not None and args.n <= args.d:
        raise UsageError(f"--N {args.n} must exceed d = {args.d}")
    report = bnd.full_report(args.w, args.r, args.d, args.T, N=args.n, k=args.k, c=args.c)
    _echo(
        "bounds",
        [
            ("w", args.w),
            ("r", args.r),
            ("d", args.d),
            ("T", args.T),
            ("N", args.n if args.n is not None else "-"),
            ("k", args.k if args.k is not None else "-"),
            ("c", args.c),
        ],
    )
    best = report.best_lower_bound()
    rows = [("bound", "direction", "value", "applicable", "note")]
    for e in report.entries:
        note = e.note
        if e.asymptotic:
            note = (note + "; " if note else "") + "asymptotic - indicative only"
        if best is not None and e is best:
            note = (note + "; " if note else "") + "best lower bound"
        rows.append(
            (e.name, e.direction, _format_value(e.value), "yes" if e.applicable else "no", note)
        )
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for row in rows:
        cells = [row[i].ljust(widths[i]) for i in range(4)] + [row[4]]
        print("  ".join(cells).rstrip())
    if args.csv:
        with open(args.csv, "w", encoding="ascii", newline="") as fh:
            fh.write("bound,direction,value,applicable\n")
            for e in report.entries:
                if e.value is None:
                    value = ""
                else:
                    value = _decimal(e.value) if isinstance(e.value, int) else repr(e.value)
                fh.write(f"{e.name},{e.direction},{value},{'yes' if e.applicable else 'no'}\n")
        print(f"wrote {args.csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate and oracle

def _cmd_simulate(args: argparse.Namespace) -> int:
    m, header = read_matrix_file(args.file)
    if header is None:
        raise UsageError("file carries no claim; simulate needs the claimed r and d")
    stats = simulate(
        m,
        header.r,
        header.d,
        args.trials,
        seed=args.seed,
        max_errors=args.errors,
    )
    _echo(
        "simulate",
        [
            ("file", args.file),
            ("r", header.r),
            ("d", header.d),
            ("trials", args.trials),
            ("seed", args.seed),
            ("tolerance", stats.tolerance),
            ("max-errors", stats.max_errors),
        ],
    )
    print(f"exact {stats.exact}/{stats.trials} rate={stats.exact_rate:.4f}")
    print(f"false_positives {stats.false_positives}")
    print(f"false_negatives {stats.false_negatives}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    if not args.min_n:
        raise UsageError("oracle requires --min-n")
    _echo(
        "oracle",
        [("mode", "min-n"), ("w", args.w), ("r", args.r), ("T", args.T), ("cap", args.cap)],
    )
    result = bnd.min_N_bruteforce(args.w, args.r, args.T, cap_N=args.cap)
    if result is None:
        print(f"min_N exceeds cap {args.cap}")
    else:
        print(f"min_N {result}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int no smaller than ``low``, so a bad count is
    refused as bad usage instead of changing the check or reaching a
    builder."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return convert


def _add_check_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="random seed (default 0)")
    p.add_argument(
        "--budget",
        type=_int_at_least(0),
        default=DEFAULT_BUDGET,
        help="max nodes an exhaustive check visits: B-sets, cover searches, "
        "witness walk steps, and T per symmetry checked; past it a claim is "
        "sampled and --max-r exits 4; 0 samples",
    )
    p.add_argument(
        "--trials",
        type=_int_at_least(1),
        default=DEFAULT_TRIALS,
        help="sample count when checking falls back to sampling",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverfree",
        description="Construct, verify, bound, and use cover-free families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family, check it, write it to a file")
    p.add_argument("--method", required=True, choices=list(_METHODS))
    p.add_argument("--out", required=True, help="output matrix file")
    p.add_argument("--n", type=int, help="points (trivial/sperner) or code length (rs)")
    p.add_argument("--w", type=int, help="intersected-block count of the claim")
    p.add_argument("--r", type=int, help="subtracted-block count of the claim")
    p.add_argument("--d", type=int, default=0, help="claimed residual slack (default 0)")
    p.add_argument("--q", type=int, help="field order (oa/rs)")
    p.add_argument("--t", type=int, help="orthogonal-array strength (oa)")
    p.add_argument("--levels", type=_int_at_least(0), default=1, help="composition rounds (shf-recursive)")
    p.add_argument("--T", type=int, help="block count (random methods)")
    p.add_argument("--ell", type=int, help="group size (random-uniform)")
    p.add_argument("--max-attempts", type=_int_at_least(1), default=50)
    _add_check_flags(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-check a matrix file")
    p.add_argument("file")
    p.add_argument("--w", type=int, help="override the claimed w")
    p.add_argument("--r", type=int, help="override the claimed r")
    p.add_argument("--d", type=int, help="override the claimed d")
    p.add_argument("--max-r", action="store_true", help="measure the best r instead")
    _add_check_flags(p)
    # unset until resolved, so that --max-r can tell which of them were given
    p.set_defaults(func=_cmd_verify, trials=None, seed=None)

    p = sub.add_parser("bounds", help="evaluate size bounds at a parameter point")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--n", "--N", type=int, dest="n", help="point count, enables bounds on T")
    p.add_argument("--k", type=int, help="uniform block size, 1 <= k <= N; enables the uniform bound")
    p.add_argument("--c", type=float, default=bnd.DEFAULT_C, help="bound constant (default 0.125)")
    p.add_argument("--csv", help="also write the entries as CSV")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="Monte-Carlo group testing on a matrix file")
    p.add_argument("file")
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--errors", type=_int_at_least(0), help="max injected outcome flips per trial")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="exhaustive minimum-N search at tiny scale")
    p.add_argument("--min-n", action="store_true", help="find the least workable point count")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--cap", type=_int_at_least(1), default=8, help="largest N to try (default 8)")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except cons.ConstructionFailedError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
