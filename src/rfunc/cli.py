"""Command-line front end: evaluate, certify, tabulate and compute EOF values.

Exit codes: 0 success, 1 certification failure, 2 usage/validation error
(an input too large for memory included), 3 I/O error.  The default log
base is "two".  The RFUN_LOG_BASE environment variable overrides it and is
read on every call of ``main``; the --log flag overrides both.  An
RFUN_LOG_BASE other than "two" or "natural" is a usage error.  The argument
parser is built once per process, on the first call of ``main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .analysis import _CERTIFY_M_MAX, _certify_m, _lambda_grid, certify_proof, hull_value
from .core import (
    BASES,
    check_dimension,
    convert_base,
    f_value,
    g_value,
    gamma_value,
    r_first,
    r_second,
    r_value,
)
from .quantum import StateValidationError, eof_lower_bound, isotropic_eof, load_state

EXIT_OK = 0
EXIT_CERTIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# which -> fn(lam, m, base); gamma, g and f are not entropies and ignore base
_EVAL = {
    "R": lambda lam, m, base: r_value(lam, m, base=base),
    "R1": lambda lam, m, base: r_first(lam, m, base=base),
    "R2": lambda lam, m, base: convert_base(r_second(lam, m), base),
    "gamma": lambda lam, m, base: gamma_value(lam, m),
    "g": lambda lam, m, base: g_value(lam, m),
    "f": lambda lam, m, base: f_value(lam, m),
    "hull": lambda lam, m, base: hull_value(lam, m, base=base),
}


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _parse_m_range(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        # every m between two valid endpoints is valid; checking hi before
        # range() fails a range past the certifier's bound before any work
        lo, hi = _certify_m(int(lo_s)), _certify_m(int(hi_s))
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [_certify_m(int(text))]


def _cmd_eval(args) -> int:
    print(_fmt(_EVAL[args.which](args.lam, args.m, args.log)))
    return EXIT_OK


def _cmd_certify(args) -> int:
    reports = [certify_proof(m, args.grid) for m in _parse_m_range(args.m)]
    docs = [r.to_dict() for r in reports]
    print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    return EXIT_OK if all(r.overall for r in reports) else EXIT_CERTIFY_FAIL


def _cmd_table(args) -> int:
    m = check_dimension(args.m)
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    grid = _lambda_grid(m, args.grid)
    base = args.log
    rows = zip(grid, r_value(grid, m, base=base),
               convert_base(r_second(grid, m), base),
               hull_value(grid, m, base=base))
    lines = ["lambda,R,R_second,hull"]
    lines += [f"{lam:.17g},{r:.17g},{r2:.17g},{h:.17g}" for lam, r, r2, h in rows]
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def _cmd_eof(args) -> int:
    if args.eof_command == "isotropic":
        print(_fmt(isotropic_eof(args.d, args.F, base=args.log)))
    else:
        try:
            rho = load_state(args.state)
        except OSError as exc:
            print(f"cannot read {args.state}: {exc}", file=sys.stderr)
            return EXIT_IO
        except (StateValidationError, json.JSONDecodeError) as exc:
            print(f"invalid state file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(_fmt(eof_lower_bound(rho, base=args.log)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfunc",
        description="R-curve analysis, proof certification and "
                    "entanglement-of-formation bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_log(p):
        # None means "not given": main reads RFUN_LOG_BASE on every call
        p.add_argument("--log", choices=BASES, default=None,
                       help="logarithm base for entropic quantities")

    p_eval = sub.add_parser("eval", help="evaluate one scalar function")
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--lambda", dest="lam", type=float, required=True)
    p_eval.add_argument("--which", choices=_EVAL, required=True)
    add_log(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_cert = sub.add_parser("certify", help="run the proof certifier")
    p_cert.add_argument("--m", required=True,
                        help=f"dimension or inclusive range a..b; m <= {_CERTIFY_M_MAX}")
    p_cert.add_argument("--grid", type=int, default=10_000)
    p_cert.set_defaults(func=_cmd_certify)

    p_table = sub.add_parser("table", help="emit a CSV table of R, R'' and the envelope")
    p_table.add_argument("--m", type=int, required=True)
    p_table.add_argument("--grid", type=int, default=1000)
    p_table.add_argument("--output", default=None)
    add_log(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_eof = sub.add_parser("eof", help="entanglement of formation quantities")
    eof_sub = p_eof.add_subparsers(dest="eof_command", required=True)
    p_iso = eof_sub.add_parser("isotropic", help="exact EOF of an isotropic state")
    p_iso.add_argument("--d", type=int, required=True)
    p_iso.add_argument("--F", type=float, required=True)
    add_log(p_iso)
    p_iso.set_defaults(func=_cmd_eof)
    p_bound = eof_sub.add_parser("bound", help="EOF lower bound from a state file")
    p_bound.add_argument("--state", required=True)
    add_log(p_bound)
    p_bound.set_defaults(func=_cmd_eof)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs more than parsing one command line; a cached
    # parser holds no per-call state, since --log defaults to None
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "log", "") is None:
            args.log = os.environ.get("RFUN_LOG_BASE", "two")
            # argparse checks --log against BASES, but not the environment
            if args.log not in BASES:
                raise ValueError(f"RFUN_LOG_BASE must be one of {BASES}, got {args.log!r}")
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # DomainError, StateValidationError too
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
