"""Command-line front end: expansion, counting, table inspection, verification.

Output is deterministic: identical invocations produce byte-identical
bytes on stdout.  JSON carries oversized integers as decimal strings.
Exit codes: 2 on a usage, parameter or config error, or on a check too
deep for the reduced engine's int64 guards; else 1 when a check
that is not an open statement's failed, when a single check read SKIPPED
(nothing decided it), or when a suite had a job refused or ran no such
check (it reads FAIL or SKIPPED), and 0 otherwise.  A reader that closes
the pipe early (`| head`) ends the output with exit code 141, the
128 + SIGPIPE a shell reports for a writer killed by a closed pipe, and
nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator

from .counts import CountingFunction, Kind, count_values
from .eta import EtaQuotientSpec, eta_quotient
from .report import FAIL, PASS, SKIPPED, dumps
from .vectors import Family, family_vector, m_entry, valuation_bound
from .verifier import IDENTITY_MODES, SuiteConfig, run_suite, verify_congruence, verify_gf_identity
from .arith3 import pi3


def _emit_json(obj) -> None:
    """Write `obj` as JSON and a newline.  An iterator stands for that text
    already cut into pieces (`SuiteReport.json_pieces`); each piece is
    written as it is made."""
    write = sys.stdout.write
    for piece in obj if isinstance(obj, Iterator) else (dumps(obj), "\n"):
        write(piece)


def _cmd_expand(args) -> int:
    spec = EtaQuotientSpec.parse(args.spec)
    series = eta_quotient(spec, args.order)
    lo = series.offset if series.offset < 0 else 0
    values = [str(series.coeff(e)) for e in range(lo, args.order)]
    if args.format == "csv":
        sys.stdout.write(",".join(values) + "\n")
    elif args.format == "json":
        _emit_json({"spec": str(spec), "first_exponent": lo, "order": args.order,
                    "coefficients": values})
    else:
        for e, v in zip(range(lo, args.order), values):
            sys.stdout.write(f"q^{e}\t{v}\n")
    return 0


_KINDS = {k.value: k for k in Kind}


def _cmd_count(args) -> int:
    fn = CountingFunction(_KINDS[args.kind], args.ell)
    if not 0 <= args.nmin <= args.nmax:
        raise ValueError("need 0 <= nmin <= nmax")
    values = [str(v) for v in count_values(fn, args.nmax + 1)[args.nmin:]]
    if args.format == "csv":
        sys.stdout.write(",".join(values) + "\n")
    elif args.format == "json":
        _emit_json({"function": fn.label(), "first_n": args.nmin, "values": values})
    else:
        for n, v in enumerate(values, start=args.nmin):
            sys.stdout.write(f"{n}\t{v}\n")
    return 0


def _cmd_mtable(args) -> int:
    if args.imax < 1 or args.jmax < 1:
        raise ValueError("need imax >= 1 and jmax >= 1")
    rows = [[m_entry(i, j) for j in range(1, args.jmax + 1)] for i in range(1, args.imax + 1)]
    if args.format == "json":
        _emit_json({"imax": args.imax, "jmax": args.jmax,
                    "rows": [[str(v) for v in row] for row in rows]})
    else:
        for row in rows:
            sys.stdout.write(",".join(str(v) for v in row) + "\n")
    return 0


def _cmd_vector(args) -> int:
    if args.alpha < 0 or args.jmax < 1:
        raise ValueError("need alpha >= 0 and jmax >= 1")
    family = Family(args.family)
    vec = family_vector(family, args.alpha, args.mu, args.jmax)
    entries = []
    for j in range(1, args.jmax + 1):
        v = vec.value(j)
        entries.append({
            "j": j,
            "value": str(v),
            "valuation": pi3(v),
            "bound": valuation_bound(family, args.alpha, args.mu, j),
        })
    _emit_json({"family": family.value, "alpha": args.alpha, "mu": args.mu,
                "entries": entries})
    return 0


def _case_params(args) -> dict:
    params = {}
    for name in ("alpha", "beta", "ell", "p", "k", "m"):
        v = getattr(args, name, None)
        if v is not None:
            params[name] = v
    return params


def _finish_report(rep, fmt) -> int:
    if fmt == "json":
        _emit_json(rep.to_dict())
    else:
        sys.stdout.write(rep.line() + "\n")
        for f in rep.to_dict()["failures"][:10]:
            sys.stdout.write(f"  counterexample {dumps(f)}\n")
    return 1 if rep.status == SKIPPED or (rep.status == FAIL and rep.gates) else 0


def _cmd_verify_congruence(args) -> int:
    rep = verify_congruence(args.case, _case_params(args), args.nmax)
    return _finish_report(rep, args.format)


def _cmd_verify_identity(args) -> int:
    rep = verify_gf_identity(args.id, _case_params(args), args.terms, args.mode)
    return _finish_report(rep, args.format)


def _cmd_verify_suite(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = SuiteConfig.from_json(fh.read())
    else:
        cfg = SuiteConfig()
    suite = run_suite(cfg)
    if args.format == "json":
        _emit_json(suite.json_pieces())
    else:
        for rep in suite.reports:
            sys.stdout.write(rep.line() + "\n")
        sys.stdout.write(f"overall: {suite.status}\n")
    return 0 if suite.status == PASS else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="q3series",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an eta-quotient given in the grammar q^s * E(r)^e * ...")
    p.add_argument("--spec", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("count", help="coefficients of a counting function")
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--ell", type=int)
    p.add_argument("--nmin", type=int, default=0)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("mtable", help="print a block of the huffing coefficient table")
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_mtable)

    p = sub.add_parser("vector", help="print one coefficient vector with valuations")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--jmax", type=int, default=6)
    p.set_defaults(func=_cmd_vector)

    v = sub.add_parser("verify", help="verification commands")
    vsub = v.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("congruence", help="check one congruence case")
    p.add_argument("--case", required=True)
    for name in ("alpha", "beta", "ell", "p", "k", "m"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--nmax", type=int, default=100)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_verify_congruence)

    p = vsub.add_parser("identity", help="check one generating-function identity")
    p.add_argument("--id", required=True)
    for name in ("alpha", "beta", "ell"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--terms", type=int, default=30)
    p.add_argument("--mode", choices=IDENTITY_MODES, default="auto")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_verify_identity)

    p = vsub.add_parser("suite", help="run the full catalog over configured grids")
    p.add_argument("--config", help="path to a suite config JSON (default: the SuiteConfig defaults)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_verify_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit: let it reach devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        # a KeyError's text is its message in quotes
        sys.stderr.write(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
