"""Command line front end: run certificate suites and reproduce the tables."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import List, Optional

from .certificates import (CLAIMS, Certificate, ConfigError, RunConfig,
                           UnknownClaimError, run_claims, validate_config)
from .cyclo import InternalCheckError

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3

# the claims show-tables runs: the reference tables of the paper
TABLE_CLAIMS = ("cminred_table", "case_tables", "exceptional_orders", "small_d_list")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _limit_help(option: str) -> str:
    return "search limit of " + ", ".join(
        f"{c.claim_id} (default {c.limit.default}, {c.limit.describe()})"
        for c in CLAIMS.values() if c.limit is not None and c.limit.option == option)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballquot",
        description="Exact-arithmetic certificates for ball-quotient "
                    "singularity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run certificate suites")
    run_p.add_argument("--claims", action="append", default=None,
                       help="comma separated claim ids or globs (default: all)")
    run_p.add_argument("--r-limit", type=_positive_int, default=None,
                       help=_limit_help("r_limit"))
    run_p.add_argument("--d-limit", type=_positive_int, default=None,
                       help=_limit_help("d_limit"))
    run_p.add_argument("--d-range", type=int, nargs=2, default=(5, 15),
                       metavar=("LO", "HI"),
                       help="|D| window for the field sweeps (default 5 15)")
    run_p.add_argument("--seed", type=int, default=0,
                       help="seed for the random property sweeps (default 0)")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--out", default=None, help="write the report to a file")
    run_p.add_argument("--perturb", action="store_true",
                       help="negative control: perturb expected values, "
                            "certificates must FAIL")

    sub.add_parser("show-tables", help="run the claims on the reference tables: "
                                       + ", ".join(TABLE_CLAIMS))
    sub.add_parser("list-claims", help="list registered claim ids")
    return parser


def _text_report(certs: List[Certificate], cfg: RunConfig) -> str:
    dump = partial(json.dumps, sort_keys=True)
    lines = []
    for obj in (cert.to_obj() for cert in certs):
        lines.append(f"claim {obj['claim_id']}: {obj['verdict']}")
        if obj["bound_checked"]:
            lines.append(f"  checks: {obj['bound_checked']}")
        if obj["bounds"]:
            lines.append(f"  bounds: {dump(obj['bounds'])}")
        for item in obj["computed"]:
            witness = f"  [witness {dump(item['witness'])}]" if "witness" in item else ""
            lines.append(f"  {item['label']} = {dump(item['value'])}{witness}")
        lines.append(f"  expected = {dump(obj['expected'])}")
    n_pass = sum(1 for c in certs if c.passed())
    lines.append(f"summary: {len(certs)} claims, {n_pass} PASS, "
                 f"{len(certs) - n_pass} FAIL (seed={cfg.seed})")
    return "\n".join(lines) + "\n"


def _json_report(certs: List[Certificate], cfg: RunConfig) -> str:
    doc = {
        "config": cfg._asdict(),
        "certificates": [c.to_obj() for c in certs],
        "all_pass": all(c.passed() for c in certs),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_command(cfg: RunConfig, fmt: str, out: Optional[str]) -> int:
    """Write the report of ``cfg`` in format ``fmt`` to the file ``out``, or to
    standard output.  Exit 2 for a configuration or an ``out`` directory
    rejected before any claim runs, 3 for any error after that, else 1 if
    some certificate fails and 0 if none does."""
    try:
        validate_config(cfg)
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ConfigError(f"no directory to write the report {out!r} to")
        if out and os.path.isdir(out):
            raise ConfigError(f"the report file {out!r} is a directory")
    except (UnknownClaimError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        certs = run_claims(cfg)
        report = _text_report(certs, cfg) if fmt == "text" else _json_report(certs, cfg)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(report)
        else:
            sys.stdout.write(report)
    except InternalCheckError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        import traceback
        traceback.print_exc(file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK if all(c.passed() for c in certs) else EXIT_FAILURES


def list_claims() -> str:
    width = max(len(c) for c in CLAIMS)
    return "\n".join(f"{claim_id.ljust(width)}  {CLAIMS[claim_id].description}"
                     for claim_id in sorted(CLAIMS)) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "show-tables":
        return run_command(RunConfig(claims=TABLE_CLAIMS), "text", None)
    if args.command == "list-claims":
        sys.stdout.write(list_claims())
        return EXIT_OK
    cfg = RunConfig(
        claims=tuple(args.claims) if args.claims else ("all",),
        d_range=tuple(args.d_range),
        r_limit=args.r_limit,
        d_limit=args.d_limit,
        seed=args.seed,
        perturb=args.perturb,
    )
    return run_command(cfg, args.format, args.out)


def entry() -> None:
    raise SystemExit(main())
