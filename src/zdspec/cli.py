"""Command-line front end.

Commands:

* ``field p n``            canonical (or cached) modulus for GF(p^n)
* ``table {ddt,fbct,sozd} p n d``   full table of x^d as CSV or JSON
* ``verify ID p n``        run one entrywise predictor against brute force
* ``survey``               re-check cataloged published uniformities

Exit codes: 0 all checks passed, 1 a mismatch was found, 2 usage or
hypothesis error.  Only ``table`` has a guard: above TABLE_ORDER_LIMIT
its q^2-entry output needs ``--force``.  Outputs are byte-identical
across runs for the same configuration and seed.  A field cache file
(lines ``p,n,c0,...,cn``) is consulted before any modulus search; its
path comes from ``--cache`` or the ``ZDSPEC_CACHE`` environment
variable, in that order.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import closedform, gf, spectra, survey

#: Field order above which full tables are refused without --force.  The
#: bound is on output size: a table has q^2 entries, 16.8 M at q = 4096.
TABLE_ORDER_LIMIT = 1 << 12


def _emit(text: str, out_path: str | None) -> None:
    data = text.encode("utf-8")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(text)


def _build_field(args: argparse.Namespace) -> gf.Field:
    if args.modulus is not None:
        return gf.Field(args.p, args.n, args.modulus)
    return gf.canonical_field(args.p, args.n, args.cache)


def _parse_modulus(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed modulus {text!r}; expected c0,c1,...,cn") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_field(args: argparse.Namespace) -> int:
    field = _build_field(args)
    if args.cache and args.modulus is None:
        gf.append_field_cache(args.cache, field)
    if args.fmt == "json":
        import json
        text = json.dumps({"p": field.p, "n": field.n,
                           "modulus": list(field.modulus)}, indent=2) + "\n"
    else:
        text = gf.cache_line(field) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    field = _build_field(args)
    if not args.force and field.order > TABLE_ORDER_LIMIT:
        print(f"refusing: a full {args.which} table over GF({field.p}^{field.n}) "
              f"has {field.order ** 2} entries (limit {TABLE_ORDER_LIMIT ** 2}); "
              f"pass --force to run anyway", file=sys.stderr)
        return 2
    fn = spectra.PowerFunction(field, args.d)
    matrix = spectra.full_table(fn, args.which)
    if args.fmt == "json":
        text = spectra.table_to_json(matrix, field, args.which, args.d)
    else:
        text = spectra.table_to_csv(matrix, field)
    _emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    field = _build_field(args)
    report = closedform.verify_theorem(args.theorem, field,
                                       sample=args.sample, seed=args.seed)
    if args.fmt == "csv":
        cols = ["theorem", "p", "n", "d", "mode", "pairs_checked",
                "mismatch_count", "unpredicted_count", "uniformity",
                "expected_uniformity", "seed", "passed"]
        row = [report.theorem, field.p, field.n, report.d, report.mode,
               report.pairs_checked, len(report.mismatches),
               len(report.unpredicted), report.uniformity,
               report.expected_uniformity,
               "" if report.seed is None else report.seed, report.passed]
        text = ",".join(cols) + "\n" + ",".join(str(v) for v in row) + "\n"
    else:
        text = report.to_json()
    _emit(text, args.out)
    return 0 if not report.mismatches else 1


def _cmd_survey(args: argparse.Namespace) -> int:
    results = survey.run_survey(args.rows, cache_path=args.cache)
    if args.fmt == "json":
        text = survey.survey_to_json(results)
    else:
        text = survey.survey_to_csv(results)
    _emit(text, args.out)
    return 1 if any(r.status == "mismatch" for r in results) else 0


COMMANDS = {"field": _cmd_field, "table": _cmd_table, "verify": _cmd_verify,
            "survey": _cmd_survey}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, default_fmt: str = "csv") -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=default_fmt,
                     dest="fmt", help="output format (default %(default)s)")
    sub.add_argument("--out", metavar="PATH", help="write output to a file")
    sub.add_argument("--threads", type=int, metavar="K",
                     help="accepted for compatibility and ignored")
    sub.add_argument("--cache", metavar="PATH",
                     help="field cache file (overrides ZDSPEC_CACHE)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdspec",
        description=("difference tables, second-order zero differential "
                     "spectra and entrywise predictors for power maps over "
                     "GF(p^n)"))
    subs = parser.add_subparsers(dest="command", required=True)

    f = subs.add_parser("field", help="canonical modulus for GF(p^n)")
    f.add_argument("p", type=int)
    f.add_argument("n", type=int)
    _add_common(f)

    t = subs.add_parser("table", help="full DDT/FBCT/second-order table of x^d")
    t.add_argument("which", choices=spectra.TABLE_KINDS)
    t.add_argument("p", type=int)
    t.add_argument("n", type=int)
    t.add_argument("d", type=int)
    t.add_argument("--modulus", help="explicit modulus c0,c1,...,cn")
    t.add_argument("--force", action="store_true",
                   help=f"build tables over fields of order above {TABLE_ORDER_LIMIT}")
    _add_common(t)

    v = subs.add_parser("verify", help="entrywise predictor vs brute force")
    v.add_argument("theorem", metavar="ID",
                   help=f"predictor id, one of {closedform.theorem_ids()}")
    v.add_argument("p", type=int)
    v.add_argument("n", type=int)
    v.add_argument("--sample", type=int, metavar="N",
                   help="force seeded sampling of N pairs")
    v.add_argument("--seed", type=int, help="seed for sampled verification")
    v.add_argument("--modulus", help="explicit modulus c0,c1,...,cn")
    _add_common(v, default_fmt="json")

    s = subs.add_parser("survey", help="re-check cataloged uniformities")
    s.add_argument("--rows", metavar="KEYS",
                   help="comma-separated row keys (default: all)")
    s.add_argument("--list", action="store_true", dest="list_rows",
                   help="list catalog keys and exit")
    _add_common(s)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "survey" and args.list_rows:
        _emit("\n".join(survey.catalog_keys()) + "\n", args.out)
        return 0

    args.cache = args.cache or os.environ.get("ZDSPEC_CACHE") or None
    try:
        modulus = getattr(args, "modulus", None)
        args.modulus = _parse_modulus(modulus) if modulus else None
        rows = getattr(args, "rows", None)
        args.rows = rows.split(",") if rows else None
        return COMMANDS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
