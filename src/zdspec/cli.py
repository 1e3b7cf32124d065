"""Command-line front end.

Commands:

* ``field p n``            canonical (or cached) modulus for GF(p^n)
* ``table {ddt,fbct,sozd} p n d``   full table of x^d as CSV or JSON
* ``verify ID p n``        run one entrywise predictor against brute force
* ``survey``               re-check cataloged published uniformities

Exit codes: 0 all checks passed, 1 a mismatch was found, 2 usage or
hypothesis error.  Outputs are byte-identical across runs for the same
configuration and seed.  A field cache file (lines ``p,n,c0,...,cn``) is
consulted before any modulus search; its path comes from ``--cache`` or
the ``ZDSPEC_CACHE`` environment variable, in that order.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import closedform, gf, spectra, survey

#: Point evaluations allowed without --force.
FORCE_THRESHOLD = 1 << 30
#: Field order above which full tables are refused without --force.
TABLE_ORDER_LIMIT = 1 << 12


@dataclass
class RunConfig:
    """Resolved invocation: flags beat the environment, which beats defaults."""

    command: str
    p: int | None = None
    n: int | None = None
    d: int | None = None
    which: str | None = None
    theorem: str | None = None
    modulus: tuple[int, ...] | None = None
    fmt: str = "csv"
    out: str | None = None
    seed: int | None = None
    sample: int | None = None
    threads: int | None = None
    force: bool = False
    cache: str | None = None
    rows: list[str] | None = None


def _resolve_cache(flag_value: str | None) -> str | None:
    if flag_value:
        return flag_value
    return os.environ.get("ZDSPEC_CACHE") or None


def _emit(text: str, out_path: str | None) -> None:
    data = text.encode("utf-8")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(text)


def _build_field(cfg: RunConfig) -> gf.Field:
    if cfg.modulus is not None:
        return gf.Field(cfg.p, cfg.n, cfg.modulus)
    return gf.canonical_field(cfg.p, cfg.n, cfg.cache)


def _parse_modulus(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed modulus {text!r}; expected c0,c1,...,cn") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_field(cfg: RunConfig) -> int:
    field = _build_field(cfg)
    if cfg.cache and cfg.modulus is None:
        gf.append_field_cache(cfg.cache, field.spec)
    if cfg.fmt == "json":
        import json
        text = json.dumps({"p": field.p, "n": field.n,
                           "modulus": list(field.modulus)}, indent=2) + "\n"
    else:
        text = gf.cache_line(field.spec) + "\n"
    _emit(text, cfg.out)
    return 0


def _cmd_table(cfg: RunConfig) -> int:
    field = _build_field(cfg)
    estimate = spectra.evaluation_estimate(field, cfg.which)
    if not cfg.force and (estimate > FORCE_THRESHOLD or field.order > TABLE_ORDER_LIMIT):
        print(f"refusing: a full {cfg.which} table over GF({field.p}^{field.n}) "
              f"costs about {estimate} point evaluations "
              f"(limit {FORCE_THRESHOLD}); pass --force to run anyway",
              file=sys.stderr)
        return 2
    fn = spectra.PowerFunction(field, cfg.d)
    matrix = spectra.full_table(fn, cfg.which, threads=cfg.threads)
    if cfg.fmt == "json":
        text = spectra.table_to_json(matrix, field, cfg.which, cfg.d)
    else:
        text = spectra.table_to_csv(matrix, field)
    _emit(text, cfg.out)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    field = _build_field(cfg)
    sample = cfg.sample
    if sample is None and field.order > closedform.FULL_THRESHOLD:
        sample = closedform.DEFAULT_SAMPLE
    pairs = sample if sample is not None else field.order ** 2
    estimate = pairs * field.order
    if not cfg.force and estimate > FORCE_THRESHOLD:
        print(f"refusing: verifying {pairs} pairs over GF({field.p}^{field.n}) "
              f"costs about {estimate} point evaluations "
              f"(limit {FORCE_THRESHOLD}); pass --force to run anyway",
              file=sys.stderr)
        return 2
    report = closedform.verify_theorem(cfg.theorem, field,
                                       sample=sample, seed=cfg.seed)
    if cfg.fmt == "csv":
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
    _emit(text, cfg.out)
    return 0 if not report.mismatches else 1


def _cmd_survey(cfg: RunConfig) -> int:
    results = survey.run_survey(cfg.rows, cache_path=cfg.cache)
    if cfg.fmt == "json":
        text = survey.survey_to_json(results)
    else:
        text = survey.survey_to_csv(results)
    _emit(text, cfg.out)
    return 1 if any(r.status == "mismatch" for r in results) else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, default_fmt: str = "csv") -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=default_fmt,
                     dest="fmt", help="output format (default %(default)s)")
    sub.add_argument("--out", metavar="PATH", help="write output to a file")
    sub.add_argument("--seed", type=int, help="seed for sampled verification")
    sub.add_argument("--threads", type=int, metavar="K",
                     help="accepted for compatibility; power-map tables are "
                          "one kernel row plus a gather and use one thread")
    sub.add_argument("--force", action="store_true",
                     help="run computations above the evaluation budget")
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
    _add_common(t)

    v = subs.add_parser("verify", help="entrywise predictor vs brute force")
    v.add_argument("theorem", metavar="ID",
                   help=f"predictor id, one of {closedform.theorem_ids()}")
    v.add_argument("p", type=int)
    v.add_argument("n", type=int)
    v.add_argument("--sample", type=int, metavar="N",
                   help="force seeded sampling of N pairs")
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

    if args.command == "survey" and getattr(args, "list_rows", False):
        sys.stdout.write("\n".join(survey.catalog_keys()) + "\n")
        return 0

    cfg = RunConfig(
        command=args.command,
        fmt=args.fmt,
        out=args.out,
        seed=args.seed,
        threads=args.threads,
        force=args.force,
        cache=_resolve_cache(args.cache),
    )
    try:
        if args.command == "field":
            cfg.p, cfg.n = args.p, args.n
            return _cmd_field(cfg)
        if args.command == "table":
            cfg.p, cfg.n, cfg.d, cfg.which = args.p, args.n, args.d, args.which
            if args.modulus:
                cfg.modulus = _parse_modulus(args.modulus)
            return _cmd_table(cfg)
        if args.command == "verify":
            cfg.p, cfg.n, cfg.theorem = args.p, args.n, args.theorem
            cfg.sample = args.sample
            if args.modulus:
                cfg.modulus = _parse_modulus(args.modulus)
            return _cmd_verify(cfg)
        if args.command == "survey":
            cfg.rows = args.rows.split(",") if args.rows else None
            return _cmd_survey(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
