"""Job generators and set-up for the four benchmark workloads.

A workload is a list of jobs generated from the run's seed, plus the
fields and tables its jobs touch (the set-up).  CLI jobs are argument
lists for ``zdspec.cli.main``; their expected exit code and output
SHA-256 come from ``references.json``, recorded on the seed commit for
every variant a seed can draw.  Oracle jobs pair two independent solvers
from ``zdspec.equations`` and are checked by their agreement.

This module imports only the standard library at load time, so a fresh
process can import it before starting the set-up clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Variant pools.  A seed draws from these, and references.json holds a
# digest for every member, so any seed has references.
FBCT_EXPONENTS = range(3, 255)      # fbct 2 8 d
SOZD_EXPONENTS = range(3, 35)       # sozd 3 5 d --format json
DDT_EXPONENTS = range(3, 67)        # ddt 2 10 d, CSV and JSON
SAMPLE_SEEDS = range(32)            # --seed S of the sampled verify jobs

#: Oracle batch sizes, chosen so that one pass takes about 5 s.
QUARTICS = 600                      # over GF(2^5)
QUADRATICS = 2000                   # over GF(2^10)
TRINOMIAL_FIELD = 8                 # every (k, B) over GF(2^8)

#: Exponents of the verify predictors, as the CLI derives them.
VERIFY_EXPONENT = {"3.1": lambda n: 7, "3.2": lambda n: 2 ** (n // 2 + 1) + 3,
                   "4.1": lambda n: 5, "4.2": lambda n: 7}


@dataclass
class Job:
    """One unit of work; ``argv`` for CLI jobs, ``oracle`` for equation
    batches.  ``items`` is the (a, b) pairs or equations it produces."""

    id: int
    items: int
    argv: list[str] = field(default_factory=list)
    expected_exit: int = 0
    oracle: str = ""
    inputs: list = field(default_factory=list)

    @property
    def key(self) -> str:
        """Reference key: the argument list without --out and --threads."""
        return " ".join(self.argv)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _cli(jobs: list[Job], items: int, *argv, expected_exit: int = 0) -> None:
    jobs.append(Job(len(jobs), items, [str(a) for a in argv], expected_exit))


def table_jobs(seed: int) -> list[Job]:
    rng = _rng("table", seed)
    jobs: list[Job] = []
    for d in sorted(rng.sample(FBCT_EXPONENTS, 4)):
        _cli(jobs, 256 ** 2, "table", "fbct", 2, 8, d)
    _cli(jobs, 243 ** 2, "table", "sozd", 3, 5, rng.choice(SOZD_EXPONENTS),
         "--format", "json")
    d = rng.choice(DDT_EXPONENTS)
    _cli(jobs, 1024 ** 2, "table", "ddt", 2, 10, d)
    _cli(jobs, 1024 ** 2, "table", "ddt", 2, 10, d, "--format", "json")
    return jobs


#: (id, p, n) verified over all pairs, and (id, p, n, samples) sampled.
#: 100 samples of 4.2 over GF(3^10) keep the unbounded shift-permutation
#: cache of the odd-p counter visible in peak_rss_mb at about 200 MiB.
VERIFY_FULL = (("3.1", 2, 8), ("3.2", 2, 8), ("4.1", 3, 5))
VERIFY_SAMPLED = (("4.2", 3, 10, 100), ("3.1", 2, 16, 1000))


def verify_jobs(seed: int) -> list[Job]:
    s = _rng("verify", seed).choice(SAMPLE_SEEDS)
    jobs: list[Job] = []
    for theorem, p, n in VERIFY_FULL:
        _cli(jobs, (p ** n) ** 2, "verify", theorem, p, n)
    for theorem, p, n, k in VERIFY_SAMPLED:
        _cli(jobs, k, "verify", theorem, p, n, "--sample", k, "--seed", s)
    return jobs


def survey_rows() -> list[tuple[int, int, int]]:
    """(p, n, d) of every catalog row the survey computes rather than
    skipping for scale."""
    from zdspec import survey
    return [(r.p, r.n, r.d) for r in survey.CATALOG
            if r.order ** 3 <= survey.EVAL_BUDGET]


def admissible_pairs(p: int, n: int) -> int:
    q = p ** n
    return (q - 1) * (q - 2) if p == 2 else (q - 1) ** 2


def survey_jobs(seed: int) -> list[Job]:
    """The full catalog; the seed does not change it.  Exit code 1 is the
    documented outcome: the catalog has known mismatches."""
    jobs: list[Job] = []
    _cli(jobs, sum(admissible_pairs(p, n) for p, n, _ in survey_rows()), "survey",
         expected_exit=1)
    return jobs


def oracle_jobs(seed: int) -> list[Job]:
    rng = _rng("oracles", seed)
    quartics = [(rng.randrange(32), rng.randrange(1, 32), rng.randrange(1, 32))
                for _ in range(QUARTICS)]
    q8 = 2 ** TRINOMIAL_FIELD
    trinomials = [(k, b) for k in range(1, TRINOMIAL_FIELD) for b in range(q8)]
    quadratics = [(rng.randrange(1, 1024), rng.randrange(1024), rng.randrange(1024))
                  for _ in range(QUADRATICS)]
    return [Job(0, len(quartics), oracle="quartic", inputs=quartics),
            Job(1, len(trinomials), oracle="trinomial", inputs=trinomials),
            Job(2, len(quadratics), oracle="quadratic", inputs=quadratics)]


GENERATORS = {"table": table_jobs, "verify": verify_jobs,
              "survey": survey_jobs, "oracles": oracle_jobs}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def touches(pow_=(), digits=False, char=False, quad=False) -> dict:
    """Which tables of one field to touch: ``pow_map(d)`` for each d,
    ``digits``, the character table (``trace1`` for p = 2, ``quadchar``
    otherwise), and the quadratic-solver tables."""
    return {"pow": sorted(set(pow_)), "digits": digits, "char": char, "quad": quad}


def cli_field_touches(argv: list[str]) -> tuple[int, int, dict]:
    """(p, n, touches) for a table or verify job: the tables its command
    reads on first use."""
    p, n = int(argv[2]), int(argv[3])
    if argv[0] == "table":
        return p, n, touches([int(argv[4])], digits=p != 2)
    return p, n, touches([VERIFY_EXPONENT[argv[1]](n)], digits=p != 2, char=True)


def setup_spec(workload: str, jobs: list[Job]) -> dict:
    """JSON-able description of the set-up: every field the workload's jobs
    use, with the tables to touch, and whether to warm the shape oracle."""
    if workload == "survey":
        wanted = [(p, n, touches([d], digits=p != 2)) for p, n, d in survey_rows()]
    elif workload == "oracles":
        wanted = [(2, 5, touches(char=True)), (2, TRINOMIAL_FIELD, touches(char=True)),
                  (2, 10, touches(char=True, quad=True))]
    else:
        wanted = [cli_field_touches(job.argv) for job in jobs]
    fields: dict = {}
    for p, n, t in wanted:
        f = fields.setdefault((p, n), {"p": p, "n": n, **touches()})
        f["pow"] = sorted(set(f["pow"]) | set(t["pow"]))
        for key in ("digits", "char", "quad"):
            f[key] = f[key] or t[key]
    return {"fields": list(fields.values()),
            "warm_shape_oracle": workload == "oracles"}


def touch_tables(field, spec: dict) -> None:
    """First use of every table the spec names (lazy tables build here)."""
    t = field.tables
    for d in spec["pow"]:
        t.pow_map(d)
    if spec["digits"]:
        t.digits
    if spec["char"]:
        if field.p == 2:
            t.trace1
        else:
            t.quadchar
    if spec["quad"]:
        t.artin_schreier
        t.sqrt_map


#: x^4 + x + 1 over GF(2^5), coefficients low to high: the shape oracle's
#: first call builds the extension fields it counts roots in.
WARM_QUARTIC = [1, 1, 0, 0, 1]


def set_up(spec: dict, tracer=None) -> dict:
    """Import zdspec, build every field and touch its tables.

    Returns {(p, n): Field}.  With a tracer, each stage is a span under
    job id "setup".
    """
    from contextlib import nullcontext
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    from zdspec import equations, gf
    fields = {}
    for f in spec["fields"]:
        with span("gf.field"):
            fld = gf.canonical_field(f["p"], f["n"])
        with span("fastfield.tables"):
            touch_tables(fld, f)
        fields[(f["p"], f["n"])] = fld
    if spec["warm_shape_oracle"]:
        with span("equations.ext_build"):
            equations.brute_factor_shape(fields[(2, 5)], WARM_QUARTIC)
    return fields
