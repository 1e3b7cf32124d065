"""Running jobs: untraced through ``zdspec.cli.main``, or traced as the
sequence of public module calls the CLI makes, with one span per call.

Spans are recorded from the benchmark's side of each layer boundary, so
the program itself is not instrumented.  ``verify_theorem`` and
``run_survey`` wrap several layers; for those, the inner layers' public
functions are timed again in sibling spans on the same inputs, and the
wrapper's own time is derived as the remainder (see ``run.layer_metrics``).
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from zdspec import cli, closedform, equations, gf, spectra, survey

from workloads import Job, admissible_pairs, cli_field_touches, touch_tables, touches

PREDICTORS = {"3.1": closedform.predict_x7_char2, "3.2": closedform.predict_x2m1p3,
              "4.1": closedform.predict_x5_oddp, "4.2": closedform.predict_x7_p3}


class Tracer:
    """In-memory spans: name, start, end, parent span index, job id, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job = None

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "job": self.job, "counts": counts}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    job = None
    _null = nullcontext({})

    def span(self, name: str, **counts):
        return self._null


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_cli(job: Job, rc: int, out_path: str, refs: dict) -> str | None:
    """None when exit code and output digest match the reference, else why."""
    ref = refs.get(job.key)
    if ref is None:
        return f"no reference for {job.key!r}"
    if rc != ref["exit"] or rc != job.expected_exit:
        return f"exit code {rc}, expected {ref['exit']}"
    digest = sha256_file(out_path)
    if digest != ref["sha256"]:
        return f"output sha256 {digest[:12]}..., expected {ref['sha256'][:12]}..."
    return None


def run_cli(job: Job, out_path: str, threads: int) -> int:
    return cli.main(job.argv + ["--out", out_path, "--threads", str(threads)])


# ---------------------------------------------------------------------------
# traced replay of CLI jobs
# ---------------------------------------------------------------------------

def _write(tr: Tracer, text: str, out_path: str) -> None:
    with tr.span("cli.write"):
        with open(out_path, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _field_and_tables(tr: Tracer, p: int, n: int, wanted: dict):
    """The job's field with its tables touched, and the counts of the
    tables span, whose ``table_mb`` the caller sets once the job's main
    call has run."""
    with tr.span("gf.field", fields=1):
        field = gf.canonical_field(p, n)
    with tr.span("fastfield.tables") as counts:
        touch_tables(field, wanted)
    return field, counts


def table_mb(field: gf.Field) -> float:
    """Computed: bytes of every numpy array the field's tables hold."""
    total = 0
    stack = list(vars(field.tables).values())
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
    return total / 2 ** 20


def _replay_table(tr: Tracer, args, out_path: str, threads: int) -> int:
    field, tables = _field_and_tables(
        tr, *cli_field_touches(["table", args.which, args.p, args.n, args.d]))
    q = field.order
    with tr.span("spectra.kernel", pairs=q * q,
                 evals=spectra.evaluation_estimate(field, args.which)):
        matrix = spectra.full_table(spectra.PowerFunction(field, args.d),
                                    args.which, threads=threads)
    with tr.span("spectra.emit") as c:
        if args.fmt == "json":
            text = spectra.table_to_json(matrix, field, args.which, args.d)
        else:
            text = spectra.table_to_csv(matrix, field)
        c["emit_mb"] = len(text.encode("utf-8")) / 2 ** 20
    tables["table_mb"] = table_mb(field)
    _write(tr, text, out_path)
    return 0


def _verify_pairs(q: int, sample, seed) -> list[tuple[int, int]]:
    """The (a, b) index pairs verify_theorem walks, in its order."""
    if sample is None:
        return [(ia, ib) for ia in range(q) for ib in range(q)]
    rng = random.Random(0 if seed is None else seed)
    return [(rng.randrange(q), rng.randrange(q)) for _ in range(sample)]


def _replay_verify(tr: Tracer, args, out_path: str, threads: int) -> int:
    field, tables = _field_and_tables(
        tr, *cli_field_touches(["verify", args.theorem, args.p, args.n]))
    q = field.order
    sample = args.sample
    if sample is None and q > closedform.FULL_THRESHOLD:
        sample = closedform.DEFAULT_SAMPLE
    with tr.span("closedform.verify"):
        report = closedform.verify_theorem(args.theorem, field, sample=sample,
                                           seed=args.seed)
    tables["table_mb"] = table_mb(field)

    # siblings on the same pairs: the counter, then the predictor once per
    # degenerate pair and once per ratio class a/b, as the harness memoizes
    pairs = _verify_pairs(q, sample, args.seed)
    a, b = np.array(pairs).T
    t = field.tables
    degenerate = (a == 0) | (b == 0) | ((a == b) if field.p == 2 else False)
    ratio = t.mul_vec(a, t.pow_map(q - 2)[b])
    _, first = np.unique(np.where(degenerate, -1, ratio), return_index=True)
    calls = [pairs[i] for i in np.flatnonzero(degenerate)]
    calls += [pairs[i] for i in sorted(first) if not degenerate[i]]
    with tr.span("spectra.kernel", pairs=len(pairs), evals=len(pairs) * q):
        count = spectra.make_sozd_counter(
            spectra.PowerFunction(field, report.d))
        for ia, ib in pairs:
            count(ia, ib)
    predict = PREDICTORS[args.theorem]
    with tr.span("closedform.predict", predict_calls=len(calls)):
        for ia, ib in calls:
            predict(field, ia, ib)

    with tr.span("closedform.report"):
        text = report.to_json()
    _write(tr, text, out_path)
    return 0 if not report.mismatches else 1


def _replay_survey(tr: Tracer, args, out_path: str, threads: int) -> int:
    # run_survey one row at a time, each followed by its sibling spans, so
    # that the wrapper and its re-timing see the same machine load
    results = []
    for key in survey.catalog_keys():
        with tr.span("survey.run") as c:
            (res,) = survey.run_survey([key])
            c["rows_computed" if res.observed is not None else "rows_skipped"] = 1
        results.append(res)
        if res.observed is None:
            continue
        row = res.row
        field, tables = _field_and_tables(tr, row.p, row.n,
                                          touches([row.d], digits=row.p != 2))
        pairs = admissible_pairs(row.p, row.n)
        with tr.span("spectra.kernel", pairs=pairs, evals=pairs * field.order):
            spectra.sozd_spectrum(spectra.PowerFunction(field, row.d))
        tables["table_mb"] = table_mb(field)
    with tr.span("survey.emit"):
        text = survey.survey_to_csv(results)
    _write(tr, text, out_path)
    return 1 if any(r.status == "mismatch" for r in results) else 0


REPLAY = {"table": _replay_table, "verify": _replay_verify, "survey": _replay_survey}


def replay_cli(tr: Tracer, job: Job, out_path: str, threads: int) -> int:
    with tr.span("cli.parse"):
        args = cli.build_parser().parse_args(job.argv)
    return REPLAY[args.command](tr, args, out_path, threads)


# ---------------------------------------------------------------------------
# oracle jobs (the same code traced and untraced)
# ---------------------------------------------------------------------------

def run_oracle(tr, job: Job, fields: dict) -> int:
    """Solve every equation of the batch by both paths; return how many
    agreed.  Raises on the first disagreement."""
    span = tr.span
    if job.oracle == "quartic":
        f = fields[(2, 5)]
        for a2, a1, a0 in job.inputs:
            with span("equations.quartic"):
                shape, roots = equations.classify_quartic(equations.QuarticEq(
                    f.element(a2), f.element(a1), f.element(a0)))
            with span("equations.shape_oracle"):
                brute = equations.brute_factor_shape(f, [a0, a1, a2, 0, 1])
            if shape != brute or len(roots) != shape.count(1):
                raise AssertionError(f"quartic {(a2, a1, a0)}: {shape} vs {brute}")
    elif job.oracle == "trinomial":
        f = fields[(2, 8)]
        for k, b in job.inputs:
            eq = equations.TrinomialEq(f, k, f.element(b))
            with span("equations.trinomial"):
                formula = equations.solve_trinomial(eq)
            with span("equations.trinomial_linear"):
                linear = equations.solve_trinomial_linear(eq)
            if formula != linear or len(formula) not in (0, 2 ** eq.d):
                raise AssertionError(f"trinomial k={k} B={b}")
    else:
        f = fields[(2, 10)]
        for a, b, c in job.inputs:
            with span("equations.quadratic"):
                roots = equations.solve_quadratic_char2(equations.QuadraticChar2(
                    f.element(a), f.element(b), f.element(c)))
            with span("equations.brute_roots"):
                brute = equations.brute_roots(f, [c, b, a])
            if roots != brute:
                raise AssertionError(f"quadratic {(a, b, c)}")
    return len(job.inputs)
