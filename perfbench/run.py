"""zdspec benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload {table,verify,survey,oracles} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's jobs run one at a time (a closed loop), and
whole passes over them repeat while another pass is expected to end
within S seconds; there is always at least one.

--trace 0 reports the end-to-end metrics: set-up time (median of five
set-ups, each in a fresh process), wall time per pass and pairs or
equations per second (medians over the passes), and the peak RSS of this
process.  CLI jobs go through ``zdspec.cli.main``.

--trace 1 alternates untraced passes with traced ones, in which every
job is replayed as the public module calls the CLI makes, one span per
call, and reports the per-layer metrics (medians over traced passes).
Spans are written to perfbench/_out/trace-<workload>-<seed>.json.

Every output is checked against references.json (exit code and SHA-256
recorded on the seed commit), and oracle jobs by the agreement of two
solvers.  A job that fails or raises is counted and the run goes on.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_RUNS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MiB"}

#: Per-layer metrics and units.  Times are seconds per traced pass; the
#: counts and sizes marked "computed" are derived from the inputs
#: (pairs, evaluations) or from array and text sizes, not timed.
PER_LAYER = {
    "gf.field_s": "s", "gf.fields": "count",
    "fastfield.tables_s": "s", "fastfield.table_mb": "MiB",        # computed
    "spectra.kernel_s": "s", "spectra.pairs": "count",             # computed
    "spectra.evals": "count",                                      # computed
    "spectra.emit_s": "s", "spectra.emit_mb": "MiB",               # computed
    "closedform.verify_s": "s", "closedform.predict_s": "s",
    "closedform.predict_calls": "count",                           # computed
    "closedform.harness_s": "s",                                   # derived
    "closedform.report_s": "s",
    "survey.run_s": "s", "survey.self_s": "s",                     # derived
    "survey.rows_computed": "count", "survey.rows_skipped": "count",
    "survey.emit_s": "s",
    "equations.quartic_s": "s", "equations.shape_oracle_s": "s",
    "equations.ext_build_s": "s", "equations.trinomial_s": "s",
    "equations.trinomial_linear_s": "s", "equations.quadratic_s": "s",
    "equations.brute_roots_s": "s", "equations.solved": "count",
    "cli.parse_s": "s", "cli.write_s": "s",
    "trace.overhead_s": "s",
}

#: Wrapper spans whose own time is derived: the wrapper's duration minus
#: the sibling spans that follow it in the same job, up to the next span
#: of the same wrapper, and re-time the layers it wraps on the same inputs.
WRAPPERS = {
    "closedform.verify": ("closedform.harness_s",
                          {"spectra.kernel", "closedform.predict"}),
    "survey.run": ("survey.self_s",
                   {"gf.field", "fastfield.tables", "spectra.kernel"}),
}

#: Run in a fresh interpreter: import zdspec and build the workload's
#: fields and tables, then print the elapsed seconds.
SETUP_CODE = """\
import json, sys, time
import workloads
spec = json.loads(sys.argv[1])
t0 = time.perf_counter()
workloads.set_up(spec)
print(time.perf_counter() - t0)
"""


def fresh_setup(spec: dict) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(jobs, fields, refs, out_dir: Path, threads: int, tracer, tag: str):
    """One pass over the jobs.  Returns (wall seconds, equations solved,
    failures); outputs are checked after the clock stops."""
    import replay
    failures: list[str] = []
    results = []
    solved = 0
    t0 = time.perf_counter()
    for job in jobs:
        out = str(out_dir / f"job{job.id}.out")
        tracer.job = f"{tag}:{job.id}"
        try:
            with tracer.span("job"):  # the parent of the job's layer spans
                if job.oracle:
                    solved += replay.run_oracle(tracer, job, fields)
                elif isinstance(tracer, replay.Tracer):
                    results.append((job, replay.replay_cli(tracer, job, out, threads), out))
                else:
                    results.append((job, replay.run_cli(job, out, threads), out))
        except Exception:  # a failing job is counted; the run goes on
            failures.append(f"job {job.id} raised")
            traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - t0
    for job, rc, out in results:
        why = replay.check_cli(job, rc, out, refs)
        if why:
            failures.append(f"job {job.id} ({job.key}): {why}")
    return wall, solved, failures


def layer_metrics(spans: list[dict], solved: int) -> tuple[dict, float]:
    """Per-layer values of one traced pass, and the seconds spent in
    sibling spans (re-timings that are not part of the job's own work)."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    by_job: dict = {}
    for s in spans:
        if s["name"] == "job":
            continue
        dur = s["end"] - s["start"]
        out[s["name"] + "_s"] += dur
        layer = s["name"].split(".")[0]
        for key, val in s["counts"].items():
            out[f"{layer}.{key}"] += val
        by_job.setdefault(s["job"], []).append(s)
    sibling_total = 0.0
    for job_spans in by_job.values():
        for w in job_spans:
            if w["name"] not in WRAPPERS:
                continue
            metric, wrapped = WRAPPERS[w["name"]]
            later = [s for s in job_spans if s["start"] >= w["end"]]
            nxt = next((i for i, s in enumerate(later) if s["name"] == w["name"]),
                       len(later))
            sib = sum(s["end"] - s["start"] for s in later[:nxt]
                      if s["name"] in wrapped)
            out[metric] += (w["end"] - w["start"]) - sib
            sibling_total += sib
    out["equations.solved"] = solved
    return out, sibling_total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zdspec" / "__init__.py").is_file():
        print(f"error: no zdspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ZDSPEC_CACHE", None)  # outputs use canonical moduli

    jobs = workloads.GENERATORS[args.workload](args.seed)
    refs = json.loads((HERE / "references.json").read_text())
    spec = workloads.setup_spec(args.workload, jobs)
    threads = len(os.sched_getaffinity(0))

    setup_times = ([fresh_setup(spec) for _ in range(SETUP_RUNS)]
                   if not args.trace else [])

    import replay
    out_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_tracer = replay.Tracer()
    setup_tracer.job = "setup"
    plain, traced, failures, attempted = [], [], [], 0
    try:
        fields = workloads.set_up(spec, setup_tracer if args.trace else None)
        t_start = time.perf_counter()
        while True:
            wall, _, fail = run_pass(jobs, fields, refs, out_dir, threads,
                                     replay.NullTracer(), f"u{len(plain)}")
            plain.append(wall)
            failures += fail
            attempted += len(jobs)
            if args.trace:
                tr = replay.Tracer()
                wall, solved, fail = run_pass(jobs, fields, refs, out_dir,
                                              threads, tr, f"t{len(traced)}")
                layers, siblings = layer_metrics(tr.spans, solved)
                traced.append((wall - siblings, layers, tr.spans))
                failures += fail
                attempted += len(jobs)
            # stop before a pass that would end after --seconds; at least one
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    wall_s = statistics.median(plain)
    items = sum(j.items for j in jobs)
    if args.trace:
        metrics = {name: statistics.median(t[1][name] for t in traced)
                   for name in PER_LAYER}
        metrics["equations.ext_build_s"] = sum((
            s["end"] - s["start"] for s in setup_tracer.spans
            if s["name"] == "equations.ext_build"), 0.0)
        metrics["trace.overhead_s"] = statistics.median(t[0] for t in traced) - wall_s
        units = PER_LAYER
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "threads": threads,
            "untraced_wall_s": plain,
            "traced_wall_s": [t[0] for t in traced],
            "spans": setup_tracer.spans + [s for t in traced for s in t[2]],
        }))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "items_per_s": statistics.median(items / w for w in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    oracles = args.workload == "oracles"
    print(f"{args.workload}: seed {args.seed}, {threads} worker threads, "
          f"{len(plain)} untraced and {len(traced)} traced passes of {len(jobs)} "
          f"jobs, {items} {'equations' if oracles else 'pairs'} per pass")
    print("  untraced pass wall_s: " + " ".join(f"{w:.3f}" for w in plain))
    if setup_times:
        print("  set-up s: " + " ".join(f"{t:.3f}" for t in setup_times))
    for name, val in metrics.items():
        unit = units[name]
        if name == "items_per_s":  # pairs for CLI workloads, else equations
            name, unit = ("equations_per_s", "eq/s") if oracles else ("pairs_per_s", "pairs/s")
        print(f"  {name:<28} {val:16.6f} {unit}")
    print(f"  {'failed_ratio':<28} {len(failures) / attempted:16.6f} ratio "
          f"({len(failures)} of {attempted} jobs)")
    for f in failures:
        print(f"FAILED {args.workload} seed {args.seed}: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
