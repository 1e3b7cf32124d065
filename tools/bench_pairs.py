"""Run the benchmark in alternating parent/change pairs and compare them.

    python tools/bench_pairs.py --workload verify --seeds 1 2 3 \\
        --out BENCH_name.json [--parent HEAD]
    python tools/bench_pairs.py --report BENCH_name.json

The parent revision is exported with ``git archive`` into a temporary
directory; the change is the working tree.  For each seed,
``perfbench/run.py --workload W --seed N --seconds 20 --trace 0`` runs
once on each side, at the run length the benchmark declares, each in a
fresh process from the root of its checkout, the side that goes first
alternating from seed to seed.  Every result is appended to --out as
one JSON line (``side``, ``workload``, ``seed``, ``trace``, ``result``),
the format of the repository's ``BENCH_*.json`` files.  Nothing is
written under ``perfbench/`` by this tool.

Afterwards (or with --report, for a file alone) it prints, per workload
and end-to-end metric, each side's median and quartiles over the seeds
that both sides ran, the change of the median, how many pairs the change
won, and whether the medians differ by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHANGE = "change"


def export(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; returns the side label."""
    sha = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return f"parent {sha}"


def run_one(checkout: Path, workload: str, seed: int) -> dict | None:
    """The JSON result of one benchmark run, or None if it printed none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "20", "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"bench_pairs: {checkout} {workload} seed {seed} gave no "
                         f"result (exit {proc.returncode})\n{proc.stderr}")
        return None


def directions() -> dict[str, str]:
    """End-to-end metric name -> "lower" or "higher" is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(records: list[dict]) -> None:
    better = directions()
    by_key: dict[tuple[str, int], dict[str, dict]] = {}
    for rec in records:
        if rec["trace"] == 0 and rec["result"] is not None:
            side = CHANGE if rec["side"] == CHANGE else "parent"
            by_key.setdefault((rec["workload"], rec["seed"]), {})[side] = rec["result"]
    for workload in sorted({w for w, _ in by_key}):
        pairs = [v for (w, _), v in sorted(by_key.items())
                 if w == workload and len(v) == 2]
        failed = sum(v[s]["failed"] for v in pairs for s in v)
        print(f"{workload}: {len(pairs)} pairs, {failed} failed jobs")
        for name, how in better.items() if pairs else ():
            old = [v["parent"]["metrics"][name]["value"] for v in pairs]
            new = [v[CHANGE]["metrics"][name]["value"] for v in pairs]
            wins = sum((b < a) if how == "lower" else (b > a) for a, b in zip(old, new))
            (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
            clear = abs(nm - om) > o3 - o1
            print(f"  {name:<12} parent {om:12.4f} [{o1:.4f}, {o3:.4f}]  "
                  f"change {nm:12.4f} [{n1:.4f}, {n3:.4f}]  {nm / om - 1:+7.1%}  "
                  f"won {wins}/{len(pairs)}"
                  f"{'  (beyond parent IQR)' if clear else ''}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--report", type=Path, help="only summarise this file")
    args = ap.parse_args(argv)
    if args.report is not None:
        report([json.loads(line) for line in args.report.read_text().splitlines()
                if line.strip()])
        return 0
    if not (args.workload and args.seeds and args.out):
        ap.error("--workload, --seeds and --out are required unless --report is given")
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        label = export(args.parent, parent)
        for i, seed in enumerate(args.seeds):
            sides = [(label, parent), (CHANGE, ROOT)]
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                rec = {"side": side, "workload": args.workload, "seed": seed, "trace": 0,
                       "result": run_one(checkout, args.workload, seed)}
                records.append(rec)
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"{side:>14} seed {seed}: " + (
                    "no result" if rec["result"] is None else " ".join(
                        f"{k}={v['value']:.4f}" for k, v in rec["result"]["metrics"].items())),
                    flush=True)
    report(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
