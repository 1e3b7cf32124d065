"""Record references.json: the exit code and output SHA-256 of every CLI job
variant any seed can draw (see the pools in workloads.py).

    python3 perfbench/record_references.py

References pin the outputs of the commit they were recorded on, and a
later change must reproduce them byte for byte.  Record them again only
in a change to the benchmark itself, never in one that claims a gain.
Jobs run with one worker thread; outputs do not depend on the count.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"


def all_variants() -> list[list[str]]:
    import workloads as w
    argvs = [["table", "fbct", "2", "8", str(d)] for d in w.FBCT_EXPONENTS]
    argvs += [["table", "sozd", "3", "5", str(d), "--format", "json"]
              for d in w.SOZD_EXPONENTS]
    for d in w.DDT_EXPONENTS:
        argvs += [["table", "ddt", "2", "10", str(d)],
                  ["table", "ddt", "2", "10", str(d), "--format", "json"]]
    argvs += [["verify", t, str(p), str(n)] for t, p, n in w.VERIFY_FULL]
    argvs += [["verify", t, str(p), str(n), "--sample", str(k), "--seed", str(s)]
              for s in w.SAMPLE_SEEDS for t, p, n, k in w.VERIFY_SAMPLED]
    argvs += [job.argv for job in w.survey_jobs(0)]
    return argvs


def record(argv: list[str]) -> tuple[str, dict]:
    from zdspec import cli
    out = OUT / f"ref-{os.getpid()}.out"
    rc = cli.main(argv + ["--out", str(out), "--threads", "1"])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    return " ".join(argv), {"exit": rc, "sha256": digest}


def main() -> int:
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ.pop("ZDSPEC_CACHE", None)
    OUT.mkdir(exist_ok=True)
    argvs = all_variants()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        refs = dict(pool.map(record, argvs, chunksize=1))
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k])}" for k in sorted(refs)]
    (HERE / "references.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
