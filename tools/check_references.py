"""Check that every pinned CLI output is reproduced byte for byte.

    python tools/check_references.py

Runs each job variant from ``perfbench/record_references.all_variants()``
through ``zdspec.cli.main`` with ``--out`` in a temporary directory, and
compares its exit code and output SHA-256 with ``perfbench/references.json``.
Exits 0 when all variants match, 1 otherwise, printing each difference.
Job outputs go only to the temporary directory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_variant(tmp: str, argv: list[str]) -> tuple[str, dict]:
    from zdspec import cli
    out = Path(tmp) / f"{os.getpid()}.out"
    rc = cli.main(argv + ["--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    out.unlink(missing_ok=True)
    return " ".join(argv), {"exit": rc, "sha256": digest}


def main() -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]
    os.environ.pop("ZDSPEC_CACHE", None)
    from record_references import all_variants
    refs = json.loads((PERFBENCH / "references.json").read_text())
    argvs = all_variants()
    with tempfile.TemporaryDirectory() as tmp:
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            got = dict(pool.map(functools.partial(run_variant, tmp), argvs,
                                chunksize=1))
    differ = sorted(k for k in got.keys() | refs.keys() if got.get(k) != refs.get(k))
    for key in differ:
        print(f"check_references: {key!r}: got {got.get(key)}, "
              f"expected {refs.get(key)}")
    print(f"check_references: {len(got)} variants, {len(refs)} references, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
