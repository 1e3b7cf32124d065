"""Self-checks of the benchmark's correctness gate.

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())
DDT_JOB = workloads.table_jobs(0)[5]          # table ddt 2 10 d, CSV


def _pass(jobs, refs, tmp_path, tracer=None):
    return run.run_pass(jobs, {}, refs, tmp_path, 1,
                        tracer or replay.NullTracer(), "test")


def test_reference_digest_passes(tmp_path):
    assert DDT_JOB.argv[:4] == ["table", "ddt", "2", "10"]
    *_, failures = _pass([DDT_JOB], REFS, tmp_path)
    assert failures == []


def test_tampered_digest_is_a_failed_job(tmp_path):
    ref = REFS[DDT_JOB.key]
    tampered = dict(REFS, **{DDT_JOB.key: dict(ref, sha256="0" * 64)})
    *_, failures = _pass([DDT_JOB], tampered, tmp_path)
    assert len(failures) == 1 and "sha256" in failures[0]


def test_traced_replay_reproduces_the_reference(tmp_path):
    tr = replay.Tracer()
    *_, failures = _pass([DDT_JOB], REFS, tmp_path, tr)
    assert failures == []
    names = [s["name"] for s in tr.spans]
    assert names == ["job", "cli.parse", "gf.field", "fastfield.tables",
                     "spectra.kernel", "spectra.emit", "cli.write"]
    assert [s["parent"] for s in tr.spans] == [None] + [0] * 6


def test_exception_is_counted_and_the_pass_goes_on(tmp_path):
    from zdspec import gf
    bad = workloads.Job(0, 1, oracle="quartic", inputs=[(0, 0, 1)])  # a1 = 0
    *_, failures = run.run_pass([bad, DDT_JOB], {(2, 5): gf.canonical_field(2, 5)},
                                REFS, tmp_path, 1, replay.NullTracer(), "test")
    assert failures == ["job 0 raised"]
