"""Predictors, verification harness, and their structural invariants."""

import dataclasses
import json
import random
import tracemalloc

import numpy as np
import pytest

from zdspec import cli, closedform
from zdspec.gf import Field
from zdspec.closedform import (
    Mismatch,
    PredictionOutcome,
    VerificationReport,
    bound_x7_oddp,
    predict_x2m1p3,
    predict_x5_oddp,
    predict_x7_char2,
    predict_x7_char2_vec,
    predict_x7_p3,
    theorem_ids,
    verify_theorem,
)
from zdspec.equations import QUARTIC_SHAPES, QuarticEq, classify_quartic
from zdspec.spectra import PowerFunction, make_sozd_counter, power_rows


def test_theorem_registry():
    assert theorem_ids() == ["3.1", "3.2", "4.1", "4.2"]
    with pytest.raises(ValueError):
        verify_theorem("9.9", Field(2, 4))


# ---------------------------------------------------------------------------
# degenerate and hypothesis handling
# ---------------------------------------------------------------------------

def test_degenerate_pairs_give_field_order():
    f16, f9 = Field(2, 4), Field(3, 2)
    assert predict_x7_char2(f16, 0, 5).count == 16
    assert predict_x7_char2(f16, 5, 5).count == 16
    assert predict_x2m1p3(f16, 3, 0).count == 16
    assert predict_x5_oddp(f9, 0, 4).count == 9
    assert predict_x7_p3(f9, 4, 0).count == 9


def test_hypothesis_violations():
    with pytest.raises(ValueError):
        predict_x7_char2(Field(3, 2), 1, 2)
    with pytest.raises(ValueError):
        predict_x5_oddp(Field(2, 4), 1, 2)
    with pytest.raises(ValueError):
        predict_x5_oddp(Field(5, 1), 1, 2)
    with pytest.raises(ValueError):
        predict_x7_p3(Field(5, 1), 1, 2)
    with pytest.raises(ValueError):
        verify_theorem("4.1", Field(2, 6))
    with pytest.raises(ValueError):
        verify_theorem("3.2", Field(2, 3))
    with pytest.raises(ValueError):
        bound_x7_oddp(Field(7, 1))
    with pytest.raises(ValueError):
        bound_x7_oddp(Field(3, 2))


# ---------------------------------------------------------------------------
# individual predictor cases
# ---------------------------------------------------------------------------

def test_x7_char2_omega_case():
    f = Field(2, 4)
    omega = next(e for e in f if not e.is_zero and (e * e + e + 1).is_zero)
    b = f.element(7)
    out = predict_x7_char2(f, (b * omega).idx, b.idx)
    assert out.count == 4 and "c^2+c+1" in out.case
    counter = make_sozd_counter(PowerFunction(f, 7))
    assert counter((b * omega).idx, b.idx) == 4


def test_x2m1p3_subfield_case():
    f = Field(2, 6)
    sub = f.subfield(3)
    b = f.element(5)
    for c in sub.elements():
        if c.idx in (0, 1):
            continue
        out = predict_x2m1p3(f, (b * c).idx, b.idx)
        assert out.count == 8 and "subfield" in out.case


def test_x5_oddp_unpredicted_entries():
    # 13 = 1 mod 4, so -1 is a square and a^2 + b^2 can vanish
    f = Field(13, 1)
    outs = [predict_x5_oddp(f, a, b)
            for a in range(1, 13) for b in range(1, 13)]
    unpred = [o for o in outs if o.unpredicted]
    assert unpred and all("0" in o.case for o in unpred)
    # 7 = 3 mod 4: never unpredicted
    f7 = Field(7, 1)
    assert all(not predict_x5_oddp(f7, a, b).unpredicted
               for a in range(1, 7) for b in range(1, 7))


def test_x7_p3_even_n_singular_case():
    f = Field(3, 2)
    counter = make_sozd_counter(PowerFunction(f, 7))
    hits = 0
    for ia in range(1, 9):
        for ib in range(1, 9):
            a, b = f.element(ia), f.element(ib)
            if (a * a + b * b).is_zero:
                out = predict_x7_p3(f, ia, ib)
                assert out.count == 1 and "a^2+b^2 = 0" in out.case
                assert counter(ia, ib) == 1
                hits += 1
    assert hits > 0


def test_prediction_depends_only_on_the_ratio():
    rng = random.Random(15)
    cases = [(predict_x7_char2, Field(2, 6)), (predict_x2m1p3, Field(2, 6)),
             (predict_x5_oddp, Field(7, 2)), (predict_x7_p3, Field(3, 3))]
    for predict, f in cases:
        for _ in range(40):
            ia = rng.randrange(1, f.order)
            ib = rng.randrange(1, f.order)
            ic = rng.randrange(1, f.order)
            a, b, c = f.element(ia), f.element(ib), f.element(ic)
            first = predict(f, a.idx, b.idx)
            second = predict(f, (c * a).idx, (c * b).idx)
            assert first.count == second.count
            assert first.case == second.case


def test_case_labels_partition_the_pairs():
    """Exactly one case fires per pair: labels are consistent with direct
    recomputation of the guards."""
    f = Field(3, 2)
    for ia in range(9):
        for ib in range(9):
            out = predict_x7_p3(f, ia, ib)
            a, b = f.element(ia), f.element(ib)
            if a.is_zero or b.is_zero:
                assert out.case == "ab = 0"
            elif (a * a + b * b).is_zero:
                assert out.case == "a^2+b^2 = 0, a != b"
            else:
                assert out.case.startswith("eta(1/(a^2+b^2))")


def test_quadratic_character_inverse_identity():
    """eta(1/t) = eta(t) for every nonzero t (the form used by id 4.2)."""
    for p, n in [(3, 2), (3, 3), (7, 1)]:
        f = Field(p, n)
        for i in range(1, f.order):
            e = f.element(i)
            assert f.quadratic_character(e.inverse()) == f.quadratic_character(e)


def test_x7_trace_case_coherent_with_quartic_classifier():
    """When the x^7 predictor answers through the trace conditions, the
    quartic x^4 + (c^2+c+1) x^2 + (c^2+c) x + (c^2+c+1)^2 must have the
    matching factor shape."""
    for n in (4, 5, 6):
        f = Field(2, n)
        for ci in range(2, f.order):
            c = f.element(ci)
            t = c * c + c + 1
            if t.is_zero:
                continue
            out = predict_x7_char2(f, ci, 1)
            shape, _ = classify_quartic(QuarticEq(t, c * c + c, t * t))
            if out.count == 4:
                assert shape == (1, 1, 1, 1)
            else:
                assert shape in QUARTIC_SHAPES - {(1, 1, 1, 1)}


# ---------------------------------------------------------------------------
# array forms against the scalar predictors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theorem,p,n,classes", [
    *[("3.1", 2, n, None) for n in range(3, 11)],
    *[("3.2", 2, n, None) for n in range(2, 13)],
    *[("4.1", 3, n, None) for n in range(2, 8)],
    *[("4.1", p, n, None) for p, n in ((7, 2), (7, 3), (11, 2), (13, 2))],
    *[("4.2", 3, n, None) for n in range(2, 9)],
    *[(t, 2, 16, 2000) for t in ("3.1", "3.2")],
    *[(t, 3, 10, 2000) for t in ("4.1", "4.2")],
])
def test_array_form_equals_scalar_predictor_on_every_class(theorem, p, n, classes):
    """On every ratio class c (or `classes` seeded ones), one pair
    (cb, b) with a random b != 0, plus the pairs with a zero: the array
    form gives the scalar predictor's count (-1 for None) and case."""
    spec = closedform.THEOREMS[theorem]
    f = Field(p, n)
    q = f.order
    rng = random.Random(q)
    ratios = range(1, q) if classes is None else rng.sample(range(1, q), classes)
    pairs = [(0, 0), (0, 1), (1, 0)]
    for c in ratios:
        b = f.element(rng.randrange(1, q))
        pairs.append(((f.element(c) * b).idx, b.idx))
    counts, case_ids = spec.predict_vec(f, *map(list, zip(*pairs)))
    for (ia, ib), count, case in zip(pairs, counts.tolist(), case_ids.tolist()):
        out = spec.predict(f, ia, ib)
        assert (None if count < 0 else count, spec.cases[case]) == (out.count, out.case)


def test_array_forms_check_their_hypotheses(monkeypatch):
    for theorem, f in [("3.1", Field(3, 2)), ("3.2", Field(3, 2)), ("3.2", Field(2, 1)),
                       ("4.1", Field(2, 4)), ("4.1", Field(5, 1)), ("4.2", Field(5, 1))]:
        with pytest.raises(ValueError):
            closedform.THEOREMS[theorem].predict_vec(f, [1], [2])
    with pytest.raises(ValueError):
        predict_x7_char2_vec(Field(2, 4), [16], [1])
    # a subfield class whose affine count is not 2^m is a broken reduction;
    # only the scalar form counts it, by elimination
    f = Field(2, 6)
    sub = next(c for c in range(2, f.order) if f.tables.frob_map(3)[c] == c)
    monkeypatch.setattr(closedform, "_second_order_affine_count", lambda f, c, m: 0)
    with pytest.raises(RuntimeError, match="subfield"):
        predict_x2m1p3(f, sub, 1)


@pytest.mark.parametrize("n", range(4, 13))
def test_x2m1p3_kernel_facts(n):
    """The facts behind the two-trace 3.2 criterion, on every non-subfield
    class c != 0, 1: for L(y) = A y^Q + B y^2 + C y with A = c^2 + c,
    B = c^Q + c, C = c^Q + c^2 (Q = 2^(m+1)), L(1) = L(c) = 0, and z1,
    z1 w are independent elements of the kernel of the trace-form adjoint
    L*(z) = (Az)^(1/Q) + (Bz)^(1/2) + Cz, itself checked against
    Tr(L(y) z) = Tr(y L*(z)) on random y, z."""
    f = Field(2, n)
    t = f.tables
    m = n // 2
    mul = t.mul_vec
    c = t.indices[2:]
    if n % 2 == 0:
        c = c[t.frob_map(m)[c] != c]
    cq, c2 = t.frob_map(m + 1)[c], mul(c, c)
    A, B, C = c2 ^ c, cq ^ c, cq ^ c2
    if n % 2:
        z1, w = t.pow_map(f.order - 2)[mul(B, C)], cq
    else:
        w = t.frob_map(m)[c]
        z1 = t.pow_map(f.order - 4)[w ^ c]

    def L(y):
        return mul(A, t.frob_map(m + 1)[y]) ^ mul(B, mul(y, y)) ^ mul(C, y)

    def L_adj(z):
        return t.frob_map(n - m - 1)[mul(A, z)] ^ t.sqrt_map[mul(B, z)] ^ mul(C, z)

    assert not L(np.ones_like(c)).any()
    assert not L(c).any()
    assert (z1 != 0).all() and (w != 1).all()
    assert not L_adj(z1).any()
    assert not L_adj(mul(z1, w)).any()
    rng = np.random.default_rng(n)
    y, z = rng.integers(0, f.order, (2, len(c)))
    assert (t.trace1[mul(L(y), z)] == t.trace1[mul(y, L_adj(z))]).all()


def test_x2m1p3_array_form_equals_row_one_at_large_orders():
    """Above the orders where the scalar elimination is affordable, the
    two-trace array form equals row 1 of the power map on every ratio
    class: the count of (c, 1) is row1[1/c]."""
    for n in range(13, 21):
        f = Field(2, n)
        t = f.tables
        c = t.indices[1:]
        counts, _ = closedform.predict_x2m1p3_vec(f, c, np.ones_like(c))
        row1 = power_rows(PowerFunction(f, 2 ** (n // 2 + 1) + 3))[1]
        assert (counts == row1[t.pow_map(f.order - 2)[c]]).all(), n


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theorem,p,n,uniformity", [
    ("3.1", 2, 6, 4),
    ("3.2", 2, 6, 8),
    ("4.1", 3, 3, 3),
    ("4.2", 3, 3, 3),
])
def test_verify_full_runs(theorem, p, n, uniformity):
    report = verify_theorem(theorem, Field(p, n))
    assert report.mode == "full"
    assert report.pairs_checked == (p ** n) ** 2
    assert not report.mismatches
    assert report.uniformity == uniformity
    assert report.seed is None
    assert report.passed


def test_verify_report_json_shape():
    report = verify_theorem("4.1", Field(3, 2))
    payload = json.loads(report.to_json())
    assert payload["theorem"] == "4.1"
    assert payload["field"] == {"p": 3, "n": 2, "modulus": [1, 0, 1]}
    assert payload["d"] == 5
    assert payload["pairs_checked"] == 81
    assert payload["mismatches"] == []
    assert payload["uniformity"] == 3
    assert payload["seed"] is None
    # the eta-argument-zero entries are brute-forced and listed
    assert payload["unpredicted"]
    for entry in payload["unpredicted"]:
        assert entry["actual"] == 1
        assert set(entry) == {"a", "b", "actual"}


def test_verify_sampled_mode_records_seed():
    f = Field(2, 10)
    r1 = verify_theorem("3.2", f, sample=500, seed=7)
    r2 = verify_theorem("3.2", f, sample=500, seed=7)
    assert r1.mode == "sampled" and r1.seed == 7
    assert r1.pairs_checked == 500
    assert not r1.mismatches
    assert r1.to_json() == r2.to_json()
    r3 = verify_theorem("3.2", f, sample=500)  # default seed recorded
    assert r3.seed == 0


def test_verify_auto_samples_large_fields(monkeypatch):
    monkeypatch.setattr(closedform, "DEFAULT_SAMPLE", 300)
    report = verify_theorem("3.1", Field(2, 13))
    assert report.mode == "sampled"
    assert report.pairs_checked == 300
    assert report.seed == 0
    assert not report.mismatches


def _per_pair_report(theorem, field, sample=None, seed=None):
    """What verify_theorem reports, from a walk that calls the predictor
    and the counter on every pair (all q^2, or each drawn pair), with no
    memo and no ratio classes."""
    spec = closedform.THEOREMS[theorem]
    d = spec.exponent(field)
    count = make_sozd_counter(PowerFunction(field, d))
    q = field.order
    if sample is None:
        mode, seed_used = "full", None
        pairs = [(ia, ib) for ia in range(q) for ib in range(q)]
    else:
        mode, seed_used = "sampled", 0 if seed is None else seed
        rng = random.Random(seed_used)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(sample)]
    mismatches, unpredicted, uniformity = [], [], 0
    for ia, ib in pairs:
        outcome, actual = spec.predict(field, ia, ib), count(ia, ib)
        if ia and ib and (field.p != 2 or ia != ib):
            uniformity = max(uniformity, actual)
        if outcome.unpredicted:
            unpredicted.append((ia, ib, actual))
        elif outcome.count != actual:
            mismatches.append(Mismatch(ia, ib, outcome.count, actual, outcome.case))
    return VerificationReport(
        theorem=spec.id, field=field, d=d, mode=mode, pairs_checked=len(pairs),
        mismatches=sorted(mismatches, key=lambda m: (m.a, m.b)),
        unpredicted=sorted(unpredicted), uniformity=uniformity,
        expected_uniformity=spec.expected_uniformity(field), seed=seed_used,
        notes=spec.check(field))


@pytest.mark.parametrize("theorem,p,n", [
    *[(t, 2, n) for t in ("3.1", "3.2") for n in (4, 5, 6, 7, 12, 16)],
    *[("4.1", p, n) for p, n in ((3, 2), (3, 4), (3, 6), (7, 2), (11, 2), (13, 2), (3, 9))],
    *[("4.2", 3, n) for n in (2, 4, 5, 6, 10)],
])
def test_verify_class_judgment_equals_per_pair_walk(theorem, p, n):
    # on GF(2^4), 700 draws exceed the q^2 = 256 pairs, so pairs and
    # ratio classes repeat within the sample
    f = Field(p, n)
    sampled = verify_theorem(theorem, f, sample=700, seed=3)
    assert sampled.to_json() == _per_pair_report(theorem, f, 700, 3).to_json()
    if f.order <= 121:  # the per-pair walk costs q^2 predictor calls
        full = verify_theorem(theorem, f)
        assert full.to_json() == _per_pair_report(theorem, f).to_json()


def test_verify_mismatch_lists_every_pair_of_the_class(monkeypatch, capsys):
    """A predictor wrong on the one ratio class a/b = x, in its scalar and
    its array form alike: full mode lists its q - 1 pairs and fails; the
    CLI exits 1."""
    def wrong_on_x(field, a, b):
        out = predict_x7_char2(field, a, b)
        a, b = field.element(a), field.element(b)
        if not b.is_zero and (a / b).idx == 2:
            return PredictionOutcome(out.count + 1, "wrong on a/b = x")
        return out

    def wrong_on_x_vec(field, a, b):
        counts, case_ids = predict_x7_char2_vec(field, a, b)
        a, b = np.asarray(a), np.asarray(b)
        on_x = (b != 0) & (a == field.tables.mul_vec(b, 2))
        return (np.where(on_x, counts + 1, counts),
                np.where(on_x, len(closedform.X7_CHAR2_CASES), case_ids))

    monkeypatch.setitem(closedform.THEOREMS, "3.1", dataclasses.replace(
        closedform.THEOREMS["3.1"], predict=wrong_on_x, predict_vec=wrong_on_x_vec,
        cases=closedform.X7_CHAR2_CASES + ("wrong on a/b = x",)))
    f = Field(2, 4)
    x = f.element(2)
    actual = make_sozd_counter(PowerFunction(f, 7))(2, 1)
    report = verify_theorem("3.1", f)
    assert [(m.a, m.b) for m in report.mismatches] == sorted(
        ((x * f.element(t)).idx, t) for t in range(1, f.order))
    assert {(m.predicted, m.actual, m.case) for m in report.mismatches} == {
        (actual + 1, actual, "wrong on a/b = x")}
    assert not report.passed
    assert report.to_json() == _per_pair_report("3.1", f).to_json()
    sampled = verify_theorem("3.1", f, sample=600, seed=2)
    assert sampled.mismatches
    assert sampled.to_json() == _per_pair_report("3.1", f, 600, 2).to_json()
    monkeypatch.setattr(closedform, "SAMPLE_CHUNK", 7)  # the listing pass redraws
    assert verify_theorem("3.1", f, sample=600, seed=2).to_json() == sampled.to_json()

    assert cli.main(["verify", "3.1", "2", "4", "--format", "csv"]) == 1
    header, row = capsys.readouterr().out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["mismatch_count"] == str(f.order - 1)
    assert record["passed"] == "False"


def test_sampled_verify_memory_is_bounded(monkeypatch):
    """Sampled pairs are drawn in chunks: 10^6 draws stay far below the
    24 MiB that int64 pair and key arrays over all draws would take, and
    the report does not depend on the chunk size."""
    f = Field(2, 8)
    tracemalloc.start()
    try:
        report = verify_theorem("3.1", f, sample=10 ** 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 10 ** 6
    assert peak < 16 * 2 ** 20
    monkeypatch.setattr(closedform, "SAMPLE_CHUNK", 1000)
    assert verify_theorem("3.1", f, sample=10 ** 6, seed=1).to_json() == report.to_json()


def test_verify_informational_small_n_note():
    report = verify_theorem("3.1", Field(2, 3))
    assert any("informational" in note for note in report.notes)
    assert not report.mismatches


def test_unpredicted_entries_have_zero_eta_argument():
    f = Field(3, 4)
    report = verify_theorem("4.1", f)
    assert report.unpredicted
    for ia, ib, actual in report.unpredicted:
        a, b = f.element(ia), f.element(ib)
        assert (a * a + b * b).is_zero
        assert actual == 1


def test_bound_x7_oddp_values():
    assert bound_x7_oddp(Field(5, 1)) == 1
    assert bound_x7_oddp(Field(5, 2)) == 5
    assert bound_x7_oddp(Field(11, 1)) == 1
    assert bound_x7_oddp(Field(13, 1)) == 3
