"""Difference tables, spectra, and the char-2 property suite."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zdspec import spectra
from zdspec.gf import Field, canonical_field
from zdspec.spectra import (
    LookupFunction,
    PowerFunction,
    admissible_descriptor,
    ddt_entry,
    differential_uniformity,
    element_labels,
    fbct_entry,
    fbct_property_suite,
    full_table,
    make_sozd_counter,
    sozd_entry,
    sozd_spectrum,
    sozd_uniformity,
    table_blocks,
    table_to_csv,
    table_to_json,
    _PairCounter,
)


def brute_sozd(field, d, ia, ib):
    """Independent object-level count of the defining equation."""
    a, b = field.element(ia), field.element(ib)
    count = 0
    for x in field:
        if ((x + a + b) ** d - (x + b) ** d - (x + a) ** d + x ** d).is_zero:
            count += 1
    return count


# ---------------------------------------------------------------------------
# function wrappers
# ---------------------------------------------------------------------------

def test_power_function_basics():
    f = Field(2, 4)
    fn = PowerFunction(f, 7)
    assert fn(f.zero) == f.zero
    assert fn(f.one) == f.one
    e = f.element(9)
    assert fn(e) == e ** 7
    assert int(fn.values()[9]) == (e ** 7).idx
    with pytest.raises(ValueError):
        PowerFunction(f, 0)


def test_lookup_function_validation():
    f = Field(2, 2)
    fn = LookupFunction(f, [0, 1, 3, 2])
    assert fn(f.element(2)) == f.element(3)
    with pytest.raises(ValueError):
        LookupFunction(f, [0, 1, 2])
    with pytest.raises(ValueError):
        LookupFunction(f, [0, 1, 2, 4])


# ---------------------------------------------------------------------------
# DDT
# ---------------------------------------------------------------------------

def test_ddt_square_map_char2():
    f = Field(2, 4)
    fn = PowerFunction(f, 2)
    for ai in range(1, f.order):
        a = f.element(ai)
        assert ddt_entry(fn, a, a * a) == f.order
        row = [ddt_entry(fn, a, b) for b in f]
        assert sum(row) == f.order  # row sum partitions the domain


def test_ddt_row_sums():
    for p, n, d in [(2, 4, 7), (3, 2, 5), (5, 2, 4)]:
        f = Field(p, n)
        fn = PowerFunction(f, d)
        for ai in range(f.order):
            assert sum(ddt_entry(fn, ai, bi) for bi in range(f.order)) == f.order


def test_differential_uniformity_known_values():
    assert differential_uniformity(PowerFunction(Field(2, 5), 3)) == 2    # APN Gold
    assert differential_uniformity(PowerFunction(Field(2, 6), 7)) == 6
    # power-of-p exponents are linear: the difference is constant in x
    assert differential_uniformity(PowerFunction(Field(2, 4), 2)) == 16
    assert differential_uniformity(PowerFunction(Field(3, 2), 3)) == 9


# ---------------------------------------------------------------------------
# second-order counts
# ---------------------------------------------------------------------------

def test_sozd_degenerate_pairs():
    for p, n, d in [(2, 4, 7), (3, 2, 5)]:
        f = Field(p, n)
        fn = PowerFunction(f, d)
        for i in range(f.order):
            assert sozd_entry(fn, 0, i) == f.order
            assert sozd_entry(fn, i, 0) == f.order
        if p == 2:
            for i in range(1, f.order):
                assert sozd_entry(fn, i, i) == f.order


def test_sozd_matches_object_brute_force():
    rng = random.Random(12)
    for p, n, d in [(2, 5, 7), (3, 2, 5), (3, 3, 7), (7, 1, 5), (5, 2, 7)]:
        f = Field(p, n)
        fn = PowerFunction(f, d)
        for _ in range(25):
            ia, ib = rng.randrange(f.order), rng.randrange(f.order)
            assert sozd_entry(fn, ia, ib) == brute_sozd(f, d, ia, ib)
    # every pair of two odd-p fields, where the per-entry count adds
    # indices digitwise mod p
    for p, n, d in [(3, 2, 5), (5, 2, 7)]:
        f = Field(p, n)
        fn = PowerFunction(f, d)
        for ia in range(f.order):
            for ib in range(f.order):
                assert sozd_entry(fn, ia, ib) == brute_sozd(f, d, ia, ib), (p, ia, ib)


def test_sozd_x5_over_f9_values():
    f = Field(3, 2)
    fn = PowerFunction(f, 5)
    for ia in range(1, 9):
        for ib in range(1, 9):
            assert sozd_entry(fn, ia, ib) in (1, 3)
    summary = sozd_spectrum(fn)
    assert summary.uniformity == 3
    assert summary.histogram == {1: 48, 3: 16}
    assert summary.admissible == "a != 0, b != 0"
    assert summary.total_pairs() == 64  # a = b pairs included for odd p


def test_sozd_uniformity_known_values():
    assert sozd_uniformity(PowerFunction(Field(2, 4), 7)) == 4
    assert sozd_uniformity(PowerFunction(Field(2, 6), 7)) == 4
    assert sozd_uniformity(PowerFunction(Field(3, 3), 7)) == 3
    assert sozd_uniformity(PowerFunction(Field(7, 1), 5)) == 3


def test_sozd_homogeneity():
    """Counts are invariant under (a, b) -> (ca, cb) for power maps.

    Checked on the per-entry path: the fast counter assumes this."""
    rng = random.Random(6)
    for p, n, d in [(2, 5, 7), (3, 2, 5), (2, 6, 19)]:
        f = Field(p, n)
        fn = PowerFunction(f, d)
        counter = _PairCounter(fn).count
        for _ in range(40):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(1, f.order))
            c = f.element(rng.randrange(1, f.order))
            assert counter(a.idx, b.idx) == counter((c * a).idx, (c * b).idx)


def test_counts_are_even_in_char2():
    f = Field(2, 5)
    fn = PowerFunction(f, 11)
    counter = make_sozd_counter(fn)
    for ia in range(f.order):
        for ib in range(f.order):
            c = counter(ia, ib)
            assert 0 <= c <= f.order
            assert c % 2 == 0


# ---------------------------------------------------------------------------
# FBCT
# ---------------------------------------------------------------------------

def test_fbct_equals_sozd_in_char2():
    f = Field(2, 5)
    fn = PowerFunction(f, 7)
    rng = random.Random(3)
    for _ in range(60):
        ia, ib = rng.randrange(f.order), rng.randrange(f.order)
        assert fbct_entry(fn, ia, ib) == sozd_entry(fn, ia, ib)


def test_fbct_requires_char2():
    fn = PowerFunction(Field(3, 2), 5)
    with pytest.raises(ValueError):
        fbct_entry(fn, 1, 2)
    with pytest.raises(ValueError):
        full_table(fn, "fbct")


def test_fbct_first_line_column_diagonal():
    f = Field(2, 4)
    fn = PowerFunction(f, 7)
    for i in range(f.order):
        assert fbct_entry(fn, 0, i) == 16
        assert fbct_entry(fn, i, 0) == 16
        assert fbct_entry(fn, i, i) == 16


def test_apn_has_zero_feistel_boomerang_uniformity():
    f = Field(2, 5)
    fn = PowerFunction(f, 3)  # Gold, gcd(5,1) = 1, APN
    assert sozd_uniformity(fn) == 0
    for ia in range(1, f.order):
        for ib in range(1, f.order):
            if ia != ib:
                assert fbct_entry(fn, ia, ib) == 0


# ---------------------------------------------------------------------------
# full tables
# ---------------------------------------------------------------------------

def test_full_table_dimensions_and_entries():
    f = Field(2, 4)
    fn = PowerFunction(f, 3)
    m = full_table(fn, "fbct")
    assert m.shape == (16, 16)
    off = [int(m[a, b]) for a in range(1, 16) for b in range(1, 16) if a != b]
    assert set(off) <= {0, 4}
    assert (m % 4 == 0).all()
    for a in range(16):
        for b in range(16):
            assert int(m[a, b]) == fbct_entry(fn, a, b)


def test_full_table_thread_count_does_not_change_output():
    f = Field(2, 5)
    rng = random.Random(5)
    for fn in (PowerFunction(f, 7), LookupFunction(f, [rng.randrange(32) for _ in range(32)])):
        m1 = full_table(fn, "sozd", threads=1)
        m4 = full_table(fn, "sozd", threads=4)
        assert (m1 == m4).all()
        d1 = full_table(fn, "ddt", threads=1)
        d3 = full_table(fn, "ddt", threads=3)
        assert (d1 == d3).all()


def test_sozd_table_equals_fbct_table_char2():
    f = Field(2, 4)
    fn = PowerFunction(f, 7)
    assert (full_table(fn, "sozd") == full_table(fn, "fbct")).all()


# ---------------------------------------------------------------------------
# row kernel and homogeneity against the per-entry oracles
# ---------------------------------------------------------------------------

ORACLE_FIELDS = [(2, 1), (3, 1), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 1)]


def oracle_exponents(q):
    """d = 1 and 2, two nonlinear exponents, q - 1 (constant on F*), d > q."""
    return sorted({1, 2, 3, 7, max(q - 1, 1), 3 * q + 2})


def brute_ddt_table(fn):
    """DDT from the defining equation, one field element at a time."""
    f = fn.field
    out = np.zeros((f.order, f.order), dtype=np.int64)
    for a in f:
        for x in f:
            out[a.idx, (fn(x + a) - fn(x)).idx] += 1
    return out


def brute_sozd_table(fn):
    count = _PairCounter(fn).count
    q = fn.field.order
    return np.array([[count(ia, ib) for ib in range(q)] for ia in range(q)],
                    dtype=np.int64)


def brute_spectrum(field, table):
    hist = {}
    for ia in range(1, field.order):
        for ib in range(1, field.order):
            if field.p == 2 and ia == ib:
                continue
            c = int(table[ia, ib])
            hist[c] = hist.get(c, 0) + 1
    return hist


@pytest.mark.parametrize("p,n", ORACLE_FIELDS)
def test_power_tables_and_spectra_match_oracles(p, n):
    f = Field(p, n)
    for d in oracle_exponents(f.order):
        fn = PowerFunction(f, d)
        ddt = brute_ddt_table(fn)
        sozd = brute_sozd_table(fn)
        assert (full_table(fn, "ddt") == ddt).all(), d
        assert (full_table(fn, "sozd") == sozd).all(), d
        if p == 2:
            assert (full_table(fn, "fbct") == sozd).all(), d
        assert differential_uniformity(fn) == int(ddt[1:].max()), d
        hist = brute_spectrum(f, sozd)
        summary = sozd_spectrum(PowerFunction(f, d))
        assert summary.histogram == hist, d
        assert summary.uniformity == (max(hist) if hist else 0), d


def test_row_kernel_slabs_do_not_change_rows(monkeypatch):
    """Tiny slabs split both the fibers and the pairs within one fiber."""
    monkeypatch.setattr(spectra, "_BLOCK", 5)
    for p, n, d in [(2, 5, 31), (2, 5, 7), (3, 3, 26), (3, 3, 7)]:
        fn = PowerFunction(Field(p, n), d)
        assert (full_table(fn, "sozd") == brute_sozd_table(fn)).all(), (p, n, d)
        assert (full_table(fn, "ddt") == brute_ddt_table(fn)).all(), (p, n, d)


def test_gf2_has_empty_admissible_set():
    summary = sozd_spectrum(PowerFunction(Field(2, 1), 1))
    assert summary.histogram == {}
    assert summary.uniformity == 0
    assert sozd_uniformity(PowerFunction(Field(2, 1), 3)) == 0


@st.composite
def lookup_functions(draw):
    p, n = draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 2)]))
    q = p ** n
    values = draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
    return LookupFunction(Field(p, n), values)


@settings(max_examples=30, deadline=None)
@given(lookup_functions())
def test_lookup_function_rows_match_pair_counter(fn):
    f = fn.field
    sozd = brute_sozd_table(fn)
    table = full_table(fn, "sozd", threads=1)
    for ia in range(f.order):
        assert (table[ia] == sozd[ia]).all(), ia
    ddt = brute_ddt_table(fn)
    assert (full_table(fn, "ddt", threads=1) == ddt).all()
    assert sozd_spectrum(fn).histogram == brute_spectrum(f, sozd)
    assert differential_uniformity(fn) == int(ddt[1:].max())


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10)])
def test_power_counter_matches_entry_path_on_verify_fields(p, n):
    f = canonical_field(p, n)
    fn = PowerFunction(f, 7)
    counter = make_sozd_counter(fn)
    rng = random.Random(p * 100 + n)
    for _ in range(50):
        ia, ib = rng.randrange(f.order), rng.randrange(f.order)
        assert counter(ia, ib) == sozd_entry(fn, ia, ib), (ia, ib)


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,d", [(4, 3), (4, 7), (5, 5), (5, 30), (6, 19)])
def test_property_suite_power_maps(n, d):
    rep = fbct_property_suite(PowerFunction(Field(2, n), d))
    assert rep.passed, rep.to_dict()
    names = [c.name for c in rep.checks]
    assert names == ["symmetry", "multiplicity_mod_4", "first_line",
                     "first_column", "diagonal", "equalities_row_shift"]
    assert not rep.literal_equalities.holds
    assert "misprint" in rep.literal_equalities.note


def test_property_suite_arbitrary_lookup_function():
    f = Field(2, 4)
    rng = random.Random(99)
    values = [rng.randrange(16) for _ in range(16)]
    rep = fbct_property_suite(LookupFunction(f, values))
    assert rep.passed, rep.to_dict()


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_labels_and_csv_format():
    f = Field(2, 2)
    assert [f.element(i).label for i in range(4)] == ["00", "10", "01", "11"]
    fn = PowerFunction(f, 2)
    csv = table_to_csv(full_table(fn, "ddt"), f)
    lines = csv.splitlines()
    assert lines[0] == "a\\b,00,10,01,11"
    assert len(lines) == 5
    assert lines[1] == "00,4,0,0,0"
    assert csv.endswith("\n")


def test_table_json_roundtrip():
    f = Field(2, 2)
    fn = PowerFunction(f, 3)
    payload = json.loads(table_to_json(full_table(fn, "fbct"), f, "fbct", 3))
    assert payload["table"] == "fbct"
    assert payload["field"] == {"p": 2, "n": 2, "modulus": [1, 1, 1]}
    assert payload["d"] == 3
    assert len(payload["rows"]) == 4


def _json_oracle(matrix, field, which, d):
    payload = {
        "table": which,
        "field": {"p": field.p, "n": field.n, "modulus": list(field.modulus)},
        "labels": [field.element(i).label for i in range(field.order)],
        "rows": matrix.tolist(),
    }
    if d is not None:
        payload["d"] = d
    return json.dumps(payload, indent=2) + "\n"


def _csv_oracle(matrix, field):
    labels = [field.element(i).label for i in range(field.order)]
    lines = ["a\\b," + ",".join(labels)]
    for label, row in zip(labels, matrix.tolist()):
        lines.append(label + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


EMIT_CASES = [(p, n, which) for p, n in [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                                         (5, 2), (7, 2), (11, 2)]
              for which in ("ddt", "sozd", "fbct") if p == 2 or which != "fbct"]


@pytest.mark.parametrize("p,n,which", EMIT_CASES)
def test_emission_matches_per_entry_oracles(p, n, which):
    f = Field(p, n)
    d = 7 if p == 2 else 5
    matrix = full_table(PowerFunction(f, d), which)
    assert table_to_csv(matrix, f) == _csv_oracle(matrix, f)
    for dd in (d, None):
        assert table_to_json(matrix, f, which, dd) == _json_oracle(matrix, f, which, dd)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (7, 2), (11, 2), (13, 1)])
def test_element_labels_match_scalar_labels(p, n):
    f = Field(p, n)
    assert element_labels(f) == [f.element(i).label for i in range(f.order)]


def test_table_blocks_are_bounded_row_blocks(monkeypatch):
    monkeypatch.setattr(spectra, "_BLOCK", 100)
    f = Field(2, 5)
    rng = random.Random(8)
    for fn in (PowerFunction(f, 7), LookupFunction(f, [rng.randrange(32) for _ in range(32)])):
        for which in ("ddt", "sozd"):
            blocks = list(table_blocks(fn, which))
            assert all(b.dtype == np.int64 and b.ndim == 2 and b.shape[1] == 32
                       and b.size <= max(100, 32) for b in blocks)
            assert sum(len(b) for b in blocks) == 32
    # the kind is checked when the blocks are asked for, not when read
    with pytest.raises(ValueError):
        table_blocks(PowerFunction(Field(3, 2), 5), "fbct")
    with pytest.raises(ValueError):
        table_blocks(PowerFunction(f, 7), "bct")


def test_emission_of_lookup_table_and_bad_matrices():
    f = Field(2, 4)
    rng = random.Random(4)
    matrix = full_table(LookupFunction(f, [rng.randrange(16) for _ in range(16)]), "sozd")
    assert table_to_csv(matrix, f) == _csv_oracle(matrix, f)
    assert table_to_json(matrix, f, "sozd") == _json_oracle(matrix, f, "sozd", None)
    # a narrow dtype: q = 128 and the counts 0..128 fit in uint8
    f7 = Field(2, 7)
    narrow = full_table(PowerFunction(f7, 7), "sozd").astype(np.uint8)
    assert table_to_csv(narrow, f7) == _csv_oracle(narrow, f7)
    for bad in (-1 - matrix, matrix + 17, matrix.astype(float), matrix[:-1]):
        with pytest.raises(ValueError):
            table_to_csv(bad, f)
        with pytest.raises(ValueError):
            table_to_json(bad, f, "sozd")


def test_spectrum_summary_json():
    f = Field(3, 2)
    summary = sozd_spectrum(PowerFunction(f, 5))
    payload = json.loads(summary.to_json())
    assert payload == {"histogram": {"1": 48, "3": 16}, "uniformity": 3,
                       "admissible": "a != 0, b != 0"}
    assert admissible_descriptor(Field(2, 3)) == "a != 0, b != 0, a != b"
