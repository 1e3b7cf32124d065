"""Difference tables and second-order zero differential spectra.

For a function F on GF(p^n) this module computes, by full enumeration:

* the difference distribution table  |{x : F(x+a) - F(x) = b}|,
* the second-order zero differential counts
  |{x : F(x+a+b) - F(x+b) - F(x+a) + F(x) = 0}|,
* (p = 2 only) the Feistel boomerang connectivity table, whose entries
  coincide with the second-order counts because the signs vanish,

together with the derived uniformities, histogram summaries, a
structural property check for the char-2 table, and CSV/JSON emission.

Counting one (a, b) entry directly is O(q) for q = p^n, one formula for
every p: indices add and subtract only through FieldTables, so nothing
here branches on the characteristic to do arithmetic.  Whole rows come
from one kernel: with g = D_aF, the row a of both tables follows from
the fibers of g, at a cost of sum_v DDT(a, v)^2 pair evaluations.  A
power map needs only row a = 1, because its counts are invariant under
(a, b) -> (ca, cb); its spectrum costs that one row, and its full tables
one row plus a gather.  Any other function costs q rows per table,
computed one after another on the calling thread.

Tables are produced and written a block of rows at a time
(table_blocks, table_csv, table_json): each entry picks a fixed-width,
zero-padded cell holding its decimal string and separator, and the
padding is dropped from each block's bytes, so emission holds at most
one block of the q x q table and never a string per entry.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator

import numpy as np

from .gf import Field, FieldElement


class PowerFunction:
    """The power map x -> x^d on a field, with 0^d = 0 for every d >= 1
    (d read with operator.index)."""

    __slots__ = ("field", "d", "_rows")

    def __init__(self, field: Field, d: int):
        d = operator.index(d)
        if d < 1:
            raise ValueError(f"exponent must be >= 1, got {d}")
        self.field = field
        self.d = d

    def __call__(self, e: FieldElement) -> FieldElement:
        return self.field.element(e) ** self.d

    def values(self) -> np.ndarray:
        """Value table over all elements in canonical order."""
        return self.field.tables.pow_map(self.d)

    def __repr__(self) -> str:
        return f"x^{self.d} over {self.field!r}"


class LookupFunction:
    """An arbitrary function on a field given by its value table.

    Used for structural testing of non-power maps; the table lists the
    image of every element in canonical index order.
    """

    __slots__ = ("field", "_values")

    def __init__(self, field: Field, values):
        vals = field.tables.index_array(list(values))
        if vals.shape != (field.order,):
            raise ValueError(f"value table must have length {field.order}")
        vals.setflags(write=False)
        self.field = field
        self._values = vals

    def __call__(self, e: FieldElement) -> FieldElement:
        return FieldElement(self.field, int(self._values[self.field.index(e)]))

    def values(self) -> np.ndarray:
        return self._values

    def __repr__(self) -> str:
        return f"lookup function over {self.field!r}"


# ---------------------------------------------------------------------------
# entry kernels
# ---------------------------------------------------------------------------

class _PairCounter:
    """Counts second-order zero solutions for one (a, b) pair, vectorized
    over x, as the positions where F(x+a+b) + F(x) = F(x+b) + F(x+a): one
    formula for every p.  This is the direct per-entry path, independent
    of the row kernel below."""

    def __init__(self, fn):
        self.tables = fn.field.tables
        self.values = fn.values()

    def count(self, ia: int, ib: int) -> int:
        t = self.tables
        v = self.values
        x = t.indices
        lhs = t.add_vec(v[t.add_vec(x, t.add_vec(ia, ib))], v)
        rhs = t.add_vec(v[t.add_vec(x, ib)], v[t.add_vec(x, ia)])
        return int(np.count_nonzero(lhs == rhs))


def _diff_vec(fn, ia: int) -> np.ndarray:
    """D_aF(x) = F(x+a) - F(x) at every x, as element indices."""
    tables = fn.field.tables
    values = fn.values()
    return tables.sub_vec(values[tables.add_vec(tables.indices, ia)], values)


def _ddt_row(fn, ia: int) -> np.ndarray:
    return np.bincount(_diff_vec(fn, ia), minlength=fn.field.order)


#: Elements per numpy temporary in the row kernel and the table gather.
_BLOCK = 1 << 18


def _fiber_row(fn, ia: int) -> tuple[np.ndarray, np.ndarray]:
    """The DDT row and the second-order row of a, from one pass over g = D_aF.

    The second-order count of (a, b) is |{x : g(x+b) = g(x)}|, the number
    of ordered pairs (x, y) in one fiber of g with y - x = b.  Fibers of
    equal size s are stacked into (k, s) blocks and their differences
    counted in (k, s, s) slabs of at most _BLOCK pairs, so the row costs
    sum_v DDT(a, v)^2 <= q * delta pair evaluations.
    """
    field = fn.field
    q = field.order
    if ia == 0:
        ddt = np.zeros(q, dtype=np.int64)
        ddt[0] = q
        return ddt, np.full(q, q, dtype=np.int64)
    g = _diff_vec(fn, ia)
    ddt = np.bincount(g, minlength=q)
    by_value = np.argsort(g)  # the order inside a fiber does not matter
    sizes = ddt[ddt > 0]
    starts = np.cumsum(sizes) - sizes
    row = np.zeros(q, dtype=np.int64)
    for s in np.flatnonzero(np.bincount(sizes)).tolist():
        fibers = by_value[starts[sizes == s][:, None] + np.arange(s)]
        k = max(1, _BLOCK // (s * s))
        c = min(s, max(1, _BLOCK // s))
        for i in range(0, len(fibers), k):
            ys = fibers[i:i + k]
            for j in range(0, s, c):
                d = field.tables.sub_vec(ys[:, None, :], ys[:, j:j + c, None])
                row += np.bincount(d.ravel(), minlength=q)
    return ddt, row


def power_rows(fn: "PowerFunction") -> tuple[np.ndarray, np.ndarray]:
    """_fiber_row(fn, 1), computed on first use and kept on fn: the DDT
    row and the second-order row of a = 1.

    For F(x) = x^d, substituting x -> cx shows that the second-order
    count of (ca, cb) equals that of (a, b), and DDT(ca, c^d b) equals
    DDT(a, b), for every c != 0.  Row a = 1 therefore fixes every entry.
    Computing it is idempotent, so concurrent first calls need no lock.
    """
    rows = getattr(fn, "_rows", None)
    if rows is None:
        rows = fn._rows = _fiber_row(fn, 1)
    return rows


def make_sozd_counter(fn) -> Callable[[int, int], int]:
    """A reusable (a_idx, b_idx) -> count closure, one pair per call.

    For a power map the count is read from row 1 at b/a; any other
    function is counted entry by entry.  closedform.verify_theorem no
    longer uses it (it reads row 1 by index array); the tests and the
    benchmark's traced replay do, as the per-pair side.
    """
    if not isinstance(fn, PowerFunction):
        return _PairCounter(fn).count
    q = fn.field.order
    m = q - 1
    row = power_rows(fn)[1].tolist()
    exp, log = fn.field.tables.explog
    exp, log = exp[:m].tolist(), log.tolist()

    def count(ia: int, ib: int) -> int:
        if ia == 0 or ib == 0:
            return q
        return row[exp[(log[ib] - log[ia]) % m]]

    return count


# ---------------------------------------------------------------------------
# public entry/uniformity operations
# ---------------------------------------------------------------------------

def ddt_entry(fn, a, b) -> int:
    """|{x : F(x+a) - F(x) = b}| by full enumeration."""
    ia, ib = fn.field.index(a), fn.field.index(b)
    return int(_ddt_row(fn, ia)[ib])


def differential_uniformity(fn) -> int:
    """Max DDT entry over a != 0 (all b)."""
    field = fn.field
    if field.order < 2:
        raise ValueError("field too small")
    if isinstance(fn, PowerFunction):
        # every row a != 0 permutes the columns of row 1
        return int(power_rows(fn)[0].max())
    return max(int(_ddt_row(fn, ia).max()) for ia in range(1, field.order))


def sozd_entry(fn, a, b) -> int:
    """|{x : F(x+a+b) - F(x+b) - F(x+a) + F(x) = 0}| by full enumeration."""
    ia, ib = fn.field.index(a), fn.field.index(b)
    return _PairCounter(fn).count(ia, ib)


def fbct_entry(fn, a, b) -> int:
    """Feistel boomerang table entry; defined in characteristic 2 only,
    where it equals the second-order zero differential count."""
    if fn.field.p != 2:
        raise ValueError("the Feistel boomerang table requires characteristic 2")
    return sozd_entry(fn, a, b)


def admissible_descriptor(field: Field) -> str:
    """The pairs over which the second-order uniformity is taken."""
    if field.p == 2:
        return "a != 0, b != 0, a != b"
    return "a != 0, b != 0"


@dataclass(frozen=True)
class SpectrumSummary:
    """Histogram of second-order counts over the admissible (a, b) set."""

    histogram: dict[int, int]
    uniformity: int
    admissible: str

    def total_pairs(self) -> int:
        return sum(self.histogram.values())

    def to_dict(self) -> dict:
        hist = {str(k): self.histogram[k] for k in sorted(self.histogram)}
        return {"histogram": hist, "uniformity": self.uniformity,
                "admissible": self.admissible}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def sozd_spectrum(fn) -> SpectrumSummary:
    """Histogram and max of the second-order counts over admissible pairs."""
    field = fn.field
    q = field.order
    char2 = field.p == 2
    counts = np.zeros(q + 1, dtype=np.int64)
    if isinstance(fn, PowerFunction):
        # (a, b) -> b/a maps the admissible pairs (q-1)-to-one onto the
        # nonzero ratios, excluding 1 when p = 2
        row = power_rows(fn)[1]
        counts += (q - 1) * np.bincount(np.delete(row, [0, 1] if char2 else [0]),
                                        minlength=q + 1)
    else:
        for ia in range(1, q):
            row = _fiber_row(fn, ia)[1]
            counts += np.bincount(np.delete(row, [0, ia] if char2 else [0]),
                                  minlength=q + 1)
    hist = {c: k for c, k in enumerate(counts.tolist()) if k}
    uniformity = max(hist) if hist else 0
    return SpectrumSummary(hist, uniformity, admissible_descriptor(field))


def sozd_uniformity(fn) -> int:
    return sozd_spectrum(fn).uniformity


# ---------------------------------------------------------------------------
# full tables
# ---------------------------------------------------------------------------

TABLE_KINDS = ("ddt", "fbct", "sozd")


def evaluation_estimate(field: Field, which: str) -> int:
    """Point evaluations of a full table by per-entry counting (q^2 for
    the DDT, q^3 otherwise).  The row kernel needs far fewer; only the
    benchmark's traced replay still reads this figure.
    """
    q = field.order
    return q * q if which == "ddt" else q * q * q


def table_blocks(fn, which: str) -> Iterator[np.ndarray]:
    """The q x q table of `which`, rows and columns in canonical order, as
    int64 blocks of whole rows with at most max(_BLOCK, q) entries each.

    The kind is checked and the kernel runs when this is called; only the
    gather is left to the iteration.  For a power map, entry (a, b) of a
    row a != 0 is row1[b * a^-e] (e = d for the DDT, 1 otherwise), read in
    log coordinates; any other function yields one kernel row at a time.
    """
    if which not in TABLE_KINDS:
        raise ValueError(f"unknown table kind {which!r}; expected one of {TABLE_KINDS}")
    field = fn.field
    if which == "fbct" and field.p != 2:
        raise ValueError("the Feistel boomerang table requires characteristic 2")
    q = field.order
    if not isinstance(fn, PowerFunction):
        return ((_ddt_row(fn, ia) if which == "ddt" else _fiber_row(fn, ia)[1])[None]
                for ia in range(q))
    ddt1, sozd1 = power_rows(fn)
    if which == "ddt":
        row0, row1, e = _fiber_row(fn, 0)[0], ddt1, fn.d
    else:
        row0, row1, e = np.full(q, q, dtype=np.int64), sozd1, 1
    m = q - 1
    exp, log = field.tables.explog
    cyclic = row1[exp[:2 * m]]
    log_b = log[1:]
    shift = (-(e % m) * log_b) % m
    step = max(1, _BLOCK // q)

    def gather():
        yield row0[None]
        for a in range(0, m, step):
            s = shift[a:a + step, None]
            block = np.empty((len(s), q), dtype=np.int64)
            block[:, 0] = row1[0]
            block[:, 1:] = cyclic[s + log_b]
            yield block

    return gather()


def full_table(fn, which: str, threads: int | None = None) -> np.ndarray:
    """Full q x q table of counts: the blocks of table_blocks stacked.

    `threads` is accepted for compatibility and ignored.
    """
    return np.concatenate(list(table_blocks(fn, which)))


# ---------------------------------------------------------------------------
# FBCT property suite
# ---------------------------------------------------------------------------

@dataclass
class PropertyCheck:
    name: str
    holds: bool
    counterexample: tuple | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d = {"name": self.name, "holds": self.holds}
        if self.counterexample is not None:
            d["counterexample"] = list(self.counterexample)
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class PropertySuiteReport:
    """Results of the six structural checks on a full char-2 table."""

    checks: list[PropertyCheck]
    literal_equalities: PropertyCheck = dc_field(default=None)  # informational

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [c.to_dict() for c in self.checks],
                "literal_equalities": self.literal_equalities.to_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _first_bad(mask: np.ndarray) -> tuple | None:
    bad = np.argwhere(~mask)
    return tuple(int(v) for v in bad[0]) if bad.size else None


def fbct_property_suite(fn) -> PropertySuiteReport:
    """Check the standard structural identities of the char-2 table.

    The last identity is checked as FBCT(a,b) = FBCT(a,a+b), which holds
    because replacing x by x+a permutes the four summands.  The variant
    FBCT(a,a) = FBCT(a,a+b) is evaluated too but reported separately: it
    would force every row to be constant and looks like a misprint of
    the row-shift identity.
    """
    field = fn.field
    if field.p != 2:
        raise ValueError("the property suite requires characteristic 2")
    q = field.order
    m = full_table(fn, "fbct")
    x = np.arange(q)
    shifted = m[x[:, None], x[:, None] ^ x[None, :]]  # FBCT(a, a^b)

    checks = [
        PropertyCheck("symmetry", bool((m == m.T).all()), _first_bad(m == m.T)),
        PropertyCheck("multiplicity_mod_4", bool((m % 4 == 0).all()), _first_bad(m % 4 == 0)),
        PropertyCheck("first_line", bool((m[0, :] == q).all())),
        PropertyCheck("first_column", bool((m[:, 0] == q).all())),
        PropertyCheck("diagonal", bool((np.diag(m) == q).all())),
        PropertyCheck("equalities_row_shift", bool((m == shifted).all()),
                      _first_bad(m == shifted)),
    ]
    lit_mask = np.diag(m)[:, None] == shifted
    literal = PropertyCheck(
        "equalities_literal", bool(lit_mask.all()), _first_bad(lit_mask),
        note=("variant FBCT(a,a) = FBCT(a,a+b); fails whenever a row is not "
              "constant and is recorded as a suspected misprint of the "
              "row-shift identity FBCT(a,b) = FBCT(a,a+b)"),
    )
    return PropertySuiteReport(checks, literal)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def element_labels(field: Field) -> list[str]:
    """FieldElement.label of every element in index order, from one gather
    of the base-p digits i // p^k % p into fixed-width cells."""
    p, q = field.p, field.order
    digits = np.arange(q)[:, None] // p ** np.arange(field.n) % p
    digits[:, -1] += p  # the last digit's cell ends the label
    sep = "." if p > 10 else ""
    cells = np.array([f"{v}{sep}" for v in range(p)] + [f"{v}," for v in range(p)],
                     dtype=bytes)
    return cells[digits].tobytes().translate(None, b"\0").decode().split(",")[:-1]


def _cells(q: int, pre: str, sep: str, end: str) -> np.ndarray:
    """Zero-padded fixed-width cells pre + str(v) + sep for the counts v
    in 0..q, then the same cells ending in `end`, for a row's last entry."""
    values = [str(v) for v in range(q + 1)]
    return np.array([pre + v + sep for v in values] + [pre + v + end for v in values],
                    dtype=bytes)


def _row_bytes(blocks, cells: np.ndarray, lead: np.ndarray) -> Iterator[bytes]:
    """Each block of rows as bytes: per row its lead cell, then one cell per
    entry from the first half of `cells` and the row's last from the second
    half; the zero padding of the cells is dropped at the end."""
    cells, row_ends = np.split(cells, 2)
    a = 0
    for block in blocks:
        k = len(block)
        body = np.take(cells, block)
        body[:, -1] = np.take(row_ends, block[:, -1])
        out = np.concatenate((lead[a:a + k].view(np.uint8).reshape(k, -1),
                              body.view(np.uint8).reshape(k, -1)), axis=1)
        a += k
        yield out.tobytes().translate(None, b"\0")


def table_csv(blocks, field: Field) -> Iterator[bytes]:
    """CSV of a table given as row blocks: a header row of element
    labels, then each row after its label."""
    labels = element_labels(field)
    yield ("a\\b," + ",".join(labels) + "\n").encode()
    yield from _row_bytes(blocks, _cells(field.order, "", ",", "\n"),
                          np.array([s + "," for s in labels], dtype=bytes))


def table_json(blocks, field: Field, which: str, d: int | None = None) -> Iterator[bytes]:
    """The payload as json.dumps(..., indent=2) writes it, for a table
    given as row blocks.  Only the small fields go through json.dumps; the
    rows are written in its layout (one entry per line, six spaces deep)
    between the halves of that skeleton."""
    payload = {
        "table": which,
        "field": {"p": field.p, "n": field.n, "modulus": list(field.modulus)},
        "labels": element_labels(field),
        "rows": [],
    }
    if d is not None:
        payload["d"] = d
    # "rows": [] occurs once: inside a JSON string every quote is escaped
    head, tail = json.dumps(payload, indent=2).split('"rows": []')
    yield (head + '"rows": [\n').encode()
    lead = np.full(field.order, b"    ],\n    [\n")
    lead[0] = b"    [\n"
    yield from _row_bytes(blocks, _cells(field.order, "      ", ",\n", "\n"), lead)
    yield ("    ]\n  ]" + tail + "\n").encode()


def _matrix_blocks(matrix: np.ndarray, field: Field):
    """Row blocks of a q x q matrix of counts."""
    q = field.order
    if matrix.shape != (q, q):
        raise ValueError("matrix shape does not match the field order")
    if matrix.dtype.kind not in "iu" or matrix.min() < 0 or matrix.max() > q:
        raise ValueError(f"table entries must be integer counts in 0..{q}")
    step = max(1, _BLOCK // q)
    return (matrix[a:a + step] for a in range(0, q, step))


def table_to_csv(matrix: np.ndarray, field: Field) -> str:
    """table_csv of a whole matrix, as one string."""
    return b"".join(table_csv(_matrix_blocks(matrix, field), field)).decode()


def table_to_json(matrix: np.ndarray, field: Field, which: str, d: int | None = None) -> str:
    """table_json of a whole matrix, as one string."""
    return b"".join(table_json(_matrix_blocks(matrix, field), field, which, d)).decode()
