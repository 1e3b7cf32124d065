"""Entrywise predictors for second-order zero differential counts of four
power-map families, and the harness that verifies them against exhaustive
counting.

Each theorem has two forms.  The scalar predict_* is the per-pair
statement: one (a, b), Field arithmetic, a PredictionOutcome.  The array
form predict_*_vec is the harness path: index arrays a and b in, and the
counts (-1 where unpredicted) and case ids into the theorem's case tuple
out, computed on FieldTables in one numpy pass.  The tests hold the two
forms equal on every ratio class.  For 3.1, 4.1 and 4.2 the two forms are
one formula in two idioms.  For 3.2 they are different computations: the
scalar form solves the derived affine equation by GF(2) elimination, the
array form decides it by two traces, so each checks the other.

Each count is read by homogeneity from row a = 1 of the power map, which
spectra counts exactly, so agreement between prediction and count is a
genuine two-path check.  The harness judges each ratio a/b once for all
(a, b) pairs (or a seeded sample) in one array-form call, records
mismatches and entries the predictor declines to predict, and derives
the uniformity.

Predictor ids (used by the CLI verify command):

* "3.1"  x^7 over GF(2^n)
* "3.2"  x^(2^(m+1)+3) over GF(2^n), m = n // 2
* "4.1"  x^5 over GF(p^n), p odd, p != 5
* "4.2"  x^7 over GF(3^n)
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .equations import gf2_eliminate
from .gf import Field, FieldElement
from . import spectra

#: Largest field order verified pair-by-pair before sampling kicks in.
FULL_THRESHOLD = 1 << 12
#: Sampled pairs used above the threshold.
DEFAULT_SAMPLE = 10_000
#: Pairs drawn per chunk in sampled mode, which bounds its memory.
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class PredictionOutcome:
    """Predicted count for one (a, b) pair, or None when the hypotheses do
    not determine the entry (resolved by brute force in the harness)."""

    count: int | None
    case: str

    @property
    def unpredicted(self) -> bool:
        return self.count is None


def _degenerate_char2(a: FieldElement, b: FieldElement) -> bool:
    return a.is_zero or b.is_zero or a == b


def _log_ratio(tables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(log a - log b) mod (q - 1): the discrete log of a/b where ab != 0,
    and some valid exponent elsewhere."""
    log = tables.explog[1]
    return (log[a] - log[b]) % (tables.q - 1)


def _sum_of_squares(tables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return tables.add_vec(tables.mul_vec(a, a), tables.mul_vec(b, b))


# ---------------------------------------------------------------------------
# x^7 over GF(2^n)
# ---------------------------------------------------------------------------

def predict_x7_char2(field: Field, a, b) -> PredictionOutcome:
    """Count prediction for x^7 in characteristic 2 (id "3.1").

    Degenerate pairs give 2^n; for n even, a/b a root of c^2 + c + 1
    gives 4; otherwise the entry is 4 exactly when the three trace
    arguments built from a0 = (c^2+c+1)^2 all have absolute trace 0.
    """
    if field.p != 2:
        raise ValueError("requires characteristic 2")
    a, b = field.element(a), field.element(b)
    if _degenerate_char2(a, b):
        return PredictionOutcome(field.order, "ab(a+b) = 0")
    c = a / b
    t = c * c + c + 1
    if t.is_zero:
        # only possible for n even; c is a cube root of unity
        return PredictionOutcome(4, "a/b root of c^2+c+1")
    # c is outside {0, 1}, so a1 = c^2 + c is invertible; the trace
    # arguments are w z^2 for the companion-cubic roots z = 1, c, c + 1
    a1 = c * c + c
    w = t * t / (a1 * a1)
    tr = field.tables.trace1
    if not (tr[w.idx] or tr[(w * c * c).idx] or tr[(w * (c + 1) * (c + 1)).idx]):
        return PredictionOutcome(4, "all three traces vanish")
    return PredictionOutcome(0, "some trace is 1")


X7_CHAR2_CASES = ("ab(a+b) = 0", "a/b root of c^2+c+1", "all three traces vanish",
                  "some trace is 1")


def predict_x7_char2_vec(field: Field, a, b) -> tuple[np.ndarray, np.ndarray]:
    """predict_x7_char2 over index arrays: (counts, case ids into
    X7_CHAR2_CASES).  In log coordinates, with c = a/b and
    t = c^2 + c + 1, the trace arguments w, w c^2 and w (c + 1)^2 have
    log w = 2 (log t - log c - log(c + 1))."""
    if field.p != 2:
        raise ValueError("requires characteristic 2")
    tables = field.tables
    a, b = tables.index_array(a), tables.index_array(b)
    exp, log = tables.explog
    m = field.order - 1
    lc = _log_ratio(tables, a, b)
    c = exp[lc]
    lc1 = log[c ^ 1]
    t = tables.mul_vec(c, c) ^ c ^ 1
    lw = 2 * (log[t] - lc - lc1)
    tr = tables.trace1
    traces = tr[exp[lw % m]] | tr[exp[(lw + 2 * lc) % m]] | tr[exp[(lw + 2 * lc1) % m]]
    case_ids = np.select([(a == 0) | (b == 0) | (a == b), t == 0, traces == 0],
                         [0, 1, 2], 3)
    return np.array([field.order, 4, 4, 0])[case_ids], case_ids


# ---------------------------------------------------------------------------
# x^(2^(m+1)+3) over GF(2^n)
# ---------------------------------------------------------------------------

def _second_order_affine_count(field: Field, c: FieldElement, m: int) -> int:
    """Exact solution count of the derived affine equation

        (c^2+c) y^(2^(m+1)) + (c^Q+c) y^2 + (c^Q+c^2) y = (c^Q+c)(c^2+c+1),

    Q = 2^(m+1), which the second-order equation of x^(2^(m+1)+3)
    reduces to after dividing out b.  Solved as a GF(2)-linear system on
    coefficient vectors: the count is 0 or 2^(n - rank)."""
    n = field.n
    ca = c * c + c
    cq = c.frobenius(m + 1)
    cb = cq + c
    cc = cq + c * c
    rhs = (cb * (c * c + c + 1)).idx
    basis = [FieldElement(field, 1 << j) for j in range(n)]
    cols = [(ca * y.frobenius(m + 1) + cb * (y * y) + cc * y).idx for y in basis]
    pivots = gf2_eliminate(cols, rhs, n)
    return 0 if pivots is None else 1 << (n - len(pivots))


def predict_x2m1p3(field: Field, a, b) -> PredictionOutcome:
    """Count prediction for x^(2^(m+1)+3), m = n // 2 (id "3.2").

    Degenerate pairs give 2^n.  For n = 2m, a/b inside GF(2^m) gives
    2^m, and a root of c^2 + c + 1 gives 4.  The remaining entries are
    4 or 0; they are decided by exact solvability of the affine
    equation the reduction produces, because the published trace test
    on a0 does not separate the two outcomes (its quartic always splits;
    the squared substitution in the reduction admits extraneous roots).
    The equation is solved by elimination here; predict_x2m1p3_vec
    decides it by two traces instead.
    """
    if field.p != 2:
        raise ValueError("requires characteristic 2")
    n = field.n
    m = n // 2
    if m < 1:
        raise ValueError("needs n >= 2")
    a, b = field.element(a), field.element(b)
    if _degenerate_char2(a, b):
        return PredictionOutcome(field.order, "ab(a+b) = 0")
    c = a / b
    count = _second_order_affine_count(field, c, m)
    if n % 2 == 0 and c.frobenius(m) == c:
        if count != 2 ** m:
            raise RuntimeError("subfield case must contribute 2^m solutions")
        return PredictionOutcome(count, "a/b in the half-degree subfield")
    if (c * c + c + 1).is_zero:
        if count != 4:
            raise RuntimeError("c^2+c+1 = 0 case must contribute 4 solutions")
        return PredictionOutcome(count, "a/b root of c^2+c+1")
    case = ("affine equation solvable" if count else "affine equation inconsistent")
    return PredictionOutcome(count, case)


X2M1P3_CASES = ("ab(a+b) = 0", "a/b in the half-degree subfield", "a/b root of c^2+c+1",
                "affine equation solvable", "affine equation inconsistent")


def predict_x2m1p3_vec(field: Field, a, b) -> tuple[np.ndarray, np.ndarray]:
    """predict_x2m1p3 over index arrays: (counts, case ids into
    X2M1P3_CASES), by two traces instead of an elimination.

    The affine equation L(y) = r, r = (c^Q + c)(c^2 + c + 1), is
    solvable exactly when Tr(r z) = 0 on the kernel of the trace-form
    adjoint of L.  Off the subfield classes that kernel is spanned by
    z1 and z1 w, and ker L = {0, 1, c, c + 1}, so the count is 4 when
    Tr(r z1) = Tr(r z1 w) = 0 and 0 otherwise.  For odd n,
    z1 = 1/((c^Q + c)(c^Q + c^2)) and w = c^Q, so r z1 =
    (c^2 + c + 1)/(c^Q + c^2); for even n, z1 = (c^(2^m) + c)^-3 and
    w = c^(2^m).  Both traces are read in log coordinates."""
    if field.p != 2:
        raise ValueError("requires characteristic 2")
    n = field.n
    m = n // 2
    if m < 1:
        raise ValueError("needs n >= 2")
    tables = field.tables
    a, b = tables.index_array(a), tables.index_array(b)
    exp, log = tables.explog
    mod = field.order - 1
    lc = _log_ratio(tables, a, b)
    c, c2 = exp[lc], exp[2 * lc]
    lq = lc * 2 ** (m + 1) % mod
    t = c2 ^ c ^ 1
    if n % 2:
        lw = lq
        lrz = log[t] - log[exp[lq] ^ c2]
        sub = np.zeros(len(c), dtype=bool)
    else:
        lw = lc * 2 ** m % mod
        h = exp[lw] ^ c
        lrz = log[exp[lq] ^ c] + log[t] - 3 * log[h]
        sub = h == 0
    # a zero under log (t, h, or c^Q + c for c a cube root of unity) only
    # occurs on the degenerate, subfield and c^2+c+1 classes, which the
    # case order decides first
    tr = tables.trace1
    traces = tr[exp[lrz % mod]] | tr[exp[(lrz + lw) % mod]]
    case_ids = np.select([(a == 0) | (b == 0) | (a == b), sub, t == 0, traces == 0],
                         [0, 1, 2, 3], 4)
    return np.array([field.order, 2 ** m, 4, 4, 0])[case_ids], case_ids


# ---------------------------------------------------------------------------
# x^5 over GF(p^n), p odd and p != 5
# ---------------------------------------------------------------------------

def predict_x5_oddp(field: Field, a, b) -> PredictionOutcome:
    """Count prediction for x^5 in odd characteristic != 5 (id "4.1").

    ab = 0 gives p^n; otherwise the quadratic character of -(a^2+b^2)
    picks 3 (+1) or 1 (-1).  A zero character argument (possible when
    -1 is a square) is outside the stated trichotomy and is returned as
    unpredicted for the harness to brute-force.
    """
    if field.p == 2:
        raise ValueError("requires odd characteristic")
    if field.p == 5:
        raise ValueError("p = 5 is excluded (the exponent collapses)")
    a, b = field.element(a), field.element(b)
    if a.is_zero or b.is_zero:
        return PredictionOutcome(field.order, "ab = 0")
    eta = field.tables.quadchar[(-(a * a + b * b)).idx]
    if eta == 1:
        return PredictionOutcome(3, "eta(-(a^2+b^2)) = +1")
    if eta == -1:
        return PredictionOutcome(1, "eta(-(a^2+b^2)) = -1")
    return PredictionOutcome(None, "eta argument is 0 (a^2+b^2 = 0)")


X5_ODDP_CASES = ("ab = 0", "eta(-(a^2+b^2)) = +1", "eta(-(a^2+b^2)) = -1",
                 "eta argument is 0 (a^2+b^2 = 0)")


def predict_x5_oddp_vec(field: Field, a, b) -> tuple[np.ndarray, np.ndarray]:
    """predict_x5_oddp over index arrays: (counts, case ids into
    X5_ODDP_CASES), count -1 where unpredicted."""
    if field.p == 2:
        raise ValueError("requires odd characteristic")
    if field.p == 5:
        raise ValueError("p = 5 is excluded (the exponent collapses)")
    tables = field.tables
    a, b = tables.index_array(a), tables.index_array(b)
    eta = tables.quadchar[tables.sub_vec(0, _sum_of_squares(tables, a, b))]
    case_ids = np.select([(a == 0) | (b == 0), eta == 1, eta == -1], [0, 1, 2], 3)
    return np.array([field.order, 3, 1, -1])[case_ids], case_ids


# ---------------------------------------------------------------------------
# x^7 over GF(3^n)
# ---------------------------------------------------------------------------

def predict_x7_p3(field: Field, a, b) -> PredictionOutcome:
    """Count prediction for x^7 over GF(3^n) (id "4.2").

    ab = 0 gives 3^n.  For odd n (where a^2 + b^2 cannot vanish) the
    character of 1/(a^2+b^2) picks 1 (+1) or 3 (-1).  For even n the
    extra case a^2 + b^2 = 0 (with a != b, automatic here) gives 1.
    """
    if field.p != 3:
        raise ValueError("requires characteristic 3")
    a, b = field.element(a), field.element(b)
    if a.is_zero or b.is_zero:
        return PredictionOutcome(field.order, "ab = 0")
    s = a * a + b * b
    # eta(1/s) = eta(s), as eta is multiplicative with values +-1
    eta = field.tables.quadchar[s.idx]
    if field.n % 2 == 1:
        if s.is_zero:
            raise RuntimeError("a^2+b^2 = 0 cannot happen for odd n (eta(-1) = -1)")
        if eta == 1:
            return PredictionOutcome(1, "eta(1/(a^2+b^2)) = +1")
        return PredictionOutcome(3, "eta(1/(a^2+b^2)) = -1")
    if s.is_zero:
        if a == b:
            raise RuntimeError("a = b forces a^2+b^2 = -a^2 != 0 over GF(3^n)")
        return PredictionOutcome(1, "a^2+b^2 = 0, a != b")
    if eta == -1:
        return PredictionOutcome(1, "eta(1/(a^2+b^2)) = -1")
    return PredictionOutcome(3, "eta(1/(a^2+b^2)) = +1")


X7_P3_CASES = ("ab = 0", "eta(1/(a^2+b^2)) = +1", "eta(1/(a^2+b^2)) = -1",
               "a^2+b^2 = 0, a != b")


def predict_x7_p3_vec(field: Field, a, b) -> tuple[np.ndarray, np.ndarray]:
    """predict_x7_p3 over index arrays: (counts, case ids into
    X7_P3_CASES), with the same consistency raises."""
    if field.p != 3:
        raise ValueError("requires characteristic 3")
    tables = field.tables
    a, b = tables.index_array(a), tables.index_array(b)
    s = _sum_of_squares(tables, a, b)
    zero = (a == 0) | (b == 0)
    vanish = ~zero & (s == 0)
    if field.n % 2 == 1 and vanish.any():
        raise RuntimeError("a^2+b^2 = 0 cannot happen for odd n (eta(-1) = -1)")
    if (vanish & (a == b)).any():
        raise RuntimeError("a = b forces a^2+b^2 = -a^2 != 0 over GF(3^n)")
    case_ids = np.select([zero, vanish, tables.quadchar[s] == 1], [0, 3, 1], 2)
    per_case = [field.order, 1, 3, 1] if field.n % 2 == 1 else [field.order, 3, 1, 1]
    return np.array(per_case)[case_ids], case_ids


# ---------------------------------------------------------------------------
# the x^7 bound in odd characteristic
# ---------------------------------------------------------------------------

def bound_x7_oddp(field: Field) -> int:
    """Observed second-order zero differential uniformity of x^7 for
    p > 3, p != 7; raises if it ever exceeds the degree bound 5.

    No closed form is implemented for these fields: the reduced equation
    has degree 5, which bounds every admissible entry by 5.
    """
    if field.p in (2, 3):
        raise ValueError("requires p > 3")
    if field.p == 7:
        raise ValueError("p = 7 is excluded (x^7 is the Frobenius, hence linear)")
    observed = spectra.sozd_uniformity(spectra.PowerFunction(field, 7))
    if observed > 5:
        raise RuntimeError(f"observed uniformity {observed} exceeds the degree bound 5")
    return observed


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Theorem:
    id: str
    exponent: object          # field -> d
    check: object             # field -> list of notes, raises on violation
    predict: object           # (field, a, b) -> PredictionOutcome
    predict_vec: object       # (field, a, b) -> (counts, case ids into cases)
    cases: tuple[str, ...]
    expected_uniformity: object  # field -> int


def _check_31(field: Field) -> list[str]:
    if field.p != 2:
        raise ValueError("id 3.1 needs characteristic 2")
    if field.n < 2:
        raise ValueError("id 3.1 needs n >= 2")
    if field.n < 4:
        return ["n < 4 is outside the stated range; results are informational"]
    return []


def _check_32(field: Field) -> list[str]:
    if field.p != 2:
        raise ValueError("id 3.2 needs characteristic 2")
    if field.n < 4:
        raise ValueError("id 3.2 needs n >= 4 (m = n // 2 >= 2)")
    notes = ["generic entries decided by affine-equation solvability; the "
             "published trace test does not separate the 4 and 0 outcomes"]
    if field.n // 2 < 5:
        notes.append("m < 5 is below the motivating parameter range; "
                     "recorded as informational")
    if field.n % 2 == 1:
        notes.append("for n = 2m+1 the subfield-exclusion condition on a/b "
                     "is vacuous: GF(2^m) meets this field in GF(2)")
    return notes


def _check_41(field: Field) -> list[str]:
    if field.p == 2:
        raise ValueError("id 4.1 needs odd characteristic")
    if field.p == 5:
        raise ValueError("id 4.1 excludes p = 5")
    if field.order % 4 == 1:
        return ["-1 is a square, so a^2+b^2 = 0 entries exist; they are "
                "brute-forced and listed as unpredicted"]
    return []


def _check_42(field: Field) -> list[str]:
    if field.p != 3:
        raise ValueError("id 4.2 needs characteristic 3")
    return []


THEOREMS: dict[str, _Theorem] = {
    "3.1": _Theorem("3.1", lambda f: 7, _check_31, predict_x7_char2,
                    predict_x7_char2_vec, X7_CHAR2_CASES, lambda f: 4),
    "3.2": _Theorem("3.2", lambda f: 2 ** (f.n // 2 + 1) + 3, _check_32, predict_x2m1p3,
                    predict_x2m1p3_vec, X2M1P3_CASES,
                    lambda f: 2 ** (f.n // 2) if f.n % 2 == 0 else 4),
    "4.1": _Theorem("4.1", lambda f: 5, _check_41, predict_x5_oddp,
                    predict_x5_oddp_vec, X5_ODDP_CASES, lambda f: 3),
    "4.2": _Theorem("4.2", lambda f: 7, _check_42, predict_x7_p3,
                    predict_x7_p3_vec, X7_P3_CASES, lambda f: 3),
}


def theorem_ids() -> list[str]:
    return sorted(THEOREMS)


@dataclass
class Mismatch:
    a: int
    b: int
    predicted: int
    actual: int
    case: str


@dataclass
class VerificationReport:
    """Outcome of comparing one predictor against exhaustive counts."""

    theorem: str
    field: Field
    d: int
    mode: str                      # "full" | "sampled"
    pairs_checked: int
    mismatches: list[Mismatch]
    unpredicted: list[tuple[int, int, int]]   # (a, b, actual)
    uniformity: int
    expected_uniformity: int
    seed: int | None
    notes: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No mismatches, and (for full runs) the observed uniformity equals
        the predicted one."""
        if self.mismatches:
            return False
        if self.mode == "full":
            return self.uniformity == self.expected_uniformity
        return True

    def to_dict(self) -> dict:
        lab = lambda i: self.field.element(i).label
        return {
            "theorem": self.theorem,
            "field": {"p": self.field.p, "n": self.field.n,
                      "modulus": list(self.field.modulus)},
            "d": self.d,
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "mismatches": [
                {"a": lab(m.a), "b": lab(m.b), "predicted": m.predicted,
                 "actual": m.actual, "case": m.case}
                for m in self.mismatches
            ],
            "unpredicted": [
                {"a": lab(a), "b": lab(b), "actual": actual}
                for a, b, actual in self.unpredicted
            ],
            "uniformity": self.uniformity,
            "expected_uniformity": self.expected_uniformity,
            "seed": self.seed,
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _draws(q: int, total: int, seed: int):
    """The sampled (a, b) pairs, drawn as random.Random(seed).randrange(q)
    for a, then b, pair after pair, and yielded as index arrays of at most
    SAMPLE_CHUNK pairs."""
    rng = random.Random(seed)
    for start in range(0, total, SAMPLE_CHUNK):
        k = min(SAMPLE_CHUNK, total - start)
        flat = np.fromiter(map(rng.randrange, itertools.repeat(q, 2 * k)), np.int64, 2 * k)
        yield flat[0::2], flat[1::2]


def _class_keys(tables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The judgment key of each pair, in [0, 3q - 2): the discrete log of
    a/b when ab != 0, else q - 1 + b for (0, b) and 2q - 2 + a for (a, 0)."""
    q = tables.q
    return np.where(a == 0, q - 1 + b,
                    np.where(b == 0, 2 * q - 2 + a, _log_ratio(tables, a, b)))


def verify_theorem(theorem: str, field: Field, *, sample: int | None = None,
                   seed: int | None = None) -> VerificationReport:
    """Compare a predictor against brute-force counts over (a, b) pairs.

    Prediction and count see a pair with ab != 0 only through a/b, so
    each ratio class and each pair with a zero is judged once, by one
    call of the theorem's array form on one pair per key; the actual
    counts are read from row 1 of the power map at b/a.  Full mode
    (q <= FULL_THRESHOLD, no sample forced) judges one pair (c, 1) for the
    q - 1 pairs (ct, t) of each ratio c: 3q - 2 judgments for q^2 pairs.
    Otherwise `sample` pairs (default DEFAULT_SAMPLE; read with
    operator.index, and below 1 raises ValueError) are drawn with the
    recorded seed (default 0; also read with operator.index), in chunks
    of SAMPLE_CHUNK, and the first drawn pair of each key is judged.
    Unpredicted entries are brute-forced and listed apart; both lists
    hold every pair (every draw, in sampled mode), sorted.  The scalar
    predictor is the per-pair statement the tests hold this against.
    """
    spec = THEOREMS.get(str(theorem))
    if spec is None:
        raise ValueError(f"unknown predictor id {theorem!r}; known: {theorem_ids()}")
    if sample is not None:
        sample = operator.index(sample)
        if sample < 1:
            raise ValueError(f"sample size must be at least 1, got {sample}")
    seed = None if seed is None else operator.index(seed)
    notes = spec.check(field)
    d = spec.exponent(field)
    q = field.order
    m = q - 1
    tables = field.tables
    exp = tables.explog[0]

    if sample is None and q <= FULL_THRESHOLD:
        mode, seed_used, total = "full", None, q * q
        # one pair per key, in key order: (g^k, 1), then (0, b), then (a, 0)
        zeros = np.zeros(q, dtype=np.int64)
        rep_a = np.concatenate([exp[:m], zeros, tables.indices[1:]])
        rep_b = np.concatenate([np.ones(m, dtype=np.int64), tables.indices, zeros[1:]])
        keys = np.arange(3 * q - 2)
    else:
        mode = "sampled"
        total = sample if sample is not None else DEFAULT_SAMPLE
        seed_used = seed if seed is not None else 0
        first = np.full(3 * q - 2, -1, dtype=np.int64)  # first drawn a * q + b
        for a, b in _draws(q, total, seed_used):
            uniq, at = np.unique(_class_keys(tables, a, b), return_index=True)
            new = first[uniq] < 0
            first[uniq[new]] = (a * q + b)[at[new]]
        keys = np.flatnonzero(first >= 0)
        rep_a, rep_b = np.divmod(first[keys], q)

    counts, case_ids = spec.predict_vec(field, rep_a, rep_b)
    row1 = spectra.power_rows(spectra.PowerFunction(field, d))[1]
    ratio = keys < m
    actual = np.full(len(keys), q, dtype=np.int64)
    actual[ratio] = row1[exp[-keys[ratio] % m]]
    # admissible: ab != 0, and a != b (the class of log 0) in characteristic 2
    admissible = actual[ratio & ((keys != 0) | (field.p != 2))]
    uniformity = int(admissible.max()) if admissible.size else 0

    # list every pair of each key judged wrong, with the key's judgment slot
    bad = np.flatnonzero(counts != actual)
    parts = [(np.empty(0, dtype=np.int64),) * 3]
    if bad.size and mode == "sampled":
        slot = np.full(3 * q - 2, -1, dtype=np.int64)
        slot[keys[bad]] = bad
        for a, b in _draws(q, total, seed_used):
            i = slot[_class_keys(tables, a, b)]
            parts.append((a[i >= 0], b[i >= 0], i[i >= 0]))
    elif bad.size:
        # a ratio class c has the q - 1 pairs (ct, t); a pair with a zero, itself
        t = tables.indices[1:]
        parts += [(tables.mul_vec(t, rep_a[i]), t, np.full(m, i)) if keys[i] < m
                  else (rep_a[i:i + 1], rep_b[i:i + 1], np.array([i])) for i in bad.tolist()]
    la, lb, li = (np.concatenate(part) for part in zip(*parts))
    order = np.lexsort((lb, la))
    counts, actual, case_ids = counts.tolist(), actual.tolist(), case_ids.tolist()
    mismatches: list[Mismatch] = []
    unpredicted: list[tuple[int, int, int]] = []
    for a, b, i in zip(la[order].tolist(), lb[order].tolist(), li[order].tolist()):
        if counts[i] < 0:
            unpredicted.append((a, b, actual[i]))
        else:
            mismatches.append(Mismatch(a, b, counts[i], actual[i], spec.cases[case_ids[i]]))
    return VerificationReport(
        theorem=spec.id, field=field, d=d, mode=mode, pairs_checked=total,
        mismatches=mismatches, unpredicted=unpredicted, uniformity=uniformity,
        expected_uniformity=spec.expected_uniformity(field), seed=seed_used,
        notes=notes,
    )
