"""Entrywise predictors for second-order zero differential counts of four
power-map families, and the harness that verifies them against exhaustive
counting.

Each predictor answers in time polynomial in n (field degree), while the
brute-force side enumerates all p^n points per pair, so agreement between
the two is a genuine two-path check.  The harness judges each ratio a/b
once for all (a, b) pairs (or a seeded sample), records mismatches and
entries the predictor declines to predict, and derives the uniformity.

Predictor ids (used by the CLI verify command):

* "3.1"  x^7 over GF(2^n)
* "3.2"  x^(2^(m+1)+3) over GF(2^n), m = n // 2
* "4.1"  x^5 over GF(p^n), p odd, p != 5
* "4.2"  x^7 over GF(3^n)
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field

from .equations import gf2_eliminate
from .gf import Field, FieldElement
from . import spectra

#: Largest field order verified pair-by-pair before sampling kicks in.
FULL_THRESHOLD = 1 << 12
#: Sampled pairs used above the threshold.
DEFAULT_SAMPLE = 10_000


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
    cols = []
    for j in range(n):
        y = FieldElement(field, 1 << j)
        img = ca * y.frobenius(m + 1) + cb * (y * y) + cc * y
        cols.append(img.idx)
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
    eta = field.quadratic_character(-(a * a + b * b))
    if eta == 1:
        return PredictionOutcome(3, "eta(-(a^2+b^2)) = +1")
    if eta == -1:
        return PredictionOutcome(1, "eta(-(a^2+b^2)) = -1")
    return PredictionOutcome(None, "eta argument is 0 (a^2+b^2 = 0)")


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
    if field.n % 2 == 1:
        if s.is_zero:
            raise RuntimeError("a^2+b^2 = 0 cannot happen for odd n (eta(-1) = -1)")
        eta = field.quadratic_character(s.inverse())
        if eta == 1:
            return PredictionOutcome(1, "eta(1/(a^2+b^2)) = +1")
        return PredictionOutcome(3, "eta(1/(a^2+b^2)) = -1")
    if s.is_zero:
        if a == b:
            raise RuntimeError("a = b forces a^2+b^2 = -a^2 != 0 over GF(3^n)")
        return PredictionOutcome(1, "a^2+b^2 = 0, a != b")
    eta = field.quadratic_character(s.inverse())
    if eta == -1:
        return PredictionOutcome(1, "eta(1/(a^2+b^2)) = -1")
    return PredictionOutcome(3, "eta(1/(a^2+b^2)) = +1")


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
    "3.1": _Theorem("3.1", lambda f: 7, _check_31, predict_x7_char2, lambda f: 4),
    "3.2": _Theorem("3.2", lambda f: 2 ** (f.n // 2 + 1) + 3, _check_32, predict_x2m1p3,
                    lambda f: 2 ** (f.n // 2) if f.n % 2 == 0 else 4),
    "4.1": _Theorem("4.1", lambda f: 5, _check_41, predict_x5_oddp, lambda f: 3),
    "4.2": _Theorem("4.2", lambda f: 7, _check_42, predict_x7_p3, lambda f: 3),
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


def verify_theorem(theorem: str, field: Field, *, sample: int | None = None,
                   seed: int | None = None) -> VerificationReport:
    """Compare a predictor against brute-force counts over (a, b) pairs.

    Prediction and count see a pair with ab != 0 only through a/b, so
    each ratio class and each pair with a zero is judged once.  Full mode
    (q <= FULL_THRESHOLD, no sample forced) judges one pair (c, 1) for the
    q - 1 pairs (ct, t) of each ratio c: 3q - 2 judgments for q^2 pairs.
    Otherwise `sample` pairs (default DEFAULT_SAMPLE; below 1 raises
    ValueError) are drawn with the recorded seed.  Unpredicted entries are
    brute-forced and listed apart; both lists hold every pair, sorted.
    """
    spec = THEOREMS.get(str(theorem))
    if spec is None:
        raise ValueError(f"unknown predictor id {theorem!r}; known: {theorem_ids()}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample size must be at least 1, got {sample}")
    notes = spec.check(field)
    d = spec.exponent(field)
    q = field.order
    tables = field.tables
    counter = spectra.make_sozd_counter(spectra.PowerFunction(field, d))
    log = tables._explog[1].tolist()

    if sample is None and q <= FULL_THRESHOLD:
        mode, seed_used = "full", None
        pairs = ([(0, t) for t in range(q)] + [(t, 0) for t in range(1, q)]
                 + [(c, 1) for c in tables._explog[0].tolist()])
        total = q * q
    else:
        mode = "sampled"
        total = sample if sample is not None else DEFAULT_SAMPLE
        seed_used = seed if seed is not None else 0
        rng = random.Random(seed_used)
        pairs = ((rng.randrange(q), rng.randrange(q)) for _ in range(total))

    # key: the discrete log of a/b when ab != 0, else the pair itself
    judged: dict[object, tuple[PredictionOutcome, int]] = {}
    mismatches: list[Mismatch] = []
    unpredicted: list[tuple[int, int, int]] = []
    for ia, ib in pairs:
        key = (log[ia] - log[ib]) % (q - 1) if ia and ib else (ia, ib)
        if key not in judged:
            judged[key] = (spec.predict(field, ia, ib), counter(ia, ib))
        outcome, actual = judged[key]
        if outcome.count == actual:
            continue
        members = ([(ia, ib)] if mode == "sampled" or not (ia and ib) else
                   zip(tables.mul_vec(tables.indices[1:], ia).tolist(), range(1, q)))
        for a, b in members:
            if outcome.unpredicted:
                unpredicted.append((a, b, actual))
            else:
                mismatches.append(Mismatch(a, b, outcome.count, actual, outcome.case))
    # admissible: ab != 0, and a != b (the class of log 0) in characteristic 2
    uniformity = max((actual for key, (_, actual) in judged.items()
                      if type(key) is int and (key or field.p != 2)), default=0)

    mismatches.sort(key=lambda m: (m.a, m.b))
    unpredicted.sort()
    return VerificationReport(
        theorem=spec.id, field=field, d=d, mode=mode, pairs_checked=total,
        mismatches=mismatches, unpredicted=unpredicted, uniformity=uniformity,
        expected_uniformity=spec.expected_uniformity(field), seed=seed_used,
        notes=notes,
    )
