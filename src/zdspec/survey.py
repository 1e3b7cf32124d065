"""Catalog of power maps with published second-order zero differential
uniformities, re-checked by brute force at desk scale.

Each row instantiates one published claim at concrete (p, n, d).  The
expected column is the listed value (a set when the source lists
alternatives); observed is the brute-force uniformity under the standard
admissible set (a, b nonzero, and a != b in characteristic 2).  Rows
whose computation would exceed the evaluation budget are emitted as
"skipped: scale".

Several char-2 rows list the value 2, which cannot be a second-order
uniformity there (every admissible entry is divisible by 4); those rows
appear to quote differential uniformities instead and are reported as
honest mismatches, with a note.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .gf import Field, canonical_field
from .spectra import PowerFunction, sozd_uniformity

#: Point-evaluation budget for one row (q^2 pairs, q points each).
EVAL_BUDGET = 1 << 30

_MOD4 = ("listed value is not divisible by 4, so it cannot be a char-2 "
         "second-order uniformity; the published row appears to quote the "
         "differential uniformity")
_SMALL = "does not reproduce at this size; larger parameters presumably intended"


@dataclass(frozen=True)
class SurveyRow:
    key: str
    p: int
    n: int
    d: int
    condition: str
    expected: tuple[int, ...]
    note: str = ""

    @property
    def order(self) -> int:
        return self.p ** self.n


@dataclass(frozen=True)
class SurveyResult:
    row: SurveyRow
    observed: int | None
    status: str  # "match" | "mismatch" | "skipped: scale"

    def to_dict(self) -> dict:
        r = self.row
        return {"key": r.key, "p": r.p, "n": r.n, "d": r.d,
                "condition": r.condition,
                "expected": "|".join(str(v) for v in r.expected),
                "observed": self.observed, "status": self.status,
                "note": r.note}


CATALOG: tuple[SurveyRow, ...] = (
    # x^(2^n - 2), the inverse map
    SurveyRow("inv-n4", 2, 4, 14, "d = 2^n-2, n even", (4,)),
    SurveyRow("inv-n5", 2, 5, 30, "d = 2^n-2, n odd", (2,), _MOD4),
    SurveyRow("inv-n6", 2, 6, 62, "d = 2^n-2, n even", (4,)),
    SurveyRow("inv-n7", 2, 7, 126, "d = 2^n-2, n odd", (2,), _MOD4),
    SurveyRow("inv-n8", 2, 8, 254, "d = 2^n-2, n even", (4,)),
    # x^(2^k + 1)
    SurveyRow("gold-n5k1", 2, 5, 3, "d = 2^k+1, gcd(n,k) = 1", (2,), _MOD4),
    SurveyRow("gold-n6k2", 2, 6, 5, "d = 2^k+1, gcd(n,k) = 2", (4,),
              "observed entries reach 2^n: the map is quadratic, so its "
              "second-order differences are constant in x"),
    # x^(2^(2k) + 2^k + 1) with n = 4k
    SurveyRow("bl-k1", 2, 4, 7, "d = 2^(2k)+2^k+1, n = 4k, k = 1", (4,)),
    SurveyRow("bl-k2", 2, 8, 21, "d = 2^(2k)+2^k+1, n = 4k, k = 2", (16,)),
    SurveyRow("bl-k3", 2, 12, 4161, "d = 2^(2k)+2^k+1, n = 4k, k = 3", (64,)),
    # x^(2^(m+1) - 1)
    SurveyRow("expm1-n6", 2, 6, 15, "d = 2^(m+1)-1, n = 2m, m = 3", (8,)),
    SurveyRow("expm1-n7", 2, 7, 15, "d = 2^(m+1)-1, n = 2m+1, m = 3", (2,), _MOD4),
    # x^(2^m - 1)
    SurveyRow("expm-n7", 2, 7, 7, "d = 2^m-1, n = 2m+1, m = 3", (4,)),
    SurveyRow("expm-n8", 2, 8, 15, "d = 2^m-1, n = 2m, m = 4", (12,)),
    # x^21
    SurveyRow("d21-n5", 2, 5, 21, "d = 21, n odd", (4,)),
    SurveyRow("d21-n6", 2, 6, 21, "d = 21, n even", (16,)),
    # x^(2^n - 2^s) with n - s = 3
    SurveyRow("niho-n5", 2, 5, 28, "d = 2^n-2^s, n-s = 3, gcd(n,s+1) = 1", (4,)),
    SurveyRow("niho-n7", 2, 7, 112, "d = 2^n-2^s, n-s = 3, gcd(n,s+1) = 1", (4,)),
    # x^3, p > 3
    SurveyRow("cube-p5n1", 5, 1, 3, "d = 3, p > 3", (1,)),
    SurveyRow("cube-p7n2", 7, 2, 3, "d = 3, p > 3", (1,)),
    # x^(3^n - 3), n > 1 odd
    SurveyRow("p3cube-n3", 3, 3, 24, "d = 3^n-3, n > 1 odd", (2,)),
    # x^(p^n - 2), p > 3
    SurveyRow("pinv-p5n1", 5, 1, 3, "d = p^n-2, p^n = 2 mod 3", (1,)),
    SurveyRow("pinv-p11n1", 11, 1, 9, "d = p^n-2, p^n = 2 mod 3", (1,)),
    SurveyRow("pinv-p7n1", 7, 1, 5, "d = p^n-2, p^n = 1 mod 3", (3,)),
    SurveyRow("pinv-p13n1", 13, 1, 11, "d = p^n-2, p^n = 1 mod 3", (3,)),
    # x^(3^n - 2)
    SurveyRow("p3inv-n2", 3, 2, 7, "d = 3^n-2", (3,)),
    SurveyRow("p3inv-n3", 3, 3, 25, "d = 3^n-2", (3,)),
    # x^(p^m + 2) with n = 2m, p^m = 1 mod 3
    SurveyRow("pm2-p7", 7, 2, 9, "d = p^m+2, n = 2m, p^m = 1 mod 3", (1,)),
    SurveyRow("pm2-p13", 13, 2, 15, "d = p^m+2, n = 2m, p^m = 1 mod 3", (1,)),
    # x^4, p > 3, n > 1
    SurveyRow("quartic-p5", 5, 2, 4, "d = 4, p > 3, n > 1", (2,)),
    SurveyRow("quartic-p7", 7, 2, 4, "d = 4, p > 3, n > 1", (2,)),
    # x^((2 p^n - 1)/3), odd p (for p = 2 the listed value 1 is impossible:
    # char-2 counts are even)
    SurveyRow("third-p5n1", 5, 1, 3, "d = (2p^n-1)/3, p^n = 2 mod 3", (1,)),
    SurveyRow("third-p5n3", 5, 3, 83, "d = (2p^n-1)/3, p^n = 2 mod 3", (1,)),
    # x^((p^k + 1)/2) with gcd(2n, k) = 1
    SurveyRow("half-p11n1", 11, 1, 6, "d = (p^k+1)/2, gcd(2n,k) = 1", (4,), _SMALL),
    SurveyRow("half-p11n2", 11, 2, 6, "d = (p^k+1)/2, gcd(2n,k) = 1", (4,)),
    SurveyRow("half-p13n2", 13, 2, 7, "d = (p^k+1)/2, gcd(2n,k) = 1", (5,)),
    SurveyRow("half-p7n2", 7, 2, 4, "d = (p^k+1)/2, gcd(2n,k) = 1", (2,)),
    # x^((3^n-1)/2 + 2), n odd
    SurveyRow("p3mid-n3", 3, 3, 15, "d = (3^n-1)/2+2, n odd", (3,)),
    # x^(2*3^((n-1)/2) + 1), n odd
    SurveyRow("p3exp-n3", 3, 3, 7, "d = 2*3^((n-1)/2)+1, n odd", (3,)),
    SurveyRow("p3exp-n5", 3, 5, 19, "d = 2*3^((n-1)/2)+1, n odd", (3,)),
    # x^((p^n+1)/4 + (p^n-1)/2), p^n = 3 mod 8, and x^((p^n+1)/4), p^n = 7 mod 8
    SurveyRow("quarter-a", 3, 5, 182, "d = (p^n+1)/4+(p^n-1)/2, p^n = 3 mod 8",
              (8, 18), _SMALL),
    SurveyRow("quarter-b", 7, 3, 86, "d = (p^n+1)/4, p^n = 7 mod 8",
              (8, 18), _SMALL),
    # the four families this toolkit predicts entrywise
    SurveyRow("x7c2-n6", 2, 6, 7, "d = 7, char 2", (4,)),
    SurveyRow("x7c2-n7", 2, 7, 7, "d = 7, char 2", (4,)),
    SurveyRow("x2m3-n6", 2, 6, 19, "d = 2^(m+1)+3, n = 2m", (8,)),
    SurveyRow("x2m3-n7", 2, 7, 19, "d = 2^(m+1)+3, n = 2m+1", (4,)),
    SurveyRow("x5odd-p3n2", 3, 2, 5, "d = 5, p odd, p != 5", (3,)),
    SurveyRow("x5odd-p7n1", 7, 1, 5, "d = 5, p odd, p != 5", (3,)),
    SurveyRow("x7p3-n2", 3, 2, 7, "d = 7, p = 3", (3,)),
    SurveyRow("x7p3-n3", 3, 3, 7, "d = 7, p = 3", (3,)),
)


def catalog_keys() -> list[str]:
    return [row.key for row in CATALOG]


def run_survey(keys=None, *, cache_path: str | None = None) -> list[SurveyResult]:
    """Brute-force the selected catalog rows (all by default).

    Rows whose full scan would exceed EVAL_BUDGET point evaluations are
    returned as "skipped: scale" without being computed.  Each distinct
    (p, n) field is built once per call and shared by its rows.
    """
    if keys is None:
        rows = list(CATALOG)
    else:
        by_key = {row.key: row for row in CATALOG}
        missing = [k for k in keys if k not in by_key]
        if missing:
            raise ValueError(f"unknown survey row keys: {missing}; "
                             f"known: {catalog_keys()}")
        rows = [by_key[k] for k in keys]
    out = []
    fields: dict[tuple[int, int], Field] = {}  # fields are immutable: one per (p, n)
    for row in rows:
        q = row.order
        if q * q * q > EVAL_BUDGET:
            out.append(SurveyResult(row, None, "skipped: scale"))
            continue
        field = fields.get((row.p, row.n))
        if field is None:
            field = fields[row.p, row.n] = canonical_field(row.p, row.n, cache_path)
        observed = sozd_uniformity(PowerFunction(field, row.d))
        status = "match" if observed in row.expected else "mismatch"
        out.append(SurveyResult(row, observed, status))
    return out


def survey_to_csv(results: list[SurveyResult]) -> str:
    cols = ["key", "p", "n", "d", "condition", "expected", "observed",
            "status", "note"]
    lines = [",".join(cols)]
    for res in results:
        d = res.to_dict()
        vals = []
        for c in cols:
            v = d[c]
            v = "" if v is None else str(v)
            if "," in v:
                v = '"' + v.replace('"', '""') + '"'
            vals.append(v)
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def survey_to_json(results: list[SurveyResult]) -> str:
    return json.dumps([r.to_dict() for r in results], indent=2) + "\n"
