"""Root solvers over GF(2^n) and the brute-force oracles that check them.

Each of the three families used by the closed-form predictors has a fast
solver on the field's lookup tables (exp/log products, trace tables) and
an independent oracle:

* quadratics a x^2 + b x + c: quadratic_batch, under
  solve_quadratic_char2, maps to y^2 + y = ac/b^2 and decides by the
  trace trichotomy; brute_roots evaluates the polynomial at every
  element, sharing only mul_vec and add_vec with the solver.
* affine trinomials z^(2^k) + z + B: solve_trinomial applies the
  summation formula with the subfield-trace test by table lookups;
  solve_trinomial_linear solves the GF(2)-linear system, its columns
  (x^(2^k))^j + x^j made with scalar Field arithmetic, by gf2_eliminate.
* quartics x^4 + a2 x^2 + a1 x + a0: classify_quartic reads the factor
  shape from the companion cubic y^3 + a2 y + a1 and absolute traces;
  brute_factor_shape counts roots in the degree-2 and degree-3
  extensions as the Frobenius gcd degrees of gf.frobenius_gcd_degrees,
  read through the Frobenius matrix on scalar index arithmetic.

The trinomial and quartic oracles never read field.tables.  Every solver
returns verified data: trinomial roots are substituted back, and the
quartic classifier checks its shape against the base-field root count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .gf import Field, FieldElement, frobenius_gcd_degrees, poly_gcd

CUBIC_SHAPES = frozenset({(1, 1, 1), (1, 2), (3,)})
QUARTIC_SHAPES = frozenset({(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)})


def _require_char2(field: Field) -> None:
    if field.p != 2:
        raise ValueError("solver requires characteristic 2")


def _same_field(*elems: FieldElement) -> Field:
    f = elems[0].field
    for e in elems[1:]:
        f.index(e)
    return f


@dataclass(frozen=True)
class QuadraticChar2:
    """a x^2 + b x + c over GF(2^n), a != 0."""

    a: FieldElement
    b: FieldElement
    c: FieldElement

    def __post_init__(self):
        f = _same_field(self.a, self.b, self.c)
        _require_char2(f)
        if self.a.is_zero:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def field(self) -> Field:
        return self.a.field


@dataclass(frozen=True)
class TrinomialEq:
    """z^(2^k) + z + B over GF(2^n), 0 < k < n."""

    field: Field
    k: int
    B: FieldElement

    def __post_init__(self):
        _require_char2(self.field)
        object.__setattr__(self, "k", operator.index(self.k))
        if not 0 < self.k < self.field.n:
            raise ValueError(f"k must satisfy 0 < k < {self.field.n}, got {self.k}")
        object.__setattr__(self, "B", self.field.element(self.B))

    @property
    def d(self) -> int:
        return math.gcd(self.k, self.field.n)

    @property
    def l(self) -> int:
        return self.field.n // self.d


@dataclass(frozen=True)
class QuarticEq:
    """x^4 + a2 x^2 + a1 x + a0 over GF(2^n) with a0 a1 != 0."""

    a2: FieldElement
    a1: FieldElement
    a0: FieldElement

    def __post_init__(self):
        f = _same_field(self.a2, self.a1, self.a0)
        _require_char2(f)
        if self.a0.is_zero or self.a1.is_zero:
            raise ValueError("a0 and a1 must both be nonzero")

    @property
    def field(self) -> Field:
        return self.a2.field


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def brute_roots(field: Field, coeffs) -> frozenset[FieldElement]:
    """Roots found by evaluating the polynomial at every field element.

    coeffs lists the coefficient of x^i at position i, each read with
    field.index.  The zero polynomial vanishes everywhere.
    """
    vals = field.tables.eval_poly([field.index(c) for c in coeffs])
    return frozenset(FieldElement(field, int(i)) for i in np.nonzero(vals == 0)[0])


def brute_factor_shape(field: Field, coeffs) -> tuple[int, ...]:
    """Factor shape of a monic separable cubic or quartic, decided purely by
    root counts in the base field and its quadratic and cubic extensions,
    read as deg gcd(f, x^(q^k) - x) from gf.frobenius_gcd_degrees."""
    _require_char2(field)
    elems = [field.element(c) for c in coeffs]
    deg = len(elems) - 1
    if deg not in (3, 4):
        raise ValueError("shape oracle handles cubics and quartics only")
    if elems[-1] != field.one:
        raise ValueError("polynomial must be monic")
    deriv = [e.idx if i % 2 else 0 for i, e in enumerate(elems)][1:]  # f' in char 2
    if len(poly_gcd(field, [e.idx for e in elems], deriv)) != 1:
        raise ValueError("shape oracle needs a separable polynomial, gcd(f, f') = 1")
    sig = tuple(frobenius_gcd_degrees(elems, 3))
    if deg == 3:
        table = {(3, 3, 3): (1, 1, 1), (1, 3, 1): (1, 2), (0, 0, 3): (3,)}
    else:
        table = {(4, 4, 4): (1, 1, 1, 1), (2, 4, 2): (1, 1, 2),
                 (1, 1, 4): (1, 3), (0, 4, 0): (2, 2), (0, 0, 0): (4,)}
    shape = table.get(sig)
    if shape is None:
        raise RuntimeError(f"unexpected extension root counts {sig}")
    return shape


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

def quadratic_batch(field: Field, a, b, c_indices=None):
    """Root data of a x^2 + b x + c for a vector of c values at once.

    a and b are read with field.index, c_indices with
    field.tables.index_array.  Returns (counts, root1, root2) arrays
    indexed like c_indices (all c in canonical order when omitted);
    absent roots hold the sentinel q.
    This is the kernel behind solve_quadratic_char2, exposed so that
    exhaustive sweeps stay vectorized.
    """
    _require_char2(field)
    t = field.tables
    q = field.order
    ia, ib = field.index(a), field.index(b)
    if ia == 0:
        raise ValueError("leading coefficient must be nonzero")
    C = t.indices if c_indices is None else t.index_array(c_indices)
    counts = np.zeros(C.shape, dtype=np.int64)
    r1 = np.full(C.shape, q, dtype=np.int64)
    r2 = np.full(C.shape, q, dtype=np.int64)
    if ib == 0:
        # unique root sqrt(c / a)
        counts[:] = 1
        r1 = t.sqrt_map[t.mul_vec(C, t.inv(ia))]
        return counts, r1, r2
    scale = t.mul(ia, t.inv(t.mul(ib, ib)))  # a / b^2
    ba = t.mul(ib, t.inv(ia))                # b / a
    arg = t.mul_vec(C, scale)
    solvable = t.trace1[arg] == 0
    y0 = t.artin_schreier[arg[solvable]]
    x0 = t.mul_vec(y0, ba)
    counts[solvable] = 2
    r1[solvable] = x0
    r2[solvable] = t.add_vec(x0, ba)
    return counts, r1, r2


def solve_quadratic_char2(eq: QuadraticChar2) -> frozenset[FieldElement]:
    """All roots of a x^2 + b x + c in the base field.

    The count follows the trace trichotomy: one root when b = 0, else
    two or zero as the absolute trace of ac/b^2 is 0 or 1.
    """
    counts, r1, r2 = quadratic_batch(eq.field, eq.a, eq.b, np.array([eq.c.idx]))
    return frozenset(FieldElement(eq.field, int(r[0])) for r in (r1, r2)[:int(counts[0])])


# ---------------------------------------------------------------------------
# affine trinomials z^(2^k) + z + B
# ---------------------------------------------------------------------------

def trinomial_solvability(eq: TrinomialEq) -> FieldElement:
    """The obstruction Tr from GF(2^n) onto GF(2^d) applied to B; the
    trinomial has roots exactly when this vanishes."""
    return FieldElement(eq.field, int(eq.field.tables.trace_map(eq.d)[eq.B.idx]))


def solve_trinomial(eq: TrinomialEq) -> frozenset[FieldElement]:
    """Roots of z^(2^k) + z + B via the explicit summation formula.

    Returns the empty set when the subfield trace of B is nonzero;
    otherwise a particular solution is built from the first canonical c
    with nonzero subfield trace, and the full 2^d-root coset x + GF(2^d)
    is verified by substitution before being returned.
    """
    field, k, B = eq.field, eq.k, eq.B.idx
    t = field.tables
    tr = t.trace_map(eq.d)
    if tr[B]:
        return frozenset()
    c = next((i for i in range(1, field.order) if tr[i]), None)
    if c is None:  # trace onto a proper subfield is surjective; unreachable
        raise RuntimeError("no element with nonzero subfield trace")
    inner = total = 0  # characteristic 2: xor adds indices
    for i in range(eq.l):
        inner ^= t.pow(c, 1 << (k * i))
        total ^= t.mul(inner, t.pow(B, 1 << (k * i)))
    x = t.mul(total, t.inv(int(tr[c])))
    # GF(2^d)* is the subgroup of the powers of g^((q - 1) / (2^d - 1))
    sub = t.explog[0][:t.q - 1:(t.q - 1) // ((1 << eq.d) - 1)].tolist()
    roots = [x ^ delta for delta in [0, *sub]]
    if any(t.pow(r, 1 << k) ^ r ^ B for r in roots):
        raise RuntimeError("summation formula produced a non-root")
    return frozenset(FieldElement(field, r) for r in roots)


def gf2_eliminate(cols, rhs: int, n: int) -> dict[int, tuple[int, int]] | None:
    """Row-reduce the GF(2) system sum_j y_j cols[j] = rhs in n unknowns.

    cols[j] and rhs are n-bit vectors packed into integers (bit i is row
    i).  Returns {pivot column: (row mask, rhs bit)}, where each row's
    lowest set bit is its pivot and no row has a bit at an earlier
    row's pivot, or None when the system is inconsistent.  There are
    then 2^(n - len(pivots)) solutions.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for i in range(n):
        mask = sum(1 << j for j in range(n) if (cols[j] >> i) & 1)
        r = (rhs >> i) & 1
        for pb, (pm, pr) in pivots.items():
            if (mask >> pb) & 1:
                mask ^= pm
                r ^= pr
        if mask:
            pivots[(mask & -mask).bit_length() - 1] = (mask, r)
        elif r:
            return None
    return pivots


def solve_trinomial_linear(eq: TrinomialEq) -> frozenset[FieldElement]:
    """Independent solver: z -> z^(2^k) + z as a GF(2)-linear map on
    coefficient vectors, solved by Gaussian elimination."""
    field, k, n = eq.field, eq.k, eq.field.n
    xk = field._pow_idx(2, 1 << k)  # (x^j)^(2^k) = (x^(2^k))^j
    powers = accumulate([xk] * (n - 1), field._mul_idx, initial=1)
    cols = [pj ^ (1 << j) for j, pj in enumerate(powers)]
    pivots = gf2_eliminate(cols, eq.B.idx, n)
    if pivots is None:
        return frozenset()
    free = [j for j in range(n) if j not in pivots]
    out = []
    for assign in range(1 << len(free)):
        v = sum(1 << j for t, j in enumerate(free) if (assign >> t) & 1)
        for pb in sorted(pivots, reverse=True):
            pm, pr = pivots[pb]
            if pr ^ ((pm & v) & ~(1 << pb)).bit_count() % 2:
                v |= 1 << pb
        out.append(FieldElement(field, v))
    return frozenset(out)


# ---------------------------------------------------------------------------
# cubics and quartics (factor shapes)
# ---------------------------------------------------------------------------

def classify_cubic(a2: FieldElement, a1: FieldElement):
    """Factor shape of y^3 + a2 y + a1 and its base-field roots.

    Root counting is exhaustive; with a1 = 0 the cubic is y (y + s)^2
    for s = sqrt(a2), which is three linear factors.
    """
    field = _same_field(a2, a1)
    _require_char2(field)
    if a1.is_zero:
        s = a2 ** (1 << (field.n - 1))  # square root
        return (1, 1, 1), frozenset({field.zero, s})
    roots = brute_roots(field, [a1, a2, field.zero, field.one])
    shape = {0: (3,), 1: (1, 2), 3: (1, 1, 1)}.get(len(roots))
    if shape is None:  # a1 != 0 makes the cubic separable
        raise RuntimeError(f"separable cubic with {len(roots)} roots")
    return shape, roots


def classify_quartic(eq: QuarticEq):
    """Factor shape of x^4 + a2 x^2 + a1 x + a0 and its base-field roots.

    The shape follows from the companion cubic y^3 + a2 y + a1: a cubic
    of shape (3) forces (1,3); shape (1,2) gives (1,1,2) or (4) as the
    trace of w1 = a0 r1^2 / a1^2 is 0 or 1; shape (1,1,1) gives
    (1,1,1,1) when all three traces vanish and (2,2) when exactly two
    are 1 (the trace sum is always even because the cubic roots sum to
    zero).  Root values come from the exhaustive scan and their number
    is checked against the shape's linear-factor count.
    """
    field = eq.field
    a2, a1, a0 = eq.a2, eq.a1, eq.a0
    cubic_shape, cubic_roots = classify_cubic(a2, a1)
    t = field.tables
    w0 = t.mul(a0.idx, t.inv(t.mul(a1.idx, a1.idx)))  # a0 / a1^2
    traces = sorted(int(t.trace1[t.mul(w0, t.mul(r.idx, r.idx))]) for r in cubic_roots)
    if cubic_shape == (3,):
        shape = (1, 3)
    elif cubic_shape == (1, 2):
        shape = (1, 1, 2) if traces == [0] else (4,)
    elif traces == [0, 0, 0]:
        shape = (1, 1, 1, 1)
    elif traces == [0, 1, 1]:
        shape = (2, 2)
    else:
        raise RuntimeError(f"trace parity violated: {traces}")
    roots = brute_roots(field, [a0, a1, a2, field.zero, field.one])
    if len(roots) != shape.count(1):
        raise RuntimeError(
            f"shape {shape} disagrees with {len(roots)} base-field roots")
    return shape, roots
