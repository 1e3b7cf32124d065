"""Equation solvers against their brute-force oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zdspec.gf import Field, FieldElement
from zdspec.equations import (
    CUBIC_SHAPES,
    QUARTIC_SHAPES,
    QuadraticChar2,
    QuarticEq,
    TrinomialEq,
    brute_factor_shape,
    brute_roots,
    classify_cubic,
    classify_quartic,
    gf2_eliminate,
    quadratic_batch,
    solve_quadratic_char2,
    solve_trinomial,
    solve_trinomial_linear,
    trinomial_solvability,
)


# ---------------------------------------------------------------------------
# brute_roots
# ---------------------------------------------------------------------------

def test_brute_roots_examples():
    f4 = Field(2, 2)
    assert brute_roots(f4, [0, 1, 1]) == {f4.zero, f4.one}   # x^2 + x
    assert brute_roots(f4, [1]) == frozenset()               # constant 1
    f16 = Field(2, 4)
    c = f16.element(7)
    # x^4 + (c^2+c+1) x^2 + (c^2+c) x factors as x(x+1)(x+c)(x+c+1)
    roots = brute_roots(f16, [f16.zero, c * c + c, c * c + c + 1, f16.zero, f16.one])
    assert roots == {f16.zero, f16.one, c, c + 1}


def test_brute_roots_matches_pointwise_evaluation():
    rng = random.Random(1)
    for p, n in [(2, 4), (3, 2), (5, 2)]:
        f = Field(p, n)
        for _ in range(20):
            coeffs = [f.element(rng.randrange(f.order)) for _ in range(4)]
            got = brute_roots(f, coeffs)
            want = set()
            for e in f:
                acc = f.zero
                for c in reversed(coeffs):
                    acc = acc * e + c
                if acc.is_zero:
                    want.add(e)
            assert got == want


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

def test_quadratic_spec_examples():
    f8 = Field(2, 3)
    one, zero = f8.one, f8.zero
    assert solve_quadratic_char2(QuadraticChar2(one, zero, one)) == {one}
    assert solve_quadratic_char2(QuadraticChar2(one, one, zero)) == {zero, one}
    c_bad = next(e for e in f8 if int(f8.tables.trace1[e.idx]) == 1)
    assert solve_quadratic_char2(QuadraticChar2(one, one, c_bad)) == frozenset()


def test_quadratic_rejects_bad_inputs():
    f8, f9 = Field(2, 3), Field(3, 2)
    with pytest.raises(ValueError):
        QuadraticChar2(f8.zero, f8.one, f8.one)
    with pytest.raises(ValueError):
        QuadraticChar2(f9.one, f9.one, f9.one)
    with pytest.raises(ValueError):
        QuadraticChar2(f8.one, f9.one, f8.one)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quadratic_exhaustive_small(n):
    """Every (a, b, c) with a != 0: solver output equals the brute oracle
    and the count follows the trace trichotomy."""
    f = Field(2, n)
    q = f.order
    tr = f.tables.trace1
    for ai in range(1, q):
        a = f.element(ai)
        for bi in range(q):
            b = f.element(bi)
            for ci in range(q):
                c = f.element(ci)
                roots = solve_quadratic_char2(QuadraticChar2(a, b, c))
                assert roots == brute_roots(f, [c, b, a])
                if bi == 0:
                    assert len(roots) == 1
                else:
                    t = a * c / (b * b)
                    assert len(roots) == (2 if int(tr[t.idx]) == 0 else 0)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_quadratic_sampled_large(n):
    f = Field(2, n)
    q = f.order
    rng = random.Random(n)
    for _ in range(200):
        a = f.element(rng.randrange(1, q))
        b = f.element(rng.randrange(q))
        c = f.element(rng.randrange(q))
        roots = solve_quadratic_char2(QuadraticChar2(a, b, c))
        assert roots == brute_roots(f, [c, b, a])


def test_quadratic_batch_matches_scalar_solver():
    f = Field(2, 6)
    q = f.order
    rng = random.Random(9)
    for _ in range(30):
        ai = rng.randrange(1, q)
        bi = rng.randrange(q)
        counts, r1, r2 = quadratic_batch(f, ai, bi)
        for ci in range(q):
            roots = solve_quadratic_char2(
                QuadraticChar2(f.element(ai), f.element(bi), f.element(ci)))
            got = {int(r1[ci]), int(r2[ci])} - {q}
            assert len(roots) == int(counts[ci])
            assert {e.idx for e in roots} == got


# ---------------------------------------------------------------------------
# trinomials
# ---------------------------------------------------------------------------

def test_trinomial_kernel_is_subfield():
    f = Field(2, 6)
    eq = TrinomialEq(f, 3, f.zero)
    roots = solve_trinomial(eq)
    assert roots == frozenset(f.subfield(3).elements())
    assert len(roots) == 8


def test_trinomial_no_roots_when_trace_nonzero():
    f = Field(2, 6)
    B = next(e for e in f if not f.trace(e, 3).is_zero)
    eq = TrinomialEq(f, 3, B)
    assert not trinomial_solvability(eq).is_zero
    assert solve_trinomial(eq) == frozenset()


def test_trinomial_n6_k3_derived_case():
    """B in GF(8) (so B + B^8 = 0): exactly 8 roots, all solving z^8+z = B."""
    f = Field(2, 6)
    for B in f.subfield(3).elements():
        eq = TrinomialEq(f, 3, B)
        roots = solve_trinomial(eq)
        assert len(roots) == 8
        for r in roots:
            assert r.frobenius(3) + r == B
        assert roots == brute_roots(f, [B.idx, 1, 0, 0, 0, 0, 0, 0, 1])


def test_trinomial_three_way_agreement_and_coset_structure():
    rng = random.Random(23)
    for _ in range(250):
        n = rng.choice([4, 5, 6, 8, 9, 10])
        f = Field(2, n)
        k = rng.randrange(1, n)
        eq = TrinomialEq(f, k, f.element(rng.randrange(f.order)))
        s1 = solve_trinomial(eq)
        s2 = solve_trinomial_linear(eq)
        poly = [eq.B.idx, 1] + [0] * (2 ** k - 2) + [1]
        s3 = brute_roots(f, poly)
        assert s1 == s2 == s3
        assert len(s1) in (0, 2 ** eq.d)
        if s1:
            base = next(iter(s1))
            for delta in f.subfield(eq.d).elements():
                assert base + delta in s1


@pytest.mark.parametrize("n", range(4, 11))
def test_trinomial_formula_equals_linear_solver_exhaustively(n):
    f = Field(2, n)
    for k in range(1, n):
        for B in f:
            eq = TrinomialEq(f, k, B)
            assert solve_trinomial(eq) == solve_trinomial_linear(eq)


def test_trinomial_solver_caches_only_trace_tables():
    """One solvable trinomial per k at 2^16 reads the trace table of each
    d = gcd(k, n) and caches no power map beyond the frob_map(1) that
    trace1 itself reads."""
    f = Field(2, 16)
    t = f.tables
    t.trace1
    powers = set(t._pow_cache)
    x = f.x
    for k in range(1, f.n):
        eq = TrinomialEq(f, k, x.frobenius(k) + x)
        roots = solve_trinomial(eq)
        assert x in roots and len(roots) == 2 ** eq.d
    assert set(t._pow_cache) == powers
    assert set(t._trace_cache) == {1, 2, 4, 8}


@st.composite
def gf2_systems(draw):
    n = draw(st.integers(1, 6))
    cols = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n))
    return cols, draw(st.integers(0, 2 ** n - 1)), n


@settings(max_examples=300, deadline=None)
@given(gf2_systems())
def test_gf2_eliminate_matches_enumeration(system):
    cols, rhs, n = system
    solutions = 0
    for y in range(2 ** n):
        image = 0
        for j in range(n):
            if (y >> j) & 1:
                image ^= cols[j]
        solutions += image == rhs
    pivots = gf2_eliminate(cols, rhs, n)
    if solutions == 0:
        assert pivots is None
    else:
        assert pivots is not None
        assert solutions == 2 ** (n - len(pivots))


def test_trinomial_validation():
    f = Field(2, 6)
    with pytest.raises(ValueError):
        TrinomialEq(f, 0, f.one)
    with pytest.raises(ValueError):
        TrinomialEq(f, 6, f.one)
    with pytest.raises(ValueError):
        TrinomialEq(Field(3, 2), 1, Field(3, 2).one)


# ---------------------------------------------------------------------------
# cubics and quartics
# ---------------------------------------------------------------------------

def test_cubic_spec_examples():
    f4, f8 = Field(2, 2), Field(2, 3)
    shape, roots = classify_cubic(f4.zero, f4.one)     # y^3 + 1 over GF(4)
    assert shape == (1, 1, 1) and len(roots) == 3
    shape, roots = classify_cubic(f8.zero, f8.one)     # y^3 + 1 over GF(8)
    assert shape == (1, 2) and roots == {f8.one}
    f64 = Field(2, 6)
    for ci in (2, 5, 9):
        c = f64.element(ci)
        shape, roots = classify_cubic(c * c + c + 1, c * c + c)
        assert shape == (1, 1, 1)
        assert roots == {f64.one, c, c + 1}


def test_cubic_degenerate_constant_term():
    f16 = Field(2, 4)
    a2 = f16.element(9)
    shape, roots = classify_cubic(a2, f16.zero)
    assert shape == (1, 1, 1)
    s = a2 ** (1 << 3)
    assert roots == {f16.zero, s}
    assert (s * s) == a2


@pytest.mark.parametrize("n", [3, 4])
def test_quartic_exhaustive_vs_shape_oracle(n):
    f = Field(2, n)
    q = f.order
    for a2 in range(q):
        for a1 in range(1, q):
            for a0 in range(1, q):
                eq = QuarticEq(f.element(a2), f.element(a1), f.element(a0))
                shape, roots = classify_quartic(eq)
                assert shape in QUARTIC_SHAPES
                assert shape == brute_factor_shape(f, [a0, a1, a2, 0, 1])
                assert len(roots) == shape.count(1)
                assert roots == brute_roots(f, [a0, a1, a2, 0, 1])


def test_quartic_sampled_f32():
    f = Field(2, 5)
    rng = random.Random(31)
    for _ in range(300):
        eq = QuarticEq(f.element(rng.randrange(f.order)),
                       f.element(rng.randrange(1, f.order)),
                       f.element(rng.randrange(1, f.order)))
        shape, roots = classify_quartic(eq)
        assert shape == brute_factor_shape(f, [eq.a0, eq.a1, eq.a2, f.zero, f.one])
        assert len(roots) == shape.count(1)


@pytest.mark.parametrize("n", [7, 10])
def test_quartic_shape_oracle_beyond_desk_scale_extensions(n):
    """The cubic extension GF(2^(3n)) is past DESK_SCALE_BOUND here; the
    oracle never builds it."""
    f = Field(2, n)
    rng = random.Random(700 + n)
    for _ in range(60):
        eq = QuarticEq(f.element(rng.randrange(f.order)),
                       f.element(rng.randrange(1, f.order)),
                       f.element(rng.randrange(1, f.order)))
        shape, _ = classify_quartic(eq)
        assert shape == brute_factor_shape(f, [eq.a0, eq.a1, eq.a2, f.zero, f.one])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cubic_exhaustive_vs_shape_oracle(n):
    f = Field(2, n)
    for a2 in range(f.order):
        for a1 in range(1, f.order):
            shape, _ = classify_cubic(f.element(a2), f.element(a1))
            assert shape == brute_factor_shape(f, [a1, a2, 0, 1])


def test_shape_oracle_decides_separability_by_the_derivative():
    """gcd(f, f') = 1 is the separability test, not a0 a1 != 0."""
    f = Field(2, 5)
    # (x + 3)^2 (x^2 + x + 1): a0 a1 != 0, but a repeated factor
    with pytest.raises(ValueError):
        brute_factor_shape(f, [5, 5, 4, 1, 1])
    rng = random.Random(5)
    for _ in range(20):  # (x + r)^2 (x + s) = x^3 + s x^2 + r^2 x + r^2 s
        r, s = f.element(rng.randrange(f.order)), f.element(rng.randrange(f.order))
        with pytest.raises(ValueError):
            brute_factor_shape(f, [r * r * s, r * r, s, 1])
    f = Field(2, 4)
    for a2 in f.elements():
        with pytest.raises(ValueError):  # x^2 (x^2 + a2)
            brute_factor_shape(f, [0, 0, a2, 0, 1])
        for a1 in f.elements()[1:]:  # x (x^3 + a2 x + a1) is separable
            cubic_shape, _ = classify_cubic(a2, a1)
            expected = tuple(sorted((1, *cubic_shape)))
            assert brute_factor_shape(f, [0, a1, a2, 0, 1]) == expected


@pytest.mark.parametrize("n", [5, 8])
def test_scalar_oracles_never_build_tables(n):
    """The oracles stay independent of the lookup tables they check."""
    f = Field(2, n)
    rng = random.Random(800 + n)
    for _ in range(4):
        a2, a1, a0 = (rng.randrange(f.order), rng.randrange(1, f.order),
                      rng.randrange(1, f.order))
        brute_factor_shape(f, [a0, a1, a2, 0, 1])
        brute_factor_shape(f, [a1, a2, 0, 1])
        for k in range(1, n):
            solve_trinomial_linear(TrinomialEq(f, k, rng.randrange(f.order)))
    assert f._tables is None


def test_quartic_single_root_is_one_three():
    """A quartic with exactly one root in the base field must be (1,3)."""
    f = Field(2, 4)
    rng = random.Random(4)
    seen = 0
    for _ in range(2000):
        eq = QuarticEq(f.element(rng.randrange(f.order)),
                       f.element(rng.randrange(1, f.order)),
                       f.element(rng.randrange(1, f.order)))
        shape, roots = classify_quartic(eq)
        if len(roots) == 1:
            assert shape == (1, 3)
            seen += 1
    assert seen > 0


def test_quartic_validation():
    f = Field(2, 4)
    with pytest.raises(ValueError):
        QuarticEq(f.one, f.zero, f.one)
    with pytest.raises(ValueError):
        QuarticEq(f.one, f.one, f.zero)


def test_cubic_trace_parity_is_even():
    """For a full-splitting companion cubic the three trace bits sum to 0,
    which is why only (1,1,1,1) and (2,2) occur."""
    f = Field(2, 6)
    tr = f.tables.trace1
    rng = random.Random(77)
    for _ in range(200):
        a2 = f.element(rng.randrange(f.order))
        a1 = f.element(rng.randrange(1, f.order))
        a0 = f.element(rng.randrange(1, f.order))
        shape, roots = classify_cubic(a2, a1)
        if shape != (1, 1, 1):
            continue
        bits = [int(tr[(a0 * r * r / (a1 * a1)).idx]) for r in roots]
        assert sum(bits) % 2 == 0


def test_shapes_are_the_documented_partitions():
    assert CUBIC_SHAPES == {(1, 1, 1), (1, 2), (3,)}
    assert QUARTIC_SHAPES == {(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)}
