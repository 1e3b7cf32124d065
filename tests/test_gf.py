"""Field construction, canonical ordering, and arithmetic laws."""

import functools
import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zdspec import cli, gf
from zdspec.gf import (
    DESK_SCALE_BOUND,
    Field,
    canonical_field,
    append_field_cache,
    cache_line,
    find_irreducible,
    frobenius_gcd_degrees,
    irreducibility_oracle,
    is_irreducible,
    read_field_cache,
)


# ---------------------------------------------------------------------------
# modulus search
# ---------------------------------------------------------------------------

def test_find_irreducible_frozen_values():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)
    # classic choices for the common small fields
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (2, 8), (2, 11),
                                 (3, 1), (3, 3), (3, 5), (5, 2), (7, 2),
                                 (11, 2), (13, 1)])
def test_find_irreducible_passes_independent_oracle(p, n):
    mod = find_irreducible(p, n)
    assert irreducibility_oracle(mod, p)
    assert mod[-1] == 1


def test_find_irreducible_is_minimal():
    # no monic irreducible of the same degree has a smaller canonical index
    for p, n in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        mod = find_irreducible(p, n)
        found = sum(c * p ** i for i, c in enumerate(mod[:-1]))
        for k in range(found):
            cand = []
            rem = k
            for _ in range(n):
                cand.append(rem % p)
                rem //= p
            assert not irreducibility_oracle(tuple(cand) + (1,), p)


def test_find_irreducible_errors():
    with pytest.raises(ValueError):
        find_irreducible(4, 2)
    with pytest.raises(ValueError):
        find_irreducible(2, 0)
    with pytest.raises(ValueError):
        find_irreducible(2, 30)  # beyond the desk-scale bound


def test_two_irreducibility_tests_agree():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(2, 7)
        coeffs = [rng.randrange(p) for _ in range(n)] + [1]
        assert is_irreducible(coeffs, p) == irreducibility_oracle(coeffs, p)


@pytest.mark.parametrize("p,nmax", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_ben_or_agrees_with_trial_division_on_every_small_monic(p, nmax):
    for n in range(1, nmax + 1):
        for k in range(p ** n):
            coeffs = [k // p ** i % p for i in range(n)] + [1]
            assert is_irreducible(coeffs, p) == irreducibility_oracle(coeffs, p), coeffs


#: find_irreducible(p, n) for every field the benchmark and the survey
#: build, and for the largest fields of each characteristic in use.
CANONICAL_MODULI = {
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
    (2, 20): (1, 0, 0, 1) + (0,) * 16 + (1,),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 10): (1, 0, 2) + (0,) * 7 + (1,),
    (3, 12): (2, 0, 1) + (0,) * 9 + (1,),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 7): (1, 6, 0, 0, 0, 0, 0, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (13, 1): (0, 1),
    (13, 2): (2, 0, 1),
}


@pytest.mark.parametrize("p,n", sorted(CANONICAL_MODULI))
def test_canonical_moduli_are_pinned(p, n):
    assert find_irreducible(p, n) == CANONICAL_MODULI[p, n]


@pytest.mark.parametrize("p,n,count", [(3, 5, None), (5, 3, None), (7, 2, None),
                                       (13, 2, None), (3, 10, 2000)])
def test_norm_is_the_power_to_q_minus_1_over_p_minus_1(p, n, count):
    f = Field(p, n)
    e = (f.order - 1) // (p - 1)
    at = range(f.order) if count is None else random.Random(p ** n).sample(range(f.order), count)
    for c in at:
        assert f._norm_idx(c) == f._pow_idx(c, e), c


@pytest.mark.parametrize("p,n,g", [(3, 10, 34), (3, 12, 14), (7, 7, 14), (7, 3, 22),
                                   (11, 2, 15), (13, 2, 15), (5, 3, 9), (7, 2, 9),
                                   (5, 2, 6), (2, 8, 3), (2, 16, 3), (2, 20, 2)])
def test_generator_is_pinned_and_the_smallest_primitive(p, n, g):
    """The pinned generator is primitive by the scalar order test, which
    every smaller candidate fails."""
    from zdspec.fastfield import _prime_factors

    f = Field(p, n)
    assert f.tables.generator == g
    powers = [(f.order - 1) // r for r in _prime_factors(f.order - 1)]
    for c in range(1, g + 1):
        assert all(f._pow_idx(c, e) != 1 for e in powers) == (c == g), c


def test_char2_inverse_by_euclid_matches_fermat():
    for n in range(1, 11):
        f = Field(2, n)
        for i in range(1, f.order):
            assert f._inv_idx(i) == f._pow_idx(i, f.order - 2), (n, i)
    for n in (16, 20):
        f = Field(2, n)
        for i in random.Random(n).sample(range(1, f.order), 10_000):
            assert f._inv_idx(i) == f._pow_idx(i, f.order - 2), (n, i)


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_gcd_degrees_count_extension_roots(p):
    """Over Z_p, deg gcd(f, x^(p^k) - x) is the number of distinct roots of
    f in GF(p^k), found here by evaluating f on every element of that field
    (coefficients in Z_p have index == value in every extension)."""
    zp = Field(p, 1)
    exts = [Field(p, k) for k in range(1, 5)]
    rng = random.Random(40 + p)
    for _ in range(40):
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        counts = [int((ext.tables.eval_poly(coeffs) == 0).sum()) for ext in exts]
        assert frobenius_gcd_degrees([zp.scalar(c) for c in coeffs], 4) == counts


def _poly_product(field, factors):
    """Product of coefficient lists (constant term first) of field elements."""
    out = [field.one]
    for g in factors:
        prod = [field.zero] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] = prod[i + j] + a * b
        out = prod
    return out


@pytest.mark.parametrize("p,n", [(2, n) for n in range(2, 9)] + [(3, 2), (5, 1)])
def test_frobenius_gcd_degrees_from_known_factors(p, n):
    """Over GF(Q), deg gcd(f, x^(Q^k) - x) for a product f of distinct monic
    irreducibles is the sum of the factor degrees d with d | k.  The
    factors are made with scalar Field arithmetic alone: x + r; x^2 + x + c
    with Tr(c) = 1 (p = 2) or 1 - 4c a non-square (p odd); and cubics
    without a root, found by evaluating them at every element."""
    f = Field(p, n)
    elems = f.elements()
    if p == 2:
        quad = [c for c in elems if f.trace(c) == f.one]
    else:
        quad = [c for c in elems if f.quadratic_character(1 - 4 * c) == -1]
    rng = random.Random(300 + 10 * p + n)
    cubics = set()
    while len(cubics) < 3:
        g = tuple(rng.randrange(f.order) for _ in range(3))
        cubic = [f.element(c) for c in g] + [f.one]
        if all(((x + cubic[2]) * x + cubic[1]) * x + cubic[0] for x in elems):
            cubics.add(g)
    cubics = [[f.element(c) for c in g] + [f.one] for g in sorted(cubics)]
    for _ in range(10):
        factors = ([[-r, f.one] for r in rng.sample(elems, rng.randrange(4))]
                   + [[c, f.one, f.one] for c in rng.sample(quad, rng.randrange(3))]
                   + rng.sample(cubics, rng.randrange(3)))
        if not factors:
            continue
        degrees = [len(g) - 1 for g in factors]
        expected = [sum(d for d in degrees if k % d == 0) for k in range(1, 5)]
        assert frobenius_gcd_degrees(_poly_product(f, factors), 4) == expected


def test_poly_gcd_inverts_only_leads_other_than_one(monkeypatch):
    """gcd((X + 1)(X + w), c(X + 1)) = X + 1 over GF(2^4), w the element of
    index 2, on index lists: a monic divisor is used as it is, any other
    lead is inverted once."""
    f = Field(2, 4)
    inverted = []
    inv = Field._inv_idx
    monkeypatch.setattr(Field, "_inv_idx", lambda self, i: inverted.append(i) or inv(self, i))
    assert gf.poly_gcd(f, [2, 3, 1], [1, 1]) == [1, 1]
    assert inverted == []
    assert gf.poly_gcd(f, [2, 3, 1], [3, 3]) == [1, 1]
    assert inverted == [3]


# ---------------------------------------------------------------------------
# field validation
# ---------------------------------------------------------------------------

def test_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1, 0, 1))   # degree mismatch
    with pytest.raises(ValueError):
        Field(2, 3, (1, 0, 0, 1))   # x^3 + 1 is reducible
    with pytest.raises(ValueError):
        Field(3, 2, (1, 0, 2))      # not monic
    with pytest.raises(ValueError):
        Field(6, 1, (1, 1))         # composite characteristic
    with pytest.raises(ValueError, match=r"\[0, p\)"):
        Field(2, 3, (1, 3, 0, 1))   # x^3 + 3x + 1 has a coefficient outside Z_2
    with pytest.raises(ValueError, match="exceeds the bound"):
        Field(2, 21, find_irreducible(2, 21, max_order=1 << 21))


def test_field_rejects_float_modulus_coefficients():
    with pytest.raises(TypeError):
        Field(2, 3, (1, 1.9, 0, 1))  # would truncate to x^3 + x + 1
    with pytest.raises(TypeError):
        Field(2, 3, (1.0, 1, 0, 1))


def test_order_bound_is_checked_before_the_modulus(monkeypatch):
    import numpy as np

    def never(*args):
        raise AssertionError("irreducibility tested before the order bound")
    monkeypatch.setattr(gf, "is_irreducible", never)
    modulus = (1, 1) + (0,) * 61 + (1,)  # x^63 + x + 1
    with pytest.raises(ValueError, match="exceeds the bound"):
        Field(2, 63, modulus)
    with pytest.raises(ValueError, match="exceeds the bound"):
        Field(np.int64(2), 63, modulus)
    # np.int64(2) ** 64 wraps to 0, which would pass the bound
    with pytest.raises(ValueError, match="exceeds the bound"):
        find_irreducible(np.int64(2), 64)
    argv = ["table", "ddt", "2", "63", "3", "--modulus", ",".join(map(str, modulus))]
    assert cli.main(argv) == 2


@pytest.mark.parametrize("p,n", [
    (2305843009213693951, 1),  # the Mersenne prime 2^61 - 1: slow to test for primality
    (3, 10_000_000),           # 3^(10^7) is slow to compute
    (2, 64),
])
def test_out_of_bound_fields_are_refused_at_once(p, n, capsys):
    import time

    for build in (Field, find_irreducible):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the bound"):
            build(p, n)
        assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert cli.main(["field", str(p), str(n)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the bound" in capsys.readouterr().err


def test_field_parameters_are_read_as_python_ints():
    import numpy as np

    f = Field(np.int64(3), np.int64(2))
    assert type(f.p) is int and type(f.n) is int and f.order == 9
    assert find_irreducible(np.int64(3), np.int64(2)) == (1, 0, 1)
    with pytest.raises(TypeError):
        Field(3.0, 2)


def test_field_identity_is_read_only():
    f = Field(3, 2)
    for name in ("p", "n", "modulus", "order"):
        with pytest.raises(AttributeError):
            setattr(f, name, getattr(f, name))
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert (f.p, f.n, f.modulus, f.order) == (3, 2, (1, 0, 1), 9)


def test_field_order_bound_is_configurable():
    with pytest.raises(ValueError):
        Field(2, 21)
    assert Field(2, 21, max_order=1 << 21).order == 1 << 21
    assert DESK_SCALE_BOUND == 1 << 20


def test_equal_specs_define_identical_arithmetic():
    f1, f2 = Field(2, 3), Field(2, 3)
    assert f1 == f2 and hash(f1) == hash(f2)
    a = f1.element(5)
    b = f2.element(3)
    assert (a + b).idx == 6
    f3 = Field(2, 3, (1, 0, 1, 1))  # the other irreducible cubic
    assert f1 != f3
    with pytest.raises(ValueError):
        a + f3.element(3)


def test_elements_equal_only_elements_of_the_same_field():
    f1, f2 = Field(2, 3), Field(2, 3)
    assert f1.one != 3 and f1.one != 1 and f1.zero != 0
    assert f1.element(5) == f2.element(5)
    assert hash(f1.element(5)) == hash(f2.element(5))
    assert hash(f1.one) == hash(f2.element(1))
    assert f1.element(5) != Field(2, 3, (1, 0, 1, 1)).element(5)
    assert (f1.one + 1).is_zero  # arithmetic still reads ints as scalars


# ---------------------------------------------------------------------------
# canonical order and element encoding
# ---------------------------------------------------------------------------

def test_enumeration_is_canonical():
    f4 = Field(2, 2)
    assert [e.coeffs for e in f4] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    f2 = Field(2, 1)
    assert [e.idx for e in f2] == [0, 1]
    f9 = Field(3, 2)
    elems = f9.elements()
    assert len(elems) == 9
    assert elems[0].is_zero
    assert elems[5].coeffs == (2, 1)  # 5 = 2 + 1*3


def test_element_constructors_and_labels():
    f9 = Field(3, 2)
    assert f9.element([2, 1]).idx == 5
    assert f9.element(5).coeffs == (2, 1)
    assert f9.scalar(5).idx == 2
    assert f9.element(5).label == "21"
    f11 = Field(11, 2)
    assert f11.element([10, 3]).label == "10.3"
    with pytest.raises(ValueError):
        f9.element(9)
    with pytest.raises(ValueError):
        f9.element([1, 1, 1])


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_spec_arithmetic_examples():
    f8 = Field(2, 3)
    x = f8.x
    assert x + (x + 1) == f8.one
    assert x * x ** 2 == x + 1          # forced by x^3 = x + 1
    assert f8.one.inverse() == f8.one
    f9 = Field(3, 2)
    assert f9.element([2, 1]) + f9.element([2, 2]) == f9.one


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2),
                                 (3, 3), (2, 5), (2, 6)])
def test_field_axioms_exhaustive(p, n):
    """Associativity, commutativity and distributivity over every triple."""
    f = Field(p, n)
    q = f.order
    add, mul = f._add_idx, f._mul_idx
    for a in range(q):
        for b in range(q):
            ab_add = add(a, b)
            ab_mul = mul(a, b)
            assert ab_add == add(b, a)
            assert ab_mul == mul(b, a)
            for c in range(q):
                assert add(ab_add, c) == add(a, add(b, c))
                assert mul(ab_mul, c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(ab_mul, mul(a, c))


@pytest.mark.parametrize("p,n", [(2, 8), (3, 4), (11, 2), (13, 1), (7, 3)])
def test_field_axioms_randomized(p, n):
    f = Field(p, n)
    rng = random.Random(f.order)
    for _ in range(300):
        a, b, c = (f.element(rng.randrange(f.order)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == f.zero


def test_multiplication_against_naive_reference():
    """Cross-check index multiplication with list-based polynomial algebra."""

    def naive_mul(f, a, b):
        p, n = f.p, f.n
        da, db = list(a.coeffs), list(b.coeffs)
        prod = [0] * (2 * n - 1)
        for i in range(n):
            for j in range(n):
                prod[i + j] += da[i] * db[j]
        for deg in range(2 * n - 2, n - 1, -1):
            c = prod[deg] % p
            for t in range(n + 1):
                prod[deg - n + t] -= c * f.modulus[t]
        return tuple(v % p for v in prod[:n])

    rng = random.Random(3)
    for p, n in [(2, 5), (2, 8), (3, 3), (5, 2), (7, 2), (11, 2)]:
        f = Field(p, n)
        for _ in range(100):
            a = f.element(rng.randrange(f.order))
            b = f.element(rng.randrange(f.order))
            assert (a * b).coeffs == naive_mul(f, a, b)


def test_inverse_and_pow():
    for p, n in [(2, 4), (3, 3), (7, 2)]:
        f = Field(p, n)
        for e in f:
            if e.is_zero:
                with pytest.raises(ZeroDivisionError):
                    e.inverse()
                continue
            assert e * e.inverse() == f.one
            assert e ** (f.order - 1) == f.one   # Lagrange
        assert f.one ** 0 == f.one


# ---------------------------------------------------------------------------
# trace, Frobenius, quadratic character, subfields
# ---------------------------------------------------------------------------

def test_trace_examples():
    f4 = Field(2, 2)
    w = f4.x
    assert f4.trace(w) == f4.one
    assert f4.trace(f4.zero) == f4.zero
    f64 = Field(2, 6)
    for e in f64.subfield(3).elements():
        assert f64.trace(e, 3).is_zero  # doubling map in characteristic 2
    with pytest.raises(ValueError):
        f64.trace(f64.one, 4)


def test_trace_properties():
    rng = random.Random(17)
    for p, n, m in [(2, 6, 2), (2, 6, 3), (3, 4, 2), (2, 8, 4), (5, 2, 1)]:
        f = Field(p, n)
        for _ in range(60):
            e = f.element(rng.randrange(f.order))
            g = f.element(rng.randrange(f.order))
            t = f.trace(e, m)
            assert f.trace(e + g, m) == t + f.trace(g, m)
            assert f.trace(e.frobenius(m), m) == t
            assert t.frobenius(m) == t  # lands in the subfield


def test_frobenius():
    f4 = Field(2, 2)
    w = f4.x
    assert f4.frobenius(w) == w + 1
    for p, n in [(2, 6), (3, 3)]:
        f = Field(p, n)
        rng = random.Random(5)
        for _ in range(40):
            e = f.element(rng.randrange(f.order))
            assert e.frobenius(0) == e
            assert e.frobenius(n) == e
            assert e.frobenius(1).frobenius(1) == e.frobenius(2)


def test_quadratic_character():
    f9 = Field(3, 2)
    assert f9.quadratic_character(f9.one) == 1
    assert f9.quadratic_character(-f9.one) == 1   # 9 = 1 mod 4
    assert f9.quadratic_character(f9.zero) == 0
    g = f9.element(f9.tables.generator)
    assert f9.quadratic_character(g) == -1
    with pytest.raises(ValueError):
        Field(2, 3).quadratic_character(Field(2, 3).one)
    for p, n in [(3, 2), (3, 3), (5, 2), (7, 1), (11, 1)]:
        f = Field(p, n)
        chars = [f.quadratic_character(e) for e in f]
        assert chars.count(1) == (f.order - 1) // 2
        assert chars.count(0) == 1
        rng = random.Random(2)
        for _ in range(50):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(1, f.order))
            assert (f.quadratic_character(a * b)
                    == f.quadratic_character(a) * f.quadratic_character(b))


def test_subfield_map():
    f64 = Field(2, 6)
    for m, size in [(1, 2), (2, 4), (3, 8), (6, 64)]:
        sub = f64.subfield(m)
        assert len(sub.indices()) == size
        for e in sub.elements():
            assert e.frobenius(m) == e
    assert f64.subfield(2).contains(f64.zero)
    with pytest.raises(ValueError):
        f64.subfield(4)


@pytest.mark.parametrize("p,n", [(2, 6), (2, 8), (3, 4), (5, 2)])
def test_subfield_indices_are_the_frobenius_fixed_points(p, n):
    f = Field(p, n)
    for k in (k for k in range(1, n + 1) if n % k == 0):
        assert f.subfield(k).indices() == tuple(
            i for i in range(f.order) if f._frob_idx(i, k) == i)


def test_subfield_degree_is_an_integer():
    import numpy as np

    f = Field(2, 6)
    e = f.element(37)
    assert f.subfield(np.int64(3)).indices() == f.subfield(3).indices()
    assert f.trace(e, np.int64(3)) == f.trace(e, 3)
    assert f.tables.trace_map(np.int64(3)) is f.tables.trace_map(3)
    for call in (f.subfield, lambda m: f.trace(e, m), f.tables.trace_map):
        with pytest.raises(TypeError):
            call(3.0)


# ---------------------------------------------------------------------------
# numpy tables agree with object arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (7, 2), (11, 1)])
def test_tables_match_object_ops(p, n):
    import numpy as np

    f = Field(p, n)
    t = f.tables
    q = f.order
    rng = random.Random(q)
    idx = np.array([rng.randrange(q) for _ in range(80)])
    jdx = np.array([rng.randrange(q) for _ in range(80)])
    for i, j, s, m in zip(idx, jdx, t.add_vec(idx, jdx), t.mul_vec(idx, jdx)):
        assert int(s) == f._add_idx(int(i), int(j))
        assert int(m) == f._mul_idx(int(i), int(j))
    pm = t.pow_map(7)
    tr = t.trace1
    for i in range(q):
        assert int(pm[i]) == f._pow_idx(i, 7)
        assert int(tr[i]) == f.trace(f.element(i)).idx
    exp, log = t.explog
    for i in range(1, q):
        assert int(exp[log[i]]) == i
    vals = t.eval_poly([1, 0, 1])  # x^2 + 1
    for i in range(q):
        e = f.element(i)
        assert int(vals[i]) == (e * e + 1).idx
    if p != 2:
        qc = t.quadchar
        for i in range(q):
            assert int(qc[i]) == f.quadratic_character(f.element(i))


@pytest.mark.parametrize("p,n,modulus", [
    (2, 1, None), (3, 1, None), (2, 2, None), (2, 5, None), (2, 8, None),
    (3, 3, None), (3, 5, None), (5, 3, None), (7, 2, None), (11, 1, None),
    (13, 3, None), (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)), (3, 3, (1, 0, 2, 1)),
])
def test_explog_is_the_powers_of_the_generator(p, n, modulus):
    f = Field(p, n, modulus)
    if modulus is not None:
        assert f.modulus != find_irreducible(p, n)
    exp, log = f.tables.explog
    g = f.tables.generator
    m = f.order - 1
    assert len(exp) == 4 * m + 1
    cur = 1
    for i in range(m):  # g^i by repeated scalar products, in both copies
        assert int(exp[i]) == int(exp[m + i]) == cur
        cur = f._mul_idx(cur, g)
    assert cur == 1
    assert not exp[2 * m:].any()
    assert int(log[0]) == 2 * m
    assert log[exp[:m]].tolist() == list(range(m))


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10)])
def test_explog_at_scale_is_a_homomorphism(p, n):
    import numpy as np

    f = Field(p, n)
    q = f.order
    m = q - 1
    exp, log = f.tables.explog
    assert np.array_equal(np.sort(exp[:m]), np.arange(1, q))
    assert np.array_equal(exp[m:2 * m], exp[:m])
    assert not exp[2 * m:].any() and len(exp) == 4 * m + 1
    assert np.array_equal(log[exp[:m]], np.arange(m)) and int(log[0]) == 2 * m
    rng = random.Random(q)
    for _ in range(200):
        i, j = rng.randrange(m), rng.randrange(m)
        assert int(exp[i + j]) == f._mul_idx(int(exp[i]), int(exp[j]))


# ---------------------------------------------------------------------------
# packed odd-p lanes agree with scalar arithmetic
# ---------------------------------------------------------------------------

@functools.cache
def _lane_field(p, n):
    """One field per (p, n) for the lane tests (modulus search is scalar)."""
    return Field(p, n)


# lane widths w = bit_length(p) + 1 of 3, 4, 5, 11 and 17, and n = 1
@pytest.mark.parametrize("p,n", [(3, 1), (3, 7), (3, 12), (5, 8), (7, 7), (13, 5),
                                 (1021, 2), (65521, 1)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lane_adder_matches_scalar_arithmetic(p, n, data):
    import numpy as np

    f = _lane_field(p, n)
    q = f.order
    pairs = data.draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                               min_size=1, max_size=30))
    a, b = np.array(pairs).T
    t = f.tables
    assert t.add_vec(a, b).dtype == t.sub_vec(a, b).dtype == np.int64
    assert t.add_vec(a, b).tolist() == [f._add_idx(i, j) for i, j in pairs]
    assert t.sub_vec(a, b).tolist() == [f._sub_idx(i, j) for i, j in pairs]
    i, j = pairs[0]
    assert int(t.add_vec(i, j)) == f._add_idx(i, j)
    assert int(t.sub_vec(i, j)) == f._sub_idx(i, j)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lane_adder_on_all_pairs(p):
    import numpy as np

    f = Field(p, 2)
    x = f.tables.indices
    a, b = x[:, None], x[None, :]
    add = [[f._add_idx(i, j) for j in range(f.order)] for i in range(f.order)]
    sub = [[f._sub_idx(i, j) for j in range(f.order)] for i in range(f.order)]
    assert f.tables.add_vec(a, b).tolist() == add
    assert f.tables.sub_vec(a, b).tolist() == sub
    assert np.array_equal(f.tables.digits,
                          [[i // p ** j % p for j in range(2)] for i in range(f.order)])


@pytest.mark.parametrize("p,n", [(3, 6), (3, 10), (7, 7)])
def test_explog_follows_the_scalar_chain(p, n):
    """exp[i + 1] = exp[i] * g by scalar products: along the whole chain at
    3^6, and elsewhere at every join of the doubling blocks and at random
    positions."""
    import numpy as np

    f = _lane_field(p, n)
    exp, _ = f.tables.explog
    g = f.tables.generator
    m = f.order - 1
    assert np.array_equal(np.sort(exp[:m]), np.arange(1, f.order))
    if m < 1000:
        at = range(m)
    else:
        joins = [(1 << k) + d for k in range(4, m.bit_length()) for d in (-1, 0)]
        at = sorted(set(joins + random.Random(m).sample(range(m), 300)))
    for i in at:
        assert int(exp[i + 1]) == f._mul_idx(int(exp[i]), g)


def test_odd_field_counting_never_builds_digits():
    from zdspec import closedform, spectra

    f = Field(3, 5)
    spectra.power_rows(spectra.PowerFunction(f, 7))
    assert "digits" not in vars(f.tables)
    f = Field(3, 5)
    closedform.verify_theorem("4.1", f)
    assert "digits" not in vars(f.tables)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3)])
def test_field_with_tables_is_freed_without_cyclic_gc(p, n):
    gc.disable()
    try:
        f = Field(p, n)
        f.tables.pow_map(3)
        f.tables.trace1
        f.subfield(1).indices()
        assert f.one + f.zero == f.one
        ref = weakref.ref(f)
        del f
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (2, 8), (2, 12), (3, 4), (3, 6)])
def test_trace_map_is_the_relative_trace(p, n):
    f = Field(p, n)
    t = f.tables
    assert t.trace_map(1) is t.trace1
    for m in (m for m in range(1, n + 1) if n % m == 0):
        tr = t.trace_map(m).tolist()
        assert tr == [f.trace(e, m).idx for e in f]
        assert t.trace_map(m) is t.trace_map(m)
    for bad in (0, n + 1):
        with pytest.raises(ValueError):
            t.trace_map(bad)


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4)])
def test_tables_hold_each_array_under_one_name(p, n):
    """No array in vars(field.tables), cache dicts and tuples included, is
    held twice, so summing what the tables hold counts each array once."""
    f = Field(p, n)
    t = f.tables
    t.trace1, t.trace_map(1), t.pow_map(3), t.explog
    if p == 2:
        t.artin_schreier, t.sqrt_map
    else:
        t.quadchar
    assert t.trace_map(1) is t.trace1
    names = {}
    stack = list(vars(t).items())
    while stack:
        name, v = stack.pop()
        if isinstance(v, np.ndarray):
            assert id(v) not in names, f"{name} is also {names[id(v)]}"
            names[id(v)] = name
        elif isinstance(v, dict):
            stack.extend((f"{name}[{k!r}]", w) for k, w in v.items())
        elif isinstance(v, (tuple, list)):
            stack.extend((f"{name}[{i}]", w) for i, w in enumerate(v))
    assert len(names) >= 3


# GF(2), GF(3) and GF(4): the products 0 * 0 read the last entry of exp
@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (2, 1), (3, 1), (2, 2)])
def test_scalar_lookups_match_scalar_arithmetic(p, n):
    f = Field(p, n)
    t = f.tables
    q = f.order
    for i in range(q):
        assert [t.mul(i, j) for j in range(q)] == [f._mul_idx(i, j) for j in range(q)]
        for e in (0, 1, 2, 5, q - 2, q - 1, q, 3 * q + 1, 2 ** 70):
            assert t.pow(i, e) == f._pow_idx(i, e)
        if i:
            assert t.inv(i) == f._inv_idx(i)
            for e in (-1, -2, -q):
                assert t.pow(i, e) == f._pow_idx(i, e)
    assert t.pow(0, 0) == 1 and t.pow(0, 1) == t.pow(0, q) == 0
    for call in (lambda: t.inv(0), lambda: t.pow(0, -1)):
        with pytest.raises(ZeroDivisionError):
            call()


@pytest.mark.parametrize("p,n", [(2, 1), (2, 5), (3, 3), (5, 2), (3, 1), (2, 2)])
def test_mul_vec_matches_scalar_products_in_every_shape(p, n):
    import numpy as np

    f = Field(p, n)
    t = f.tables
    q = f.order
    idx = np.arange(q, dtype=np.int64)
    table = [[f._mul_idx(i, j) for j in range(q)] for i in range(q)]
    outs = {
        "column-row": t.mul_vec(idx[:, None], idx),
        "scalar-array": np.array([t.mul_vec(i, idx) for i in range(q)]),
        "zero-d": np.array([[t.mul_vec(np.int64(i), np.int64(j)) for j in range(q)]
                            for i in range(q)]),
    }
    for out in outs.values():
        assert out.dtype == np.int64
        assert out.tolist() == table
    assert t.mul_vec(np.int64(q - 1), np.int64(q - 1)).shape == ()
    empty = np.zeros(0, dtype=np.int64)
    for a, b in ((empty, empty), (empty, q - 1), (idx[:, None], empty)):
        out = t.mul_vec(a, b)
        assert out.dtype == np.int64
        assert out.shape == np.broadcast_shapes(np.shape(a), np.shape(b))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 5), (3, 1), (3, 3), (5, 2)])
def test_pow_map_matches_scalar_powers(p, n):
    f = Field(p, n)
    q = f.order
    for d in (1, 2, q - 2, q - 1, q, 2 * (q - 1), 3 * q + 1):
        if d >= 1:
            expect = [0] + [f._pow_idx(i, d) for i in range(1, q)]
            assert f.tables.pow_map(d).tolist() == expect


@pytest.mark.parametrize("n", range(1, 9))
def test_sqrt_map_inverts_squaring(n):
    f = Field(2, n)
    t = f.tables
    assert t.sqrt_map[t.pow_map(2)].tolist() == list(range(2 ** n))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 3), (7, 2), (11, 1)])
def test_quadchar_matches_quadratic_character(p, n):
    f = Field(p, n)
    t = f.tables
    assert t.quadchar.tolist() == [f.quadratic_character(e) for e in f]
    assert not t._pow_cache


def test_artin_schreier_table():
    f = Field(2, 6)
    t = f.tables
    q = f.order
    for u in range(q):
        y = int(t.artin_schreier[u])
        if int(t.trace1[u]) == 0:
            e = f.element(y)
            assert (e * e + e).idx == u
        else:
            assert y == q


# ---------------------------------------------------------------------------
# field cache file
# ---------------------------------------------------------------------------

def test_field_cache_roundtrip(tmp_path):
    path = str(tmp_path / "fields.txt")
    field = Field(2, 3)
    assert append_field_cache(path, field)
    assert not append_field_cache(path, field)  # already present
    assert read_field_cache(path) == {(2, 3): (1, 1, 0, 1)}
    assert cache_line(field) == "2,3,1,1,0,1"


def test_field_cache_append_after_unterminated_line(tmp_path):
    path = tmp_path / "fields.txt"
    path.write_text("2,3,1,1,0,1")  # no trailing newline
    assert append_field_cache(str(path), Field(2, 4))
    assert path.read_text() == "2,3,1,1,0,1\n2,4,1,1,0,0,1\n"
    assert read_field_cache(str(path)) == {(2, 3): (1, 1, 0, 1),
                                           (2, 4): (1, 1, 0, 0, 1)}


def test_canonical_field_honors_cache(tmp_path):
    path = str(tmp_path / "fields.txt")
    # pin the non-canonical irreducible cubic for GF(8)
    with open(path, "w") as fh:
        fh.write("# pinned moduli\n2,3,1,0,1,1\n")
    f = canonical_field(2, 3, path)
    assert f.modulus == (1, 0, 1, 1)
    assert canonical_field(2, 4, path).modulus == find_irreducible(2, 4)
    assert canonical_field(2, 3).modulus == (1, 1, 0, 1)


def test_cache_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2,3,1,1\n")
    with pytest.raises(ValueError):
        read_field_cache(str(path))
    path.write_text("2,three,1,1,0,1\n")
    with pytest.raises(ValueError):
        read_field_cache(str(path))
