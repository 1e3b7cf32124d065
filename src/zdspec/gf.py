"""Finite fields GF(p^n) with a canonical element order.

An element is the residue of a polynomial over Z_p modulo a monic
irreducible modulus of degree n, stored as the coefficient vector
(c0, ..., c_{n-1}) with c_i the coefficient of x^i.  The canonical index
of an element is sum(c_i * p**i), so enumeration in increasing index
varies the constant term fastest: index 0 is zero, index 1 is one, and
for k < p index k is the prime-subfield constant k.  For p = 2 the index
is the familiar packed-bit encoding and arithmetic works directly on
machine integers.

Field and FieldElement never mutate after construction and every
operation is a pure function, so they can be shared freely across threads.
"""

from __future__ import annotations

import operator
import os
from typing import Iterator, Sequence

#: Largest field order constructed without an explicit override.
DESK_SCALE_BOUND = 1 << 20


def is_prime(m: int) -> bool:
    """Trial-division primality check, adequate for desk-scale inputs."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _digits(index: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(index % p)
        index //= p
    return out


def _index(coeffs: Sequence[int], p: int) -> int:
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + c
    return idx


# ---------------------------------------------------------------------------
# dense polynomials (little-endian coefficient lists) over Z_p and over a Field
# ---------------------------------------------------------------------------

def _ptrim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """a mod m over Z_p; m need not be monic."""
    a, dm = list(a), len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(a) > dm:
        lead = a.pop() * inv % p
        if lead:
            shift = len(a) - dm
            a[shift:] = [(c - lead * mc) % p for c, mc in zip(a[shift:], m)]
    return _ptrim(a)


def _pres(f: Sequence[int], g: Sequence[int], p: int) -> int:
    """The resultant Res(f, g) over Z_p, by Euclid: with r = f mod g,
    Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r), and
    Res(f, c) = c^(deg f) for a constant c."""
    f, g, res = list(f), _ptrim(list(g)), 1
    while len(g) > 1:
        r = _pmod(f, g, p)
        if not r:
            return 0
        if (len(f) - 1) * (len(g) - 1) % 2:
            res = -res
        res = res * pow(g[-1], len(f) - len(r), p) % p
        f, g = g, r
    return res * pow(g[0], len(f) - 1, p) % p if g else 0


def _irem(field: "Field", a: Sequence[int], m: Sequence[int]) -> list[int]:
    """a mod the monic m; coefficients are canonical indices of field."""
    a, dm = list(a), len(m) - 1
    while len(a) > dm:
        lead = a.pop()
        if lead:
            shift = len(a) - dm
            for i in range(dm):
                a[shift + i] = field._sub_idx(a[shift + i], field._mul_idx(lead, m[i]))
    return _ptrim(a)


def _imulmod(field: "Field", a: list[int], b: list[int], m: list[int]) -> list[int]:
    """a * b mod the monic m; coefficients are canonical indices of field."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = field._add_idx(out[i + j], field._mul_idx(ai, bj))
    return _irem(field, out, m)


def poly_gcd(field: "Field", a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Monic gcd, by Euclid, of the monic a and of b, index coefficient lists."""
    a, b = list(a), _ptrim(list(b))
    while b:
        if b[-1] != 1:  # index 1 is the element 1 for every p
            inv = field._inv_idx(b[-1])
            b = [field._mul_idx(c, inv) for c in b]
        a, b = b, _irem(field, a, b)
    return a


def frobenius_gcd_degrees(f: Sequence["FieldElement"], kmax: int) -> list[int]:
    """deg gcd(f, x^(Q^k) - x) for k = 1..kmax, f monic over a field of order Q.

    The k-th value is the number of distinct roots of f in the degree-k
    extension (distinct-degree factorization, Cantor-Zassenhaus 1981), read
    with the field's scalar index arithmetic alone: no extension is built
    and no table is read.  t -> t^Q is GF(Q)-linear modulo f, so each
    x^(Q^k) comes through one Frobenius matrix, rows R_i = x^(iQ) mod f.
    """
    field = f[-1].field
    m = [field.index(c) for c in f]
    xq = [1]  # x^Q mod f, square-and-multiply from the top bit
    for bit in bin(field.order)[2:]:
        xq = _imulmod(field, xq, xq, m)
        if bit == "1":
            xq = _irem(field, [0, *xq], m)
    rows = [[1], xq]
    while len(rows) < len(m) - 1:
        rows.append(_imulmod(field, rows[-1], xq, m))
    t, out = _irem(field, [0, 1], m), []
    for _ in range(kmax):
        acc = [0] * len(m)  # t <- t^Q, the sum of t_i R_i
        for ti, row in zip(t, rows):
            for j, rj in enumerate(row):
                acc[j] = field._add_idx(acc[j], field._mul_idx(ti, rj))
        t = _ptrim(acc)
        b = t + [0] * (2 - len(t))
        b[1] = field._sub_idx(b[1], 1)
        out.append(len(poly_gcd(field, m, b)) - 1)
    return out


# ---------------------------------------------------------------------------
# irreducibility and modulus search
# ---------------------------------------------------------------------------

def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Ben-Or's irreducibility test for a monic polynomial over Z_p.

    A monic f of degree n is reducible exactly when it has an irreducible
    factor of some degree k <= n/2, which divides x^(p^k) - x; so f is
    irreducible exactly when gcd(f, x^(p^k) - x) = 1 for every k <= n/2
    (M. Ben-Or, FOCS 1981).  k = 1 is a root check at the p elements of
    Z_p, which alone decides n <= 3; the gcds run in increasing k and stop
    at the first nontrivial one.  Each x^(p^k) mod f is the previous one
    raised to the p-th power, h^p = h(x^p) over Z_p.
    """
    m = list(modulus)
    n = len(m) - 1
    if n < 1 or m[n] != 1:
        return False
    if n == 1:
        return True
    for r in range(p):
        value = 0
        for c in reversed(m):
            value = (value * r + c) % p
        if not value:
            return False
    h = [0, 1]
    for k in range(1, n // 2 + 1):
        spread = [0] * (p * len(h) - p + 1)
        spread[::p] = h
        h = _pmod(spread, m, p)  # x^(p^k) mod f
        if k > 1:
            b = h + [0] * (2 - len(h))
            b[1] = (b[1] - 1) % p
            a, b = m, _ptrim(b)  # gcd(f, x^(p^k) - x) by Euclid
            while b:
                a, b = b, _pmod(a, b, p)
            if len(a) > 1:
                return False
    return True


def irreducibility_oracle(modulus: Sequence[int], p: int) -> bool:
    """Independent irreducibility check by trial division: a monic f of
    degree n is irreducible exactly when no monic polynomial of degree 1
    to n/2 over Z_p divides it."""
    m = list(modulus)
    n = len(m) - 1
    if n < 1 or m[n] != 1:
        return False
    for deg in range(1, n // 2 + 1):
        for k in range(p ** deg):
            if not _pmod(m, _digits(k, p, deg) + [1], p):
                return False
    return True


def _field_params(p: int, n: int, max_order: int) -> tuple[int, int]:
    """(p, n) read with operator.index, checked cheapest first: the degree,
    the order bound, and only then the primality of p, so that an
    out-of-bound field is refused before any costly work."""
    p, n = operator.index(p), operator.index(n)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if p < 2:
        raise ValueError(f"p must be prime, got {p}")
    # p^n >= 2^n > max_order once n reaches the bit length of max_order,
    # so p ** n is only formed for small n
    if n >= operator.index(max_order).bit_length() or p ** n > max_order:
        raise ValueError(f"field order {p}^{n} exceeds the bound {max_order}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p, n


def find_irreducible(p: int, n: int, max_order: int = DESK_SCALE_BOUND) -> tuple[int, ...]:
    """Smallest monic irreducible of degree n over Z_p.

    Candidates are ordered by the canonical index of their coefficient
    vector (constant term least significant), which makes the choice
    reproducible bit-for-bit.
    """
    p, n = _field_params(p, n, max_order)
    for k in range(p ** n):
        cand = _digits(k, p, n) + [1]
        if n > 1 and cand[0] == 0:
            continue
        if is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {n} over Z_{p}")


# ---------------------------------------------------------------------------
# field types
# ---------------------------------------------------------------------------

class Field:
    """Arithmetic engine for GF(p^n); elements are created through it.  p, n,
    modulus and order are read-only; equal (p, n, modulus) means equal fields."""

    __slots__ = ("p", "n", "modulus", "order", "_modbits", "_tables", "_subfields",
                 "__weakref__")

    def __init__(self, p: int, n: int, modulus: Sequence[int] | None = None,
                 *, max_order: int = DESK_SCALE_BOUND):
        p, n = _field_params(p, n, max_order)
        if modulus is None:
            modulus = find_irreducible(p, n, max_order)
        else:
            modulus = tuple(operator.index(c) for c in modulus)
            if len(modulus) != n + 1:
                raise ValueError(
                    f"modulus needs {n + 1} coefficients for degree {n}, got {len(modulus)}")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if any(not 0 <= c < p for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over Z_{p}")
        for name, value in (("p", p), ("n", n), ("modulus", modulus), ("order", p ** n)):
            object.__setattr__(self, name, value)
        # packed modulus bits for the char-2 fast path
        self._modbits = sum(c << i for i, c in enumerate(modulus)) if p == 2 else 0
        self._tables = None
        self._subfields = {}

    def __setattr__(self, name: str, value) -> None:
        if name in ("p", "n", "modulus", "order"):
            raise AttributeError(f"{name} of a Field is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{name} of a Field cannot be deleted")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Field) and other.p == self.p
                                 and other.n == self.n and other.modulus == self.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    # -- element construction ----------------------------------------------

    # zero and one are built on access: an element held by its field
    # would make a reference cycle that only the cyclic GC frees

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def x(self) -> "FieldElement":
        """The residue of the indeterminate itself (degree >= 2 only)."""
        if self.n < 2:
            raise ValueError("prime field has no polynomial generator x")
        return FieldElement(self, self.p)

    def index(self, value) -> int:
        """Canonical index of an element of this field (or of one equal to
        it) or of an integer index in [0, q), read with operator.index so
        that numpy integers work too.  A float raises TypeError; an index
        out of range or an element of another field raises ValueError."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ValueError(f"element of {value.field!r} given for {self!r}")
            return value.idx
        i = operator.index(value)
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} out of range for {self!r}")
        return i

    def element(self, value) -> "FieldElement":
        """Element from a coefficient list or tuple (constant term first,
        each coefficient an integer read mod p with operator.index) or from
        anything Field.index accepts, so an integer is an index, not a
        scalar.  An element already in this field is returned as is."""
        if isinstance(value, FieldElement) and value.field is self:
            return value
        if not isinstance(value, (list, tuple)):
            return FieldElement(self, self.index(value))
        coeffs = [operator.index(c) % self.p for c in value]
        if len(coeffs) > self.n:
            raise ValueError(f"coefficient vector longer than degree {self.n}")
        coeffs += [0] * (self.n - len(coeffs))
        return FieldElement(self, _index(coeffs, self.p))

    def scalar(self, k: int) -> "FieldElement":
        """The prime-subfield constant k mod p; k is read with
        operator.index, so a float raises TypeError."""
        return FieldElement(self, operator.index(k) % self.p)

    def elements(self) -> list["FieldElement"]:
        """All p^n elements in canonical index order (zero first)."""
        return [FieldElement(self, i) for i in range(self.order)]

    def __iter__(self) -> Iterator["FieldElement"]:
        return (FieldElement(self, i) for i in range(self.order))

    def __len__(self) -> int:
        return self.order

    # -- index-space arithmetic ---------------------------------------------

    def _digitwise(self, i: int, j: int, sign: int) -> int:
        """i + sign * j, one base-p digit at a time (p odd)."""
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.n):
            out += ((i + sign * j) % p) * mult
            i //= p
            j //= p
            mult *= p
        return out

    def _add_idx(self, i: int, j: int) -> int:
        return i ^ j if self.p == 2 else self._digitwise(i, j, 1)

    def _sub_idx(self, i: int, j: int) -> int:
        return i ^ j if self.p == 2 else self._digitwise(i, j, -1)

    def _neg_idx(self, i: int) -> int:
        return self._sub_idx(0, i)

    def _mul_idx(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        p, n = self.p, self.n
        if p == 2:
            acc = 0
            a = i
            while j:
                if j & 1:
                    acc ^= a
                a <<= 1
                j >>= 1
            mb = self._modbits
            top = acc.bit_length() - 1
            while top >= n:
                acc ^= mb << (top - n)
                top = acc.bit_length() - 1
            return acc
        da = _digits(i, p, n)
        db = _digits(j, p, n)
        t = [0] * (2 * n - 1)
        for xi, ax in enumerate(da):
            if ax:
                for yi, by in enumerate(db):
                    t[xi + yi] += ax * by
        mod = self.modulus
        for deg in range(2 * n - 2, n - 1, -1):
            c = t[deg] % p
            if c:
                for k in range(n):
                    t[deg - n + k] -= c * mod[k]
        return _index([t[k] % p for k in range(n)], p)

    def _pow_idx(self, i: int, e: int) -> int:
        if e < 0:
            return self._pow_idx(self._inv_idx(i), -e)
        r = 1
        b = i
        while e:
            if e & 1:
                r = self._mul_idx(r, b)
            b = self._mul_idx(b, b)
            e >>= 1
        return r

    def _inv_idx(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.p != 2:
            return self._pow_idx(i, self.order - 2)
        # extended Euclid on packed bits (Hankerson, Menezes and Vanstone,
        # Guide to Elliptic Curve Cryptography, Alg. 2.48): g1 i = u and
        # g2 i = v mod f throughout, and deg g1 < n at the end
        u, v, g1, g2 = i, self._modbits, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def _norm_idx(self, i: int) -> int:
        """The norm N(i) = i^((q-1)/(p-1)), an element of Z_p, as the
        resultant Res(f, i) over Z_p with the modulus f: for monic
        irreducible f it is the product of i over the n conjugate roots of
        f (Lidl and Niederreiter, Finite Fields, ch. 2)."""
        return _pres(self.modulus, _digits(i, self.p, self.n), self.p)

    def _frob_idx(self, i: int, k: int) -> int:
        k %= self.n
        if k == 0:
            return i
        return self._pow_idx(i, self.p ** k)

    # -- maps ---------------------------------------------------------------

    def frobenius(self, e: "FieldElement", k: int = 1) -> "FieldElement":
        """e^(p^k); k is taken mod n since the automorphism has order n."""
        e = self.element(e)
        return FieldElement(self, self._frob_idx(e.idx, k))

    def trace(self, e: "FieldElement", m: int = 1) -> "FieldElement":
        """Relative trace onto GF(p^m): sum of e^(p^(m*i)) for i < n/m (m
        read with operator.index)."""
        m = operator.index(m)
        if m < 1 or self.n % m:
            raise ValueError(f"{m} does not divide {self.n}")
        e = self.element(e)
        step = self.p ** m
        acc = cur = e.idx
        for _ in range(self.n // m - 1):
            cur = self._pow_idx(cur, step)
            acc = self._add_idx(acc, cur)
        return FieldElement(self, acc)

    def quadratic_character(self, e: "FieldElement") -> int:
        """0 on zero, +1 on nonzero squares, -1 on non-squares (p odd)."""
        if self.p == 2:
            raise ValueError("quadratic character needs odd characteristic")
        e = self.element(e)
        if e.idx == 0:
            return 0
        t = self._pow_idx(e.idx, (self.order - 1) // 2)
        if t == 1:
            return 1
        if t != self._neg_idx(1):
            raise RuntimeError("quadratic character power landed outside {1, -1}")
        return -1

    def subfield(self, m: int) -> "SubfieldMap":
        return SubfieldMap(self, m)

    @property
    def tables(self):
        """Lazy numpy lookup tables for vectorized index arithmetic."""
        if self._tables is None:
            from .fastfield import FieldTables
            self._tables = FieldTables(self)
        return self._tables


class FieldElement:
    """Immutable element of a Field, identified by its canonical index."""

    __slots__ = ("field", "idx")

    def __init__(self, field: Field, idx: int):
        self.field = field
        self.idx = idx

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_digits(self.idx, self.field.p, self.field.n))

    @property
    def is_zero(self) -> bool:
        return self.idx == 0

    @property
    def label(self) -> str:
        """Base-p digit string, constant term first (dots separate digits
        when p > 10, where single characters would be ambiguous)."""
        digits = self.coeffs
        if self.field.p <= 10:
            return "".join(str(d) for d in digits)
        return ".".join(str(d) for d in digits)

    def _coerce(self, other) -> int | None:
        if isinstance(other, FieldElement):
            return self.field.index(other)
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add_idx(self.idx, j))

    __radd__ = __add__

    def __sub__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub_idx(self.idx, j))

    def __rsub__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub_idx(j, self.idx))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg_idx(self.idx))

    def __mul__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul_idx(self.idx, j))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul_idx(self.idx, self.field._inv_idx(j)))

    def __rtruediv__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul_idx(j, self.field._inv_idx(self.idx)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field._pow_idx(self.idx, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv_idx(self.idx))

    def frobenius(self, k: int = 1) -> "FieldElement":
        return self.field.frobenius(self, k)

    def trace(self, m: int = 1) -> "FieldElement":
        return self.field.trace(self, m)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return other.field == self.field and other.idx == self.idx
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.idx))

    def __bool__(self) -> bool:
        return self.idx != 0

    def _poly_str(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                parts.append(f"{head}x" if i == 1 else f"{head}x^{i}")
        return " + ".join(reversed(parts)) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self._poly_str()} in {self.field!r}>"


class SubfieldMap:
    """Identifies GF(p^m) inside GF(p^n) for m | n.

    An element lies in the subfield exactly when Frobenius^m fixes it.
    """

    __slots__ = ("field", "m")

    def __init__(self, field: Field, m: int):
        m = operator.index(m)
        if m < 1 or field.n % m:
            raise ValueError(f"{m} does not divide {field.n}")
        self.field = field
        self.m = m

    @property
    def order(self) -> int:
        return self.field.p ** self.m

    def contains(self, e: FieldElement) -> bool:
        e = self.field.element(e)
        return self.field._frob_idx(e.idx, self.m) == e.idx

    __contains__ = contains

    def indices(self) -> tuple[int, ...]:
        """Indices of the subfield, ascending: 0 and the p^m - 1 powers of
        g^((q-1)/(p^m-1)), g the generator, read off the exp table."""
        # cached on the field as plain indices: a cached map would be a cycle
        f = self.field
        found = f._subfields.get(self.m)
        if found is None:
            exp = f.tables.explog[0]
            m = f.order - 1
            found = (0, *sorted(exp[:m:m // (self.order - 1)].tolist()))
            if len(set(found)) != self.order:
                raise RuntimeError("subfield powers are not p^m distinct elements")
            f._subfields[self.m] = found
        return found

    def elements(self) -> list[FieldElement]:
        return [FieldElement(self.field, i) for i in self.indices()]


# ---------------------------------------------------------------------------
# field cache file: one field per line, "p,n,c0,c1,...,cn"
# ---------------------------------------------------------------------------

def cache_line(field: Field) -> str:
    return ",".join(str(v) for v in (field.p, field.n, *field.modulus))


def read_field_cache(path: str) -> dict[tuple[int, int], tuple[int, ...]]:
    """Parse a cache file into {(p, n): modulus}; later lines win."""
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = [int(v) for v in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed cache line") from exc
            if len(parts) < 4:
                raise ValueError(f"{path}:{lineno}: cache line too short")
            p, n, modulus = parts[0], parts[1], tuple(parts[2:])
            if len(modulus) != n + 1:
                raise ValueError(f"{path}:{lineno}: modulus length does not match degree")
            out[(p, n)] = modulus
    return out


def append_field_cache(path: str, field: Field) -> bool:
    """Record field in the cache file unless (p, n) is already present.

    Returns True when a line was written.
    """
    line = cache_line(field) + "\n"
    if os.path.exists(path):
        if (field.p, field.n) in read_field_cache(path):
            return False
        with open(path, encoding="utf-8") as fh:
            if fh.read()[-1:] not in ("", "\n"):  # keep the last line apart
                line = "\n" + line
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)
    return True


def canonical_field(p: int, n: int, cache_path: str | None = None,
                    *, max_order: int = DESK_SCALE_BOUND) -> Field:
    """The field with the canonical modulus, honoring a cache file first."""
    if cache_path and os.path.exists(cache_path):
        modulus = read_field_cache(cache_path).get((p, n))
        if modulus is not None:
            return Field(p, n, modulus, max_order=max_order)
    return Field(p, n, max_order=max_order)
