"""numpy lookup tables for vectorized arithmetic in one field's index space.

Everything here operates on canonical element indices (see gf).  Tables
are built lazily on first use and cached; a Field owns at most one
instance, reachable as ``field.tables``.  Cached arrays are marked
read-only so accidental mutation fails loudly.

This module owns the index encoding (an element's index is its
coefficient vector read in base p): add_vec and sub_vec are the one
vectorized adder of indices, xor for p = 2 and digitwise mod p otherwise,
so callers never branch on the characteristic to add or subtract.

It also owns the log layout.  FieldTables.explog is the one
multiplicative core: exp lists the powers of the generator twice, then
zeros, and log[0] points into the zeros, so exp[log[a] + log[b]] = a * b
with no zero mask and every multiplicative table is one gather.  The
pair is built by block doubling: multiplying a block of known powers by
one constant is F_p-linear, so the build is O(q * n^2) numpy work in
log2(q) steps plus n scalar products per step; mul, inv and pow read it
for one element at a time, without Fermat inversion.
Scalar Field arithmetic stays the independent oracle for every table.
"""

from __future__ import annotations

import operator
import weakref
from functools import cached_property

import numpy as np


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


class FieldTables:
    """Vectorized index-space kernels for a single field."""

    def __init__(self, field):
        # a proxy, not a reference: the field owns its tables, and a cycle
        # would keep both alive until the cyclic GC runs
        self.field = weakref.proxy(field)
        self.p = field.p
        self.n = field.n
        self.q = field.order
        self._pow_cache: dict[int, np.ndarray] = {}
        self._trace_cache: dict[int, np.ndarray] = {}

    # -- additive layer ------------------------------------------------------

    @cached_property
    def indices(self) -> np.ndarray:
        return _frozen(np.arange(self.q, dtype=np.int64))

    def index_array(self, values) -> np.ndarray:
        """values as an int64 array of canonical indices.  Raises TypeError
        unless the values are integers and ValueError unless each lies in
        [0, q); the array counterpart of Field.index."""
        arr = np.asarray(values)
        if arr.size:
            if arr.dtype.kind not in "iu":
                raise TypeError(f"expected integer indices, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() >= self.q:
                raise ValueError(f"indices out of range [0, {self.q})")
        return arr.astype(np.int64, copy=False)

    @cached_property
    def digits(self) -> np.ndarray:
        """(q, n) matrix of base-p digits, constant term in column 0."""
        x = np.arange(self.q, dtype=np.int64)
        out = np.empty((self.q, self.n), dtype=np.int64)
        for i in range(self.n):
            out[:, i] = x % self.p
            x //= self.p
        return _frozen(out)

    @cached_property
    def _pw(self) -> np.ndarray:
        return _frozen(self.p ** np.arange(self.n, dtype=np.int64))

    def add_vec(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        # take() gathers the digit rows several times faster than digits[a]
        return (self.digits.take(a, 0) + self.digits.take(b, 0)) % self.p @ self._pw

    def sub_vec(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return (self.digits.take(a, 0) - self.digits.take(b, 0)) % self.p @ self._pw

    # -- multiplicative layer --------------------------------------------------

    @cached_property
    def generator(self) -> int:
        """Smallest-index generator of the multiplicative group."""
        q = self.q
        if q == 2:
            return 1
        factors = _prime_factors(q - 1)
        for cand in range(2, q):
            if all(self.field._pow_idx(cand, (q - 1) // r) != 1 for r in factors):
                return cand
        raise RuntimeError("no multiplicative generator found")

    def _scale_vec(self, a: np.ndarray, h: int) -> np.ndarray:
        """h * a over an index array a.  Multiplication by a fixed h is
        F_p-linear on coefficient vectors, so n scalar products h * x^j
        (the images of the basis) fix it for the whole array."""
        cols = [self.field._mul_idx(h, self.p ** j) for j in range(self.n)]
        if self.p == 2:
            out = np.zeros_like(a)
            for j, col in enumerate(cols):
                out ^= ((a >> j) & 1) * col
            return out
        return self.digits.take(a, 0) @ self.digits.take(cols, 0) % self.p @ self._pw

    @cached_property
    def explog(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log), m = q - 1: log[x] in [0, m) is the log of x != 0 to
        the generator g and log[0] = 2m; exp[i] = g^(i mod m) below 2m and
        0 up to 4m.  So exp[log[a] + log[b]] = a * b for all a, b, with no
        mask, and exp[:m] lists g^0 .. g^(m-1).  The first 64 powers are
        scalar products (cheaper on tiny fields); then block doubling: once
        g^0 .. g^(B-1) are known, g^B times them is the next block."""
        q = self.q
        m = q - 1
        exp = np.zeros(4 * m + 1, dtype=np.int64)
        exp[0] = 1
        g = self.generator
        done = min(m, 64)
        for i in range(1, done):
            exp[i] = self.field._mul_idx(int(exp[i - 1]), g)
        while done < m:
            step = min(done, m - done)
            h = self.field._mul_idx(int(exp[done - 1]), g)
            exp[done:done + step] = self._scale_vec(exp[:step], h)
            done += step
        if self.field._mul_idx(int(exp[m - 1]), g) != 1:
            raise RuntimeError("generator order check failed")
        exp[m:2 * m] = exp[:m]
        log = np.full(q, 2 * m, dtype=np.int64)
        log[exp[:m]] = np.arange(m, dtype=np.int64)
        return _frozen(exp), _frozen(log)

    def mul_vec(self, a, b) -> np.ndarray:
        exp, log = self.explog
        return exp[log[a] + log[b]]

    def mul(self, i: int, j: int) -> int:
        """i * j for two indices, by one exp/log lookup."""
        exp, log = self.explog
        return int(exp[log[i] + log[j]])

    def inv(self, i: int) -> int:
        """1 / i by one lookup; ZeroDivisionError on 0."""
        return self.pow(i, -1)

    def pow(self, i: int, e: int) -> int:
        """i^e by one lookup, for any integer e, with 0^0 = 1; 0 to a
        negative power raises ZeroDivisionError, as in Field._pow_idx."""
        if i == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return int(e == 0)
        exp, log = self.explog
        return int(exp[int(log[i]) * e % (self.q - 1)])

    def pow_map(self, d: int) -> np.ndarray:
        """x -> x^d over all x, with 0^d = 0 (d >= 1, read with
        operator.index)."""
        d = operator.index(d)
        if d < 1:
            raise ValueError("exponent must be >= 1")
        cached = self._pow_cache.get(d)
        if cached is None:
            exp, log = self.explog
            m = self.q - 1
            cached = exp[log * (d % m) % m]
            cached[0] = 0
            self._pow_cache[d] = _frozen(cached)
        return cached

    def frob_map(self, k: int) -> np.ndarray:
        """x -> x^(p^k) over all x."""
        return self.pow_map(self.p ** (k % self.n))

    @cached_property
    def trace1(self) -> np.ndarray:
        """Absolute trace values in [0, p); scalar indices equal values."""
        return self.trace_map(1)

    def trace_map(self, m: int) -> np.ndarray:
        """x -> Tr onto GF(p^m), the sum of x^(p^(m i)) for i < n/m, over
        all x; cached per divisor m (read with operator.index).  Only
        frob_map(1) is read, so no other power map is cached."""
        m = operator.index(m)
        if m < 1 or self.n % m:
            raise ValueError(f"{m} does not divide {self.n}")
        if m not in self._trace_cache:
            frob = self.frob_map(1)
            acc = cur = self.indices
            for j in range(1, self.n):
                cur = frob[cur]
                if j % m == 0:
                    acc = self.add_vec(acc, cur)
            self._trace_cache[m] = _frozen(acc)
        return self._trace_cache[m]

    @property
    def sqrt_map(self) -> np.ndarray:
        """Inverse of squaring (p = 2, where it is the bijection x^(2^(n-1)))."""
        if self.p != 2:
            raise ValueError("square roots are tabulated only for p = 2")
        return self.frob_map(self.n - 1)

    @cached_property
    def artin_schreier(self) -> np.ndarray:
        """Table t -> y with y^2 + y = t (smallest such y), q when no solution.

        Built by exhausting y, which is the honest inverse of the
        two-to-one map y -> y^2 + y; solvable t are those of trace 0.
        """
        if self.p != 2:
            raise ValueError("Artin-Schreier table requires p = 2")
        u = np.bitwise_xor(self.pow_map(2), self.indices)
        out = np.full(self.q, self.q, dtype=np.int64)
        desc = self.indices[::-1]
        out[u[desc]] = desc  # later (smaller) y wins
        return _frozen(out)

    @cached_property
    def quadchar(self) -> np.ndarray:
        """Quadratic character: 0 on zero, else +1 exactly when log x is
        even, since the generator is a non-square (p odd)."""
        if self.p == 2:
            raise ValueError("quadratic character needs odd characteristic")
        out = 1 - 2 * (self.explog[1] % 2)
        out[0] = 0
        return _frozen(out)

    def eval_poly(self, coeff_indices) -> np.ndarray:
        """Evaluate sum(c_i x^i) at every field element (Horner)."""
        coeffs = [int(c) for c in coeff_indices]
        if not coeffs:
            return np.zeros(self.q, dtype=np.int64)
        acc = np.full(self.q, coeffs[-1], dtype=np.int64)
        for c in reversed(coeffs[:-1]):
            acc = self.add_vec(self.mul_vec(acc, self.indices), c)
        return np.asarray(acc)
