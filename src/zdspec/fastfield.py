"""numpy lookup tables for vectorized arithmetic in one field's index space.

Everything here operates on canonical element indices (see gf).  Tables
are built lazily on first use and cached; a Field owns at most one
instance, reachable as ``field.tables``.  Cached arrays are marked
read-only so accidental mutation fails loudly.

This module owns the index encoding (an element's index is its
coefficient vector read in base p): add_vec and sub_vec are the one
vectorized adder of indices, xor for p = 2 and digitwise mod p otherwise,
so callers never branch on the characteristic to add or subtract.

The exp/log tables are built by block doubling: multiplying a block of
known powers by one constant is F_p-linear, so the build is O(q * n^2)
numpy work in log2(q) steps plus n scalar products per step.  Scalar
Field arithmetic stays the independent oracle for every table.
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
    def _explog(self) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = g^i and its inverse log (log[0] = -1).  The first 64
        powers come from scalar products, cheaper than doubling on tiny
        fields; the rest by block doubling: once g^0 .. g^(B-1) are known,
        the next block is g^B times them, one _scale_vec per step."""
        q = self.q
        exp = np.ones(max(q - 1, 1), dtype=np.int64)
        g = self.generator
        done = min(q - 1, 64)
        for i in range(1, done):
            exp[i] = self.field._mul_idx(int(exp[i - 1]), g)
        while done < q - 1:
            step = min(done, q - 1 - done)
            h = self.field._mul_idx(int(exp[done - 1]), g)
            exp[done:done + step] = self._scale_vec(exp[:step], h)
            done += step
        if self.field._mul_idx(int(exp[-1]), g) != 1:
            raise RuntimeError("generator order check failed")
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(len(exp), dtype=np.int64)
        return _frozen(exp), _frozen(log)

    def mul_vec(self, a, b) -> np.ndarray:
        exp, log = self._explog
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        out = np.zeros(a.shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        if nz.any():
            out[nz] = exp[(log[a[nz]] + log[b[nz]]) % (self.q - 1)]
        return out

    def pow_map(self, d: int) -> np.ndarray:
        """x -> x^d over all x, with 0^d = 0 (d >= 1, read with
        operator.index)."""
        d = operator.index(d)
        if d < 1:
            raise ValueError("exponent must be >= 1")
        cached = self._pow_cache.get(d)
        if cached is not None:
            return cached
        q = self.q
        out = np.zeros(q, dtype=np.int64)
        if q == 2:
            out[1] = 1
        else:
            e = d % (q - 1)
            if e == 0:
                out[1:] = 1
            else:
                exp, log = self._explog
                out[1:] = exp[(log[1:] * e) % (q - 1)]
        self._pow_cache[d] = _frozen(out)
        return out

    def frob_map(self, k: int) -> np.ndarray:
        """x -> x^(p^k) over all x."""
        k %= self.n
        if k == 0:
            return self.indices
        return self.pow_map(self.p ** k)

    @cached_property
    def trace1(self) -> np.ndarray:
        """Absolute trace values in [0, p); scalar indices equal values."""
        frob = self.frob_map(1)
        acc = cur = self.indices
        for _ in range(self.n - 1):
            cur = frob[cur]
            acc = self.add_vec(acc, cur)
        return _frozen(acc)

    @cached_property
    def sqrt_map(self) -> np.ndarray:
        """Inverse of squaring (characteristic 2, where it is a bijection)."""
        if self.p != 2:
            raise ValueError("square roots are tabulated only for p = 2")
        sq = self.pow_map(2)
        out = np.empty(self.q, dtype=np.int64)
        out[sq] = self.indices
        return _frozen(out)

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
        """Quadratic character per element: 0 on zero, otherwise +-1 (p odd)."""
        if self.p == 2:
            raise ValueError("quadratic character needs odd characteristic")
        t = self.pow_map((self.q - 1) // 2)
        out = np.where(t == 1, 1, -1).astype(np.int64)
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
