"""numpy lookup tables for vectorized arithmetic in one field's index space.

Everything here operates on canonical element indices (see gf).  Tables
are built lazily on first use and cached; a Field owns at most one
instance, reachable as ``field.tables``.  Cached arrays are marked
read-only so accidental mutation fails loudly.

This module owns the index encoding (an element's index is its
coefficient vector read in base p): add_vec and sub_vec are the one
vectorized adder of indices, xor for p = 2 and digitwise mod p otherwise,
so callers never branch on the characteristic to add or subtract.

For odd p the digits are added in packed lanes (SWAR, after Lamport,
"Multiple byte processing with full-word instructions", CACM 1975).
pack[i] holds digit j of i in lane j, bits w j .. w j + w - 1 of one
int64 (int32 when the lanes fit 31 bits), with w = bit_length(p) + 1.
A lane sum of two digits is at most 2p - 2 < 2^w, so lanes never carry
into each other; a - b is computed as a + (p - b), whose lanes lie in
[1, 2p - 1].  One correction takes every
lane mod p: add 2^(w-1) - p to each lane, read its top bit (set exactly
when the lane was >= p) and subtract p there.  The result goes back to
a canonical index through lookups on groups of k lanes, in tables of at
most 2^12 entries (p entries for a single lane when p > 2^12), sized to
the n lanes the field has; for n = 1 the lane is the index.  The n lanes
fit one int64 (n w <= 63) for every odd-p field whose 4q-entry exp table
fits in memory: the smallest one that does not is GF(3^22).

It also owns the log layout.  FieldTables.explog is the one
multiplicative core: exp lists the powers of the generator twice, then
zeros, and log[0] points into the zeros, so exp[log[a] + log[b]] = a * b
with no zero mask and every multiplicative table is one gather.  The
pair is built by block doubling: multiplying a block of known powers by
one constant h is F_p-linear, so it is fixed by the images h x^j of the
basis.  For p = 2 these are n scalar products per step; for odd p one
product of small digit arrays per step gives, for each group of k lanes,
the packed h x^(g k) c for every digit combination c, and h * a is a
lane sum of one lookup per group.  mul, inv and pow read the pair for
one element at a time, without Fermat inversion.
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
        # the lane layout of pack (odd p): lanes of w bits, read k at a time
        # through tables of at most 2^12 entries
        w = self._w = self.p.bit_length() + 1
        self._k = max(1, min(self.n, 12 // w))
        self._ngroups = -(-self.n // self._k)
        self._ones = sum(1 << (w * j) for j in range(self.n))
        self._fix = ((1 << (w - 1)) - self.p) * self._ones
        self._pones = self.p * self._ones

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
    def pack(self) -> np.ndarray:
        """pack[i] holds the base-p digits of i, digit j in lane j (bits
        w j .. w j + w - 1), in int32 when the n lanes fit 31 bits, which
        halves the memory traffic of every lane operation, else int64."""
        dtype = np.int32 if self.n * self._w <= 31 else np.int64
        lane = np.arange(self.p, dtype=dtype)
        out = np.zeros(1, dtype=dtype)
        for j in range(self.n):
            out = ((lane << (self._w * j))[:, None] + out).ravel()
        return _frozen(out)

    def _lane_digits(self, x) -> np.ndarray:
        """The n lanes of packed values x, along a new last axis."""
        w = self._w
        return np.right_shift(np.asarray(x)[..., None],
                              np.arange(0, w * self.n, w)) & ((1 << w) - 1)

    @cached_property
    def digits(self) -> np.ndarray:
        """(q, n) matrix of base-p digits, constant term in column 0, read
        off pack; no kernel needs it."""
        return _frozen(self._lane_digits(self.pack))

    @cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pos, dloc, unpack) for groups of k lanes: pos lists the raw bits
        of the p^k digit combinations of one group, dloc their digits, and
        unpack[g][pos] their share p^(g k) * (0 .. p^k - 1) of the
        canonical index."""
        k = self._k
        pos = self.pack[:self.p ** k]
        powers = self.p ** (k * np.arange(self._ngroups, dtype=np.int64))
        unpack = np.zeros((self._ngroups, int(pos[-1]) + 1), dtype=np.int64)
        unpack[:, pos] = np.arange(len(pos)) * powers[:, None]
        return pos, self._lane_digits(pos)[:, :k], _frozen(unpack)

    def _group_bits(self, x, g: int):
        """The raw bits of lane group g of packed values x."""
        span = self._k * self._w
        bits = x >> (g * span) if g else x
        return bits & ((1 << span) - 1) if g < self._ngroups - 1 else bits

    def _reduce(self, s):
        """s with every lane in [0, 2p) taken mod p.  Adding 2^(w-1) - p to
        a lane sets its top bit exactly when the lane is >= p; that bit,
        moved to the bottom of its lane and times p, is what to subtract."""
        top = s + self._fix
        top >>= self._w - 1
        top &= self._ones
        top *= self.p
        s -= top
        return s

    def _unpack(self, x):
        """Canonical indices of packed values x whose lanes lie in [0, p)."""
        if self.n == 1:
            return x.astype(np.int64)
        unpack = self._groups[2]
        out = unpack[0].take(self._group_bits(x, 0))
        for g in range(1, self._ngroups):
            out += unpack[g].take(self._group_bits(x, g))
        return out

    def add_vec(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._unpack(self._reduce(self.pack.take(a) + self.pack.take(b)))

    def sub_vec(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        # p - b_j >= 1 in every lane, so a + (p - b) never borrows
        s = self.pack.take(a) - self.pack.take(b)
        s += self._pones
        return self._unpack(self._reduce(s))

    # -- multiplicative layer --------------------------------------------------

    @cached_property
    def generator(self) -> int:
        """Smallest-index generator of the multiplicative group: the
        smallest c with c^((q-1)/r) != 1 for every prime r | q - 1.

        For r | p - 1 the power is N(c)^((p-1)/r), with the norm N(c) =
        c^((q-1)/(p-1)) in Z_p read as a resultant (Field._norm_idx), so
        r = 2 for every odd p, and every r when n = 1, costs one Euclid
        over Z_p per candidate.  Only primes r that do not divide p - 1
        take a scalar power.  Candidates below p lie in the prime field,
        whose orders divide p - 1, so they are skipped when n > 1.
        """
        q, p = self.q, self.p
        if q == 2:
            return 1
        factors = _prime_factors(q - 1)
        by_norm = [(p - 1) // r for r in factors if (p - 1) % r == 0]
        by_power = [(q - 1) // r for r in factors if (p - 1) % r]
        for cand in range(p if self.n > 1 else 2, q):
            if by_norm:
                norm = self.field._norm_idx(cand)
                if any(pow(norm, e, p) == 1 for e in by_norm):
                    continue
            if all(self.field._pow_idx(cand, e) != 1 for e in by_power):
                return cand
        raise RuntimeError("no multiplicative generator found")

    @cached_property
    def _xwin(self) -> np.ndarray:
        """(G k, n, n) windows of the digits of x^0, x^1, ..: entry [j, c, i]
        is digit c of x^(i + j), so _xwin @ digits(h) lists the digits of
        h * x^j for every lane j a group can hold."""
        xs = [1]
        while len(xs) < self._ngroups * self._k + self.n - 1:
            xs.append(self.field._mul_idx(xs[-1], self.p))
        rows = self._lane_digits(self.pack.take(xs))
        return np.lib.stride_tricks.sliding_window_view(rows, self.n, axis=0)

    def _scale_vec(self, a: np.ndarray, h: int) -> np.ndarray:
        """h * a over an array a of indices (p = 2) or of packed values (odd
        p).  Multiplication by a fixed h is F_p-linear on coefficient
        vectors, so the images h * x^j of the basis fix it for the whole
        array."""
        if self.p == 2:
            cols = [self.field._mul_idx(h, self.p ** j) for j in range(self.n)]
            out = np.zeros_like(a)
            for j, col in enumerate(cols):
                out ^= ((a >> j) & 1) * col
            return out
        # one table per group of k lanes: the packed h x^(g k) * c for every
        # digit combination c of the group, from one product of digit arrays
        p, k = self.p, self._k
        pos, dloc, unpack = self._groups
        cols = self._xwin @ self._lane_digits(self.pack[h]) % p
        lane_unit = 1 << self._w * np.arange(self.n, dtype=np.int64)
        vals = (dloc @ cols.reshape(self._ngroups, k, self.n)) % p @ lane_unit
        tables = np.zeros_like(unpack)
        tables[:, pos] = vals
        out = tables[0].take(self._group_bits(a, 0))
        for g in range(1, self._ngroups):
            out += tables[g].take(self._group_bits(a, g))
            out = self._reduce(out)
        return out

    @cached_property
    def explog(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log), m = q - 1: log[x] in [0, m) is the log of x != 0 to
        the generator g and log[0] = 2m; exp[i] = g^(i mod m) below 2m and
        0 up to 4m.  So exp[log[a] + log[b]] = a * b for all a, b, with no
        mask, and exp[:m] lists g^0 .. g^(m-1).  The first 64 powers (16
        for odd p, whose doubling step is cheap) are scalar products; then
        block doubling: once g^0 .. g^(B-1) are known, g^B times them is the
        next block, and g^(2B) is g^B squared."""
        q = self.q
        m = q - 1
        exp = np.zeros(4 * m + 1, dtype=np.int64)
        exp[0] = 1
        g = self.generator
        done = min(m, 64 if self.p == 2 else 16)
        for i in range(1, done):
            exp[i] = self.field._mul_idx(int(exp[i - 1]), g)
        h = self.field._mul_idx(int(exp[done - 1]), g)
        # odd p doubles on packed values and unpacks once at the end
        work = exp if self.p == 2 else self.pack.take(exp[:m])
        while done < m:
            step = min(done, m - done)
            work[done:done + step] = self._scale_vec(work[:step], h)
            done += step
            h = self.field._mul_idx(h, h)
        if self.p != 2:
            exp[:m] = self._unpack(work)
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

    @property
    def trace1(self) -> np.ndarray:
        """Absolute trace values in [0, p), the one trace_map(1) array."""
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
        even, since the generator is a non-square (p odd).  Held as int8,
        an eighth of the memory of an index table."""
        if self.p == 2:
            raise ValueError("quadratic character needs odd characteristic")
        out = 1 - 2 * (self.explog[1] % 2).astype(np.int8)
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
