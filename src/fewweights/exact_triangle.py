"""All-Edges Exact Triangle solvers and instance decompositions.

An instance is three square matrices (A, B, C) over integers with "bot"
marking absent entries; a triple (i, k, j) is an exact triangle when
A[i,k] + B[k,j] = C[i,j] with all three present.  This module has the
brute-force oracle, the algebraic small-sumset solver (isolating primes +
polynomial matrix products), the covering-based solver for uniform regular
instances, and the uniformization / regularization reductions that turn a
few-weights-per-row instance into uniform regular pieces plus an explicit
triple list.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .additive import (
    _padded,
    bsg_cover,
    isolating_prime_map,
    popular_sums_exact,
    popular_sum_decomposition,
    sumset,
)
from .core import (AuditError, BOT, NEG_INF, POS_INF, WeightError,
                   WeightMatrix, occurrence_stats, row_value_sets)
from .minplus import boolean_matrix_multiply

_PROMISES = ("A_rows", "A_cols", "B_rows", "B_cols", "C_rows", "C_cols")


def normalize_promise(text):
    t = str(text).strip().lower().replace("-", " ").replace("_", " ")
    parts = t.split()
    if len(parts) == 2 and parts[0] in ("a", "b", "c"):
        side = parts[0].upper()
        if parts[1] in ("rows", "row"):
            return f"{side}_rows"
        if parts[1] in ("cols", "col", "columns", "column"):
            return f"{side}_cols"
    raise ValueError(f"unknown promise side {text!r}")


class TriangleInstance:
    """Three n x n matrices plus the promise side.  Every entry is BOT or
    strictly between NEG_INF and POS_INF, else WeightError: no sum of two
    wraps, and the C of a uniformize piece (a sum) may pass GUARD."""

    __slots__ = ("a", "b", "c", "promise")

    def __init__(self, a, b, c, promise="A_rows"):
        mats = []
        for m in (a, b, c):
            if not isinstance(m, WeightMatrix):
                m = WeightMatrix(np.asarray(m, dtype=np.int64))
            mats.append(m)
        a, b, c = mats
        n = a.rows
        for m in mats:
            if m.shape != (n, n):
                raise ValueError("instance matrices must be square of equal size")
            # two comparisons: np.abs(-2**63) is negative
            bad = (m.data != BOT) & ((m.data <= NEG_INF) | (m.data >= POS_INF))
            if bad.any():
                raise WeightError("instance entries must be bot or lie "
                                  "strictly between -2^62 and 2^62")
        self.a, self.b, self.c = a, b, c
        self.promise = normalize_promise(promise)

    @property
    def n(self):
        return self.a.rows

    def matrices(self):
        return self.a.data, self.b.data, self.c.data

    def triangles(self):
        """Full triple enumeration (desk-scale verification helper)."""
        a, b, c = self.matrices()
        n = self.n
        out = set()
        for k in range(n):
            ok = ((a[:, k, None] != BOT) & (b[None, k, :] != BOT) & (c != BOT)
                  & (a[:, k, None] + b[None, k, :] == c))
            for i, j in zip(*np.nonzero(ok)):
                out.add((int(i), int(k), int(j)))
        return out

    def entry_set(self, which):
        m = {"a": self.a, "b": self.b, "c": self.c}[which].data
        return set(m[m != BOT].tolist())


class TriangleReport:
    """Per-pair yes/no answers with optional witnesses."""

    def __init__(self, yes, witness=None):
        self.yes = np.asarray(yes, dtype=bool)
        self.witness = witness

    @classmethod
    def empty(cls, n):
        return cls(np.zeros((n, n), dtype=bool))

    def merge(self, other):
        wit = None
        if self.witness is not None and other.witness is not None:
            wit = np.where(self.witness >= 0, self.witness, other.witness)
        return TriangleReport(self.yes | other.yes, wit)

    def verify_witnesses(self, inst):
        if self.witness is None:
            return True
        a, b, c = inst.matrices()
        for i, j in zip(*np.nonzero(self.yes)):
            k = int(self.witness[i, j])
            if k < 0:
                continue
            if (a[i, k] == BOT or b[k, j] == BOT or c[i, j] == BOT
                    or a[i, k] + b[k, j] != c[i, j]):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, TriangleReport):
            return NotImplemented
        return bool(np.array_equal(self.yes, other.yes))

    __hash__ = None


def _value_codes(m):
    """(nv, codes): the number of distinct present values of m, and per
    entry the rank of its value among m's distinct values (one np.unique,
    then one searchsorted against it; BOT, the largest, gets code nv)."""
    vals = np.unique(m)
    nv = vals.size - int(vals.size > 0 and vals[-1] == BOT)
    return nv, np.searchsorted(vals, m)


def _present_values(m):
    """The distinct present values of m, ascending: one sort, then the
    first entry of each run (np.unique takes about twice as long on
    16 x 16 matrices)."""
    vals = np.sort(m, axis=None)
    first = np.empty(vals.size, dtype=bool)
    first[:1] = True
    np.not_equal(vals[1:], vals[:-1], out=first[1:])
    first &= vals != BOT
    return vals[first]


def _summing_pairs(a, b, c):
    """The summing value pairs of an (a, b, c) triple: every (x, y), in
    lexicographic order, of a value x of a and a value y of b whose sum is
    a value of c.  A triangle's a and b values form such a pair, so a
    triple without one (X+Y misses Z, or a matrix has no entry) holds no
    triangle.  Costs |X|*|Y| sums against the sorted Z."""
    x, y, z = (_present_values(m) for m in (a, b, c))
    if not (x.size and y.size and z.size):
        return []
    sums = np.add.outer(x, y)
    hit = z[np.minimum(np.searchsorted(z, sums), z.size - 1)] == sums
    ii, jj = np.nonzero(hit)
    return list(zip(x[ii].tolist(), y[jj].tolist()))


def _keeps_a_pair(mats, pairs):
    """Whether an (a, b, c) triple taken entrywise from a larger one, whose
    summing pairs are `pairs`, still has one: its value sets are subsets,
    so its summing pairs are those (x, y) with x in a, y in b and x + y in
    c.  Three comparisons per pair tried, and no sort: the cheap test for
    the parts of a triple already tested."""
    a, b, c = mats
    return any((a == x).any() and (b == y).any() and (c == x + y).any()
               for x, y in pairs)


def _line_counts(m):
    """Occurrences of each entry's value within its row and within its column.

    Every entry of m is coded by _value_codes, and each line's codes are
    counted by one bincount into an (n, nv + 1) table whose BOT column is
    then cleared.  When that table would be larger than m (nv at least the
    length of a line), the counts come from the sorts of occurrence_stats
    instead.  Returns (nv, row_cnt, col_cnt, row_distinct, col_distinct):
    the number of distinct present values, the per-entry counts (0 at BOT)
    and the number of distinct values per row and per column.
    """
    nv, codes = _value_codes(m)
    if nv >= min(m.shape):
        row_cnt, _, row_dis = occurrence_stats(m, BOT)
        col_cnt, _, col_dis = occurrence_stats(m.T, BOT)
        return nv, row_cnt, col_cnt.T, row_dis, col_dis
    out = []
    for axis, line in ((0, np.arange(m.shape[0])[:, None]),
                       (1, np.arange(m.shape[1]))):
        table = np.bincount((line * (nv + 1) + codes).ravel(),
                            minlength=m.shape[axis] * (nv + 1))
        table = table.reshape(m.shape[axis], nv + 1)
        table[:, nv] = 0
        out.append((table[line, codes], np.count_nonzero(table, axis=1)))
    (row_cnt, row_dis), (col_cnt, col_dis) = out
    return nv, row_cnt, col_cnt, row_dis, col_dis


class RegularityAudit:
    """Distinct-entry and occurrence statistics of an instance.

    Built from value codes by _line_counts.  `regularize` builds one audit per
    piece it makes and checks uniformity there; the split it then applies is
    regular by construction.  The public `aete_uniform_regular` audits its
    own input; the pipeline's pieces go to its body unaudited.
    """

    def __init__(self, inst):
        self.global_distinct = {}
        self.max_row_occ = {}
        self.max_col_occ = {}
        self.max_row_distinct = {}
        self.max_col_distinct = {}
        for name, mat in (("a", inst.a), ("b", inst.b), ("c", inst.c)):
            nv, row_occ, col_occ, row_dis, col_dis = _line_counts(mat.data)
            self.global_distinct[name] = nv
            self.max_row_occ[name] = int(row_occ.max(initial=0))
            self.max_col_occ[name] = int(col_occ.max(initial=0))
            self.max_row_distinct[name] = int(row_dis.max(initial=0))
            self.max_col_distinct[name] = int(col_dis.max(initial=0))

    def is_uniform(self, d):
        return all(v <= d for v in self.global_distinct.values())

    def is_regular(self, r):
        return (all(v <= r for v in self.max_row_occ.values())
                and all(v <= r for v in self.max_col_occ.values()))


# ----------------------------------------------------------------------------
# Brute-force oracle.
# ----------------------------------------------------------------------------

def aete_brute(inst, with_witnesses=True):
    """Exact triple loop over k; the oracle for every other solver."""
    a, b, c = inst.matrices()
    n = inst.n
    yes = np.zeros((n, n), dtype=bool)
    wit = np.full((n, n), -1, dtype=np.int64) if with_witnesses else None
    cfin = c != BOT
    for k in range(n):
        ok = (a[:, k, None] != BOT) & (b[None, k, :] != BOT) & cfin
        # bot sentinels may wrap in the masked lanes of the sum; the mask
        # keeps any wrapped value out and finite sums stay below 2^62.
        match = ok & (a[:, k, None] + b[None, k, :] == c)
        if with_witnesses:
            wit = np.where(match & (wit < 0), k, wit)
        yes |= match
    return TriangleReport(yes, wit)


# ----------------------------------------------------------------------------
# Polynomial matrix product by NTT evaluation / interpolation.
# ----------------------------------------------------------------------------

_F64_EXACT = 2 ** 53  # every integer below it is exact in float64


def _is_prime(q):
    """Trial division; the 2^53 guard keeps every modulus in use below 2^27."""
    return q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))


@functools.lru_cache(maxsize=64)
def _find_ntt_prime(m, minimum):
    q = max(1, (minimum // m)) * m + 1
    while q <= minimum:
        q += m
    for _ in range(1_000_000):
        if _is_prime(q):
            return q
        q += m
    raise RuntimeError("modulus selection failure: no prime q = 1 mod m found")


def _primitive_root(q):
    fac = []
    x = q - 1
    f = 2
    while f * f <= x:
        if x % f == 0:
            fac.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        fac.append(x)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in fac):
            return g
    raise RuntimeError(f"no primitive root mod {q}")


@functools.lru_cache(maxsize=64)
def _ntt_plan(m, q):
    """Read-only tables for size-m transforms modulo q (q = 1 mod m, m = 2^k).

    Returns (wtab, f2, tw, f1) for the split m = m1*m2 with m2 <= m1 <= 2*m2
    (so tw.shape == (m2, m1)), where w is a primitive m-th root of unity mod q:
    wtab[t] = w^t as float64 (t < m); f2[e2, t2] = w^(-m1*t2*e2) and
    f1[e1, t1] = w^(-m2*t1*e1) are the float64 inverse DFT matrices of sizes
    m2 and m1; tw[e2, t1] = w^(-e2*t1) are the float64 twiddles between them.
    """
    omega = pow(_primitive_root(q), (q - 1) // m, q)
    w = np.ones(m, dtype=np.int64)
    k = 1
    while k < m:
        w[k:2 * k] = w[:k] * pow(omega, k, q) % q
        k *= 2
    winv = w[-np.arange(m) % m]
    m1 = m >> ((m.bit_length() - 1) // 2)
    m2 = m // m1
    i1, i2 = np.arange(m1), np.arange(m2)
    tables = tuple(t.astype(np.float64) for t in (
        w, winv[np.outer(i2, i2) * m1 % m], winv[np.outer(i2, i1) % m],
        winv[np.outer(i1, i1) * m2 % m]))
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=64)
def _power_table(m, q, p):
    """Read-only float64 (m, p+1) table of w^(t*e) mod q at [t, e] (w as in
    _ntt_plan) and a zero column p for bot: one gather evaluates a matrix.
    Only tables below 2^16 entries are cached; p can reach m/2."""
    t, e = np.ogrid[:m, :p]
    table = np.pad(_ntt_plan(m, q)[0][t * e % m], ((0, 0), (0, 1)))
    table.flags.writeable = False
    return table


def _mod_q(x, q):
    """Reduce x, a float64 array of integers in [0, 2^53), mod q in place;
    exact in float64 (proof in poly_matrix_multiply)."""
    k = x / q
    np.floor(k, out=k)
    k *= q
    x -= k
    return x


def poly_matrix_multiply(a_exp, b_exp, p):
    """Presence of each exponent in the product of monomial matrices.

    Entries are exponents in [0, p) or bot.  Returns a boolean array P of
    shape (n, n, 2p-1) with P[i, j, e] true iff some k has
    a_exp[i,k] + b_exp[k,j] = e.  Computed by evaluating at the powers of an
    m-th root of unity modulo a prime q > n (m >= 2p-1, so coefficient
    counts, all at most n < q, are recovered exactly): one gather from a
    power table and one float64 BLAS matrix product per evaluation point,
    then a four-step inverse transform (m = m1*m2, size-m2 and size-m1
    inverse DFTs as float64 products with a twiddle multiply between them,
    only the output rows below 2p-1 kept).  The 1/m factor is skipped: it
    is a unit mod q and leaves zeros in place.
    All values are nonnegative integers.  A running bound on them starts at
    n*(q-1)^2 after the evaluation products (entries below q), and the
    inverse steps multiply it by m2*(q-1), q-1 and m1*(q-1).  A step's input
    is reduced mod q first when its result could reach 2^53; the step then
    stays below max(n, m1)*(q-1)^2 < 2^53, checked before any work, so
    every float64 sum and product is exact.

    The reductions mod q stay in float64 too (_mod_q): x - q*floor(x / q).
    Each operand x is a nonnegative integer below 2^53 by the bound above.
    If x/q is an integer k, correctly rounded division returns k exactly.
    Otherwise x/q lies at least 1/q from both neighbouring integers, while
    the rounding error is at most 2^-53 * x/q < 1/q, so floor(fl(x / q)) =
    floor(x/q); the product and difference are then integers below 2^53
    and exact as well.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    ae = np.asarray(a_exp, dtype=np.int64)
    be = np.asarray(b_exp, dtype=np.int64)
    n = ae.shape[0]
    conv_len = 2 * p - 1
    m = 1
    while m < conv_len:
        m *= 2
    q = _find_ntt_prime(m, max(n, 2))
    m1 = m >> ((m.bit_length() - 1) // 2)
    if max(n, m1) * (q - 1) ** 2 >= _F64_EXACT:
        raise ValueError(f"n={n}, m={m} too large for exact float64 products "
                         f"modulo q={q}: max(n, m1)*(q-1)^2 must stay below 2^53")
    fa, fb = ae != BOT, be != BOT
    if (np.any((ae < 0) & fa) or np.any((ae >= p) & fa)
            or np.any((be < 0) & fb) or np.any((be >= p) & fb)):
        raise ValueError("exponents must lie in [0, p)")
    _, f2, tw, f1 = _ntt_plan(m, q)
    power = (_power_table if m * (p + 1) < 1 << 16
             else _power_table.__wrapped__)(m, q, p)
    m2 = m // m1
    ea, eb = np.where(fa, ae, p), np.where(fb, be, p)
    cols = n * n
    evals = np.empty((m, cols), dtype=np.float64)
    chunk = max(1, (1 << 20) // max(1, cols))
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        evals[lo:hi] = np.matmul(power[lo:hi, ea], power[lo:hi, eb]).reshape(
            hi - lo, cols)
    # row t = t1 + m1*t2 of evals is [t2, t1] of its (m2, m1) view, and
    # coefficient e = e2 + m2*e1 comes out at [e2, e1]
    rows = -(-conv_len // m2)
    x, bound = evals.reshape(m2, m1 * cols), n * (q - 1) ** 2
    for step, factor in ((lambda x: (f2 @ x).reshape(m2, m1, cols), m2),
                         (lambda x: x * tw[:, :, None], 1),
                         (lambda x: np.matmul(f1[:rows], x), m1)):
        if factor * (q - 1) * bound >= _F64_EXACT:
            x, bound = _mod_q(x, q), q - 1
        x, bound = step(x), factor * (q - 1) * bound
    coeffs = _mod_q(x, q)
    presence = (coeffs != 0).transpose(1, 0, 2).reshape(rows * m2, n, n)[:conv_len]
    return np.ascontiguousarray(presence.transpose(1, 2, 0))


def aete_small_doubling(inst):
    """Exact triangle detection through isolating primes and NTT products.

    Entry sets X of A and Y of B drive the cost: when the sumset X+Y stays
    within n the answer per pair is read off the coefficient of
    x^(C[i,j] mod p) for a prime p isolating C[i,j] in X+Y; otherwise the
    brute-force oracle is just as fast and is used directly.

    Each prime p >= 17 costs an NTT of m >= 2p - 1 >= 64 points, one float64
    n^3 product per point.  One boolean n^3 product answers one summing
    value pair (_pair_product), so the uniform regular solver sends a box
    here only from a piece with more than _MIN_NTT_POINTS summing pairs.
    """
    a, b, c = inst.matrices()
    n = inst.n
    x = inst.entry_set("a")
    y = inst.entry_set("b")
    if not x or not y:
        return TriangleReport.empty(n)
    xy = sumset(x, y)
    if len(xy) > n:
        rep = aete_brute(inst, with_witnesses=False)
        return TriangleReport(rep.yes)
    bound = max(max(abs(v) for v in xy), 1)
    iso, primes = isolating_prime_map(xy, bound)
    cfin = c != BOT
    c_vals = set(c[cfin].tolist())
    yes = np.zeros((n, n), dtype=bool)
    iso_of_c = np.zeros((n, n), dtype=np.int64)
    for v in c_vals & xy:
        iso_of_c[cfin & (c == v)] = iso[v]
    for p in primes:
        mask = iso_of_c == p
        if not mask.any():
            continue
        a_exp = np.where(a != BOT, a % p, BOT)
        b_exp = np.where(b != BOT, b % p, BOT)
        presence = poly_matrix_multiply(a_exp, b_exp, p)
        ii, jj = np.nonzero(mask)
        ee = c[ii, jj] % p
        hit = presence[ii, jj, ee]
        high = ee + p <= 2 * p - 2
        hit = hit | np.where(high, presence[ii, jj, np.minimum(ee + p, 2 * p - 2)], False)
        yes[ii, jj] |= hit
    return TriangleReport(yes)


# ----------------------------------------------------------------------------
# Uniform regular solver.
# ----------------------------------------------------------------------------

def _value_mask(m, values):
    """Where m holds one of `values` (a set of integers, never BOT): one
    searchsorted against the sorted values."""
    vals = np.sort(np.fromiter(values, dtype=np.int64, count=len(values)))
    if not vals.size:
        return np.zeros(m.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(vals, m), vals.size - 1)
    return vals[pos] == m


def _restrict_values(m, values):
    return np.where(_value_mask(m, values), m, BOT)


def aete_uniform_regular(inst, d, big_k, rng=None):
    """Covering-based solver for d-uniform, max(1, n // d)-regular instances.

    A piece with few summing value pairs is answered by one boolean product
    per pair; on a larger one the structured boxes of the cover go to the
    algebraic small-sumset solver and the remainder pairs to the boolean
    products (the cost rule is in _uniform_regular_body).  This entry audits its
    input and raises AuditError when it is not d-uniform or not
    max(1, n // d)-regular.  aete_few_weights hands the pieces of regularize,
    which regularize has already checked, to the unaudited body.
    """
    if big_k < 1:
        raise ValueError("K must be >= 1")
    audit = RegularityAudit(inst)
    if not audit.is_uniform(d):
        raise AuditError(f"instance is not {d}-uniform: {audit.global_distinct}")
    # the split of regularize: for n >= d the same integer bound as n / d
    r = max(1, inst.n // max(d, 1))
    if not audit.is_regular(r):
        raise AuditError(f"instance is not {r}-regular")
    return _uniform_regular_body(inst, big_k, rng)


def _pair_product(a, b, c, pairs):
    """Where some k and some (x, y) of `pairs` have a[i, k] == x,
    b[k, j] == y and c[i, j] == x + y: one boolean product per pair,
    yes |= (c == x + y) & boolean_matrix_multiply(a == x, b == y).

    Every pair must sum to a value of c (as _summing_pairs and the cover's
    pairs do), so a sum never names BOT; the sums are Python integers and
    do not wrap.
    """
    yes = np.zeros(c.shape, dtype=bool)
    for x, y in pairs:
        yes |= (c == x + y) & boolean_matrix_multiply(a == x, b == y)
    return yes


# The smallest NTT the algebraic path runs: isolating_primes picks primes
# p >= 17, and poly_matrix_multiply evaluates at m >= 2p - 1, a power of two.
_MIN_NTT_POINTS = 64


def _uniform_regular_body(inst, big_k, rng):
    """Answer a piece by pair products, or by the cover and the algebraic
    path.

    The cost rule: a piece with P summing value pairs costs P boolean n^3
    products (float32 BLAS) through _pair_product.  The cover path gives
    every structured box it accepts to aete_small_doubling, which runs at
    least one NTT of m >= _MIN_NTT_POINTS evaluation points, each a float64
    n^3 product, and it still answers the remainder pairs by _pair_product.
    So a piece with P <= _MIN_NTT_POINTS goes straight to _pair_product;
    a d-uniform piece has P <= d^2, so every piece with d <= 8 does.
    """
    a, b, c = inst.matrices()
    pairs = _summing_pairs(a, b, c)
    if len(pairs) <= _MIN_NTT_POINTS:
        return TriangleReport(_pair_product(a, b, c, pairs))
    x, y, z = inst.entry_set("a"), inst.entry_set("b"), inst.entry_set("c")
    cover = bsg_cover(x, y, z, big_k, rng)
    yes = np.zeros((inst.n, inst.n), dtype=bool)
    for xk, yk in cover.structured:
        if not xk or not yk:
            continue
        sub = TriangleInstance(_restrict_values(a, xk), _restrict_values(b, yk),
                               inst.c)
        yes |= aete_small_doubling(sub).yes
    yes |= _pair_product(a, b, c, sorted(cover.remainder))
    return TriangleReport(yes)


# ----------------------------------------------------------------------------
# Orientation: rotations putting the promised side on the rows of A.
# ----------------------------------------------------------------------------

def _neg(m):
    return np.where(m == BOT, BOT, -m)


def _tr(m):
    return np.ascontiguousarray(m.T)


_FORWARD = {
    "A_rows": lambda a, b, c: (a, b, c),
    "A_cols": lambda a, b, c: (_tr(a), _neg(c), _neg(b)),
    "B_rows": lambda a, b, c: (b, _tr(_neg(c)), _tr(_neg(a))),
    "B_cols": lambda a, b, c: (_tr(b), _tr(a), _tr(c)),
    "C_rows": lambda a, b, c: (_neg(c), _tr(b), _neg(a)),
    "C_cols": lambda a, b, c: (_tr(_neg(c)), a, _tr(_neg(b))),
}

_TRIPLE_TO_ORIGINAL = {
    "A_rows": lambda i, k, j: (i, k, j),
    "A_cols": lambda i, k, j: (k, i, j),
    "B_rows": lambda i, k, j: (j, i, k),
    "B_cols": lambda i, k, j: (j, k, i),
    "C_rows": lambda i, k, j: (i, j, k),
    "C_cols": lambda i, k, j: (k, j, i),
}

# Inverse instance transform of each rotation (itself another rotation).
_INVERSE = {
    "A_rows": "A_rows",
    "A_cols": "A_cols",
    "B_rows": "C_cols",
    "B_cols": "B_cols",
    "C_rows": "C_rows",
    "C_cols": "B_rows",
}


def canonical_orientation(inst, promise=None):
    """Rotate/negate so the promised few-distinct side is the rows of A.

    The returned instance's triangles are in bijection with the input's via
    triples_to_original; its promise tag records which rotation was applied.
    """
    tag = normalize_promise(promise if promise is not None else inst.promise)
    return TriangleInstance(*_FORWARD[tag](*inst.matrices())), tag


def deorient_instance(inst, tag):
    """Map an instance in rotated coordinates back to original coordinates."""
    back = _FORWARD[_INVERSE[normalize_promise(tag)]]
    return TriangleInstance(*back(*inst.matrices()))


def triples_to_original(triples, tag):
    fn = _TRIPLE_TO_ORIGINAL[normalize_promise(tag)]
    return {fn(i, k, j) for (i, k, j) in triples}


# ----------------------------------------------------------------------------
# Uniformization.
# ----------------------------------------------------------------------------

def _label_pieces(mats, labels):
    """Split an (a, b, c) triple by per-entry integer labels (-1 at BOT).

    For every label triple (s, t, u) with s a label of a, t of b and u of
    c, in lexicographic order, yields np.where(label == x, m, BOT) for each
    matrix m and its label x.  Every matrix of a piece holds an entry, and a
    triangle lies in the one piece its three entries' labels name, so the
    pieces' triangle sets partition the triple's.
    """
    per_matrix = [[np.where(lab == t, m, BOT) for t in np.unique(lab[lab >= 0])]
                  for m, lab in zip(mats, labels)]
    return itertools.product(*per_matrix)


def _rank_labels(m, d):
    """(nv, labels): m's number of distinct present values, and per entry
    its value's rank among them divided by d (-1 at BOT)."""
    nv, codes = _value_codes(m)
    return nv, np.where(codes < nv, codes // d, -1)


def uniformize_naive(inst, d, parts):
    """Split a d*parts-uniform instance into at most parts^3 d-uniform ones.

    Entry sets are partitioned into chunks of at most d values in ascending
    order (an entry's chunk is its value's rank divided by d), and there is
    one instance per triple of chunks; the triangle sets of the output
    partition the input's.
    """
    labels = []
    for m in inst.matrices():
        nv, lab = _rank_labels(m, d)
        if nv > d * parts:
            raise AuditError(f"matrix has {nv} distinct entries, "
                             f"more than d*parts = {d * parts}")
        labels.append(lab)
    return [TriangleInstance(*p) for p in _label_pieces(inst.matrices(), labels)]


def _row_occurrence_classes(m, absent):
    """Split entries by floor(log2(row occurrence count)); returns {x: matrix}."""
    occ = occurrence_stats(m, absent)[0]
    present = occ > 0
    cls = np.full(m.shape, -1, dtype=np.int64)
    cls[present] = np.floor(np.log2(occ[present]))
    return {int(x): np.where(cls == x, m, absent) for x in np.unique(cls[present])}


def _col_occurrence_classes(m, absent):
    by_rows = _row_occurrence_classes(np.ascontiguousarray(m.T), absent)
    return {y: np.ascontiguousarray(v.T) for y, v in by_rows.items()}


# Joined entry pairs per block of _list_triangles (8 MB per index array).
_JOIN_PAIRS = 2 ** 20


def _list_triangles(a, b, c):
    """Every (i, k, j) with a[i, k] + b[k, j] == c[i, j], all three present,
    as three index arrays; a, b and c are BOT-marked arrays.

    Each present a[i, k] is joined with row k's run of b's present entries
    in row-major order, at most _JOIN_PAIRS joined pairs per block, and the
    sums are tested against c by one gather.
    """
    ia, ka = np.nonzero(a != BOT)
    kb, jb = np.nonzero(b != BOT)
    av, bv = a[ia, ka], b[kb, jb]
    per_row = np.bincount(kb, minlength=b.shape[0])
    # entry e of a makes the joined pairs starts[e] .. ends[e] - 1, and pair
    # t joins it with b's entry t + lag[e]
    size = per_row[ka]
    ends = np.cumsum(size)
    starts, lag = ends - size, np.cumsum(per_row)[ka] - ends
    found = [(np.zeros(0, dtype=np.intp),) * 2]
    for lo in range(0, int(ends[-1]) if ends.size else 0, _JOIN_PAIRS):
        hi = lo + _JOIN_PAIRS
        e_lo, e_hi = np.searchsorted(ends, lo, "right"), np.searchsorted(starts, hi)
        take = (np.minimum(ends[e_lo:e_hi], hi)
                - np.maximum(starts[e_lo:e_hi], lo))
        e = np.repeat(np.arange(e_lo, e_hi), take)
        pos = np.arange(lo, lo + e.size) + lag[e]
        cv = c[ia[e], jb[pos]]
        hit = (av[e] + bv[pos] == cv) & (cv != BOT)
        found.append((e[hit], pos[hit]))
    e, pos = (np.concatenate(x) for x in zip(*found))
    return ia[e], ka[e], jb[pos]


def _keep_row_values(m, sets):
    """m with BOT wherever row i holds a value outside sets[i]."""
    vals, valid = _padded(sets)
    keep = ((m[:, :, None] == vals[:, None, :]) & valid[:, None, :]).any(axis=2)
    return np.where(keep, m, BOT)


def _shifted_part(m, level):
    """Each row's piece of a PartLevel minus the row's shift, and the shifts."""
    rows = range(m.shape[0])
    shift = np.array([level.shifts.get(i, 0) for i in rows], dtype=np.int64)
    part = _keep_row_values(m, [level.members.get(i, ()) for i in rows])
    return np.where(part != BOT, part - shift[:, None], BOT), shift


def uniformize(inst, d, delta, rng=None):
    """Decompose a row-d-weights instance into d-uniform instances plus triples.

    The input must already have at most d distinct entries per row of A
    (apply canonical_orientation first).  Returns (instances, T) where the
    triangle sets of the instances together with T disjointly partition the
    input's triangles and every instance is d-uniform.
    """
    a, b, c = inst.matrices()
    n = inst.n
    if occurrence_stats(a, BOT)[2].max(initial=0) > d:
        raise AuditError(f"rows of A exceed {d} distinct entries")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    found = []
    instances = []
    b_classes = sorted(_col_occurrence_classes(b, BOT).items())
    for x, ax in sorted(_row_occurrence_classes(a, BOT).items()):
        for y, by in b_classes:
            if 2 ** y <= n / (d * delta):
                # short columns of b: list every triangle of the class
                found.append(_list_triangles(ax, by, c))
            else:
                sub, listed = _uniformize_class(ax, by, c, d, delta, rng)
                instances.extend(sub)
                found.extend(listed)
    return instances, set(zip(*(np.concatenate(ix).tolist()
                                for ix in zip(*found))))


def _uniformize_class(a, b, c, d, delta, rng):
    """One (row class of A, column class of B) pair of uniformize: its
    d-uniform instances and a list of _list_triangles results."""
    xdec, ydec = popular_sum_decomposition(
        row_value_sets(a, BOT), row_value_sets(b.T, BOT), d * delta,
        delta * delta, rng)

    # Exceptional triangles through the leftover value sets, on either side.
    # Splitting the targets by representation count would list the same
    # triples in both arms: b[k, j] != BOT and a[i, k] + b[k, j] == c[i, j]
    # is the test b[k, j] == c[i, j] - a[i, k], as that difference is finite
    # and so never BOT.
    found = []
    if any(xdec.remainders):
        found.append(_list_triangles(_keep_row_values(a, xdec.remainders), b, c))
    if any(ydec.remainders):
        found.append(_list_triangles(a, _keep_row_values(b.T, ydec.remainders).T, c))

    # Ordinary triangles: shift each part pair onto its common cores.
    t_pop = max(1.0, d / float(delta) ** 9)
    instances = []
    b_parts = [(*_shifted_part(b.T, lvl), sorted(lvl.core))
               for lvl in ydec.parts if lvl.members]
    for xlvl in xdec.parts:
        if not xlvl.members:
            continue
        ag, sshift = _shifted_part(a, xlvl)
        sg = sorted(xlvl.core)
        for bh_t, tshift, th in b_parts:
            bh = bh_t.T
            pop = popular_sums_exact(sg, th, t_pop) if sg and th else set()
            cgh = np.where(c != BOT, c - sshift[:, None] - tshift, BOT)
            keep = _value_mask(cgh, pop)
            # unpopular shifted targets: list their few representations.  A
            # piece value av of row i satisfies shift - av in Y_{j*}, so its
            # ag entry av - shift lies in the core -Y_{j*}; likewise every bh
            # entry lies in its core, so the listing needs no core filter.
            found.append(_list_triangles(ag, bh, np.where(keep, BOT, cgh)))
            if not keep.any():
                continue
            mats = (ag, bh, np.where(keep, cgh, BOT))
            labels = [_rank_labels(m, d)[1] for m in mats]
            instances.extend(TriangleInstance(*p)
                             for p in _label_pieces(mats, labels))
    return instances, found


# ----------------------------------------------------------------------------
# Regularization.
# ----------------------------------------------------------------------------

def regularize_naive(inst, d, r, big_r):
    """Split a d-uniform, r*R-regular instance into at most R^6 r-regular ones.

    An entry's row part is its rank among equal values in its row divided
    by r; its column part is its rank among the entries of its column with
    the same value and row part, divided by r.  There is one instance per
    triple of (row part, column part) labels, in lexicographic order.
    """
    if r < 1 or big_r < 1:
        raise ValueError("r and R must be >= 1")
    r = int(r)
    labels = []
    for m in inst.matrices():
        present = m != BOT
        row_part = occurrence_stats(m, BOT)[1] // r
        if (row_part[present] >= big_r).any():
            raise AuditError("matrix is not r*R-regular on rows")
        key = np.where(present, _value_codes(m)[1] * big_r + row_part, -1)
        col_part = occurrence_stats(key.T, -1)[1].T // r
        if (col_part[present] >= big_r).any():
            raise AuditError("matrix is not r*R-regular on columns")
        labels.append(np.where(present, row_part * big_r + col_part, -1))
    return [TriangleInstance(*p) for p in _label_pieces(inst.matrices(), labels)]


def _three_way_split(m, threshold):
    """(row-heavy, col-heavy, regular) by occurrence counts in m."""
    fin = m != BOT
    _, row_cnt, col_cnt, _, _ = _line_counts(m)
    heavy_row = fin & (row_cnt > threshold)
    heavy_col = fin & ~heavy_row & (col_cnt > threshold)
    regular = fin & ~heavy_row & ~heavy_col
    return (np.where(heavy_row, m, BOT), np.where(heavy_col, m, BOT),
            np.where(regular, m, BOT))


class RegularizeStats:
    def __init__(self):
        self.max_depth = 0
        self.uniformize_calls = 0


def regularize(inst, d, delta, eps, rng=None, depth_guard=None, stats=None):
    """Decompose a d-weights instance into uniform regular pieces plus triples.

    Recursive scheme: uniformize, strip the entries that are too frequent in
    their row or column of each matrix into six lower-d recursive branches,
    and keep the doubly-regular rest.  Pieces are finally split so that a
    declared-d' piece is d'-uniform and floor(n/d')-regular.  Returns
    (pieces, T) where pieces are (d', instance) pairs; the triangle sets of
    the pieces plus T disjointly partition the input's triangles.

    Each piece of the recursion is audited once, here: it must be
    d'-uniform (else AuditError), and its largest row or column occurrence
    count w fixes R = ceil(w / r) for r = max(1, n // d').  A piece with
    R = 1 is already r-regular and is kept as it is; any other goes through
    regularize_naive, whose split raises AuditError unless every part is
    r-regular, and whose parts hold subsets of the piece's values.  So every
    returned piece has passed both checks, and aete_few_weights solves them
    without auditing again.

    A triple whose value sumset X+Y misses its C values Z holds no triangle
    and is dropped unsolved: the input and every uniformize output before
    its three-way splits (_summing_pairs), and every recursive branch,
    regular rest and part of the final split (_keeps_a_pair, against the
    pairs of the triple it was cut from).  So every returned piece has a
    summing value pair.
    """
    pieces, triples = _regularize_unsplit(inst, d, delta, eps, rng,
                                          depth_guard, stats)
    n = inst.n
    final = []
    for d_l, piece in pieces:
        audit = RegularityAudit(piece)
        if not audit.is_uniform(d_l):
            raise AuditError(f"regularize piece is not {d_l}-uniform: "
                             f"{audit.global_distinct}")
        r = max(1, n // max(d_l, 1))
        worst = max(*audit.max_row_occ.values(), *audit.max_col_occ.values(), 1)
        big_r = math.ceil(worst / r)
        if big_r == 1:
            final.append((d_l, piece))
        else:
            pairs = _summing_pairs(*piece.matrices())
            final.extend((d_l, sub) for sub in
                         regularize_naive(piece, d_l, r, big_r)
                         if _keeps_a_pair(sub.matrices(), pairs))
    return final, triples


def _regularize_unsplit(inst, d, delta, eps, rng, depth_guard, stats):
    """The recursion of regularize: its (d', piece) pairs before the final
    split, plus T."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = inst.n
    rho = max(float(d), 1.0) ** (eps / 6.0)
    if depth_guard is None:
        if rho > 1.0000001:
            depth_guard = math.ceil(math.log(max(d, 2)) / math.log(rho)) + 2
        else:
            depth_guard = d + 2
    if stats is None:
        stats = RegularizeStats()

    def rec(mats, d_cur, delta_cur, tag, depth):
        if depth > depth_guard:
            raise RuntimeError("recursion depth guard exceeded; "
                               "check eps/rho configuration")
        stats.max_depth = max(stats.max_depth, depth)
        if d_cur <= 0:
            return [], set()
        oriented = TriangleInstance(*_FORWARD[tag](*mats))
        stats.uniformize_calls += 1
        insts, t_acc = uniformize(oriented, d_cur, delta_cur, rng)
        pieces_acc = []
        big_l = max(1, len(insts))
        d_next = int(d_cur // rho)
        delta_next = delta_cur * 12 * big_l
        threshold = (n / max(d_cur, 1)) * rho
        for sub in insts:
            a, b, c = sub.matrices()
            pairs = _summing_pairs(a, b, c)
            if not pairs:
                continue
            a_row, a_col, a_reg = _three_way_split(a, threshold)
            b_row, b_col, b_reg = _three_way_split(b, threshold)
            c_row, c_col, c_reg = _three_way_split(c, threshold)
            branches = [
                ((a_row, b, c), "A_rows"),
                ((a_col, b, c), "A_cols"),
                ((a_reg, b_row, c), "B_rows"),
                ((a_reg, b_col, c), "B_cols"),
                ((a_reg, b_reg, c_row), "C_rows"),
                ((a_reg, b_reg, c_col), "C_cols"),
            ]
            for branch, pr in branches:
                if not _keeps_a_pair(branch, pairs):
                    continue
                sp, st = rec(branch, d_next, delta_next, pr, depth + 1)
                pieces_acc.extend(sp)
                t_acc |= st
            reg = (a_reg, b_reg, c_reg)
            if _keeps_a_pair(reg, pairs):
                pieces_acc.append((d_cur, reg))
        back = _FORWARD[_INVERSE[tag]]
        return ([(dl, back(*m)) for dl, m in pieces_acc],
                triples_to_original(t_acc, tag))

    if not _summing_pairs(*inst.matrices()):
        return [], set()
    pieces, triples = rec(inst.matrices(), d, delta, inst.promise, 0)
    return [(dl, TriangleInstance(*m)) for dl, m in pieces], triples


# ----------------------------------------------------------------------------
# Full few-weights solver.
# ----------------------------------------------------------------------------

def default_split_parameter(n, eps):
    """Largest power of two Delta with Delta^(2^(1/eps)) <= n."""
    budget = math.log2(max(n, 2)) / (2.0 ** (1.0 / eps))
    return max(1, 2 ** int(budget))


def structured_box_count(n, d, omega_hat=3.0):
    """K = ceil((n^(3-omega)/d)^(1/7)) with the configured exponent."""
    return max(1, math.ceil((n ** (3.0 - omega_hat) / max(d, 1)) ** (1.0 / 7.0)))


def aete_few_weights(inst, d, delta_exp, delta=None, omega_hat=3.0, rng=None):
    """Solve a d-weights instance: regularize, then cover-and-conquer.

    delta_exp is the exponent gap that fixes eps = delta_exp/14 and in turn
    the frequency-stripping factor rho = d^(eps/6).  The pieces are solved by
    the uniform regular solver with K derived from the configured exponent;
    regularize has audited each of them, so they skip the solver's entry
    audit.
    """
    n = inst.n
    eps = delta_exp / 14.0
    if delta is None:
        delta = default_split_parameter(n, eps)
    pieces, triples = regularize(inst, d, delta, eps, rng=rng)
    yes = np.zeros((n, n), dtype=bool)
    for i, _, j in triples:
        yes[i, j] = True
    report = TriangleReport(yes)
    for d_l, piece in pieces:
        k = structured_box_count(n, d_l, omega_hat)
        report = report.merge(_uniform_regular_body(piece, k, rng))
    return report
