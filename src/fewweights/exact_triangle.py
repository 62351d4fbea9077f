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
import math

import numpy as np

from .additive import (
    bsg_cover,
    isolating_prime_map,
    popular_sums_exact,
    popular_sum_decomposition,
    sumset,
)
from .core import (AuditError, BOT, NEG_INF, POS_INF, WeightError,
                   WeightMatrix, _line_runs, _run_firsts, _stack_codes,
                   occurrence_stats, row_values)

_PROMISES = ("A_rows", "A_cols", "B_rows", "B_cols", "C_rows", "C_cols")


def _check_domain(m):
    """Raise WeightError unless every entry of the array m is BOT or lies
    strictly between NEG_INF and POS_INF (two comparisons: np.abs(-2**63)
    is negative)."""
    if ((m != BOT) & ((m <= NEG_INF) | (m >= POS_INF))).any():
        raise WeightError("instance entries must be bot or lie "
                          "strictly between -2^62 and 2^62")


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
            _check_domain(m.data)
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


def _line_counts(codes, width):
    """Per entry of a stack of value codes below `width`: how often its code
    occurs in its row, and in its column.  One bincount per axis over
    (line, code) keys while that table is no larger than the stack (width
    at most the line length), else the sorts of _line_runs."""
    if width > min(codes.shape[-2:]):
        return tuple(_line_runs(codes, axis, ranks=False)[0] for axis in (-1, -2))
    out = []
    for axis in (-1, -2):
        x = codes if axis == -1 else codes.swapaxes(-1, -2)
        line = np.arange(math.prod(x.shape[:-1]), dtype=np.int32)
        key = line.reshape(*x.shape[:-1], 1) * np.int32(width) + x
        table = np.bincount(key.ravel(), minlength=line.size * width)
        count = table.astype(np.int32)[key]
        out.append(count if axis == -1 else count.swapaxes(-1, -2))
    return tuple(out)


def _present_values(m):
    """The distinct present values of m, ascending: one sort, then the
    first entry of each run (np.unique takes about twice as long on
    16 x 16 matrices)."""
    vals = np.sort(m, axis=None)
    return vals[_run_firsts(vals, vals.size) & (vals != BOT)]


def _summing_pairs(a, b, c):
    """The summing value pairs of an (a, b, c) triple: every (x, y), in
    lexicographic order, of a value x of a and a value y of b whose sum is
    a value of c.  A triangle's a and b values form such a pair, so a
    triple without one (X+Y misses Z, or a matrix has no entry) holds no
    triangle."""
    vals = [_present_values(m) for m in (a, b, c)]
    _, i, j, _ = _summing_slots(*((v[None], np.ones((1, v.size), dtype=bool))
                                  for v in vals))
    return list(zip(vals[0][i].tolist(), vals[1][j].tolist()))


def _summing_slots(x, y, z):
    """x, y and z are (values, real) pairs of (owners, slots) arrays, z's
    real values ascending in each row: the (o, i, j, k) of every real
    x[o, i] + y[o, j] == z[o, k], in order.  Each sum is looked up by its
    owner and its rank among all real z values, so the cost is two
    searchsorted per slot pair.  Real values lie within +-2^62, so no real
    sum wraps."""
    (x, vx), (y, vy), (z, vz) = x, y, z
    o, i, j = np.nonzero(vx[:, :, None] & vy[:, None, :])
    zo, k = np.nonzero(vz)
    zv = z[zo, k]
    u = np.sort(zv)
    if not (o.size and u.size):
        return (np.zeros(0, dtype=np.intp),) * 4
    sums = x[o, i] + y[o, j]
    rank = np.minimum(np.searchsorted(u, sums), u.size - 1)
    key = o * u.size + rank
    zkey = zo * u.size + np.searchsorted(u, zv)
    at = np.minimum(np.searchsorted(zkey, key), zkey.size - 1)
    hit = (u[rank] == sums) & (zkey[at] == key)
    return o[hit], i[hit], j[hit], k[at[hit]]


def _label_triples(labels):
    """(o, la, lb, lc): every triple of a label of a, one of b and one of c
    present in owner o of a (3, owners, n, n) stack of entry labels (-1 at
    BOT), in lexicographic order."""
    # has[m, o, l]: label l occurs in matrix m of owner o (slot 0 is BOT's)
    width = int(labels.max(initial=0)) + 2
    lines = labels.reshape(3 * labels.shape[1], -1)
    key = lines + (np.arange(lines.shape[0]) * width + 1)[:, None]
    has = np.bincount(key.ravel(), minlength=lines.shape[0] * width) > 0
    has = has.reshape(3, labels.shape[1], width)[:, :, 1:]
    # each (matrix, owner)'s present labels, ascending, from its offset on
    label = np.nonzero(has)[2]
    count = has.sum(axis=2)
    first = (np.cumsum(count) - count.ravel()).reshape(count.shape)
    na, nb, nc = count
    size = na * nb * nc
    o = np.repeat(np.arange(size.size), size)
    q = np.arange(o.size) - np.repeat(np.cumsum(size) - size, size)
    nb, nc = nb[o], nc[o]
    return (o, label[first[0, o] + q // (nb * nc)],
            label[first[1, o] + q // nc % nb], label[first[2, o] + q % nc])


class _LabelStack:
    """(a, b, c) array triples stacked into (3, G, n, n), with each
    matrix's value codes (_stack_codes: nv, codes, and the value table
    vals), split by per-entry labels: the pieces are each triple's label
    triples (_label_triples), and piece p keeps label parts[m][p] of
    matrix m of triple owner[p].  Each entry is checked against the domain
    once, here."""

    classes = None

    def __init__(self, triples):
        self.mats = mats = np.stack([np.stack(m) for m in zip(*triples)])
        _check_domain(mats)
        nv, codes, vals = _stack_codes(
            mats.reshape(3 * mats.shape[1], *mats.shape[2:]))
        self.nv, self.codes = nv.reshape(mats.shape[:2]), codes.reshape(mats.shape)
        self.vals = vals.reshape(*mats.shape[:2], -1)
        self.present = mats != BOT

    def _split(self, labels):
        self.labels = np.where(self.present, labels, -1)
        self.owner, *self.parts = _label_triples(self.labels)
        self.size = self.owner.size

    def arrays(self, p, classes=(3, 3, 3)):
        """Piece p's three matrices, each keeping the entries of its class
        (3 keeps all; _LabelGroups sets the classes)."""
        g = self.owner[p]
        out = []
        for m, cls in enumerate(classes):
            keep = self.labels[m, g] == self.parts[m][p]
            if cls != 3:
                keep &= self.classes[m, g] == cls
            out.append(np.where(keep, self.mats[m, g], BOT))
        return tuple(out)


class RegularityAudit:
    """Distinct-entry and occurrence statistics of an instance.

    Built from _stack_codes and _line_runs over the three matrices.
    `regularize` audits its pieces by the same statistics over whole stacks
    (_PieceStack); the split it then applies is regular by construction.
    The public `aete_uniform_regular` audits its own input.
    """

    def __init__(self, inst):
        stack = np.stack(inst.matrices())
        present = stack != BOT
        nv, codes, _ = _stack_codes(stack)
        stats = [nv]
        for axis in (-1, -2):
            count, rank = _line_runs(codes, axis)
            stats.append(np.where(present, count, 0).max(axis=(1, 2), initial=0))
            distinct = (present & (rank == 0)).sum(axis=axis)
            stats.append(distinct.max(axis=1, initial=0))
        (self.global_distinct, self.max_row_occ, self.max_row_distinct,
         self.max_col_occ, self.max_col_distinct) = (
            dict(zip("abc", s.tolist())) for s in stats)

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
    max(1, n // d)-regular.  aete_few_weights answers the pieces of
    regularize, which regularize has already checked, by the same rule
    without this audit: their pair products stacked (_PieceStack), the
    rest through the unaudited body.
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
    b[k, j] == y and c[i, j] == x + y (_pair_hits with one owner).

    Every pair must sum to a value of c (as _summing_pairs and the cover's
    pairs do), so a sum never names BOT; values lie within +-2^62, so a
    sum does not wrap.
    """
    x, y = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return _pair_hits(np.stack((a, b, c))[:, None],
                      np.zeros(x.size, dtype=np.intp), (x, y, x + y))


def _pair_hits(keys, owner, want):
    """yes[i, j]: some t and k have keys[0, o, i, k] == want[0][t],
    keys[1, o, k, j] == want[1][t] and keys[2, o, i, j] == want[2][t] for
    o = owner[t]; keys is a (3, owners, n, n) stack.  One boolean product
    per t: the masks are multiplied by float32 np.matmul (terms are 0 or
    1, so a positive sum is exact) in blocks of about _STACK_CELLS output
    cells."""
    n = keys.shape[-1]
    yes = np.zeros(keys.shape[-2:], dtype=bool)
    step = max(1, _STACK_CELLS // max(1, n * n))
    for lo in range(0, owner.size, step):
        o = owner[lo:lo + step]
        w = [v[lo:lo + step, None, None] for v in want]
        hit = np.matmul((keys[0, o] == w[0]).astype(np.float32),
                        (keys[1, o] == w[1]).astype(np.float32)) > 0
        hit &= keys[2, o] == w[2]
        yes |= hit.any(axis=0)
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

def uniformize_naive(inst, d, parts):
    """Split a d*parts-uniform instance into at most parts^3 d-uniform ones.

    Entry sets are partitioned into chunks of at most d values in ascending
    order (an entry's chunk is its value's rank divided by d), and there is
    one instance per triple of chunks; the triangle sets of the output
    partition the input's.
    """
    for count in _stack_codes(np.stack(inst.matrices()))[0].tolist():
        if count > d * parts:
            raise AuditError(f"matrix has {count} distinct entries, "
                             f"more than d*parts = {d * parts}")
    return _label_instances([inst.matrices()], d)


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


def _list_triangles(a, b, c, width=1):
    """Every (i, k, j) with a[i, k] + b[k, j] - c[i, j] in [0, width), all
    three present, as three index arrays; a, b and c are BOT-marked arrays.

    Each present a[i, k] is joined with row k's run of b's present entries
    in row-major order, at most _JOIN_PAIRS joined pairs per block, and the
    sums are tested against c by one gather.  The gap to a BOT c can wrap
    around int64, but the c != BOT mask drops it.
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
        gap = av[e] + bv[pos] - cv  # in [0, width) iff below it unsigned
        hit = (gap.view(np.uint64) < width) & (cv != BOT)
        found.append((e[hit], pos[hit]))
    e, pos = (np.concatenate(x) for x in zip(*found))
    return ia[e], ka[e], jb[pos]


def _keep_slots(m, slot, keep):
    """m with BOT wherever the slot of m[i, k] in row i (core.row_values)
    is not kept in keep[i]; absent entries (slot -1) must be BOT in m."""
    return np.where(np.take_along_axis(keep, slot, axis=1), m, BOT)


def _shifted_part(m, slot, level):
    """Each row's piece of a PartLevel, minus the row's shift."""
    part = _keep_slots(m, slot, level.member)
    return np.where(part != BOT, part - level.shift[:, None], BOT)


def uniformize(inst, d, delta):
    """Decompose a row-d-weights instance into d-uniform instances plus triples.

    The input must already have at most d distinct entries per row of A
    (apply canonical_orientation first).  Returns (instances, T) where the
    triangle sets of the instances together with T disjointly partition the
    input's triangles and every instance is d-uniform: the pieces of the
    label groups of _uniformize, in order.  No random numbers are drawn.
    """
    groups, triples = _uniformize(*inst.matrices(), d, delta)
    return _label_instances(groups, d), triples


def _label_instances(groups, d):
    """The label pieces of groups (_LabelGroups) as instances, in order."""
    if not groups:
        return []
    stack = _LabelGroups(groups, d)
    return [TriangleInstance(*stack.arrays(p)) for p in range(stack.size)]


def _uniformize(a, b, c, d, delta):
    """uniformize on bot-marked arrays: (groups, T), each group an (a, b, c)
    triple of arrays whose label pieces (_LabelGroups) are the d-uniform
    instances."""
    n = a.shape[0]
    if occurrence_stats(a, BOT)[2].max(initial=0) > d:
        raise AuditError(f"rows of A exceed {d} distinct entries")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    found = []
    groups = []
    b_classes = sorted(_col_occurrence_classes(b, BOT).items())
    for x, ax in sorted(_row_occurrence_classes(a, BOT).items()):
        for y, by in b_classes:
            if 2 ** y <= n / (d * delta):
                # short columns of b: list every triangle of the class
                found.append(_list_triangles(ax, by, c))
            else:
                sub, listed = _uniformize_class(ax, by, c, d, delta)
                groups.extend(sub)
                found.extend(listed)
    return groups, set(zip(*(np.concatenate(ix).tolist() for ix in zip(*found))))


def _uniformize_class(a, b, c, d, delta):
    """One (row class of A, column class of B) pair of uniformize: its
    label groups and a list of _list_triangles results."""
    avals, avalid, aslot = row_values(a, BOT)
    bvals, bvalid, bslot = row_values(b.T, BOT)
    xdec, ydec = popular_sum_decomposition(
        (avals, avalid), (bvals, bvalid), d * delta, delta * delta)

    # Exceptional triangles through the leftover value sets, on either side.
    # Splitting the targets by representation count would list the same
    # triples in both arms: b[k, j] != BOT and a[i, k] + b[k, j] == c[i, j]
    # is the test b[k, j] == c[i, j] - a[i, k], as that difference is finite
    # and so never BOT.
    found = []
    if xdec.rest.any():
        found.append(_list_triangles(_keep_slots(a, aslot, xdec.rest), b, c))
    if ydec.rest.any():
        found.append(_list_triangles(a, _keep_slots(b.T, bslot, ydec.rest).T, c))

    # Ordinary triangles: shift each part pair onto its common cores.
    t_pop = max(1.0, d / float(delta) ** 9)
    groups = []
    b_parts = [(_shifted_part(b.T, bslot, lvl).T, lvl.shift, lvl.core.tolist())
               for lvl in ydec.parts]
    for xlvl in xdec.parts:
        ag = _shifted_part(a, aslot, xlvl)
        sg = xlvl.core.tolist()
        for bh, tshift, th in b_parts:
            pop = popular_sums_exact(sg, th, t_pop)
            cgh = np.where(c != BOT, c - xlvl.shift[:, None] - tshift, BOT)
            keep = _value_mask(cgh, pop)
            # unpopular shifted targets: list their few representations.  A
            # piece value av of row i satisfies shift - av in Y_{j*}, so its
            # ag entry av - shift lies in the core -Y_{j*}; likewise every bh
            # entry lies in its core, so the listing needs no core filter.
            found.append(_list_triangles(ag, bh, np.where(keep, BOT, cgh)))
            if keep.any():
                groups.append((ag, bh, np.where(keep, cgh, BOT)))
    return groups, found


# ----------------------------------------------------------------------------
# Regularization.
# ----------------------------------------------------------------------------

def _split_parts(codes, r, big_r):
    """regularize_naive's parts of the entries of a stack of matrices, from
    their value ranks: the row part is an entry's rank among equal values in
    its row divided by r, the column part its rank among the entries of its
    column with the same value and row part, divided by r.  r and big_r
    broadcast against the stack; a row part past big_r - 1 (which
    regularize_naive reports) counts as big_r - 1 in the column key."""
    row_part = _line_runs(codes, -1)[1] // r
    key = codes * big_r + np.minimum(row_part, big_r - 1)
    return row_part, _line_runs(key, -2)[1] // r


def regularize_naive(inst, d, r, big_r):
    """Split a d-uniform, r*R-regular instance into at most R^6 r-regular ones.

    An entry's row part is its rank among equal values in its row divided
    by r; its column part is its rank among the entries of its column with
    the same value and row part, divided by r (_split_parts).  There is one
    instance per triple of (row part, column part) labels, in lexicographic
    order.
    """
    if r < 1 or big_r < 1:
        raise ValueError("r and R must be >= 1")
    stack = _LabelStack([inst.matrices()])
    row_part, col_part = _split_parts(stack.codes, int(r), big_r)
    for m in range(3):
        for part, side in ((row_part, "rows"), (col_part, "columns")):
            if (part[m][stack.present[m]] >= big_r).any():
                raise AuditError(f"matrix is not r*R-regular on {side}")
    stack._split(row_part * big_r + col_part)
    return [TriangleInstance(*stack.arrays(p)) for p in range(stack.size)]


# The branches of one regularize level, in order: the promise side each
# recurses on, and per matrix the entries it keeps, by class: 0 heavy in
# its row, 1 heavy in its column but not its row, 2 heavy in neither, 3
# all.  The last, without a side, is the doubly-regular rest.
_BRANCHES = (("A_rows", (0, 3, 3)), ("A_cols", (1, 3, 3)),
             ("B_rows", (2, 0, 3)), ("B_cols", (2, 1, 3)),
             ("C_rows", (2, 2, 0)), ("C_cols", (2, 2, 1)), (None, (2, 2, 2)))


class _LabelGroups(_LabelStack):
    """The label groups of one uniformize call, stacked (_LabelStack).

    A group's d-uniform pieces are its label triples: an entry's label is
    its value's rank in its matrix divided by d, so piece (s, t, u) keeps
    label s of a, t of b and u of c, in the order uniformize returns them.

    Given regularize's threshold, each entry gets a class (0 heavy in its
    row, 1 in its column only, 2 neither: its value occurs more than
    threshold times there; a label holds every entry of its values, so
    in-piece counts are in-group counts), and `kept[p, br]` says whether
    branch br (_BRANCHES) of piece p has a summing value pair: a slot
    triple x + y == z of the piece (at most d slots per label) whose values
    occur in the classes the branch keeps.
    """

    def __init__(self, groups, d, threshold=None):
        super().__init__(groups)
        self._split(self.codes // d)
        if threshold is not None:
            row_cnt, col_cnt = _line_counts(self.codes, int(self.nv.max()) + 1)
            self.classes = np.where(row_cnt > threshold, 0,
                                    np.where(col_cnt > threshold, 1, 2))
            self.kept = self._branch_tests(d)

    def _branch_tests(self, d):
        # held[m, g, v, cls]: value rank v of matrix m of group g occurs in
        # class cls (3: in any); the padding slot at the end of the value
        # axis never does
        width = self.vals.shape[2]
        held = np.zeros((*self.nv.shape, width, 4), dtype=bool)
        at = np.nonzero(self.present)
        held[at[:2] + (self.codes[at], self.classes[at])] = True
        held[..., 3] = held[..., :3].any(axis=-1)
        group = self.owner[:, None]
        slots = []
        for m in range(3):
            span = np.arange(min(d, int(self.nv[m].max())))
            rank = self.parts[m][:, None] * d + span
            real = rank < self.nv[m][group]
            slots.append((np.where(real, rank, width - 1), real))
        hit = _summing_slots(*((self.vals[m][group, rank], real)
                               for m, (rank, real) in enumerate(slots)))
        flags = np.ones((hit[0].size, len(_BRANCHES)), dtype=bool)
        owner = self.owner[hit[0]]
        for m in range(3):
            cls = [branch_classes[m] for _, branch_classes in _BRANCHES]
            flags &= held[m][owner, slots[m][0][hit[0], hit[m + 1]]][:, cls]
        kept = np.zeros((self.size, len(_BRANCHES)), dtype=bool)
        row, branch = np.nonzero(flags)
        kept[hit[0][row], branch] = True
        return kept


class _PieceStack(_LabelStack):
    """A block of regularize's (d_p, (a, b, c)) pieces, stacked
    (_LabelStack), audited and split into r-regular parts.

    Piece p must be d_p-uniform (else AuditError); its largest row or
    column occurrence count w fixes R = ceil(w / r), r = max(1, n // d_p).
    Its entries are labelled by the parts of regularize_naive (one label
    where R = 1), and its parts are its label triples in lexicographic
    order, kept when they have a summing value pair: a slot triple
    x + y == z of the piece's values that the part's labels hold.  `owner`
    and `parts` describe the kept parts, `count` their numbers of pairs,
    and `pairs` holds (part, x rank, y rank, z rank) of every pair in
    order.  An entry of value rank v under label l has key l * width + v
    (-1 at BOT).
    """

    def __init__(self, pieces):
        self.d_ls = [d_l for d_l, _ in pieces]
        super().__init__([m for _, m in pieces])
        d_ls = np.array(self.d_ls, dtype=np.int64)
        bad = np.flatnonzero((self.nv > d_ls).any(axis=0))
        if bad.size:
            p = bad[0]
            raise AuditError(f"regularize piece is not {self.d_ls[p]}-uniform: "
                             f"{dict(zip('abc', self.nv[:, p].tolist()))}")
        counts = _line_counts(self.codes, int(self.nv.max(initial=0)) + 1)
        worst = np.where(self.present, np.maximum(*counts), 0).max(
            axis=(0, 2, 3), initial=1)
        r = np.maximum(1, self.mats.shape[2] // np.maximum(d_ls, 1))
        big_r = -(-worst // r)
        # pieces with R = 1 are already r-regular and keep one label
        labels = np.zeros(self.mats.shape, dtype=np.int64)
        split = np.flatnonzero(big_r > 1)
        if split.size:
            r, big_r = r[split, None, None], big_r[split, None, None]
            row_part, col_part = _split_parts(self.codes[:, split], r, big_r)
            labels[:, split] = row_part * big_r + col_part
        self._split(labels)

        # held[m, p, l, v]: label l of matrix m of piece p holds value rank
        # v; the padding slot at the end of the value axis never does
        width = self.vals.shape[2]
        held = np.zeros((3, labels.shape[1], int(self.labels.max(initial=0)) + 1,
                         width), dtype=bool)
        at = np.nonzero(self.present)
        held[at[:2] + (self.labels[at], self.codes[at])] = True
        q, i, j, k = _summing_slots(*((self.vals[m][self.owner],
                                       held[m, self.owner, self.parts[m]])
                                      for m in range(3)))
        count = np.bincount(q, minlength=self.size)
        kept = count > 0
        self.owner, self.count = self.owner[kept], count[kept]
        self.parts = [x[kept] for x in self.parts]
        self.size = self.owner.size
        self.pairs = (np.cumsum(kept)[q] - 1, i, j, k)
        self.keys = np.where(self.present, self.labels * width + self.codes, -1)
        self.width = width

    def pair_products(self, chosen):
        """_pair_hits over every pair of the chosen parts (a mask over
        parts)."""
        q, i, j, k = self.pairs
        rows = np.flatnonzero(chosen[q])
        q = q[rows]
        return _pair_hits(self.keys, self.owner[q],
                          [self.parts[m][q] * self.width + v[rows]
                           for m, v in enumerate((i, j, k))])


# Cells per block of stacked work (a _PieceStack's matrices, one np.matmul
# call's products, one _summing_slots block): larger blocks save little
# time at n = 16 and raise peak memory.
_STACK_CELLS = 2 ** 15


def _piece_stacks(pieces, n):
    """_PieceStack blocks of regularize's pieces, in order."""
    step = max(1, _STACK_CELLS // max(1, 3 * n * n))
    for lo in range(0, len(pieces), step):
        yield _PieceStack(pieces[lo:lo + step])


class RegularizeStats:
    def __init__(self):
        self.max_depth = 0
        self.uniformize_calls = 0


def regularize(inst, d, delta, eps, depth_guard=None, stats=None):
    """Decompose a d-weights instance into uniform regular pieces plus triples.

    Recursive scheme: uniformize, strip the entries that are too frequent in
    their row or column of each matrix into six lower-d recursive branches,
    and keep the doubly-regular rest.  Pieces are finally split so that a
    declared-d' piece is d'-uniform and floor(n/d')-regular.  Returns
    (pieces, T) where pieces are (d', instance) pairs; the triangle sets of
    the pieces plus T disjointly partition the input's triangles.

    Each piece of the recursion is audited once, in the _PieceStack that
    holds it: it must be d'-uniform (else AuditError), and its largest row
    or column occurrence count w fixes R = ceil(w / r) for r = max(1,
    n // d').  Its split by the parts of regularize_naive then makes every
    part r-regular, and every part holds a subset of the piece's values.
    So every returned piece has passed both checks, and aete_few_weights
    solves them without auditing again.

    A triple whose value sumset X+Y misses its C values Z holds no triangle
    and is dropped unsolved: the input (_summing_pairs), every label piece
    of a uniformize call with every one of its recursive branches and its
    regular rest (_LabelGroups), and every part of the final
    split (_PieceStack).  So every returned piece has a summing value pair.
    No random numbers are drawn.
    """
    pieces, triples = _regularize_unsplit(inst, d, delta, eps, depth_guard,
                                          stats)
    final = []
    for stack in _piece_stacks(pieces, inst.n):
        final.extend((stack.d_ls[stack.owner[q]],
                      TriangleInstance(*stack.arrays(q))) for q in range(stack.size))
    return final, triples


def _regularize_unsplit(inst, d, delta, eps, depth_guard, stats):
    """The recursion of regularize: its (d', (a, b, c)) pieces before the
    final split, as arrays in the input's coordinates, plus T."""
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
        stats.uniformize_calls += 1
        groups, t_acc = _uniformize(*_FORWARD[tag](*mats), d_cur, delta_cur)
        pieces_acc = []
        if groups:
            stack = _LabelGroups(groups, d_cur, (n / max(d_cur, 1)) * rho)
            d_next = int(d_cur // rho)
            delta_next = delta_cur * 12 * max(1, stack.size)
            for p, br in zip(*(x.tolist() for x in np.nonzero(stack.kept))):
                side, classes = _BRANCHES[br]
                branch = stack.arrays(p, classes)
                if side is None:
                    pieces_acc.append((d_cur, branch))
                else:
                    sp, st = rec(branch, d_next, delta_next, side, depth + 1)
                    pieces_acc.extend(sp)
                    t_acc |= st
        back = _FORWARD[_INVERSE[tag]]
        return ([(dl, back(*m)) for dl, m in pieces_acc],
                triples_to_original(t_acc, tag))

    if not _summing_pairs(*inst.matrices()):
        return [], set()
    return rec(inst.matrices(), d, delta, inst.promise, 0)


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
    the frequency-stripping factor rho = d^(eps/6).  The pieces, audited
    once in their _PieceStack, are solved by the uniform regular solver's
    cost rule without its entry audit: a piece with at most
    _MIN_NTT_POINTS summing pairs by the stack's pair products, any other
    (in order, as it draws from rng) by _uniform_regular_body with K
    derived from the configured exponent.
    """
    n = inst.n
    eps = delta_exp / 14.0
    if delta is None:
        delta = default_split_parameter(n, eps)
    pieces, triples = _regularize_unsplit(inst, d, delta, eps, None, None)
    yes = np.zeros((n, n), dtype=bool)
    for i, _, j in triples:
        yes[i, j] = True
    for stack in _piece_stacks(pieces, n):
        small = stack.count <= _MIN_NTT_POINTS
        yes |= stack.pair_products(small)
        for q in np.flatnonzero(~small).tolist():
            k = structured_box_count(n, stack.d_ls[stack.owner[q]], omega_hat)
            piece = TriangleInstance(*stack.arrays(q))
            yes |= _uniform_regular_body(piece, k, rng).yes
    return TriangleReport(yes)
