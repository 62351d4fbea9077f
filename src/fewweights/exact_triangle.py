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

import math

import numpy as np

from .additive import (
    bsg_cover,
    isolating_prime_map,
    popular_sums_exact,
    popular_sum_decomposition,
    sumset,
)
from .core import AuditError, BOT, POS_INF, WeightMatrix, occurrence_stats

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
    """Three n x n matrices with finite or bot entries, plus the promise side."""

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
            bad = (m.data == POS_INF) | (m.data == -POS_INF)
            if bad.any():
                raise ValueError("instance entries must be finite or bot")
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
    """Per-pair yes/no answers with optional witnesses and triple lists."""

    def __init__(self, yes, witness=None, triples=None):
        self.yes = np.asarray(yes, dtype=bool)
        self.witness = witness
        self.triples = triples

    @classmethod
    def empty(cls, n):
        return cls(np.zeros((n, n), dtype=bool))

    @classmethod
    def from_triples(cls, triples, n):
        yes = np.zeros((n, n), dtype=bool)
        wit = np.full((n, n), -1, dtype=np.int64)
        for i, k, j in triples:
            if not yes[i, j]:
                wit[i, j] = k
            yes[i, j] = True
        return cls(yes, wit, set(triples))

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


class RegularityAudit:
    """Distinct-entry and occurrence statistics of an instance."""

    def __init__(self, inst):
        self.global_distinct = {}
        self.max_row_occ = {}
        self.max_col_occ = {}
        self.max_row_distinct = {}
        self.max_col_distinct = {}
        for name, mat in (("a", inst.a), ("b", inst.b), ("c", inst.c)):
            m = mat.data
            self.global_distinct[name] = int(np.unique(m[m != BOT]).size)
            row_occ, _, row_dis = occurrence_stats(m, BOT)
            col_occ, _, col_dis = occurrence_stats(m.T, BOT)
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

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(q):
    if q < 2:
        return False
    for p in _MR_BASES:
        if q % p == 0:
            return q == p
    d = q - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


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


def _ntt_axis0(a, q, omega, invert):
    """Radix-2 NTT along axis 0 of an (m, cols) int64 array, m a power of 2."""
    m = a.shape[0]
    rev = np.zeros(m, dtype=np.int64)
    for i in range(1, m):
        rev[i] = (rev[i >> 1] >> 1) | ((i & 1) * (m >> 1))
    a = a[rev].copy()
    length = 2
    while length <= m:
        half = length >> 1
        w = pow(omega, m // length, q)
        if invert:
            w = pow(w, q - 2, q)
        wpow = np.empty(half, dtype=np.int64)
        cur = 1
        for x in range(half):
            wpow[x] = cur
            cur = cur * w % q
        view = a.reshape(m // length, length, -1)
        u = view[:, :half, :]
        v = view[:, half:, :] * wpow[None, :, None] % q
        add = (u + v) % q
        sub = (u - v) % q
        view[:, :half, :] = add
        view[:, half:, :] = sub
        length <<= 1
    if invert:
        a = a * pow(m, q - 2, q) % q
    return a


def poly_matrix_multiply(a_exp, b_exp, p):
    """Presence of each exponent in the product of monomial matrices.

    Entries are exponents in [0, p) or bot.  Returns a boolean array P of
    shape (n, n, 2p-1) with P[i, j, e] true iff some k has
    a_exp[i,k] + b_exp[k,j] = e.  Computed by evaluating at the powers of an
    m-th root of unity modulo a prime q > n (m >= 2p-1, so coefficient
    counts, all at most n < q, are recovered exactly), one numeric matrix
    product per evaluation point, then one inverse transform.  The int64
    products and butterflies are exact only while n*(q-1)^2 < 2^63, which is
    checked before any work.
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
    if n * (q - 1) ** 2 >= 2**63:
        raise ValueError(f"n={n} too large for exact int64 products modulo "
                         f"q={q}: n*(q-1)^2 must stay below 2^63")
    fa, fb = ae != BOT, be != BOT
    if (np.any((ae < 0) & fa) or np.any((ae >= p) & fa)
            or np.any((be < 0) & fb) or np.any((be >= p) & fb)):
        raise ValueError("exponents must lie in [0, p)")
    omega = pow(_primitive_root(q), (q - 1) // m, q)
    wtab = np.empty(m, dtype=np.int64)
    cur = 1
    for t in range(m):
        wtab[t] = cur
        cur = cur * omega % q
    evals = np.empty((m, n * n), dtype=np.int64)
    chunk = max(1, (1 << 20) // max(1, n * n))
    ts = np.arange(m, dtype=np.int64)
    for t0 in range(0, m, chunk):
        t1 = min(m, t0 + chunk)
        tt = ts[t0:t1]
        ea = (tt[:, None, None] * np.where(fa, ae, 0)) % m
        av = np.where(fa[None, :, :], wtab[ea], 0)
        eb = (tt[:, None, None] * np.where(fb, be, 0)) % m
        bv = np.where(fb[None, :, :], wtab[eb], 0)
        evals[t0:t1] = (np.matmul(av, bv) % q).reshape(t1 - t0, n * n)
    coeffs = _ntt_axis0(evals, q, omega, invert=True)
    presence = (coeffs[:conv_len] != 0).reshape(conv_len, n, n)
    return np.ascontiguousarray(presence.transpose(1, 2, 0))


def aete_small_doubling(inst):
    """Exact triangle detection through isolating primes and NTT products.

    Entry sets X of A and Y of B drive the cost: when the sumset X+Y stays
    within n the answer per pair is read off the coefficient of
    x^(C[i,j] mod p) for a prime p isolating C[i,j] in X+Y; otherwise the
    brute-force oracle is just as fast and is used directly.
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

def _value_positions_cols(m):
    """Per column k: value -> row indices."""
    out = []
    for k in range(m.shape[1]):
        d = {}
        col = m[:, k]
        for i in np.nonzero(col != BOT)[0]:
            d.setdefault(int(col[i]), []).append(int(i))
        out.append(d)
    return out


def _value_positions_rows(m):
    """Per row k: value -> column indices."""
    out = []
    for k in range(m.shape[0]):
        d = {}
        row = m[k]
        for j in np.nonzero(row != BOT)[0]:
            d.setdefault(int(row[j]), []).append(int(j))
        out.append(d)
    return out


def _restrict_values(m, values):
    keep = np.isin(m, np.fromiter(values, dtype=np.int64, count=len(values))) \
        if values else np.zeros(m.shape, dtype=bool)
    keep &= m != BOT
    return np.where(keep, m, BOT)


def aete_uniform_regular(inst, d, big_k, rng=None):
    """Covering-based solver for d-uniform, (n/d)-regular instances.

    The structured boxes go to the algebraic small-sumset solver; remainder
    value pairs are enumerated directly through the per-column/per-row
    occurrence lists, which regularity keeps short.
    """
    n = inst.n
    if big_k < 1:
        raise ValueError("K must be >= 1")
    audit = RegularityAudit(inst)
    if not audit.is_uniform(d):
        raise AuditError(f"instance is not {d}-uniform: {audit.global_distinct}")
    r = n / max(d, 1)
    if not audit.is_regular(r):
        raise AuditError(f"instance is not {r:g}-regular")
    a, b, c = inst.matrices()
    x, y, z = inst.entry_set("a"), inst.entry_set("b"), inst.entry_set("c")
    cover = bsg_cover(x, y, z, big_k, rng)
    yes = np.zeros((n, n), dtype=bool)
    for xk, yk in cover.structured:
        if not xk or not yk:
            continue
        sub = TriangleInstance(WeightMatrix(_restrict_values(a, xk), copy=False),
                               WeightMatrix(_restrict_values(b, yk), copy=False),
                               inst.c)
        yes |= aete_small_doubling(sub).yes
    if cover.remainder:
        col_a = _value_positions_cols(a)
        row_b = _value_positions_rows(b)
        for av, bv in sorted(cover.remainder):
            target = av + bv
            for k in range(n):
                rows = col_a[k].get(av)
                cols = row_b[k].get(bv)
                if not rows or not cols:
                    continue
                blk = np.ix_(rows, cols)
                yes[blk] |= c[blk] == target
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
    a, b, c = inst.matrices()
    na, nb, nc = _FORWARD[tag](a, b, c)
    out = TriangleInstance(WeightMatrix(na), WeightMatrix(nb), WeightMatrix(nc),
                           promise="A_rows")
    return out, tag


def deorient_instance(inst, tag):
    """Map an instance in rotated coordinates back to original coordinates."""
    tag = normalize_promise(tag)
    a, b, c = inst.matrices()
    na, nb, nc = _FORWARD[_INVERSE[tag]](a, b, c)
    return TriangleInstance(WeightMatrix(na), WeightMatrix(nb), WeightMatrix(nc))


def triples_to_original(triples, tag):
    fn = _TRIPLE_TO_ORIGINAL[normalize_promise(tag)]
    return {fn(i, k, j) for (i, k, j) in triples}


# ----------------------------------------------------------------------------
# Uniformization.
# ----------------------------------------------------------------------------

def _entry_values_sorted(m):
    vals = m[m != BOT]
    return sorted(set(vals.tolist()))


def uniformize_naive(inst, d, parts, prune=False):
    """Split a d*parts-uniform instance into parts^3 d-uniform instances.

    Entry sets are partitioned into chunks of at most d values in ascending
    order; the triangle sets of the output partition the input's.
    """
    chunks = []
    for m in (inst.a.data, inst.b.data, inst.c.data):
        vals = _entry_values_sorted(m)
        if len(vals) > d * parts:
            raise AuditError(f"matrix has {len(vals)} distinct entries, "
                             f"more than d*parts = {d * parts}")
        cs = [set(vals[i:i + d]) for i in range(0, len(vals), d)]
        cs += [set()] * (parts - len(cs))
        chunks.append(cs)
    out = []
    for xa in range(parts):
        for yb in range(parts):
            for zc in range(parts):
                a2 = _restrict_values(inst.a.data, chunks[0][xa])
                b2 = _restrict_values(inst.b.data, chunks[1][yb])
                c2 = _restrict_values(inst.c.data, chunks[2][zc])
                if prune and ((a2 == BOT).all() or (b2 == BOT).all()
                              or (c2 == BOT).all()):
                    continue
                out.append(TriangleInstance(WeightMatrix(a2, copy=False),
                                            WeightMatrix(b2, copy=False),
                                            WeightMatrix(c2, copy=False)))
    return out


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


def _rep_count(value, left, right):
    """Number of representations value = a + b with a in left, b in right."""
    if not left or not right:
        return 0
    if len(left) > len(right):
        left, right = right, left
    return sum(1 for a in left if (value - a) in right)


def _row_value_sets(m):
    return [set(m[i][m[i] != BOT].tolist()) for i in range(m.shape[0])]


def _col_value_sets(m):
    return [set(m[:, j][m[:, j] != BOT].tolist()) for j in range(m.shape[1])]


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
    triples = set()
    instances = []
    for x, ax in sorted(_row_occurrence_classes(a, BOT).items()):
        for y, by in sorted(_col_occurrence_classes(b, BOT).items()):
            if 2 ** y <= n / (d * delta):
                _list_small_class(ax, by, c, triples)
            else:
                sub, st = _uniformize_class(ax, by, c, d, delta, rng, n)
                instances.extend(sub)
                triples |= st
    return instances, triples


def _list_small_class(ax, by, c, triples):
    """List all triangles of (ax, by, c) via the short column lists of by."""
    n = ax.shape[0]
    rows = _row_value_sets(ax)
    colpos = _value_positions_cols(by)
    for i in range(n):
        if not rows[i]:
            continue
        xi = sorted(rows[i])
        for j in range(n):
            cv = c[i, j]
            if cv == BOT:
                continue
            for av in xi:
                ks = colpos[j].get(cv - av)
                if not ks:
                    continue
                for k in ks:
                    if ax[i, k] == av:
                        triples.add((i, k, j))


def _uniformize_class(ax, by, c, d, delta, rng, n):
    d_prime = d * delta
    delta_prime = delta * delta
    xsets = _row_value_sets(ax)
    ysets = _col_value_sets(by)
    xdec, ydec = popular_sum_decomposition(xsets, ysets, d_prime, delta_prime, rng)
    rowpos_a = _value_positions_rows(ax)
    colpos_b = _value_positions_cols(by)
    t_exc = max(1.0, 2.0 * d_prime / delta_prime)
    triples = set()

    # Exceptional triangles through the leftover value sets, on either side.
    for i in range(n):
        xrem = xdec.remainders[i]
        if not xrem:
            continue
        for j in range(n):
            cv = c[i, j]
            if cv == BOT or not ysets[j]:
                continue
            if _rep_count(cv, xrem, ysets[j]) >= t_exc:
                for av in sorted(xrem):
                    for k in rowpos_a[i].get(av, ()):
                        if by[k, j] != BOT and av + by[k, j] == cv:
                            triples.add((i, k, j))
            else:
                for av in sorted(xrem):
                    bv = cv - av
                    for k in rowpos_a[i].get(av, ()):
                        if by[k, j] == bv:
                            triples.add((i, k, j))
    for j in range(n):
        yrem = ydec.remainders[j]
        if not yrem:
            continue
        for i in range(n):
            cv = c[i, j]
            if cv == BOT or not xsets[i]:
                continue
            if _rep_count(cv, xsets[i], yrem) >= t_exc:
                for bv in sorted(yrem):
                    for k in colpos_b[j].get(bv, ()):
                        if ax[i, k] != BOT and ax[i, k] + bv == cv:
                            triples.add((i, k, j))
            else:
                for bv in sorted(yrem):
                    av = cv - bv
                    for k in colpos_b[j].get(bv, ()):
                        if ax[i, k] == av:
                            triples.add((i, k, j))

    # Ordinary triangles: shift each part pair onto its common cores.
    t_pop = max(1.0, d / float(delta) ** 9)
    instances = []
    b_shifted = {}
    for h, ylvl in enumerate(ydec.parts):
        if not ylvl.members:
            continue
        bh = np.full((n, n), BOT, dtype=np.int64)
        tshift = np.zeros(n, dtype=np.int64)
        for j, piece in ylvl.members.items():
            tshift[j] = ylvl.shifts[j]
            for bv in piece:
                for k in colpos_b[j].get(bv, ()):
                    bh[k, j] = bv - ylvl.shifts[j]
        b_shifted[h] = (bh, tshift, sorted(ylvl.core))
    for g, xlvl in enumerate(xdec.parts):
        if not xlvl.members:
            continue
        ag = np.full((n, n), BOT, dtype=np.int64)
        sshift = np.zeros(n, dtype=np.int64)
        for i, piece in xlvl.members.items():
            sshift[i] = xlvl.shifts[i]
            for av in piece:
                for k in rowpos_a[i].get(av, ()):
                    ag[i, k] = av - xlvl.shifts[i]
        sg = sorted(xlvl.core)
        rowpos_ag = _value_positions_rows(ag)
        for h, (bh, tshift, th) in sorted(b_shifted.items()):
            pop = popular_sums_exact(sg, th, t_pop) if sg and th else set()
            th_set = set(th)
            cgh = np.where(c != BOT, c - sshift[:, None] - tshift[None, :], BOT)
            keep = np.isin(cgh, np.fromiter(pop, dtype=np.int64, count=len(pop))) \
                if pop else np.zeros((n, n), dtype=bool)
            keep &= c != BOT
            # unpopular shifted targets: enumerate their few representations
            ii, jj = np.nonzero((c != BOT) & ~keep)
            for i, j in zip(ii.tolist(), jj.tolist()):
                cv = cgh[i, j]
                for av in sg:
                    if (cv - av) in th_set:
                        for k in rowpos_ag[i].get(av, ()):
                            if bh[k, j] == cv - av:
                                triples.add((i, k, j))
            if not keep.any():
                continue
            c_pop = np.where(keep, cgh, BOT)
            if (ag == BOT).all() or (bh == BOT).all():
                continue
            sub = TriangleInstance(WeightMatrix(ag), WeightMatrix(bh),
                                   WeightMatrix(c_pop, copy=False))
            parts = max(1, math.ceil(max(len(_entry_values_sorted(m))
                                         for m in (ag, bh, c_pop)) / d))
            instances.extend(uniformize_naive(sub, d, parts, prune=True))
    return instances, triples


# ----------------------------------------------------------------------------
# Regularization.
# ----------------------------------------------------------------------------

def _split_regular(m, r, big_r):
    """Partition into big_r^2 pieces, each with <= r occurrences per row/col.

    An entry's row (column) part is its rank among equal values in its row
    (column) divided by r.
    """
    row_part = occurrence_stats(m, BOT)[1] // r
    if (row_part[m != BOT] >= big_r).any():
        raise AuditError("matrix is not r*R-regular on rows")
    pieces = {}
    for t1 in range(big_r):
        m1 = np.where((row_part == t1) & (m != BOT), m, BOT)
        col_part = occurrence_stats(m1.T, BOT)[1].T // r
        if (col_part[m1 != BOT] >= big_r).any():
            raise AuditError("matrix is not r*R-regular on columns")
        for t2 in range(big_r):
            pieces[(t1, t2)] = np.where((col_part == t2) & (m1 != BOT), m1, BOT)
    return pieces


def regularize_naive(inst, d, r, big_r, prune=False):
    """Split a d-uniform, r*R-regular instance into R^6 r-regular instances."""
    if r < 1 or big_r < 1:
        raise ValueError("r and R must be >= 1")
    r = int(r)
    pa = _split_regular(inst.a.data, r, big_r)
    pb = _split_regular(inst.b.data, r, big_r)
    pc = _split_regular(inst.c.data, r, big_r)
    out = []
    for ka in sorted(pa):
        for kb in sorted(pb):
            for kc in sorted(pc):
                a2, b2, c2 = pa[ka], pb[kb], pc[kc]
                if prune and ((a2 == BOT).all() or (b2 == BOT).all()
                              or (c2 == BOT).all()):
                    continue
                out.append(TriangleInstance(WeightMatrix(a2), WeightMatrix(b2),
                                            WeightMatrix(c2)))
    return out


def _three_way_split(m, threshold):
    """(row-heavy, col-heavy, regular) by occurrence counts in m."""
    fin = m != BOT
    row_cnt = occurrence_stats(m, BOT)[0]
    col_cnt = occurrence_stats(m.T, BOT)[0].T
    heavy_row = fin & (row_cnt > threshold)
    heavy_col = fin & ~heavy_row & (col_cnt > threshold)
    regular = fin & ~heavy_row & ~heavy_col
    return (np.where(heavy_row, m, BOT), np.where(heavy_col, m, BOT),
            np.where(regular, m, BOT))


def _all_bot(inst):
    return ((inst.a.data == BOT).all() or (inst.b.data == BOT).all()
            or (inst.c.data == BOT).all())


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
    """
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

    def rec(cur, d_cur, delta_cur, promise, depth):
        if depth > depth_guard:
            raise RuntimeError("recursion depth guard exceeded; "
                               "check eps/rho configuration")
        stats.max_depth = max(stats.max_depth, depth)
        if d_cur <= 0 or _all_bot(cur):
            return [], set()
        oriented, tag = canonical_orientation(cur, promise)
        stats.uniformize_calls += 1
        insts, t_acc = uniformize(oriented, d_cur, delta_cur, rng)
        pieces_acc = []
        big_l = max(1, len(insts))
        d_next = int(d_cur // rho)
        delta_next = delta_cur * 12 * big_l
        threshold = (n / max(d_cur, 1)) * rho
        for sub in insts:
            a_row, a_col, a_reg = _three_way_split(sub.a.data, threshold)
            b_row, b_col, b_reg = _three_way_split(sub.b.data, threshold)
            c_row, c_col, c_reg = _three_way_split(sub.c.data, threshold)
            branches = [
                ((a_row, sub.b.data, sub.c.data), "A_rows"),
                ((a_col, sub.b.data, sub.c.data), "A_cols"),
                ((a_reg, b_row, sub.c.data), "B_rows"),
                ((a_reg, b_col, sub.c.data), "B_cols"),
                ((a_reg, b_reg, c_row), "C_rows"),
                ((a_reg, b_reg, c_col), "C_cols"),
            ]
            for (ma, mb, mc), pr in branches:
                branch = TriangleInstance(WeightMatrix(ma), WeightMatrix(mb),
                                          WeightMatrix(mc), promise=pr)
                if _all_bot(branch):
                    continue
                sp, st = rec(branch, d_next, delta_next, pr, depth + 1)
                pieces_acc.extend(sp)
                t_acc |= st
            reg = TriangleInstance(WeightMatrix(a_reg), WeightMatrix(b_reg),
                                   WeightMatrix(c_reg))
            if not _all_bot(reg):
                pieces_acc.append((d_cur, reg))
        return ([(dl, deorient_instance(pi, tag)) for dl, pi in pieces_acc],
                triples_to_original(t_acc, tag))

    pieces, triples = rec(inst, d, delta, inst.promise, 0)
    final = []
    for d_l, piece in pieces:
        r = max(1, n // max(d_l, 1))
        audit = RegularityAudit(piece)
        worst = max(max(audit.max_row_occ.values()),
                    max(audit.max_col_occ.values()), 1)
        big_r = max(1, math.ceil(worst / r))
        for sub in regularize_naive(piece, d_l, r, big_r, prune=True):
            final.append((d_l, sub))
    return final, triples


# ----------------------------------------------------------------------------
# Full few-weights solver.
# ----------------------------------------------------------------------------

def default_split_parameter(n, eps, growth_constant=1.0):
    """Largest power of two Delta with Delta^(2^(c/eps)) <= n."""
    budget = math.log2(max(n, 2)) / (2.0 ** (growth_constant / eps))
    return max(1, 2 ** int(budget))


def structured_box_count(n, d, omega_hat=3.0):
    """K = ceil((n^(3-omega)/d)^(1/7)) with the configured exponent."""
    return max(1, math.ceil((n ** (3.0 - omega_hat) / max(d, 1)) ** (1.0 / 7.0)))


def aete_few_weights(inst, d, delta_exp, delta=None, omega_hat=3.0,
                     growth_constant=1.0, rng=None):
    """Solve a d-weights instance: regularize, then cover-and-conquer.

    delta_exp is the exponent gap that fixes eps = delta_exp/14 and in turn
    the frequency-stripping factor rho = d^(eps/6).  The pieces are solved by
    the uniform regular solver with K derived from the configured exponent.
    """
    n = inst.n
    eps = delta_exp / 14.0
    if delta is None:
        delta = default_split_parameter(n, eps, growth_constant)
    pieces, triples = regularize(inst, d, delta, eps, rng=rng)
    report = TriangleReport.from_triples(triples, n)
    report = TriangleReport(report.yes)
    for d_l, piece in pieces:
        k = structured_box_count(n, d_l, omega_hat)
        report = report.merge(aete_uniform_regular(piece, d_l, k, rng))
    return report
