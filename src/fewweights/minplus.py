"""Min-plus product kernels.

Contains the naive cubic oracle, a machine-word-packed boolean matrix
product, the bucketed rectangular boolean and d-weights min-plus kernels,
and hop-bounded graph products with witness-path reconstruction.

All kernels are pure functions; for a fixed input the result is identical
regardless of the bucket count or the internal scan strategy.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AuditError,
    EdgeWeightedGraph,
    NodeWeightedGraph,
    POS_INF,
    WeightError,
    WeightMatrix,
    audit_distinct_weights,
    one_hop_offdiag,
    saturating_add,
)

# Finite kernel operands must stay below this magnitude so that sums and
# witness encodings n*value+k remain clear of the sentinel range.
MAX_OPERAND = np.int64(2**60)

# Above this many (i, j, k) cells the bucket scan switches from the
# all-buckets vectorized sweep to per-(row, bucket) groups; both strategies
# produce identical output.
_SCAN_DENSE_LIMIT = 2**22

counters = {
    "boolean_matmul": 0,
    "boolean_min_plus": 0,
    "d_weights_min_plus": 0,
    "min_plus_naive": 0,
    "hop_iterations": 0,
}


def reset_counters():
    for k in counters:
        counters[k] = 0


def snapshot_counters():
    return dict(counters)


def _as_data(mat):
    if isinstance(mat, WeightMatrix):
        return mat.data
    return np.asarray(mat, dtype=np.int64)


def _validate_operand(data, name):
    if np.any(data == np.int64(2**62 + 7)):  # BOT
        raise WeightError(f"{name} contains bot entries")
    if np.any(data == -POS_INF):
        raise WeightError(f"{name} contains neg_inf entries")
    finite = data != POS_INF
    if finite.any() and np.abs(data[finite]).max() > MAX_OPERAND:
        raise WeightError(f"{name} has finite entries beyond the kernel operand bound")


def min_plus_naive(A, B):
    """Definitional min-plus product; the oracle for every other kernel."""
    a, b = _as_data(A), _as_data(B)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    _validate_operand(a, "A")
    _validate_operand(b, "B")
    counters["min_plus_naive"] += 1
    n1, n2 = a.shape
    n3 = b.shape[1]
    out = np.full((n1, n3), POS_INF, dtype=np.int64)
    for k in range(n2):
        col = a[:, k]
        row = b[k, :]
        bad = (col[:, None] == POS_INF) | (row[None, :] == POS_INF)
        s = np.where(bad, POS_INF, col[:, None] + row[None, :])
        np.minimum(out, s, out=out)
    return WeightMatrix(out, copy=False)


# ----------------------------------------------------------------------------
# Packed boolean matrix multiplication.
# ----------------------------------------------------------------------------

def _pack_rows(m):
    """Pack a boolean (r, c) matrix into (r, ceil(c/64)) uint64 rows."""
    r, c = m.shape
    words = (c + 63) // 64
    if words == 0:
        return np.zeros((r, 0), dtype=np.uint64)
    padded = np.zeros((r, words * 64), dtype=bool)
    padded[:, :c] = m
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def boolean_matmul_naive(P, Q):
    """OR-AND product straight from the definition (byte-level)."""
    P = np.asarray(P, dtype=bool)
    Q = np.asarray(Q, dtype=bool)
    if P.shape[1] != Q.shape[0]:
        raise ValueError(f"shape mismatch {P.shape} x {Q.shape}")
    a, b = P.shape
    c = Q.shape[1]
    out = np.zeros((a, c), dtype=bool)
    for k in range(b):
        out |= P[:, k, None] & Q[None, k, :]
    return out


_BYTE_MASKS = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1) \
    .astype(bool)


def boolean_matrix_multiply(P, Q):
    """OR-AND product with rows packed into 64-bit machine words.

    The left matrix is packed into bytes over k and each 8-row slice of the
    packed right matrix is expanded into a 256-entry OR table, so one lookup
    handles eight AND-OR steps at a time.
    """
    P = np.asarray(P, dtype=bool)
    Q = np.asarray(Q, dtype=bool)
    if P.shape[1] != Q.shape[0]:
        raise ValueError(f"shape mismatch {P.shape} x {Q.shape}")
    counters["boolean_matmul"] += 1
    a, b = P.shape
    c = Q.shape[1]
    if a == 0 or c == 0 or b == 0:
        return np.zeros((a, c), dtype=bool)
    p_bytes = np.packbits(P, axis=1, bitorder="little")
    q_bits = _pack_rows(Q)
    words = q_bits.shape[1]
    acc = np.zeros((a, words), dtype=np.uint64)
    for chunk in range(p_bytes.shape[1]):
        k0 = chunk * 8
        rows = q_bits[k0:min(k0 + 8, b)]
        if rows.shape[0] < 8:
            rows = np.vstack([rows, np.zeros((8 - rows.shape[0], words),
                                             dtype=np.uint64)])
        col = p_bytes[:, chunk]
        if not col.any():
            continue
        table = np.bitwise_or.reduce(
            np.where(_BYTE_MASKS[:, :, None], rows[None, :, :], np.uint64(0)),
            axis=1)
        acc |= table[col]
    unpacked = np.unpackbits(acc.view(np.uint8), axis=1,
                             count=c, bitorder="little")
    return unpacked.astype(bool)


# ----------------------------------------------------------------------------
# Bucketed rectangular kernels.
# ----------------------------------------------------------------------------

class BucketIndex:
    """Per-row sorted entry lists split into delta buckets of ceil(n/delta).

    Sorting is by (value, column); only finite entries are indexed.  The last
    nonempty bucket of a row may be smaller, trailing buckets are empty.
    """

    def __init__(self, keys, finite, delta):
        s, n = keys.shape
        self.delta = delta
        self.bucket_size = max(1, -(-n // delta)) if n else 1
        self.order = np.argsort(keys, axis=1, kind="stable")
        self.finite_count = finite.sum(axis=1)
        self._finite = finite

    def bucket(self, i, b):
        """Column indices of bucket b of row i, in sorted order."""
        lo = b * self.bucket_size
        hi = min((b + 1) * self.bucket_size, int(self.finite_count[i]))
        if lo >= hi:
            return np.empty(0, dtype=np.int64)
        return self.order[i, lo:hi]


def build_bucket_index(A, delta):
    """Bucket index of a weight matrix's rows, sorted by (value, column)."""
    a = _as_data(A)
    s, n = a.shape
    finite = a != POS_INF
    keys = np.where(finite, a * np.int64(max(n, 1)) + np.arange(n, dtype=np.int64),
                    POS_INF)
    return BucketIndex(keys, finite, max(1, min(int(delta), max(n, 1))))


def _scaled_keys(a, want_witnesses, name):
    """Sort keys for the bucket index: n*value+k when witnesses are wanted."""
    s, n = a.shape
    finite = a != POS_INF
    if not want_witnesses:
        return np.where(finite, a, POS_INF), finite, 1
    scale = np.int64(max(n, 1))
    if finite.any():
        top = np.abs(a[finite]).max()
        if (int(top) + 1) * int(scale) + n >= int(MAX_OPERAND):
            raise WeightError(
                f"witness encoding n*{name}+k would overflow; reduce weights or n")
    keys = np.where(finite, a * scale + np.arange(n, dtype=np.int64), POS_INF)
    return keys, finite, int(scale)


def _first_bucket_hits(R, s, delta):
    r3 = R.reshape(s, delta, -1)
    has = r3.any(axis=1)
    firstb = r3.argmax(axis=1)
    return has, firstb


def _bucket_scan(keys, finite, order, bs, delta, member, has, firstb):
    """Minimal key per (row, target) over the first hit bucket.

    member(cols, targets) -> bool mask of shape (len(cols), len(targets)) or,
    in the vectorized sweep, member(cols_2d) -> (s, bs, T) mask.
    """
    s = keys.shape[0]
    T = has.shape[1]
    out = np.full((s, T), POS_INF, dtype=np.int64)
    if not has.any():
        return out
    if s * keys.shape[1] * T <= _SCAN_DENSE_LIMIT:
        for b in range(delta):
            pend = has & (firstb == b)
            if not pend.any():
                continue
            cols = order[:, b * bs:(b + 1) * bs]
            if cols.shape[1] == 0:
                continue
            kv = np.take_along_axis(keys, cols, axis=1)
            sel = member(cols)
            cand = np.where(sel, kv[:, :, None], POS_INF).min(axis=1)
            out[pend] = cand[pend]
        return out
    for i in range(s):
        hs = has[i]
        if not hs.any():
            continue
        js_all = np.nonzero(hs)[0]
        fb = firstb[i, js_all]
        sort = np.argsort(fb, kind="stable")
        js_all = js_all[sort]
        fb = fb[sort]
        edges = np.searchsorted(fb, np.arange(delta + 1))
        for b in range(delta):
            lo, hi = edges[b], edges[b + 1]
            if lo == hi:
                continue
            js = js_all[lo:hi]
            ks = order[i, b * bs:(b + 1) * bs]
            ks = ks[finite[i, ks]]
            if ks.size == 0:
                continue
            sel = member(ks, js, i)
            kv = keys[i, ks]
            out[i, js] = np.where(sel, kv[:, None], POS_INF).min(axis=0)
    return out


def boolean_min_plus(A, B, delta, return_witnesses=True):
    """Rectangular boolean min-plus product (A (*) B) with witnesses.

    result[i, j] = min{A[i, k] : B[k, j]}, +inf when no k qualifies.  The
    witness matrix holds the minimizing k (ties to the smallest column), or
    -1 where the result is +inf.
    """
    a = _as_data(A)
    b = np.asarray(B, dtype=bool)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    _validate_operand(a, "A")
    counters["boolean_min_plus"] += 1
    s, n = a.shape
    t = b.shape[1]
    delta = max(1, min(int(delta), max(n, 1)))
    if s == 0 or t == 0 or n == 0:
        return (WeightMatrix(np.full((s, t), POS_INF, dtype=np.int64), copy=False),
                np.full((s, t), -1, dtype=np.int64))
    keys, finite, scale = _scaled_keys(a, return_witnesses, "A")
    bs = max(1, -(-n // delta))
    order = np.argsort(keys, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n, dtype=order.dtype)[None, :], axis=1)
    rows, cols = np.nonzero(finite)
    aprime = np.zeros((s * delta, n), dtype=bool)
    aprime[rows * delta + ranks[rows, cols] // bs, cols] = True
    product = boolean_matrix_multiply(aprime, b)
    has, firstb = _first_bucket_hits(product, s, delta)

    def member(cols2d, js=None, i=None):
        if js is None:
            return b[cols2d, :]
        return b[np.ix_(cols2d, js)]

    out_key = _bucket_scan(keys, finite, order, bs, delta, member, has, firstb)
    hit = out_key != POS_INF
    if return_witnesses:
        vals = np.where(hit, np.floor_divide(out_key, scale), POS_INF)
        wit = np.where(hit, out_key - vals * scale, -1)
    else:
        vals = out_key
        wit = np.full((s, t), -1, dtype=np.int64)
    return WeightMatrix(vals, copy=False), wit


def _column_slots(bdata, d=None):
    """Distinct finite values per column in first-occurrence order."""
    n, m = bdata.shape
    slot_col, slot_val, col_start = [], [], [0]
    for j in range(m):
        seen = {}
        for v in bdata[:, j]:
            if v != POS_INF and v not in seen:
                seen[v] = None
        vals = list(seen)
        if d is not None and len(vals) > d:
            raise AuditError(f"column {j} has {len(vals)} distinct entries (> {d})")
        slot_col.extend([j] * len(vals))
        slot_val.extend(vals)
        col_start.append(len(slot_val))
    return (np.array(slot_col, dtype=np.int64),
            np.array(slot_val, dtype=np.int64),
            np.array(col_start, dtype=np.int64))


def d_weights_min_plus(A, B, delta, d=None, return_witnesses=False):
    """Rectangular min-plus product for B with few distinct entries per column.

    Builds the n x (sum_j d_j) column-value indicator, takes one packed
    boolean product against the bucketed rows of A, and scans the first hit
    bucket per (row, column, value) before minimizing over values.
    """
    a = _as_data(A)
    bm = _as_data(B)
    if a.ndim != 2 or bm.ndim != 2 or a.shape[1] != bm.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {bm.shape}")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    _validate_operand(a, "A")
    _validate_operand(bm, "B")
    counters["d_weights_min_plus"] += 1
    s, n = a.shape
    m = bm.shape[1]
    delta = max(1, min(int(delta), max(n, 1)))
    out = np.full((s, m), POS_INF, dtype=np.int64)
    wit = np.full((s, m), -1, dtype=np.int64)
    slot_col, slot_val, col_start = _column_slots(bm, d)
    T = slot_val.size
    if s == 0 or m == 0 or n == 0 or T == 0:
        if return_witnesses:
            return WeightMatrix(out, copy=False), wit
        return WeightMatrix(out, copy=False)
    keys, finite, scale = _scaled_keys(a, return_witnesses, "A")
    bs = max(1, -(-n // delta))
    order = np.argsort(keys, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n, dtype=order.dtype)[None, :], axis=1)
    rows, cols = np.nonzero(finite)
    aprime = np.zeros((s * delta, n), dtype=bool)
    aprime[rows * delta + ranks[rows, cols] // bs, cols] = True
    bprime = np.zeros((n, T), dtype=bool)
    for j in range(m):
        lo, hi = col_start[j], col_start[j + 1]
        if lo < hi:
            bprime[:, lo:hi] = bm[:, j, None] == slot_val[None, lo:hi]
    product = boolean_matrix_multiply(aprime, bprime)
    has, firstb = _first_bucket_hits(product, s, delta)

    def member(cols2d, js=None, i=None):
        if js is None:
            return bprime[cols2d, :]
        return bprime[np.ix_(cols2d, js)]

    out_key = _bucket_scan(keys, finite, order, bs, delta, member, has, firstb)
    hit = out_key != POS_INF
    aval = np.where(hit, np.floor_divide(out_key, scale), 0)
    kwit = np.where(hit, out_key - aval * scale, -1)
    sums = np.where(hit, aval + slot_val[None, :], POS_INF)
    nonempty = col_start[:-1] != col_start[1:]
    ne_starts = col_start[:-1][nonempty]
    out = np.full((s, m), POS_INF, dtype=np.int64)
    out[:, nonempty] = np.minimum.reduceat(sums, ne_starts, axis=1)
    if return_witnesses:
        eq = sums == out[:, slot_col]
        pos = np.where(eq & hit, np.arange(T, dtype=np.int64)[None, :], T)
        best_t = np.full((s, m), T, dtype=np.int64)
        best_t[:, nonempty] = np.minimum.reduceat(pos, ne_starts, axis=1)
        ok = (out != POS_INF) & (best_t < T)
        wit = np.where(ok, kwit[np.arange(s)[:, None], np.minimum(best_t, T - 1)], -1)
        return WeightMatrix(out, copy=False), wit
    return WeightMatrix(out, copy=False)


# ----------------------------------------------------------------------------
# Hop-bounded products over graphs.
# ----------------------------------------------------------------------------

class HopProduct:
    """Result of A * D^{<=h}: values plus per-pair witness paths.

    Witness paths have hop-length at most h and re-evaluate exactly to the
    reported value; they are reconstructed from the per-iteration witness
    matrices recorded while running the hop recurrence.
    """

    def __init__(self, values, parents, reversed_paths=False):
        self.values = values
        self._parents = parents
        self._reversed = reversed_paths

    def path(self, i, j):
        """Witness node sequence for entry (i, j), or None when infinite."""
        if self.values.data[i, j] == POS_INF:
            return None
        if self._reversed:
            i, j = j, i
        cur = j
        nodes = [cur]
        for t in range(len(self._parents) - 1, -1, -1):
            p = int(self._parents[t][i, cur])
            if p >= 0:
                cur = p
                nodes.append(cur)
        if not self._reversed:
            nodes.reverse()
        return nodes

    def hop_length(self, i, j):
        p = self.path(i, j)
        return None if p is None else len(p) - 1


def _run_hop_recurrence(a0, h, step, want_paths):
    vals = a0.copy()
    parents = []
    for _ in range(int(h)):
        counters["hop_iterations"] += 1
        nv, nw = step(vals)
        better = nv < vals
        if want_paths:
            parents.append(np.where(better, nw, np.int64(-1)))
        vals = np.where(better, nv, vals)
    return vals, parents


def hop_bounded_product(A, g, h, delta=1, want_paths=True):
    """A * D_g^{<=h} for a node-weighted graph, with witness paths.

    One hop step is min(A, (A (*) B) + W) where B is the adjacency matrix
    and W[u, v] = w(v); values only improve strictly, so recorded paths have
    minimal hop-length among minimum-weight h-hop-bounded paths.
    """
    if not isinstance(g, NodeWeightedGraph):
        raise TypeError("hop_bounded_product expects a NodeWeightedGraph")
    if h < 0:
        raise ValueError("h must be >= 0")
    a0 = _as_data(A).copy()
    if a0.shape[1] != g.n:
        raise ValueError("A must have one column per node")
    adj = g.adjacency_bool()
    w = g.node_weight

    def step(vals):
        prod, wit = boolean_min_plus(vals, adj, delta, return_witnesses=want_paths)
        return saturating_add(prod.data, w[None, :]), wit

    vals, parents = _run_hop_recurrence(a0, h, step, want_paths)
    return HopProduct(WeightMatrix(vals, copy=False), parents)


def hop_bounded_product_left(g, A, h, delta=1, want_paths=True):
    """D_g^{<=h} * A via the reverse graph with the node-weight shift.

    For node-weighted graphs the start matrix on the reverse graph is
    B[u, s] = w(u) + A[u, s] and w(v) is subtracted from the result row v.
    """
    a = _as_data(A)
    if a.shape[0] != g.n:
        raise ValueError("A must have one row per node")
    grev = g.reverse()
    if isinstance(g, NodeWeightedGraph):
        shifted = saturating_add(a, g.node_weight[:, None])
        inner = hop_bounded_product(shifted.T, grev, h, delta, want_paths)
        raw = inner.values.data.T
        res = np.where(raw == POS_INF, POS_INF, raw - g.node_weight[:, None])
    elif isinstance(g, EdgeWeightedGraph):
        inner = hop_bounded_product_edge(a.T, grev, h, None, delta, want_paths)
        res = inner.values.data.T
    else:
        raise TypeError(f"unsupported graph type {type(g)!r}")
    out = HopProduct(WeightMatrix(res, copy=False), inner._parents, reversed_paths=True)
    return out


def hop_bounded_product_edge(A, g, h, d=None, delta=1, want_paths=True):
    """A * D_g^{<=h} for an edge-weighted graph with few incoming weights.

    Each hop step is a d-weights min-plus product against the one-hop edge
    matrix (whose column v holds the at most d distinct incoming weights of
    node v).
    """
    if not isinstance(g, EdgeWeightedGraph):
        raise TypeError("hop_bounded_product_edge expects an EdgeWeightedGraph")
    if h < 0:
        raise ValueError("h must be >= 0")
    a0 = _as_data(A).copy()
    if a0.shape[1] != g.n:
        raise ValueError("A must have one column per node")
    if d is not None:
        max_in = audit_distinct_weights(g)[1]
        if max_in > d:
            raise AuditError(f"graph has a node with {max_in} distinct incoming weights (> {d})")
    onehop = one_hop_offdiag(g)

    def step(vals):
        prod, wit = d_weights_min_plus(vals, onehop, delta, d=None,
                                       return_witnesses=True)
        return prod.data, wit

    vals, parents = _run_hop_recurrence(a0, h, step, want_paths)
    return HopProduct(WeightMatrix(vals, copy=False), parents)


def trivial_rows(sources, n):
    """S x V matrix with 0 at [s, s] and +inf elsewhere."""
    sources = np.asarray(sources, dtype=np.int64)
    a = np.full((sources.size, n), POS_INF, dtype=np.int64)
    a[np.arange(sources.size), sources] = 0
    return a
