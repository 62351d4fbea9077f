"""Min-plus product kernels.

Contains the naive cubic oracle, a BLAS boolean matrix product, the
bucketed rectangular d-weights min-plus kernel, and hop-bounded graph
products with witness-path reconstruction.

The naive oracle min_plus_naive sums over every k, with no masks: +inf is
lifted to a value just below half the dtype's range, the rows of A go in
blocks of bounded memory, each block is one add and one minimum over k,
and entries above the cut become +inf again.  It runs in int16 when both
operands' finite magnitudes are at most 2^12 (L = 2^14 - 1, cut 2^13), in
int32 when at most 2^28, else in int64 (core.sum_tier).

There is one min-plus kernel, d_weights_min_plus, with two routes.  The
bucket product: each row of A is sorted and cut into buckets of at most 24
positions, each position weighs a distinct power of two, and one float32
BLAS product against B's column slots (the distinct finite values of each
column) gives per (i, slot) the first bucket with a qualifying k and, by
its top bit, that k's sorted position.  The segment gather: each row of A
is added to B's finite entries, sorted by column, and one minimum.reduceat
over the columns takes the minimum.  A cost rule picks the route per product from
B's counts (finite entries, column slots) and the call's shape (rows of A,
n, witnesses or not): the gather wins on sparse B or many values per
column, the bucket product on dense B with few.  The bucket count is
ceil(n/24), the fewest buckets of at most 24 positions; the kernel takes no
parameter for it.  boolean_min_plus is the kernel's 0/+inf case: B's
pattern as 0 where True and +inf elsewhere, one slot per nonempty column.

All kernels are pure functions, and both routes give the same values and
witnesses under one rule: the witness of (i, j) is the least k among the
minimizers of A[i, k] + B[k, j].  The bucket product sorts the rows of A
stably when witnesses are asked for, so the first qualifying position is
the least k of the least value, and a column's tied slots keep their least
k; the gather's tie pass takes the least row k whose sum ties the column's
value, and it also gives a solver product's witnesses, with the solver's
values as the column values.

HopOperator.step is the one hop step of every hop product, right (against
the one-hop matrix M) or left (against M.T).  A HopOperator builds a
graph's M, and each side's prepared kernel operand, once for all the hop
products of a solve; a min-plus solver `product` given to the operator
takes the kernel's place.  A hop product's recurrence runs over a row
frontier: a round steps only the rows that strictly improved in the round
before, and the recurrence stops when no row is left, since row i of
X * M depends on row i of X alone.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import (
    AuditError,
    POS_INF,
    WeightError,
    WeightMatrix,
    _as_data,
    _distinct_pairs,
    one_hop_offdiag,
    require_distinct_weights,
    saturating_add,
    sum_tier,
)

# Finite kernel operands must stay below this magnitude so that sums remain
# clear of the sentinel range.
MAX_OPERAND = np.int64(2**60)

# Bucket width cap of the bucketed kernels: a bucket's powers 2^0..2^23 sum
# to an integer below 2^24, which float32 holds exactly.
_BUCKET_BITS = 24

# Cell budget of one block of the bit-packed bucket product: rows of A are
# taken in blocks whose float32 indicator and product stay within it.
_BUCKET_CELLS = 2**22

# Cell budget of one block of the d-weights gather route, below
# _BUCKET_CELLS: a block's int64 arrays (512 KiB each) stay in cache.  At
# n = s = 128 with witnesses a product took 3.5 ms, against 8.2 ms in
# blocks of 2**22 cells (one BLAS thread, best of 5).
_GATHER_CELLS = 2**16

# Cell budget of one block of min_plus_naive: the block's (inner, rows, m)
# sum array holds at most 256 KiB in int16, or one row of B when m alone is
# larger.  In int16 a 65 x 72 x 72 product took 0.21 ms, against 0.24 ms at
# 2**16 cells (median of 15 interleaved best-of-5 rounds, one BLAS thread,
# 2-core x86-64 box); int32 and int64 were no slower.
_NAIVE_CELLS = 2**17

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


def _validate_operand(data, name):
    """Raise on bot, -inf or out-of-bound entries; return the largest finite |entry|.

    The exact tests run only where the overall min and max leave room.
    """
    lo, hi = int(data.min(initial=0)), int(data.max(initial=0))
    if hi > POS_INF and np.any(data == np.int64(2**62 + 7)):  # BOT
        raise WeightError(f"{name} contains bot entries")
    if lo <= -POS_INF and np.any(data == -POS_INF):
        raise WeightError(f"{name} contains neg_inf entries")
    if hi >= POS_INF:
        hi = int(np.where(data == POS_INF, 0, data).max())
    top = max(-lo, hi)
    if top > MAX_OPERAND:
        raise WeightError(f"{name} has finite entries beyond the kernel operand bound")
    return top


def min_plus_naive(A, B):
    """Definitional min-plus product; the oracle for every other kernel.

    out[i, j] = min over all k of A[i, k] + B[k, j], +inf where no k has
    both entries finite.  No k is pruned; only the order of evaluation
    differs from the per-k loop.  Both operands have +inf lifted to a value
    L just below half the working dtype's range, and each block is one add
    and one minimum over k, with no masks.  Rows of A go in blocks whose
    (n, rows, m) sum array holds at most _NAIVE_CELLS cells; when one row's
    n*m is larger, k goes in blocks too, each folded into the row's
    minimum, so no temporary holds more than _NAIVE_CELLS cells, or one row
    of B when m alone is larger.

    Overflow (core.sum_tier): operands hold |x| <= MAX_OPERAND = 2^60, so
    in int64, with L = 2^62 - 1, a finite sum lies within +-2^61 (the cut),
    a sum through one lifted entry is at least L - 2^60 > 2^61, and L + L
    does not wrap.  With |x| <= 2^28 the same holds in int32 (L = 2^30 - 1,
    cut 2^29), and with |x| <= 2^12 in int16 (L = 2^14 - 1, cut 2^13:
    L - 2^12 > 2^13, L + L = 32766).  Entries above the cut become POS_INF;
    the output is int64 in every tier.
    """
    a, b = _as_data(A), _as_data(B)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    top = max(_validate_operand(a, "A"), _validate_operand(b, "B"))
    counters["min_plus_naive"] += 1
    n1, n2 = a.shape
    n3 = b.shape[1]
    if n1 == 0 or n2 == 0 or n3 == 0:
        return WeightMatrix(np.full((n1, n3), POS_INF, dtype=np.int64), copy=False)
    dtype, lift, cut = sum_tier(top)
    at = np.where(a == POS_INF, lift, a).T.astype(dtype, order="C")
    bl = np.where(b == POS_INF, lift, b).astype(dtype, copy=False)
    work = np.empty((n1, n3), dtype=dtype)
    kb = min(n2, max(1, _NAIVE_CELLS // n3))
    rb = max(1, _NAIVE_CELLS // (kb * n3))
    for r0 in range(0, n1, rb):
        rows = slice(r0, r0 + rb)
        np.min(at[:kb, rows, None] + bl[:kb, None, :], axis=0, out=work[rows])
        for k0 in range(kb, n2, kb):
            ks = slice(k0, k0 + kb)
            np.minimum(work[rows], np.min(at[ks, rows, None] + bl[ks, None, :], axis=0),
                       out=work[rows])
    return WeightMatrix(np.where(work > cut, POS_INF, work), copy=False)


# ----------------------------------------------------------------------------
# Boolean matrix multiplication.
# ----------------------------------------------------------------------------

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


def boolean_matrix_multiply(P, Q):
    """OR-AND product as one float32 BLAS product.

    Every term of the float32 sum is 0 or 1, so the rounded sum is positive
    exactly when some term is 1, whatever the inner dimension.
    """
    P = np.asarray(P, dtype=bool)
    Q = np.asarray(Q, dtype=bool)
    if P.shape[1] != Q.shape[0]:
        raise ValueError(f"shape mismatch {P.shape} x {Q.shape}")
    counters["boolean_matmul"] += 1
    return (P.astype(np.float32) @ Q.astype(np.float32)) > 0


# ----------------------------------------------------------------------------
# Bucketed rectangular kernels.
# ----------------------------------------------------------------------------

def _bucket_count(n):
    """Buckets of the bucket product over n sorted positions: ceil(n/24), at least 1."""
    return max(1, -(-n // _BUCKET_BITS))


def _bucketed_first(a, bt, want_witnesses):
    """Smallest A[i, k] over the k with bt[j, k] > 0, per (i, j), and its least k.

    bt is the float32 0/1 target indicator, transposed: one row per target.
    Each row of A is sorted by value and cut into nb = _bucket_count(n)
    buckets of bs = ceil(n/nb) <= 24 positions.  The finite entry at
    position p of its bucket is written as 2^(bs-1-p) into the float32
    bucket indicator, and one BLAS product against bt gives, per (i, j) and
    bucket, the sum of the powers of its qualifying k.  The first nonzero
    bucket holds the first qualifying position in sorted order, and the top
    bit of its sum (np.frexp) is that position: the sorted values give the
    value there, and the sort order its k.

    Exactness: every partial sum of a product entry is a sum of distinct
    powers 2^0..2^23, an integer below 2^24, so float32 holds it exactly in
    whatever order BLAS adds.  Finite values sort before +inf, so the first
    qualifying position is finite.  With witnesses the sort is stable, so
    equal values keep their k order and the first qualifying position holds
    the least k of the least value; without them only the value is
    returned, so the sort need not be stable.

    Cost: the product takes Theta(s*T*n*nb) multiply-adds, about s*T*n^2/24,
    for s rows of A and T targets.  Rows of A go through it in blocks whose
    indicator and product hold at most _BUCKET_CELLS cells each, so the
    working memory beyond the (s, n) sort and the (s, T) result stays
    bounded.  The gathers index the flattened arrays.  Returns the value
    matrix (+inf where no k qualifies) and the witness matrix (-1 there),
    or None without witnesses.
    """
    s, n = a.shape
    t = bt.shape[0]
    nb = _bucket_count(n)
    bs = -(-n // nb)
    order = np.argsort(a, axis=1, kind="stable" if want_witnesses else None)
    row_start = np.arange(0, s * n, n)[:, None]
    svals = a.ravel()[order + row_start]
    vparts, kparts = [], []
    block = max(1, _BUCKET_CELLS // (max(n, t) * nb))
    for r0 in range(0, s, block):
        bo, bv = order[r0:r0 + block], svals[r0:r0 + block]
        nr = bv.shape[0]
        rows, pos = np.nonzero(bv != POS_INF)
        # built transposed, so that the product's bucket axis is the last one
        aprime = np.zeros((n, nr * nb), dtype=np.float32)
        aprime[bo[rows, pos], rows * nb + pos // bs] = np.ldexp(
            np.float32(1), bs - 1 - pos % bs)
        sums = bt @ aprime  # (t, nr * nb)
        firstb = (sums.reshape(t, nr, nb) > 0).argmax(axis=2)
        top = sums.ravel()[firstb + np.arange(0, t * nr * nb, nb).reshape(t, nr)].T
        has = top > 0
        first = np.where(has, firstb.T * bs + bs - np.frexp(top)[1], 0) + row_start[:nr]
        vparts.append(np.where(has, bv.ravel()[first], POS_INF))
        if want_witnesses:
            kparts.append(np.where(has, bo.ravel()[first], -1))

    def joined(parts):  # a single block, the common case, is returned without a copy
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return joined(vparts), (joined(kparts) if want_witnesses else None)


def _audit_column_counts(counts, d):
    if d is not None and (counts > d).any():
        j = int(np.argmax(counts > d))
        raise AuditError(f"column {j} has {counts[j]} distinct entries (> {d})")


def _column_slots(ecol, evals, m, d=None):
    """Distinct finite values per column in ascending order.

    ecol and evals are the columns and values of B's finite entries, and m
    is B's column count.  Returns (slot_col, slot_val, col_start): the slots
    of column j are col_start[j]:col_start[j + 1].
    """
    slot_col, slot_val, counts = _distinct_pairs(ecol, evals, m)
    _audit_column_counts(counts, d)
    return slot_col, slot_val, np.concatenate([[0], np.cumsum(counts)])


class DWeightsOperand:
    """The B operand of d_weights_min_plus, prepared once for many products.

    Holds the validated, read-only B and its shape, and what each route of
    the product needs from B alone.  The bucketed route uses the column
    slots (the distinct finite values per column, audited against d when d
    is given), the transposed float32 slot indicator bt[t, k] = (B[k,
    slot_col[t]] == slot_val[t]), built on the route's first use, and the
    slots' reduceat starts.  The gather route uses B's nnz finite entries
    sorted by column, then by row (their rows erow and values eval), cut
    into chunks of whole nonempty columns: per chunk its columns, its entry
    range [e0, e1), and each column's reduceat start (from e0) and entry
    count.  A product against it repeats no B-only work.
    """

    def __init__(self, B, d=None):
        data = np.array(_as_data(B), dtype=np.int64)
        if data.ndim != 2:
            raise ValueError(f"B must be 2-d, got shape {data.shape}")
        _validate_operand(data, "B")
        data.setflags(write=False)
        self.data = data
        self.shape = data.shape
        bt_flat = data.T.ravel()  # 1-d nonzero and take: cheaper than 2-d
        idx = np.flatnonzero(bt_flat != POS_INF)
        ecol, self.erow = np.divmod(idx, max(data.shape[0], 1))
        self.eval = bt_flat[idx]
        self.slot_col, self.slot_val, col_start = _column_slots(
            ecol, self.eval, data.shape[1], d)
        self.counts = np.diff(col_start)
        self.nonempty = self.counts > 0
        self.starts = col_start[:-1][self.nonempty]
        cols = np.flatnonzero(self.nonempty)
        counts = np.bincount(ecol, minlength=data.shape[1])[cols]
        starts = np.cumsum(counts) - counts
        # runs of whole columns whose first entries share one window of
        # _GATHER_CELLS entries; each holds fewer than _GATHER_CELLS + n
        cuts = np.concatenate([[0], np.flatnonzero(np.diff(starts // _GATHER_CELLS)) + 1,
                               [cols.size]])
        self.chunks = [(cols[c0:c1], starts[c0], starts[c0] + counts[c0:c1].sum(),
                        starts[c0:c1] - starts[c0], counts[c0:c1])
                       for c0, c1 in zip(cuts[:-1], cuts[1:]) if c1 > c0]

    @cached_property
    def bt(self):
        """The (T, n) float32 slot indicator, built on the first bucketed product."""
        return (self.data[:, self.slot_col] == self.slot_val[None, :]).T.astype(np.float32)


def _unreached(s, m):
    """An all +inf (s, m) product and its all -1 witness matrix."""
    return (np.full((s, m), POS_INF, dtype=np.int64),
            np.full((s, m), -1, dtype=np.int64))


def _dweights_bucketed(a, B, want_witnesses):
    """The d-weights product by one bit-packed bucket product over B's slots.

    The bucket product finds, per (row, slot), the least value, and its
    least k, among the k whose B entry in the slot's column holds the
    slot's value; each column then minimizes over its slots, ties to the
    least k.  With one slot per nonempty column (a 0/+inf pattern, a
    node-weighted one-hop matrix) the slots' values and k are the columns',
    so that pass does not run.  Returns the (s, m) values and witnesses
    (all -1 without witnesses).
    """
    s, n = a.shape
    if s == 0 or B.erow.size == 0:
        return _unreached(s, B.shape[1])
    aval, kwit = _bucketed_first(a, B.bt, want_witnesses)
    hit = aval != POS_INF
    vals = np.where(hit, aval + B.slot_val[None, :], POS_INF)
    if B.slot_val.size > B.starts.size:
        sums, vals = vals, np.minimum.reduceat(vals, B.starts, axis=1)
        if want_witnesses:
            # a slot's k is its least minimizing k, so the tied slots' least
            # k is the least minimizing k of the column
            tied = np.where(hit & (sums == np.repeat(vals, B.counts[B.nonempty], axis=1)),
                            kwit, n)
            kwit = np.minimum.reduceat(tied, B.starts, axis=1)
            kwit[kwit == n] = -1
    if not want_witnesses:
        kwit = np.full(vals.shape, -1, dtype=np.int64)
    if B.nonempty.all():
        return vals, kwit
    out, wit = _unreached(s, B.shape[1])
    out[:, B.nonempty], wit[:, B.nonempty] = vals, kwit
    return out, wit


def _dweights_gather(a, B, want_witnesses, target=None):
    """The d-weights product by a segment gather over B's finite entries.

    B's entries are taken in chunks of whole columns and the rows of A in
    blocks, so that one block holds at most about _GATHER_CELLS cells.  A
    block forms sums[i, e] = A[i, erow[e]] + eval[e] over the chunk's
    entries e, in column-then-row order, and one minimum.reduceat over the
    column segments gives the values.  The witness is the least erow[e]
    whose sum ties its column's value: a second reduceat (the tie pass) over
    erow there and n elsewhere.  Given an (s, m) target, the tie pass takes
    its entries as the column values in place of the first reduceat, and
    target is returned as the values: a solver product's witnesses, where
    the solver's value is reached.  A's +inf entries are lifted to POS_INF +
    MAX_OPERAND + 1 first, so every sum through one lies above POS_INF
    without a mask, ties no value, and none overflows, while the finite
    sums, within +-2^61, stay below it.  Returns the (s, m) values and
    witnesses.
    """
    s, n = a.shape
    out, wit = _unreached(s, B.shape[1])
    if target is not None:
        out = target
    if s == 0 or B.erow.size == 0:
        return out, wit
    lifted = np.where(a == POS_INF, POS_INF + MAX_OPERAND + 1, a)
    for cols, e0, e1, starts, counts in B.chunks:
        erow = B.erow[e0:e1]
        block = max(1, _GATHER_CELLS // (e1 - e0))
        for r0 in range(0, s, block):
            rows = slice(r0, r0 + block)
            sums = np.take(lifted[rows], erow, axis=1)
            sums += B.eval[e0:e1]
            if target is None:
                vals = np.minimum(np.minimum.reduceat(sums, starts, axis=1), POS_INF)
                out[rows, cols] = vals
            else:
                vals = target[rows, cols]
            if want_witnesses:
                tied = np.where(sums == np.repeat(vals, counts, axis=1), erow, n)
                least = np.minimum.reduceat(tied, starts, axis=1)
                wit[rows, cols] = np.where(least < n, least, -1)
    return out, wit


def d_weights_min_plus(A, B, *, d=None, return_witnesses=False):
    """Rectangular min-plus product for B with few distinct entries per column.

    Two routes give the same values and witnesses.  The bucketed route
    builds the indicator of B's T column slots (the distinct finite values
    of each column), finds the best qualifying k per (row, slot) with one
    bit-packed bucket product against the sorted rows of A, and minimizes
    over each column's slots.  The gather route adds each row of A to B's
    nnz finite entries and minimizes over each column's entries.  B may be
    a DWeightsOperand, which skips the B-only preparation.  The witness
    matrix holds, on both routes, the least k among the minimizers of
    A[i, k] + B[k, j] (from the bucket route's stable sort of A's rows, or
    the gather's tie pass), or -1 where the result is +inf.  This is the
    library's one min-plus kernel:
    boolean_min_plus and every hop step without a solver `product` run it.

    Cost rule: for s rows of A, n = B's rows and nb = ceil(n/24) buckets
    (at least 1), the modelled costs in ns are
      gather:   s*nnz*g, with g = 6 with witnesses and 2.5 without;
      bucketed: 32000 + s*(64*n + T*(24 + nb*(4 + n/64))), i.e. fixed
                work, the sort of A, the per-slot and per-bucket passes, and
                the T*n*nb multiply-adds per row of the float32 product;
    and the product takes the gather route when its cost is lower.  The
    constants are rounded from a least-squares fit to 818 timed products
    of both routes (one BLAS thread, 2-core x86-64 box): n = 16..1024,
    s = n/8..n, B 2-70 % finite with 1, 4 or 32 values per column, plus
    the one-hop operands of the d-weights APSP solves at n = 48 (s = 32..48,
    nnz ~ 700, T ~ 180 or 550), where the gather is 3-6x faster.  Picking
    by the rule took 0.3 % more time than always picking the faster route,
    and 0.5 % on 818 products drawn with other seeds (at most 1.7x on one
    small product), against 1.5x for always the gather and 4x for always
    the bucket product.  Dense B with few values per column (the bench's
    palette at n = 128 and 512, with witnesses) stays on the bucketed
    route.
    """
    a = _checked_a(A, B)
    if isinstance(B, DWeightsOperand):
        _audit_column_counts(B.counts, d)
    else:
        B = DWeightsOperand(B, d)
    counters["d_weights_min_plus"] += 1
    out, wit = _dweights_product(a, B, return_witnesses)
    if return_witnesses:
        return WeightMatrix(out, copy=False), wit
    return WeightMatrix(out, copy=False)


def _checked_a(A, B):
    """A's validated data, after the shape check of a product A x B."""
    a = _as_data(A)
    shape = np.shape(B)  # a DWeightsOperand and a WeightMatrix have .shape
    if a.ndim != 2 or len(shape) != 2 or a.shape[1] != shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {shape}")
    _validate_operand(a, "A")
    return a


def _dweights_product(a, B, want_witnesses):
    """A checked A times a prepared B on the route of d_weights_min_plus's cost rule."""
    s, n = a.shape
    nb = _bucket_count(n)
    gather = s * B.erow.size * (6 if want_witnesses else 2.5)
    if gather < 32000 + s * (64 * n + B.slot_val.size * (24 + nb * (4 + n / 64))):
        return _dweights_gather(a, B, want_witnesses)
    return _dweights_bucketed(a, B, want_witnesses)


def boolean_min_plus(A, B, *, return_witnesses=True):
    """Rectangular boolean min-plus product (A (*) B) with witnesses.

    result[i, j] = min{A[i, k] : B[k, j]}, +inf when no k qualifies.  This
    is the d-weights product against B's 0/+inf matrix (0 where B is True),
    one slot per nonempty column, on the route its cost rule picks.  The
    witness matrix holds the minimizing k (ties to the smallest column), or
    -1 where the result is +inf or no witnesses are asked for.
    """
    b = np.asarray(B, dtype=bool)
    a = _checked_a(A, b)
    counters["boolean_min_plus"] += 1
    out, wit = _dweights_product(a, DWeightsOperand(np.where(b, 0, POS_INF)),
                                 return_witnesses)
    return WeightMatrix(out, copy=False), wit


# ----------------------------------------------------------------------------
# Hop-bounded products over graphs.
# ----------------------------------------------------------------------------

def compact_paths(nodes):
    """Move the nodes of each row of a -1-padded path array to its front.

    The nodes keep their order; the padding collects at the end of the row.
    A node's new column is the count of real nodes up to it in its row, less
    one.
    """
    real = nodes >= 0
    out = np.full(nodes.shape, -1, dtype=nodes.dtype)
    out[np.nonzero(real)[0], np.cumsum(real, axis=1)[real] - 1] = nodes[real]
    return out


class HopProduct:
    """Result of A * D^{<=h}: values plus per-pair witness paths.

    Witness paths have hop-length at most h and re-evaluate exactly to the
    reported value; they are backtraced from the per-round witness matrices
    recorded while running the hop recurrence, one per round that ran (a
    round that did not run improves nothing).  `paths` backtraces many
    entries at once into one -1-padded array; `path` is its per-pair view.
    The product also keeps the row frontier its recurrence stopped with (the
    rows that improved in its last round; None stands for every row), so a
    later hop product on the same side and graph can resume it for more
    rounds.
    """

    def __init__(self, values, parents, h, reversed_paths=False, *,
                 frontier=None, with_paths=True):
        self.values = values
        self._parents = parents
        self._h = int(h)
        self._reversed = reversed_paths
        self._frontier = frontier
        self._with_paths = with_paths

    @property
    def h(self):
        return self._h

    def last_round_pairs(self):
        """The entries (i, j) that strictly improved in round h, as index
        arrays; none when h is 0 or the recurrence stopped before round h.
        Every witness path of exactly h hops ends at such an entry."""
        if not self._with_paths:
            raise ValueError("the product was recorded without paths")
        if self._h == 0 or len(self._parents) < self._h:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        i, j = np.nonzero(self._parents[-1] >= 0)
        return (j, i) if self._reversed else (i, j)

    def paths(self, i, j):
        """Witness paths of the entries (i[p], j[p]), as (nodes, hops).

        nodes is a (P, h+1) int64 array whose row p holds the hops[p] + 1
        nodes of its path followed by -1 padding.  An infinite entry gives
        an all -1 row and hops -1.  One gather per recorded round walks
        every path back from its end node; the rounds without a parent
        leave gaps that one stable compaction closes.
        """
        if not self._with_paths:
            raise ValueError("the product was recorded without paths")
        i = np.asarray(i, dtype=np.int64).reshape(-1)
        j = np.asarray(j, dtype=np.int64).reshape(-1)
        infinite = self.values.data[i, j] == POS_INF
        if self._reversed:
            i, j = j, i
        h = self._h
        # column t holds the node reached in round t, column h the end node;
        # the columns of rounds that did not run stay -1
        nodes = np.full((i.size, h + 1), -1, dtype=np.int64)
        nodes[:, h] = j
        cur = j
        for t in range(len(self._parents) - 1, -1, -1):
            p = self._parents[t][i, cur]
            nodes[:, t] = p
            cur = np.where(p >= 0, p, cur)
        if self._reversed:
            nodes = nodes[:, ::-1]  # the reverse graph's walk runs a left path forward
        nodes = compact_paths(nodes)
        nodes[infinite] = -1
        return nodes, (nodes >= 0).sum(axis=1) - 1

    def path(self, i, j):
        """Witness node list for entry (i, j), or None when infinite."""
        nodes, hops = self.paths(i, j)
        if hops[0] < 0:
            return None
        return nodes[0, :hops[0] + 1].tolist()


class HopOperator:
    """A graph's one-hop steps, built once and shared by a solve's hop products.

    Holds M = one_hop_offdiag(g); right products step against M and left
    products against M.T.  Each side is prepared once, on first use: a
    DWeightsOperand of the side's matrix, or, when every row k holds one
    finite weight r[k], of its 0/+inf pattern with r as a shift of X (the
    node-weight shift).  Either way a node-weighted graph's sides have one
    slot per nonempty column.  A solver `product(A, B) -> WeightMatrix`
    takes the kernel's place in every step, on the side's matrix; since it
    carries no witnesses, the gather's tie pass against the side's operand
    recovers them from its values, under the kernel's rule.  It holds n x n
    arrays, so it lives no longer than the solve that builds it.
    """

    def __init__(self, g, product=None):
        self.graph, self.n = g, g.n
        self.product = product
        self._onehop = one_hop_offdiag(g)
        self._sides = {}

    def _side(self, left):
        """The side's (DWeightsOperand, node-weight shift or None)."""
        if left not in self._sides:
            m, shift = (self._onehop.T if left else self._onehop), None
            if self.product is None:
                finite = m != POS_INF
                lo = m.min(axis=1, initial=POS_INF)
                if not (finite & (m != lo[:, None])).any():
                    shift = np.where(lo == POS_INF, np.int64(0), lo)
                    m = np.where(finite, 0, POS_INF)
            self._sides[left] = DWeightsOperand(m), shift
        return self._sides[left]

    def sources(self, s, *, left=False):
        """The h=1 product from sources s (rows 0 at the source, +inf
        elsewhere), read off M (left: M.T) with no step: its one finite k,
        the source, is the parent wherever M's row beats the start."""
        s = np.asarray(s, dtype=np.int64)
        row = (self._onehop.T if left else self._onehop)[s]
        vals = np.where(np.arange(self.n) == s[:, None], np.int64(0), POS_INF)
        better = row < vals
        vals = np.where(better, row, vals)
        parents = [np.where(better, s[:, None], np.int64(-1))]
        return HopProduct(WeightMatrix(vals.T if left else vals, copy=False), parents, 1, left,
                          frontier=np.flatnonzero(better.any(axis=1)))

    def step(self, vals, left, want_paths):
        """One hop step: vals * M (left: vals * M.T) and its witnesses, None
        without paths.

        The kernel is looked up by its module name on every call; a solver
        step calls no other public kernel.
        """
        operand, shift = self._side(left)
        if self.product is not None:
            prod = self.product(WeightMatrix(vals, copy=False),
                                WeightMatrix(operand.data, copy=False)).data
            if not want_paths:
                return prod, None
            return _dweights_gather(vals, operand, True, target=prod)
        if shift is not None:
            vals = saturating_add(vals, shift[None, :])
        out = d_weights_min_plus(vals, operand, return_witnesses=want_paths)
        return (out[0].data, out[1]) if want_paths else (out.data, None)


def _hop_recurrence(A, g, h, left, want_paths):
    """Up to h rounds of vals = min(vals, step(vals)) over a row frontier.

    A right product starts from A, a left one from A.T (the right product
    of the reverse graph); g is a graph or a HopOperator built from one.
    Row i of X * M depends on row i of X alone, so a row that does not
    strictly improve in a round gives the same product in the next one and
    cannot improve again.  The first round steps every row; each later round
    steps only the rows that strictly improved in the round before, and the
    recurrence stops after h rounds or when no row is left.  The values are
    those of h full rounds.  One parent matrix of vals' shape is recorded
    per round that ran, with paths, holding the round's witness where the
    value strictly improved, else -1.

    A HopProduct in A's place resumes it: the rounds start.h + 1..h run from
    its values, its parents and its frontier, which gives the values and
    paths of a fresh h-round product from the start's A.
    """
    op = g if isinstance(g, HopOperator) else HopOperator(g)
    if h < 0:
        raise ValueError("h must be >= 0")
    if isinstance(A, HopProduct):
        if A._reversed != left:
            raise ValueError("a resumed product must come from the same side")
        if h < A.h:
            raise ValueError(f"cannot resume an h={A.h} product at h={h}")
        if want_paths and not A._with_paths:
            raise ValueError("the product to resume was recorded without paths")
        vals = (A.values.data.T if left else A.values.data).copy()
        parents = list(A._parents) if want_paths else []
        active = np.arange(vals.shape[0]) if A._frontier is None else A._frontier
        done = A.h
    else:
        a = _as_data(A)
        vals = (a.T if left else a).copy()
        parents, active, done = [], np.arange(vals.shape[0]), 0
    if vals.shape[1] != op.n:
        raise ValueError(f"A must have one {'row' if left else 'column'} per node")
    for _ in range(done, int(h)):
        if active.size == 0:
            break
        counters["hop_iterations"] += 1
        cur = vals[active]
        nv, nw = op.step(cur, left, want_paths)
        better = nv < cur
        if nw is not None:
            parent = np.full(vals.shape, -1, dtype=np.int64)
            parent[active] = np.where(better, nw, np.int64(-1))
            parents.append(parent)
        vals[active] = np.where(better, nv, cur)
        active = active[better.any(axis=1)]
    values = WeightMatrix(vals.T if left else vals, copy=False)
    return HopProduct(values, parents, h, reversed_paths=left, frontier=active,
                      with_paths=want_paths)


def hop_bounded_product(A, g, h, *, want_paths=True):
    """A * D_g^{<=h} for a node- or edge-weighted graph, with witness paths.

    One hop step is min(A, A * M) where M is the one-hop matrix without its
    diagonal, by HopOperator.step: one d-weights product, or the solver
    product of a HopOperator(g, product).  g is a graph or a HopOperator
    built from one.  Values only improve strictly, so recorded paths have
    minimal hop-length among minimum-weight h-hop-bounded paths.

    A may be a right HopProduct of the same graph, h' <= h hops from some
    A0: the product then resumes it and runs only rounds h'+1..h, from its
    values, parents and row frontier, with the result of a fresh
    hop_bounded_product(A0, g, h).  Paths need a start recorded with them.
    """
    return _hop_recurrence(A, g, h, False, want_paths)


def hop_bounded_product_left(g, A, h, *, want_paths=True):
    """D_g^{<=h} * A, run as the right product A^T * D^{<=h} of the reverse graph.

    The recurrence is hop_bounded_product's, stepping against the transposed
    one-hop matrix; g is a graph or a HopOperator.  A may be a left
    HopProduct to resume, under hop_bounded_product's rule.
    """
    return _hop_recurrence(A, g, h, True, want_paths)


def hop_bounded_product_edge(A, g, h, d=None):
    """hop_bounded_product after auditing the graph for at most d distinct in-weights."""
    require_distinct_weights(g.graph if isinstance(g, HopOperator) else g, d, "in")
    return hop_bounded_product(A, g, h)
