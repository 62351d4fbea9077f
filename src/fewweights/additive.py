"""Sumset machinery: multiplicities, popular sums, isolating primes, the
covering decomposition of summing pairs, and the popular-sum decomposition
of set families.

The decomposition is exact, on padded families (core.row_values).  The one
sampled routine, popular_sums_approx, is called by no pipeline and is exact
below a size cutoff.
"""

from __future__ import annotations

import collections
import math

import numpy as np

RATE_CONSTANT = 4.0
EXACT_CUTOFF = 2 ** 16
BSG_SUMSET_FACTOR = 4.0
BSG_RETRIES = 8


def _sum_counts(x, y):
    """The distinct sums of X+Y in ascending order and the multiplicity of
    each: one np.unique with counts over the broadcast sums."""
    return np.unique(np.add.outer(np.fromiter(x, dtype=np.int64),
                                  np.fromiter(y, dtype=np.int64)),
                     return_counts=True)


def sumset(x, y):
    return {a + b for a in x for b in y}


def popular_sums_exact(x, y, t):
    """P_t(X, Y): sums with at least t representations."""
    if t < 1:
        raise ValueError("popularity threshold must be >= 1")
    if t == 1:  # every sum has a representation
        return sumset(x, y)
    sums, counts = _sum_counts(x, y)
    return set(sums[counts >= t].tolist())


def popular_sums_approx(x, y, t, rng=None, exact_cutoff=EXACT_CUTOFF):
    """Approximate popular sums with the sandwich P_2t <= P <= P_t (w.h.p.).

    Subsamples both sets at rate c*log2(d)/sqrt(t) and thresholds the
    subsampled multiplicities at 1.5*p^2*t.  Falls back to the exact
    computation when the rate reaches 1 or the sets are small enough that
    exact is cheaper.
    """
    if t < 1:
        raise ValueError("popularity threshold must be >= 1")
    d = max(len(x), len(y), 2)
    p = RATE_CONSTANT * math.log2(d) / math.sqrt(t)
    if p >= 1.0 or len(x) * len(y) <= exact_cutoff or rng is None:
        return popular_sums_exact(x, y, t)
    xs = [a for a in x if rng.random() < p]
    ys = [b for b in y if rng.random() < p]
    sums, counts = _sum_counts(xs, ys)
    return set(sums[counts >= 1.5 * p * p * t].tolist())


# ----------------------------------------------------------------------------
# Isolating primes.
# ----------------------------------------------------------------------------

def _sieve_range(lo, hi):
    """Primes in [lo, hi] by a simple sieve."""
    hi = max(hi, 2)
    flags = np.ones(hi + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, int(math.isqrt(hi)) + 1):
        if flags[q]:
            flags[q * q::q] = False
    return [int(p) for p in np.nonzero(flags)[0] if p >= lo]


def isolating_primes(z, n_bound):
    """Small prime set isolating every element of Z modulo some member.

    Greedy: scan primes in [m, 2m] (m = max(4*t*ceil(log2 N), 16)) and take
    the first one isolating at least half of the still-unisolated elements;
    repeat until all of Z is isolated.  Yields at most ceil(log2 t)+1 primes.
    """
    z = sorted(set(int(v) for v in z))
    t = len(z)
    if t == 0:
        raise ValueError("Z must be nonempty")
    if any(abs(v) > n_bound for v in z):
        raise ValueError("Z exceeds the declared bound")
    m = max(4 * t * max(1, math.ceil(math.log2(max(n_bound, 2)))), 16)
    primes = _sieve_range(m, 2 * m)
    if not primes:
        raise RuntimeError(f"no primes in [{m}, {2 * m}]")
    unresolved = set(z)
    chosen = []
    while unresolved:
        pick = None
        for p in primes:
            residues = {}
            for v in z:
                residues[v % p] = residues.get(v % p, 0) + 1
            isolated = {v for v in unresolved if residues[v % p] == 1}
            if 2 * len(isolated) >= len(unresolved):
                pick = (p, isolated)
                break
        if pick is None:
            raise RuntimeError("no prime isolates half of the remaining set; "
                               "the prime range is too small")
        chosen.append(pick[0])
        unresolved -= pick[1]
    return chosen


def isolating_prime_map(z, n_bound):
    """Element -> first chosen prime isolating it."""
    primes = isolating_primes(z, n_bound)
    zs = sorted(set(int(v) for v in z))
    mapping = {}
    for p in primes:
        residues = {}
        for v in zs:
            residues[v % p] = residues.get(v % p, 0) + 1
        for v in zs:
            if v not in mapping and residues[v % p] == 1:
                mapping[v] = p
    return mapping, primes


# ----------------------------------------------------------------------------
# Covering decomposition of Z-summing pairs.
# ----------------------------------------------------------------------------

class CoverOutput:
    """Structured pairs (X_k, Y_k) plus a remainder pair set R.

    Coverage is unconditional: every (x, y) in X x Y with x+y in Z lies in
    some X_k x Y_k or in R.  The audit record holds each |X_k + Y_k| and |R|
    so callers can check the soft size bounds with their own constants.
    """

    def __init__(self, structured, remainder):
        self.structured = [(frozenset(xk), frozenset(yk)) for xk, yk in structured]
        self.remainder = frozenset(remainder)

    @property
    def sumset_sizes(self):
        return [len(sumset(xk, yk)) if xk and yk else 0
                for xk, yk in self.structured]

    @property
    def remainder_size(self):
        return len(self.remainder)

    def covers(self, x, y, z):
        pairs = {(a, b) for a in x for b in y if a + b in set(z)}
        covered = set(self.remainder)
        for xk, yk in self.structured:
            covered |= {(a, b) for a in xk for b in yk if (a, b) in pairs}
        return pairs <= covered


def bsg_cover(x, y, z, big_k, rng=None):
    """Cover the Z-summing pairs of X x Y by K structured boxes plus a rest.

    Each box is found by dependent selection on the summing-pair graph (a
    boolean |X| x |Y| matrix): anchor a random column, refine both sides by
    common-neighborhood counts, and accept the attempt when the explicit
    sumset stays within BSG_SUMSET_FACTOR*K^5*d.
    Pairs never captured by an accepted box end up in the remainder.
    """
    if big_k < 1:
        raise ValueError("K must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    xs, ys, zs = (np.array(sorted(set(s)), dtype=np.int64) for s in (x, y, z))
    d = max(xs.size, ys.size, zs.size, 1)
    remaining = (xs[:, None, None] + ys[None, :, None] == zs).any(axis=2)
    structured = []
    size_cap = BSG_SUMSET_FACTOR * (big_k ** 5) * d
    for _ in range(big_k):
        col = remaining.sum(axis=0)
        anchors = np.flatnonzero(col)
        if not anchors.size:
            break
        weights = col[anchors] / col.sum()
        picks = anchors[rng.choice(anchors.size, size=BSG_RETRIES, p=weights)]
        boxes = []
        for y0 in dict.fromkeys(picks.tolist()):  # a repeat gives the same box
            x0 = remaining[:, y0]  # y0 is in yk, so xk and its box are nonempty
            yk = 2 * remaining[x0].sum(axis=0) >= x0.sum()
            xk = x0 & (4 * remaining[:, yk].sum(axis=1) >= yk.sum())
            boxes.append((np.unique(xs[xk][:, None] + ys[yk]).size, xk, yk))
        size, xk, yk = min(boxes, key=lambda box: box[0])  # first of a tie
        if size > size_cap:
            structured.append((set(), set()))
            continue
        structured.append((xs[xk].tolist(), ys[yk].tolist()))
        remaining &= ~(xk[:, None] & yk)
    structured += [(set(), set())] * (big_k - len(structured))
    ra, rb = np.nonzero(remaining)
    return CoverOutput(structured, zip(xs[ra].tolist(), ys[rb].tolist()))


# ----------------------------------------------------------------------------
# Popular-sum decomposition of set families.
# ----------------------------------------------------------------------------

# One extraction round on a padded family: core is the chosen other set
# negated (ascending), shift[i] each row's shift (0 outside the piece rows)
# and member the (n, w) mask of the slots in each row's piece.
PartLevel = collections.namedtuple("PartLevel", "core shift member")


class SideDecomposition(collections.namedtuple(
        "SideDecomposition", "vals valid parts rest")):
    """Partition of each set's slots of a padded family (vals, valid) into
    translate-structured pieces (one mask per level) plus the rest."""

    __slots__ = ()

    @property
    def level_count(self):
        return len(self.parts)

    def check_partition(self):
        """Every real slot lies in exactly one piece or in the rest, and no
        padding slot in any."""
        count = sum((level.member for level in self.parts), self.rest.astype(int))
        return bool(np.array_equal(count, self.valid))


# Sums per block of _least_popular_sums and of the piece test, unless one
# pair of sets alone holds more.
_BLOCK_SUMS = 2 ** 16


def _least_popular_sums(main, other, need):
    """Per set pair (i, j) of two padded families: whether some a + b has
    `need` > 1 representations, and the least such sum.  The pair's sums are
    sorted as one run v, where such a sum starts at s iff v[s] ==
    v[s+need-1]; padded slots sum to a value above all real sums."""
    (a, av), (b, bv) = main, other
    top = a.max(initial=0) + b.max(initial=0) + 1
    sums = a[:, None, :, None] + b[None, :, None, :]
    if not (av.all() and bv.all()):
        sums = np.where(av[:, None, :, None] & bv[None, :, None, :], sums, top)
    sums = sums.reshape(len(a), len(b), -1)
    sums.sort(axis=2)
    k = max(sums.shape[2] - need + 1, 0)
    run = sums[:, :, :k]
    least = run.min(axis=2, initial=top,
                    where=run == sums[:, :, need - 1:need - 1 + k])
    return least < top, least


def _trimmed(vals, mask):
    """A padded family cut after its last column with a real slot."""
    width = mask.shape[1] - int(mask[:, ::-1].any(axis=0).argmax())
    return vals[:, :width], mask[:, :width]


def _blocks(items, size):
    return (items[lo:lo + size] for lo in range(0, len(items), size))


def _decompose_side(main, other, d, delta):
    (vals, valid), (ovals, ovalid) = main, other
    n, w = vals.shape
    work = valid.copy()
    need = math.ceil(max(1.0, d / delta))
    deg_threshold = n / delta
    rounds = max(1, int(delta * delta))
    parts = []
    if need == 1:  # the closed form of popular_sum_decomposition; valid is a prefix
        filled = np.flatnonzero(ovalid.any(axis=1))
        o_star = ovals[filled[:1]][ovalid[filled[:1]]]
        for r in range(min(rounds, w) if filled.size else 0):
            if valid[:, r].sum() < deg_threshold:
                break
            work[:, r] = False
            shift = np.where(valid[:, r], vals[:, r] + o_star[0], 0)
            parts.append(PartLevel(-o_star[::-1], shift, valid & (np.arange(w) == r)))
        return SideDecomposition(vals, valid, parts, work)
    pair = w * ovals.shape[1]
    # blocks of rows x other sets with at most _BLOCK_SUMS sums, or one pair
    col_step = max(1, min(n, _BLOCK_SUMS // pair))
    row_step = max(1, _BLOCK_SUMS // (pair * max(1, n))) if col_step == n else 1
    nonempty = np.zeros((n, n), dtype=bool)
    least = np.zeros((n, n), dtype=np.int64)
    dirty = np.arange(n)
    for _ in range(rounds):
        for rows in _blocks(dirty, row_step):
            for lo in range(0, n, col_step):
                cols = slice(lo, lo + col_step)
                block = (vals[rows], work[rows]), (ovals[cols], ovalid[cols])
                if col_step < n:  # large sets: cut each side's padding
                    block = [_trimmed(*side) for side in block]
                nonempty[rows, cols], least[rows, cols] = _least_popular_sums(
                    *block, need)
        candidates = np.flatnonzero(nonempty.sum(axis=0) >= deg_threshold)
        if candidates.size == 0:
            break
        j_star = candidates[0]
        dirty = np.flatnonzero(nonempty[:, j_star])
        o_star = ovals[j_star, ovalid[j_star]]
        # the shift is some a + b with a a work slot: the piece holds a
        shift = np.zeros(n, dtype=np.int64)
        shift[dirty] = least[dirty, j_star]
        member = np.zeros_like(work)
        for rows in _blocks(dirty, max(1, _BLOCK_SUMS // (w * o_star.size))):
            member[rows] = work[rows] & (
                shift[rows, None, None] - vals[rows, :, None] == o_star).any(axis=2)
        work &= ~member
        parts.append(PartLevel(-o_star[::-1], shift, member))
    return SideDecomposition(vals, valid, parts, work)


def popular_sum_decomposition(x, y, d, delta):
    """Partition every X_i (and Y_j) into shifted-core parts plus remainders.

    x and y are padded families (vals, valid), as core.row_values builds
    them.  Each extraction round finds the first column index whose exact
    popular-sum sets (sums with at least d/delta representations) are
    nonempty for at least n/delta rows, negates that column's set as the
    common core, and peels off every such row the slots whose translate by
    the row's least popular sum lies in the core.  The leftover families
    have popular sums for at most n^2/delta index pairs.  When d <= delta
    every sum with a representation is popular and no sums are formed:
    the chosen column is the first nonempty one, and level r, while n/delta
    rows hold more than r slots, peels slot r of each such row (the one
    value whose translate lies in the core), shifted by that value plus
    the column's least value.  No random numbers are drawn.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if len(x[0]) != len(y[0]):
        raise ValueError("need equally many X and Y sets")
    if max(x[1].sum(axis=1).max(initial=0), y[1].sum(axis=1).max(initial=0)) > d:
        raise ValueError("input sets exceed the declared size bound d")
    return (_decompose_side(x, y, d, delta), _decompose_side(y, x, d, delta))
