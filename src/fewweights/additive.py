"""Sumset machinery: multiplicities, popular sums, isolating primes, the
covering decomposition of summing pairs, and the popular-sum decomposition
of set families.

Every randomized routine falls back to the exact computation below a size
cutoff, so desk-scale callers are deterministic under a fixed seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

RATE_CONSTANT = 4.0
EXACT_CUTOFF = 2 ** 16
BSG_SUMSET_FACTOR = 4.0
BSG_RETRIES = 8


class SumsetProfile:
    """Sumset of two integer sets together with the multiplicity of each sum."""

    def __init__(self, x, y, multiplicity):
        self.x = frozenset(x)
        self.y = frozenset(y)
        self.multiplicity = dict(multiplicity)

    @property
    def support(self):
        return set(self.multiplicity)


def _sum_counts(x, y):
    """The distinct sums of X+Y in ascending order and the multiplicity of
    each: one np.unique with counts over the broadcast sums."""
    return np.unique(np.add.outer(np.fromiter(x, dtype=np.int64),
                                  np.fromiter(y, dtype=np.int64)),
                     return_counts=True)


def sumset_with_multiplicities(x, y):
    """Exact multiplicity map of X+Y."""
    sums, counts = _sum_counts(x, y)
    return SumsetProfile(x, y, zip(sums.tolist(), counts.tolist()))


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

class PartLevel:
    """One extraction round: core set, per-index shift, per-index members."""

    __slots__ = ("core", "shifts", "members")

    def __init__(self, core, shifts, members):
        self.core = frozenset(core)
        self.shifts = dict(shifts)
        self.members = {i: frozenset(s) for i, s in members.items()}


class SideDecomposition:
    """Partition of each set into translate-structured parts plus a remainder."""

    def __init__(self, originals, parts, remainders):
        self.originals = [frozenset(s) for s in originals]
        self.parts = parts
        self.remainders = [frozenset(s) for s in remainders]

    @property
    def level_count(self):
        return len(self.parts)

    def assignment(self, i):
        """Value -> ('part', level) or ('rem',) for set i."""
        out = {}
        for ell, level in enumerate(self.parts):
            for v in level.members.get(i, ()):  # disjoint by construction
                out[v] = ("part", ell)
        for v in self.remainders[i]:
            out[v] = ("rem",)
        return out

    def check_partition(self):
        for i, orig in enumerate(self.originals):
            seen = set()
            for level in self.parts:
                piece = level.members.get(i, frozenset())
                if piece & seen:
                    return False
                seen |= piece
            if seen & self.remainders[i]:
                return False
            if seen | self.remainders[i] != orig:
                return False
        return True


def _padded(sets):
    """Sets as an (n, w) int64 array of each set's sorted values, zero-padded
    to the largest size w, plus the mask of real slots."""
    lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    valid = np.arange(lens.max(initial=0)) < lens[:, None]
    vals = np.zeros(valid.shape, dtype=np.int64)
    vals[valid] = list(itertools.chain.from_iterable(map(sorted, sets)))
    return vals, valid


def _least_popular_sums(main, other, need):
    """Per set pair (i, j) of two padded families: whether some a + b has
    `need` representations, and the least such sum.  For need > 1 the pair's
    sums are sorted as one run v, where such a sum starts at s iff v[s] ==
    v[s+need-1]; padded slots take distinct values above all, in no run."""
    (a, av), (b, bv) = main, other
    real = (av[:, None, :, None] & bv[None, :, None, :]).reshape(
        len(a), len(b), -1)
    k = max(real.shape[2] - need + 1, 0)
    top = a.max(initial=0) + b.max(initial=0) + 1
    sums = np.where(real, (a[:, None, :, None] + b[None, :, None, :]).reshape(
        real.shape), top + np.arange(real.shape[2]))
    if need == 1:
        run = real
    else:
        sums.sort(axis=2)
        run = sums[:, :, :k] == sums[:, :, need - 1:need - 1 + k]
    return run.any(axis=2), np.where(run, sums[:, :, :k], top).min(
        axis=2, initial=top)


def _decompose_side(mains, others, d, delta, rng):
    n = len(mains)
    work = [set(s) for s in mains]
    other_sets = [frozenset(s) for s in others]
    t = max(1.0, d / delta)
    deg_threshold = n / delta
    rounds = max(1, int(delta * delta))
    other = _padded(other_sets)
    per_pair = max(map(len, work), default=0) * other[0].shape[1]
    # exact: every pair takes popular_sums_approx's exact branch (no draws)
    exact = (rng is None or RATE_CONSTANT / math.sqrt(t) >= 1.0
             or per_pair <= EXACT_CUTOFF)
    nonempty = np.zeros((n, n), dtype=bool)
    least = np.zeros((n, n), dtype=np.int64)
    dirty = list(range(n))
    step = max(1, (1 << 16) // max(1, n * per_pair))  # rows of 2^16 sums
    parts = []
    for _ in range(rounds):
        if exact:
            for lo in range(0, len(dirty), step):
                rows = dirty[lo:lo + step]
                nonempty[rows], least[rows] = _least_popular_sums(
                    _padded([work[i] for i in rows]), other, math.ceil(t))
        else:
            for i in dirty:
                for j in range(n):
                    nonempty[i, j] = bool(work[i]) and bool(popular_sums_approx(
                        work[i], other_sets[j], t, rng, EXACT_CUTOFF))
        deg = nonempty.sum(axis=0)
        candidates = np.nonzero(deg >= deg_threshold)[0]
        if candidates.size == 0:
            break
        j_star = int(candidates[0])
        o_star = other_sets[j_star]
        shifts, members = {}, {}
        for i in np.flatnonzero(nonempty[:, j_star]).tolist():
            pop = {int(least[i, j_star])} if exact else popular_sums_approx(
                work[i], o_star, t, rng, EXACT_CUTOFF)
            if not pop:
                continue
            # the shift is some a + b with a in work[i]: the piece holds a
            shifts[i] = min(pop)
            members[i] = {v for v in work[i] if shifts[i] - v in o_star}
            work[i] -= members[i]
        dirty = list(shifts)
        parts.append(PartLevel({-v for v in o_star}, shifts, members))
        if not dirty:
            break
    return SideDecomposition(mains, parts, work)


def popular_sum_decomposition(x_sets, y_sets, d, delta, rng=None):
    """Partition every X_i (and Y_j) into shifted-core parts plus remainders.

    Each extraction round finds a column index whose approximate popular-sum
    sets are nonempty for many rows, negates that column's set as the
    common core, and peels the matching translates off every such row.  The
    leftover families have popular sums for at most n^2/delta index pairs.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if any(len(s) > d for s in x_sets) or any(len(s) > d for s in y_sets):
        raise ValueError("input sets exceed the declared size bound d")
    if len(x_sets) != len(y_sets):
        raise ValueError("need equally many X and Y sets")

    x_side = _decompose_side(x_sets, y_sets, d, delta, rng)
    y_side = _decompose_side(y_sets, x_sets, d, delta, rng)
    return x_side, y_side
