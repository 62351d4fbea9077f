"""Sumset machinery: multiplicities, popular sums, isolating primes, the
covering decomposition of summing pairs, and the popular-sum decomposition
of set families.

Every randomized routine falls back to the exact computation below a size
cutoff, so desk-scale callers are deterministic under a fixed seed.
"""

from __future__ import annotations

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


def sumset_with_multiplicities(x, y):
    """Exact multiplicity map of X+Y by the double loop."""
    mult = {}
    for a in x:
        for b in y:
            z = a + b
            mult[z] = mult.get(z, 0) + 1
    return SumsetProfile(x, y, mult)


def sumset(x, y):
    return {a + b for a in x for b in y}


def popular_sums_exact(x, y, t):
    """P_t(X, Y): sums with at least t representations."""
    if t < 1:
        raise ValueError("popularity threshold must be >= 1")
    mult = sumset_with_multiplicities(x, y).multiplicity
    return {z for z, r in mult.items() if r >= t}


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
    mult = sumset_with_multiplicities(xs, ys).multiplicity
    cutoff = 1.5 * p * p * t
    return {z for z, r in mult.items() if r >= cutoff}


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

    Each box is found by dependent selection on the summing-pair graph:
    anchor a random column, refine both sides by common-neighborhood counts,
    and accept the attempt when the explicit sumset stays within
    BSG_SUMSET_FACTOR*K^5*d.
    Pairs never captured by an accepted box end up in the remainder.
    """
    if big_k < 1:
        raise ValueError("K must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    xs, ys, zset = sorted(set(x)), sorted(set(y)), set(z)
    d = max(len(xs), len(ys), len(zset), 1)
    pairs = {(a, b) for a in xs for b in ys if a + b in zset}
    structured = []
    if not pairs:
        return CoverOutput([(set(), set())] * big_k, set())
    remaining = set(pairs)
    size_cap = BSG_SUMSET_FACTOR * (big_k ** 5) * d
    for _ in range(big_k):
        if not remaining:
            break
        by_y = {}
        for a, b in remaining:
            by_y.setdefault(b, set()).add(a)
        anchors = sorted(by_y)
        weights = np.array([len(by_y[b]) for b in anchors], dtype=float)
        weights /= weights.sum()
        best = None
        for _ in range(BSG_RETRIES):
            y0 = anchors[int(rng.choice(len(anchors), p=weights))]
            x0 = by_y[y0]
            if not x0:
                continue
            codeg = {}
            for a, b in remaining:
                if a in x0:
                    codeg[b] = codeg.get(b, 0) + 1
            yk = {b for b, c in codeg.items() if 2 * c >= len(x0)}
            if not yk:
                continue
            back = {}
            for a, b in remaining:
                if b in yk and a in x0:
                    back[a] = back.get(a, 0) + 1
            xk = {a for a, c in back.items() if 4 * c >= len(yk)}
            if not xk:
                continue
            covered = {(a, b) for (a, b) in remaining if a in xk and b in yk}
            if not covered:
                continue
            size = len(sumset(xk, yk))
            if best is None or size < best[0]:
                best = (size, xk, yk, covered)
        if best is None or best[0] > size_cap:
            structured.append((set(), set()))
            continue
        _, xk, yk, covered = best
        structured.append((xk, yk))
        remaining -= covered
    while len(structured) < big_k:
        structured.append((set(), set()))
    return CoverOutput(structured, remaining)


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


def _decompose_side(mains, others, d, delta, popular):
    n = len(mains)
    work = [set(s) for s in mains]
    other_sets = [frozenset(s) for s in others]
    t = max(1.0, d / delta)
    deg_threshold = n / delta
    rounds = max(1, int(delta * delta))
    nonempty = np.zeros((n, n), dtype=bool)
    dirty = set(range(n))
    parts = []
    for _ in range(rounds):
        for i in sorted(dirty):
            for j in range(n):
                nonempty[i, j] = bool(work[i]) and bool(
                    popular(work[i], other_sets[j], t))
        dirty.clear()
        deg = nonempty.sum(axis=0)
        candidates = np.nonzero(deg >= deg_threshold)[0]
        if candidates.size == 0:
            break
        j_star = int(candidates[0])
        core = frozenset(-v for v in other_sets[j_star])
        shifts, members = {}, {}
        for i in range(n):
            if not nonempty[i, j_star]:
                continue
            pop = popular(work[i], other_sets[j_star], t)
            if not pop:
                continue
            shift = min(pop)
            piece = {v for v in work[i] if (shift - v) in other_sets[j_star]}
            if not piece:
                continue
            shifts[i] = shift
            members[i] = piece
            work[i] -= piece
            dirty.add(i)
        parts.append(PartLevel(core, shifts, members))
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

    def popular(a, b, t):
        return popular_sums_approx(a, b, t, rng=rng)

    x_side = _decompose_side(x_sets, y_sets, d, delta, popular)
    y_side = _decompose_side(y_sets, x_sets, d, delta, popular)
    return x_side, y_side
