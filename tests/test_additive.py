import math

import numpy as np
import pytest

from fewweights import additive as ad


# ----------------------------------------------------------------------------
# sumsets and popular sums
# ----------------------------------------------------------------------------

def test_popular_sums_exact_thresholds():
    x = {0, 1, 2}
    assert ad.popular_sums_exact(x, x, 1) == {0, 1, 2, 3, 4}
    assert ad.popular_sums_exact(x, x, 2) == {1, 2, 3}
    assert ad.popular_sums_exact(x, x, 10) == set()
    with pytest.raises(ValueError):
        ad.popular_sums_exact(x, x, 0.5)


def test_popular_membership_matches_multiplicity():
    rng = np.random.default_rng(1)
    x = set(rng.integers(-20, 20, size=10).tolist())
    y = set(rng.integers(-20, 20, size=10).tolist())
    mult = {}
    for a in x:
        for b in y:
            mult[a + b] = mult.get(a + b, 0) + 1
    for t in (1, 2, 3):
        p = ad.popular_sums_exact(x, y, t)
        for z, r in mult.items():
            assert (z in p) == (r >= t)


def test_popular_approx_fallback_is_exact():
    x = set(range(10))
    p = ad.popular_sums_approx(x, x, 1, np.random.default_rng(0))
    assert p == ad.popular_sums_exact(x, x, 1)


def test_popular_approx_sandwich_rate():
    # force the genuine subsampling path: big sets, big threshold
    x = set(range(500))
    y = set(range(500))
    t = 4000
    exact_t = ad.popular_sums_exact(x, y, t)
    exact_2t = ad.popular_sums_exact(x, y, 2 * t)
    d = 500
    p_rate = 4.0 * math.log2(d) / math.sqrt(t)
    assert p_rate < 1.0
    good = 0
    for seed in range(100):
        p = ad.popular_sums_approx(x, y, t, np.random.default_rng(seed),
                                   exact_cutoff=0)
        if exact_2t <= p <= exact_t:
            good += 1
    assert good >= 95


def test_popular_approx_no_false_positives_when_nothing_popular():
    # the y-stride exceeds the x-range, so every sum has multiplicity 1
    x = set(range(1000))
    y = set(range(0, 10 ** 7, 10 ** 4))
    t = 2000
    assert 4.0 * math.log2(1000) / math.sqrt(t) < 1.0
    exact_t = ad.popular_sums_exact(x, y, t)
    assert exact_t == set()
    for seed in range(20):
        p = ad.popular_sums_approx(x, y, t, np.random.default_rng(seed),
                                   exact_cutoff=0)
        assert p == set()


def test_popular_approx_seed_replay():
    x = set(range(400))
    a = ad.popular_sums_approx(x, x, 2000, np.random.default_rng(3),
                               exact_cutoff=0)
    b = ad.popular_sums_approx(x, x, 2000, np.random.default_rng(3),
                               exact_cutoff=0)
    assert a == b


# ----------------------------------------------------------------------------
# isolating primes
# ----------------------------------------------------------------------------

def _isolates(z, p, value):
    return all(value % p != other % p for other in z if other != value)


def test_isolating_primes_singleton():
    p = ad.isolating_primes({5}, 10)
    assert len(p) == 1


def test_isolating_primes_small_set_all_isolated():
    z = {0, 5, 10}
    primes = ad.isolating_primes(z, 10)
    for p in primes:
        assert p > 10
        assert all(_isolates(z, p, v) for v in z)


def test_isolating_primes_random_sets():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = int(rng.integers(1, 65))
        z = set(rng.integers(-2 ** 20, 2 ** 20, size=t).tolist())
        primes = ad.isolating_primes(z, 2 ** 20)
        assert len(primes) <= math.ceil(math.log2(max(len(z), 2))) + 1
        for v in z:
            assert any(_isolates(z, p, v) for p in primes)


def test_isolating_prime_map_covers_all():
    rng = np.random.default_rng(3)
    z = set(rng.integers(0, 10 ** 6, size=64).tolist())
    mapping, primes = ad.isolating_prime_map(z, 10 ** 6)
    assert set(mapping) == z
    for v, p in mapping.items():
        assert p in primes and _isolates(z, p, v)


# ----------------------------------------------------------------------------
# covering decomposition
# ----------------------------------------------------------------------------

def test_cover_empty_z():
    cov = ad.bsg_cover({1, 2}, {3, 4}, set(), 3, np.random.default_rng(0))
    assert len(cov.structured) == 3
    assert cov.remainder == frozenset()
    assert cov.covers({1, 2}, {3, 4}, set())


def test_cover_single_pair():
    cov = ad.bsg_cover({0}, {0}, {0}, 1, np.random.default_rng(0))
    assert cov.covers({0}, {0}, {0})
    boxed = any(xk and yk for xk, yk in cov.structured)
    assert boxed or (0, 0) in cov.remainder


def test_cover_interval_instance_audit():
    x = set(range(64))
    z = set(range(127))
    cov = ad.bsg_cover(x, x, z, 4, np.random.default_rng(0))
    assert cov.covers(x, x, z)
    d = 64
    assert all(sz <= 4.0 * (4 ** 5) * d for sz in cov.sumset_sizes)
    assert cov.remainder_size <= 4.0 * d * d / 4


def test_cover_random_sweep_coverage():
    rng = np.random.default_rng(4)
    for t in range(40):
        d = int(rng.integers(1, 64))
        x = set(rng.integers(-60, 60, size=d).tolist())
        y = set(rng.integers(-60, 60, size=d).tolist())
        z = set(rng.integers(-120, 120, size=max(1, d)).tolist())
        k = int(rng.integers(1, 6))
        cov = ad.bsg_cover(x, y, z, k, np.random.default_rng(t))
        assert cov.covers(x, y, z)
        assert len(cov.structured) == k


def test_cover_seed_replay():
    x = set(range(32))
    z = set(range(60))
    a = ad.bsg_cover(x, x, z, 3, np.random.default_rng(9))
    b = ad.bsg_cover(x, x, z, 3, np.random.default_rng(9))
    assert a.structured == b.structured and a.remainder == b.remainder


# ----------------------------------------------------------------------------
# popular-sum decomposition
# ----------------------------------------------------------------------------

def padded(sets):
    """A set family as padded arrays (vals, valid): each set's sorted values
    in one row, zero-padded to the largest set (at least one slot)."""
    sizes = np.array([len(s) for s in sets], dtype=np.int64)
    valid = np.arange(max(1, sizes.max(initial=0))) < sizes[:, None]
    vals = np.zeros(valid.shape, dtype=np.int64)
    for i, s in enumerate(sets):
        vals[i, :len(s)] = sorted(s)
    return vals, valid


def decompose(xs, ys, d, delta):
    return ad.popular_sum_decomposition(padded(xs), padded(ys), d, delta)


def decomposition_sets(dec):
    """A SideDecomposition as sets: per level (core, {i: shift},
    {i: piece}) over the rows with a nonempty piece, and the remainders."""
    levels = []
    for lvl in dec.parts:
        rows = np.flatnonzero(lvl.member.any(axis=1)).tolist()
        levels.append((frozenset(lvl.core.tolist()),
                       {i: int(lvl.shift[i]) for i in rows},
                       {i: frozenset(dec.vals[i, lvl.member[i]].tolist())
                        for i in rows}))
    return levels, [frozenset(v[m].tolist()) for v, m in zip(dec.vals, dec.rest)]


def _check_translate_property(dec, d):
    for core, shifts, members in decomposition_sets(dec)[0]:
        assert len(core) <= d
        for i, piece in members.items():
            shift = shifts[i]
            assert all((v - shift) in core for v in piece)


def test_decomposition_trivial_single_set():
    xd, yd = decompose([{0}], [{0}], 1, 1)
    assert xd.check_partition() and yd.check_partition()


def test_decomposition_identical_negated_sets():
    d, n = 8, 6
    xs = [set(range(d)) for _ in range(n)]
    ys = [set(range(-(d - 1), 1)) for _ in range(n)]
    xd, yd = decompose(xs, ys, d, 2)
    assert xd.check_partition() and yd.check_partition()
    assert 1 <= xd.level_count <= 4
    first = int(xd.parts[0].member.sum())
    assert first >= (n / 2) * (d / 2)


def test_decomposition_properties_random():
    rng = np.random.default_rng(5)
    for t in range(12):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 17))
        delta = int(rng.integers(1, 4))
        xs = [set(rng.integers(-25, 25,
                               size=int(rng.integers(1, d + 1))).tolist())
              for _ in range(n)]
        ys = [set(rng.integers(-25, 25,
                               size=int(rng.integers(1, d + 1))).tolist())
              for _ in range(n)]
        xd, yd = decompose(xs, ys, d, delta)
        assert xd.check_partition() and yd.check_partition()
        assert xd.level_count <= delta * delta
        assert yd.level_count <= delta * delta
        _check_translate_property(xd, d)
        _check_translate_property(yd, d)
        # property (2): exact popular-sum recount on the remainders
        thr = max(1.0, 2 * d / delta)
        for dec, others in ((xd, ys), (yd, xs)):
            remainders = decomposition_sets(dec)[1]
            cnt = sum(1 for i in range(n) if remainders[i]
                      for j in range(n)
                      if ad.popular_sums_exact(remainders[i], others[j], thr))
            assert cnt <= n * n / delta + 1e-9


def test_check_partition_rejects_overlap_and_padding():
    xd, _ = decompose([{0, 1, 2, 3}] * 3 + [{9}], [{0, -1, -2, -3}] * 3 + [{7}],
                      4, 2)
    assert xd.check_partition() and xd.level_count
    # a piece slot also in the rest
    assert not xd._replace(rest=xd.rest | xd.parts[0].member).check_partition()
    rest = xd.valid.copy()
    assert xd._replace(parts=[], rest=rest).check_partition()
    rest[3, 1] = True  # a padding slot of {9}
    assert not xd._replace(parts=[], rest=rest).check_partition()


# ----------------------------------------------------------------------------
# array-native decomposition and cover against the set-based routines
# ----------------------------------------------------------------------------

def _reference_decompose_side(mains, others, d, delta):
    """The set-based side decomposition: one popular_sums_exact call per
    index pair.  Returns decomposition_sets' form."""
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
                    ad.popular_sums_exact(work[i], other_sets[j], t))
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
            pop = ad.popular_sums_exact(work[i], other_sets[j_star], t)
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
        parts.append((core, shifts, members))
        if not dirty:
            break
    return parts, work


def _reference_bsg_cover(x, y, z, big_k, rng):
    """The set-based cover: one anchor draw per retry."""
    xs, ys, zset = sorted(set(x)), sorted(set(y)), set(z)
    d = max(len(xs), len(ys), len(zset), 1)
    pairs = {(a, b) for a in xs for b in ys if a + b in zset}
    structured = []
    if not pairs:
        return ad.CoverOutput([(set(), set())] * big_k, set())
    remaining = set(pairs)
    size_cap = ad.BSG_SUMSET_FACTOR * (big_k ** 5) * d
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
        for _ in range(ad.BSG_RETRIES):
            y0 = anchors[int(rng.choice(len(anchors), p=weights))]
            x0 = by_y[y0]
            codeg = {}
            for a, b in remaining:
                if a in x0:
                    codeg[b] = codeg.get(b, 0) + 1
            yk = {b for b, c in codeg.items() if 2 * c >= len(x0)}
            back = {}
            for a, b in remaining:
                if b in yk and a in x0:
                    back[a] = back.get(a, 0) + 1
            xk = {a for a, c in back.items() if 4 * c >= len(yk)}
            covered = {(a, b) for (a, b) in remaining if a in xk and b in yk}
            if not covered:
                continue
            size = len(ad.sumset(xk, yk))
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
    return ad.CoverOutput(structured, remaining)


def assert_decomposition_matches_reference(xs, ys, d, delta):
    got = decompose(xs, ys, d, delta)
    want = (_reference_decompose_side(xs, ys, d, delta),
            _reference_decompose_side(ys, xs, d, delta))
    for g, w, sets in zip(got, want, (xs, ys)):
        assert g.check_partition()
        assert decomposition_sets(g) == w
        assert [set(v[m].tolist()) for v, m in zip(g.vals, g.valid)] == sets
    return got


def _random_family(rng, n, d, low, high, min_size=0):
    return [set(rng.integers(low, high,
                             size=int(rng.integers(min_size, d + 1))).tolist())
            for _ in range(n)]


def test_decomposition_matches_set_reference_aete_shape():
    # uniformize's call: n = 16 rows of at most d' = d*delta = 16 values,
    # delta' = delta^2 = 16
    rng = np.random.default_rng(11)
    for seed in range(10):
        xs = _random_family(rng, 16, 16, -20, 20)
        ys = _random_family(rng, 16, 16, -20, 20)
        assert_decomposition_matches_reference(xs, ys, 16, 16)


def test_decomposition_matches_set_reference_reductions_shape():
    # the row-weights reduction's call: n = 32, d = 4, delta = 2
    rng = np.random.default_rng(12)
    for seed in range(20):
        xs = _random_family(rng, 32, 4, 0, 30, min_size=1)
        ys = _random_family(rng, 32, 4, 0, 30, min_size=1)
        assert_decomposition_matches_reference(xs, ys, 4, 2)


def test_decomposition_matches_set_reference_edge_cases():
    cases = [
        ([], [], 1, 1),                                  # n = 0
        ([{3}], [{-3}], 1, 1),                           # n = 1
        ([set()], [{1, 2}], 2, 1),                       # an empty main set
        ([{1, 2}], [set()], 2, 1),                       # an empty other set
        ([set(), set()], [set(), set()], 1, 1),          # all empty
        ([{0, 1, 2, 3}] * 5, [{0, 1, 2, 3}] * 5, 4, 1),  # all sets equal
        ([{-9, -4, -1}] * 3, [{-7, -2}] * 3, 3, 1),      # negative values
        # t = d/delta = 16 exceeds every multiplicity (at most 3)
        ([{0, 1, 2}, {5, 6, 7}], [{0, 1, 2}, {1, 2, 3}], 16, 1),
        # need = ceil(max(1, d/delta)) = 1: every sum with a representation
        # is popular.  delta = 1.5 allows int(2.25) = 2 rounds; the sets
        # hold at most d <= delta values, so at need = 1 the round limit
        # never cuts the loop
        ([{3}, {-1}, set()], [{2}, set(), {7}], 1, 1.5),
        ([set(), {1, 2}, {3}], [set(), set(), {5, 6}], 2, 2),  # empty sets
        ([{1}, {2}], [set(), set()], 1, 1),                    # no other set
        ([set(), set(), set()], [{1}, {2}, {3}], 1, 1),        # no work
    ]
    for xs, ys, d, delta in cases:
        assert_decomposition_matches_reference(xs, ys, d, delta)
    # need = 1 with n/delta = 4: each round peels each working row's least
    # value, and round 2 stops with 2 < 4 rows still holding work
    xs = [{0, 1}, {2, 3}] + [{v} for v in range(4, 10)]
    ys = [{-1, 5}, {0, 2}] + [{v} for v in range(6)]
    for dec in assert_decomposition_matches_reference(xs, ys, 2, 2):
        assert dec.level_count == 1 and dec.rest.sum() == 2


def test_decomposition_matches_set_reference_with_multiplicity_thresholds():
    # d/delta between 1 and the set sizes: runs of 2 and 3 equal sums decide
    rng = np.random.default_rng(13)
    for seed in range(30):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(2, 9))
        delta = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        xs = _random_family(rng, n, d, -6, 6)
        ys = _random_family(rng, n, d, -6, 6)
        assert_decomposition_matches_reference(xs, ys, d, delta)


def test_decomposition_at_need_one_sorts_no_sums(monkeypatch):
    calls = []
    least = ad._least_popular_sums

    def spy(main, other, need):
        calls.append(need)
        return least(main, other, need)

    monkeypatch.setattr(ad, "_least_popular_sums", spy)
    rng = np.random.default_rng(17)
    xs = _random_family(rng, 16, 16, -20, 20, min_size=1)
    ys = _random_family(rng, 16, 16, -20, 20, min_size=1)
    xd, yd = decompose(xs, ys, 16, 16)  # uniformize's shape: need = 1
    assert xd.level_count and yd.level_count and not calls
    decompose(xs, ys, 16, 8)  # need = 2 sorts the sums
    assert calls and set(calls) == {2}


def test_decomposition_matches_set_reference_with_large_sets(monkeypatch):
    # 4 sets of 300 values: one pair has 90,000 > 2^16 sums, so each block
    # of the popular-sum search is one pair; at 150 values a block holds two
    # of the other sets.  Intervals against negated intervals make sums
    # with up to `size` representations, so levels form.
    blocks = []
    least = ad._least_popular_sums

    def spy(main, other, need):
        blocks.append((len(main[0]), len(other[0]),
                       main[1].size * other[1].size))
        return least(main, other, need)

    monkeypatch.setattr(ad, "_least_popular_sums", spy)
    rng = np.random.default_rng(14)
    levels = 0
    for size, delta in ((300, 1), (300, 2), (150, 1)):
        xs = [set(range(o, o + size)) for o in rng.integers(-50, 50, size=3)]
        ys = [set(range(-o - size + 1, -o + 1))
              for o in rng.integers(-50, 50, size=3)]
        xs.append(set(rng.choice(800, size=size, replace=False).tolist()))
        ys.append(set((-rng.choice(800, size=size, replace=False)).tolist()))
        xd, yd = assert_decomposition_matches_reference(xs, ys, size, delta)
        levels += xd.level_count + yd.level_count
    assert levels
    # at most 2^16 sums per block, or one pair's
    assert all(sums <= 2 ** 16 or r == c == 1 for r, c, sums in blocks)
    assert max(sums for _, _, sums in blocks) > 2 ** 16
    assert any(c == 2 for _, c, _ in blocks)


def test_bsg_cover_matches_set_reference():
    rng = np.random.default_rng(15)
    for seed in range(60):
        d = int(rng.integers(0, 24))
        x = set(rng.integers(-30, 30, size=d).tolist())
        y = set(rng.integers(-30, 30, size=int(rng.integers(0, 24))).tolist())
        z = set(rng.integers(-60, 60, size=int(rng.integers(0, 40))).tolist())
        big_k = int(rng.integers(1, 5))
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = ad.bsg_cover(x, y, z, big_k, got_rng)
        want = _reference_bsg_cover(x, y, z, big_k, want_rng)
        assert got.structured == want.structured
        assert got.remainder == want.remainder
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_bsg_cover_matches_set_reference_edge_cases():
    cases = [
        (set(), {1}, {1}, 1), ({1}, set(), {1}, 2), ({1}, {2}, set(), 3),
        ({0}, {0}, {0}, 1), ({-5, -3}, {-1, 2}, {-6, -4, -1, -3}, 2),
        (set(range(8)), set(range(8)), set(range(15)), 3),  # all pairs sum
        # a size cap of 4*K^5*d that rejects no box, and K boxes to fill
        (set(range(0, 40, 3)), set(range(0, 40, 5)), set(range(0, 80, 2)), 4),
    ]
    for x, y, z, big_k in cases:
        got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
        got = ad.bsg_cover(x, y, z, big_k, got_rng)
        want = _reference_bsg_cover(x, y, z, big_k, want_rng)
        assert got.structured == want.structured
        assert got.remainder == want.remainder
        assert got.covers(x, y, z)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_one_draw_of_all_retries_matches_single_draws():
    weights = np.array([0.1, 0.6, 0.3])
    one, single = np.random.default_rng(5), np.random.default_rng(5)
    batch = one.choice(3, size=ad.BSG_RETRIES, p=weights)
    singles = [single.choice(3, p=weights) for _ in range(ad.BSG_RETRIES)]
    assert batch.tolist() == singles
    assert one.bit_generator.state == single.bit_generator.state


def _round_loop_side_need1(main, other, delta):
    """The need = 1 side decomposition as a round loop with a member test:
    the reference for the closed form."""
    (vals, valid), (ovals, ovalid) = main, other
    n = len(vals)
    work = valid.copy()
    filled = np.flatnonzero(ovalid.any(axis=1))
    parts = []
    for _ in range(max(1, int(delta * delta))):
        dirty = np.flatnonzero(work.any(axis=1))
        if filled.size == 0 or dirty.size < n / delta:
            break
        o_star = ovals[filled[0], ovalid[filled[0]]]
        shift = np.zeros(n, dtype=np.int64)
        shift[dirty] = vals[dirty, work[dirty].argmax(axis=1)] + o_star.min()
        member = work & (shift[:, None, None] - vals[:, :, None] == o_star).any(axis=2)
        work &= ~member
        parts.append((-o_star[::-1], shift, member))
    return parts, work


@pytest.mark.parametrize("seed", range(6))
def test_need1_closed_form_matches_round_loop(seed):
    rng = np.random.default_rng(300 + seed)
    n, d = int(rng.integers(1, 12)), int(rng.integers(1, 7))
    xs = _random_family(rng, n, d, -9, 9)
    ys = _random_family(rng, n, d, -9, 9)
    xs[0] = {4}  # a one-slot row
    cases = [(xs, ys), (ys, xs), (xs, [set()] * n)]  # last: an all-empty other family
    for delta in (d, d + 1.5, 4 * d):  # need = ceil(d / delta) = 1
        for mains, others in cases:
            got = ad._decompose_side(padded(mains), padded(others), d, delta)
            parts, rest = _round_loop_side_need1(padded(mains), padded(others), delta)
            assert got.check_partition() and np.array_equal(got.rest, rest)
            assert len(got.parts) == len(parts)
            for lvl, (core, shift, member) in zip(got.parts, parts):
                assert np.array_equal(lvl.core, core)
                assert np.array_equal(lvl.member, member)
                assert np.array_equal(lvl.shift, shift)
