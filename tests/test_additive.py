import math

import numpy as np
import pytest

from fewweights import additive as ad


# ----------------------------------------------------------------------------
# sumsets and popular sums
# ----------------------------------------------------------------------------

def test_sumset_singletons():
    prof = ad.sumset_with_multiplicities({0}, {0})
    assert prof.multiplicity == {0: 1}


def test_sumset_small_enumeration():
    prof = ad.sumset_with_multiplicities({0, 1, 2}, {0, 1, 2})
    assert prof.multiplicity == {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}


def test_sumset_translate_size():
    rng = np.random.default_rng(0)
    x = set(rng.integers(-40, 40, size=12).tolist())
    prof = ad.sumset_with_multiplicities(x, {17})
    assert len(prof.support) == len(x)


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
    mult = ad.sumset_with_multiplicities(x, y).multiplicity
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

def _check_translate_property(dec, d):
    for lvl in dec.parts:
        assert len(lvl.core) <= d
        for i, piece in lvl.members.items():
            shift = lvl.shifts[i]
            assert all((v - shift) in lvl.core for v in piece)


def test_decomposition_trivial_single_set():
    xd, yd = ad.popular_sum_decomposition([{0}], [{0}], 1, 1,
                                          np.random.default_rng(0))
    assert xd.check_partition() and yd.check_partition()


def test_decomposition_identical_negated_sets():
    d, n = 8, 6
    xs = [set(range(d)) for _ in range(n)]
    ys = [set(range(-(d - 1), 1)) for _ in range(n)]
    xd, yd = ad.popular_sum_decomposition(xs, ys, d, 2, np.random.default_rng(0))
    assert xd.check_partition() and yd.check_partition()
    assert 1 <= xd.level_count <= 4
    first = sum(len(p) for p in xd.parts[0].members.values())
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
        xd, yd = ad.popular_sum_decomposition(xs, ys, d, delta,
                                              np.random.default_rng(t))
        assert xd.check_partition() and yd.check_partition()
        assert xd.level_count <= delta * delta
        assert yd.level_count <= delta * delta
        _check_translate_property(xd, d)
        _check_translate_property(yd, d)
        # property (2): exact popular-sum recount on the remainders
        thr = max(1.0, 2 * d / delta)
        for dec, others in ((xd, ys), (yd, xs)):
            cnt = sum(1 for i in range(n) if dec.remainders[i]
                      for j in range(n)
                      if ad.popular_sums_exact(dec.remainders[i], others[j], thr))
            assert cnt <= n * n / delta + 1e-9


def test_decomposition_assignment_maps_values():
    rng = np.random.default_rng(6)
    xs = [set(rng.integers(0, 30, size=8).tolist()) for _ in range(10)]
    ys = [set(rng.integers(-30, 0, size=8).tolist()) for _ in range(10)]
    xd, _ = ad.popular_sum_decomposition(xs, ys, 8, 2, np.random.default_rng(0))
    for i, s in enumerate(xd.originals):
        assign = xd.assignment(i)
        assert set(assign) == set(s)
