import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fewweights.additive import popular_sum_decomposition, popular_sums_exact
from fewweights.core import (AuditError, BOT, GUARD, WeightError, WeightMatrix,
                             occurrence_stats, row_values)
from fewweights import exact_triangle as et
from fewweights.generators import (
    random_triangle_instance,
    random_uniform_regular_instance,
)

PROMISES = ("A_rows", "A_cols", "B_rows", "B_cols", "C_rows", "C_cols")


def brute_reference(inst):
    """Second, purely scalar triple loop: independent of aete_brute."""
    a, b, c = inst.matrices()
    n = inst.n
    yes = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for k in range(n):
            if a[i, k] == BOT:
                continue
            for j in range(n):
                if b[k, j] == BOT or c[i, j] == BOT:
                    continue
                if int(a[i, k]) + int(b[k, j]) == int(c[i, j]):
                    yes[i, j] = True
    return yes


def check_exact_decomposition(inst, instances, triples, uniform_d=None,
                              regular_r=None):
    """T plus sub-instance triangle sets must disjointly partition T(inst)."""
    whole = inst.triangles()
    assert triples <= whole
    acc = set(triples)
    total = len(triples)
    for item in instances:
        d_l = None
        if isinstance(item, tuple):
            d_l, sub = item
        else:
            sub = item
        ts = sub.triangles()
        assert not (ts & acc)
        acc |= ts
        total += len(ts)
        audit = et.RegularityAudit(sub)
        if uniform_d is not None:
            assert audit.is_uniform(uniform_d if d_l is None else d_l)
        if regular_r is not None and d_l is not None:
            assert audit.is_regular(max(1, inst.n // max(d_l, 1)))
    assert acc == whole and total == len(whole)


# ----------------------------------------------------------------------------
# brute force oracle
# ----------------------------------------------------------------------------

def test_brute_unit_instance():
    inst = et.TriangleInstance([[0]], [[0]], [[0]])
    rep = et.aete_brute(inst)
    assert rep.yes[0, 0] and rep.witness[0, 0] == 0


def test_brute_all_bot_c():
    rng = np.random.default_rng(0)
    inst, _ = random_triangle_instance(6, 2, rng)
    inst = et.TriangleInstance(inst.a, inst.b,
                               WeightMatrix(np.full((6, 6), BOT, np.int64)))
    assert not et.aete_brute(inst).yes.any()


def test_instance_rejects_entries_outside_the_domain():
    # 2^62 + 100 and -2^63 + 200 are neither BOT nor in range: their sums
    # would wrap in aete_brute
    big = np.full((2, 2), 2 ** 62 + 100, dtype=np.int64)
    low = np.full((2, 2), -2 ** 63 + 200, dtype=np.int64)
    with pytest.raises(WeightError):
        et.TriangleInstance(big, big, low)
    zero = np.zeros((2, 2), dtype=np.int64)
    for v in (2 ** 62, -2 ** 62, 2 ** 62 + 100, 2 ** 63 - 1, -2 ** 63):
        m = zero.copy()
        m[1, 0] = v
        for mats in ((m, zero, zero), (zero, m, zero), (zero, zero, m)):
            with pytest.raises(WeightError):
                et.TriangleInstance(*mats)
    for v in (2 ** 61 - 1, int(GUARD), 2 ** 62 - 1):
        inst = et.TriangleInstance(np.full((2, 2), v), np.full((2, 2), -v), zero)
        assert et.aete_brute(inst).yes.all()
        assert np.array_equal(et.aete_few_weights(inst, 1, 28.0).yes,
                              brute_reference(inst))


def test_sum_equal_to_bot_is_no_triangle():
    # 2^61 + 4 and 2^61 + 3 are in range, and their sum is BOT's encoding
    a = np.full((3, 3), 2 ** 61 + 4, dtype=np.int64)
    b = np.full((3, 3), 2 ** 61 + 3, dtype=np.int64)
    c = np.full((3, 3), BOT, dtype=np.int64)
    assert int(a[0, 0]) + int(b[0, 0]) == int(BOT)
    assert all(ix.size == 0 for ix in et._list_triangles(a, b, c))
    inst = et.TriangleInstance(a, b, c)
    assert not et.aete_brute(inst).yes.any()
    assert not et.aete_few_weights(inst, 1, 28.0).yes.any()


def test_brute_matches_independent_loop():
    rng = np.random.default_rng(1)
    for t in range(8):
        inst, _ = random_triangle_instance(int(rng.integers(2, 17)),
                                           int(rng.integers(1, 5)), rng)
        rep = et.aete_brute(inst)
        assert np.array_equal(rep.yes, brute_reference(inst))
        assert rep.verify_witnesses(inst)


def test_report_union_is_entrywise_or():
    rng = np.random.default_rng(2)
    inst, _ = random_triangle_instance(8, 2, rng)
    a, b, c = inst.matrices()
    left = et.TriangleInstance(WeightMatrix(np.where(np.arange(8)[:, None] < 4, a, BOT)),
                               inst.b, inst.c)
    right = et.TriangleInstance(WeightMatrix(np.where(np.arange(8)[:, None] >= 4, a, BOT)),
                                inst.b, inst.c)
    merged = et.aete_brute(left).merge(et.aete_brute(right))
    assert np.array_equal(merged.yes, et.aete_brute(inst).yes)


# ----------------------------------------------------------------------------
# polynomial matrix product
# ----------------------------------------------------------------------------

def test_poly_mm_single_entry():
    pres = et.poly_matrix_multiply([[2]], [[3]], 7)
    want = np.zeros(13, dtype=bool)
    want[5] = True
    assert np.array_equal(pres[0, 0], want)


def test_poly_mm_all_bot_b():
    ae = np.array([[1, 2], [3, 0]], dtype=np.int64)
    be = np.full((2, 2), BOT, dtype=np.int64)
    pres = et.poly_matrix_multiply(ae, be, 5)
    assert not pres.any()


def poly_reference(ae, be):
    """Per (i, j): the set of exponents a[i,k] + b[k,j] over present pairs."""
    n = ae.shape[0]
    return [[{int(ae[i, k] + be[k, j]) for k in range(n)
              if ae[i, k] != BOT and be[k, j] != BOT} for j in range(n)]
            for i in range(n)]


def assert_poly_mm_matches_reference(ae, be, p):
    n = ae.shape[0]
    pres = et.poly_matrix_multiply(ae, be, p)
    assert pres.shape == (n, n, 2 * p - 1)
    want = poly_reference(ae, be)
    for i in range(n):
        for j in range(n):
            assert set(np.nonzero(pres[i, j])[0].tolist()) == want[i][j]


def random_exponents(rng, n, p, bot_frac):
    e = rng.integers(0, p, size=(n, n)).astype(np.int64)
    e[rng.random((n, n)) < 0.1] = p - 1  # reach the top coefficient 2p-2
    e[rng.random((n, n)) < bot_frac] = BOT
    return e


def test_poly_mm_matches_convolution():
    rng = np.random.default_rng(3)
    for _ in range(6):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 12))
        ae = rng.integers(0, p, size=(n, n)).astype(np.int64)
        be = rng.integers(0, p, size=(n, n)).astype(np.int64)
        ae[rng.random((n, n)) < 0.3] = BOT
        be[rng.random((n, n)) < 0.3] = BOT
        assert_poly_mm_matches_reference(ae, be, p)


def test_poly_mm_across_split_shapes():
    # m = 2^k evaluation points split as m1*m2 with m1 in {m2, 2*m2}; the
    # smallest and largest p giving each m.  2p-1 is odd, so m = 2 never
    # occurs and p = 1 is the m = 1 case.
    rng = np.random.default_rng(5)
    ps = {1}
    for k in range(2, 13):
        ps |= {2 ** (k - 2) + 1, 2 ** (k - 1)}
    for p in sorted(ps):
        for n in (0, 1, 2, 16):
            ae = random_exponents(rng, n, p, 0.3)
            be = random_exponents(rng, n, p, 0.3)
            if n:
                ae[n - 1] = BOT  # an all-bot row of A
                be[:, 0] = BOT   # an all-bot column of B
            assert_poly_mm_matches_reference(ae, be, p)
    # the shapes the exact-triangle pipeline calls with
    for p in (17, 23, 29):
        for bot_frac in (0.0, 0.5, 0.9):
            assert_poly_mm_matches_reference(random_exponents(rng, 16, p, bot_frac),
                                             random_exponents(rng, 16, p, bot_frac), p)


def test_find_ntt_prime_matches_brute_force_scan():
    limit = 1 << 16
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for f in range(2, 256):
        if sieve[f]:
            sieve[f * f::f] = False
    for m in (1 << e for e in range(11)):
        for minimum in (0, 1, 2, 3, 16, 33, 100, 1000, 5000, 12289, 40000):
            qs = np.arange(minimum + 1, limit)
            want = int(qs[sieve[qs] & ((qs - 1) % m == 0)][0])
            assert et._find_ntt_prime(m, minimum) == want, (m, minimum)


def test_ntt_plan_tables_are_read_only():
    for table in et._ntt_plan(64, 193):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


def poly_mm_int64_reference(ae, be, p):
    """poly_matrix_multiply with every reduction mod q an int64 `%` pass:
    the product's former body, on the same NTT plan."""
    ae, be = np.asarray(ae, dtype=np.int64), np.asarray(be, dtype=np.int64)
    n = ae.shape[0]
    conv_len = 2 * p - 1
    m = 1
    while m < conv_len:
        m *= 2
    q = et._find_ntt_prime(m, max(n, 2))
    wtab, f2, tw, f1 = et._ntt_plan(m, q)
    tw = tw.astype(np.int64)
    m1 = f1.shape[0]
    m2 = m // m1
    fa, fb = ae != BOT, be != BOT
    ea, eb = np.where(fa, ae, 0), np.where(fb, be, 0)
    tt = np.arange(m)[:, None, None]
    av = np.where(fa, wtab[(tt * ea) & (m - 1)], 0.0)
    bv = np.where(fb, wtab[(tt * eb) & (m - 1)], 0.0)
    evals = (np.matmul(av, bv).astype(np.int64) % q).reshape(m, n * n)
    y = (f2 @ evals.reshape(m2, m1 * n * n).astype(np.float64)).astype(np.int64) % q
    y = (y.reshape(m2, m1, n * n) * tw[:, :, None] % q).astype(np.float64)
    rows = -(-conv_len // m2)
    coeffs = np.matmul(f1[:rows], y).astype(np.int64) % q
    presence = (coeffs != 0).transpose(1, 0, 2).reshape(rows * m2, n, n)[:conv_len]
    return presence.transpose(1, 2, 0)


@pytest.mark.parametrize("p", [17, 23, 29, 61])
@pytest.mark.parametrize("n", [1, 16, 33])
def test_poly_mm_float_reductions_match_int64(p, n):
    rng = np.random.default_rng(1000 * p + n)
    ae = rng.integers(0, p, size=(n, n))
    be = rng.integers(0, p, size=(n, n))
    ae[rng.random((n, n)) < 0.2] = BOT
    be[rng.random((n, n)) < 0.2] = BOT
    for a_exp, b_exp in ((ae, be), (np.full_like(ae, p - 1), np.full_like(be, p - 1))):
        got = et.poly_matrix_multiply(a_exp, b_exp, p)
        assert np.array_equal(got, poly_mm_int64_reference(a_exp, b_exp, p))


def poly_triple_loop(ae, be, p):
    """P[i, j, e] by the triple loop over (i, j, k)."""
    n = len(ae)
    out = np.zeros((n, n, 2 * p - 1), dtype=bool)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if ae[i][k] != BOT and be[k][j] != BOT:
                    out[i, j, ae[i][k] + be[k][j]] = True
    return out


def test_poly_mm_matches_triple_loop():
    rng = np.random.default_rng(41)
    bot = np.int64(BOT)
    empty = np.zeros((0, 0), dtype=np.int64)
    cases = [(empty, empty, 1), (empty, empty, 5),
             (np.array([[0]]), np.array([[0]]), 1),
             (np.array([[bot]]), np.array([[0]]), 1),
             (np.array([[4]]), np.array([[bot]]), 5),
             (np.full((3, 3), bot), np.full((3, 3), bot), 4),
             (np.zeros((4, 4), dtype=np.int64), np.full((4, 4), bot), 1)]
    for n, p in ((2, 1), (5, 1), (1, 9), (7, 3), (16, 17), (16, 29), (20, 40)):
        cases.append((random_exponents(rng, n, p, 0.3),
                      random_exponents(rng, n, p, 0.3), p))
    for ae, be, p in cases:
        got = et.poly_matrix_multiply(ae, be, p)
        assert np.array_equal(got, poly_triple_loop(ae.tolist(), be.tolist(), p))


def test_poly_mm_reduces_lazily(monkeypatch):
    # n = 16, p = 17: m = 64 = 8*8, q = 193.  The evaluation products stay
    # below 16*192^2, and the inverse steps multiply that bound by 8*192,
    # 192 and 8*192, so below 2^53 only the final reduction is needed
    calls = []
    mod_q = et._mod_q

    def spy(x, q):
        calls.append(x.shape)
        return mod_q(x, q)

    monkeypatch.setattr(et, "_mod_q", spy)
    rng = np.random.default_rng(42)
    ae = random_exponents(rng, 16, 17, 0.2)
    be = random_exponents(rng, 16, 17, 0.2)
    want = poly_triple_loop(ae.tolist(), be.tolist(), 17)
    assert np.array_equal(et.poly_matrix_multiply(ae, be, 17), want)
    assert len(calls) == 1
    # no input small enough to hold in memory brings the bound near 2^53
    # before the last step, so the exact limit is lowered to 2^20: still
    # above the up-front 16*192^2, but each step's result would now reach
    # it, so the input of every step is reduced first
    monkeypatch.setattr(et, "_F64_EXACT", 2 ** 20)
    calls.clear()
    assert np.array_equal(et.poly_matrix_multiply(ae, be, 17), want)
    assert len(calls) == 4
    assert calls[:3] == [(8, 8 * 256), (8, 8, 256), (8, 8, 256)]
    # below the up-front bound the same limit rejects the call
    monkeypatch.setattr(et, "_F64_EXACT", 16 * 192 ** 2)
    with pytest.raises(ValueError, match="2\\^53"):
        et.poly_matrix_multiply(ae, be, 17)


def test_poly_mm_power_table_is_read_only():
    table = et._power_table(64, 193, 17)
    assert table.shape == (64, 18) and not table[:, 17].any()
    with pytest.raises(ValueError):
        table[0, 0] = 0


def test_poly_mm_caches_small_power_tables_only():
    et._power_table.cache_clear()
    for p in (17, 29, 1025):  # m = 64, 64 and 4096
        et.poly_matrix_multiply(np.zeros((2, 2), dtype=np.int64),
                                np.zeros((2, 2), dtype=np.int64), p)
    assert et._power_table.cache_info().currsize == 2


def test_poly_mm_rejects_bad_exponents():
    with pytest.raises(ValueError):
        et.poly_matrix_multiply([[5]], [[0]], 5)


def test_poly_mm_rejects_int64_overflow_before_allocating():
    # a zero-stride view: n = 2^22 rows cost no memory, and the headroom
    # check max(n, m1)*(q-1)^2 < 2^53 (q > n) must fire before any n x n
    # array exists
    n = 2**22
    huge = np.broadcast_to(np.int64(0), (n, n))
    with pytest.raises(ValueError, match="2\\^53"):
        et.poly_matrix_multiply(huge, huge, 2)


def test_poly_mm_checks_bound_before_building_plan():
    # n = 1 but p = 2^21: m = 2^22 = m1*m2 with m1 = 2^11 and q > m, so
    # max(n, m1)*(q-1)^2 >= 2^55; no NTT plan may be built for it
    before = et._ntt_plan.cache_info()
    with pytest.raises(ValueError, match="2\\^53"):
        et.poly_matrix_multiply([[0]], [[2**21 - 1]], 2**21)
    assert et._ntt_plan.cache_info() == before


# ----------------------------------------------------------------------------
# small-doubling solver
# ----------------------------------------------------------------------------

def test_small_doubling_no_sum_matches():
    # C values outside X+Y: trivially all-no
    a = np.zeros((4, 4), dtype=np.int64)
    b = np.zeros((4, 4), dtype=np.int64)
    c = np.full((4, 4), 99, dtype=np.int64)
    rep = et.aete_small_doubling(et.TriangleInstance(a, b, c))
    assert not rep.yes.any()


def test_small_doubling_random_structured():
    rng = np.random.default_rng(4)
    for t in range(12):
        inst, _ = random_triangle_instance(int(rng.integers(2, 14)),
                                           int(rng.integers(1, 8)), rng,
                                           structured=(t % 2 == 0))
        got = et.aete_small_doubling(inst)
        assert got == et.aete_brute(inst, with_witnesses=False)


def test_small_doubling_negated_set_zero_c():
    rng = np.random.default_rng(5)
    n = 10
    x = rng.integers(0, 2 ** 20, size=n)
    a = np.tile(x, (n, 1)).astype(np.int64)
    b = (-np.tile(x[:, None], (1, n))).astype(np.int64)
    c = np.zeros((n, n), dtype=np.int64)
    inst = et.TriangleInstance(a, b, c)
    got = et.aete_small_doubling(inst)
    want = et.aete_brute(inst, with_witnesses=False)
    assert got == want
    assert want.yes.any()


# ----------------------------------------------------------------------------
# orientations
# ----------------------------------------------------------------------------

def test_orientation_identity():
    rng = np.random.default_rng(6)
    inst, _ = random_triangle_instance(6, 2, rng)
    rot, tag = et.canonical_orientation(inst, "A rows")
    assert rot.a == inst.a and rot.b == inst.b and rot.c == inst.c


@pytest.mark.parametrize("promise", PROMISES)
def test_orientation_bijections(promise):
    rng = np.random.default_rng(hash(promise) % 2 ** 31)
    for _ in range(4):
        inst, _ = random_triangle_instance(int(rng.integers(2, 9)), 3, rng)
        rot, tag = et.canonical_orientation(inst, promise)
        t_orig = inst.triangles()
        t_rot = rot.triangles()
        assert et.triples_to_original(t_rot, tag) == t_orig
        assert len(t_rot) == len(t_orig)
        assert et.deorient_instance(rot, tag).triangles() == t_orig


def test_orientation_b_cols_example():
    rng = np.random.default_rng(7)
    inst, _ = random_triangle_instance(8, 3, rng)
    rot, tag = et.canonical_orientation(inst, "B columns")
    assert rot.a == inst.b.transpose()
    assert rot.b == inst.a.transpose()
    assert rot.c == inst.c.transpose()
    t_orig = inst.triangles()
    assert {(j, k, i) for (i, k, j) in rot.triangles()} == t_orig


def test_orientation_double_application_involution():
    rng = np.random.default_rng(8)
    inst, _ = random_triangle_instance(7, 2, rng)
    for promise in ("A_cols", "B_cols", "C_rows"):
        once, _ = et.canonical_orientation(inst, promise)
        twice, _ = et.canonical_orientation(once, promise)
        assert twice.triangles() == inst.triangles()


def test_orientation_promise_normalization():
    assert et.normalize_promise("B columns") == "B_cols"
    assert et.normalize_promise("a row") == "A_rows"
    with pytest.raises(ValueError):
        et.normalize_promise("diagonal")


# ----------------------------------------------------------------------------
# uniform regular solver
# ----------------------------------------------------------------------------

def test_uniform_regular_d1_matches_brute():
    rng = np.random.default_rng(9)
    inst = random_uniform_regular_instance(8, 1, rng)
    got = et.aete_uniform_regular(inst, 1, 1, np.random.default_rng(0))
    assert got == et.aete_brute(inst, with_witnesses=False)


# (n, d) of uniform regular instances above the pair rule: with values
# 0..d-1 in A and B and the d smallest sums in C, d = 11, 12, 13 give 66, 78
# and 91 summing pairs, more than et._MIN_NTT_POINTS = 64
ABOVE_PAIR_RULE = ((22, 11), (24, 12), (26, 13))


def summing_pair_count(inst):
    """How many (x, y) of A's and B's values have x + y among C's values."""
    z = inst.entry_set("c")
    return sum(x + y in z for x in inst.entry_set("a")
               for y in inst.entry_set("b"))


def above_pair_rule_instance(n, d, rng):
    inst = random_uniform_regular_instance(n, d, rng, low=0, high=d)
    assert summing_pair_count(inst) > et._MIN_NTT_POINTS
    return inst


def spy_cover_path(monkeypatch):
    """Count the calls of the cover, the algebraic path and the pair
    routine (keeping each pair list) that the solver makes from now on."""
    seen = {"cover": 0, "small_doubling": 0, "pairs": []}
    cover, small_doubling, pairs = (et.bsg_cover, et.aete_small_doubling,
                                    et._pair_product)

    def cover_spy(*args, **kwargs):
        seen["cover"] += 1
        return cover(*args, **kwargs)

    def small_doubling_spy(inst):
        seen["small_doubling"] += 1
        return small_doubling(inst)

    def pairs_spy(a, b, c, pair_list):
        pair_list = list(pair_list)
        seen["pairs"].append(pair_list)
        return pairs(a, b, c, pair_list)

    monkeypatch.setattr(et, "bsg_cover", cover_spy)
    monkeypatch.setattr(et, "aete_small_doubling", small_doubling_spy)
    monkeypatch.setattr(et, "_pair_product", pairs_spy)
    return seen


def test_uniform_regular_degenerate_cover_is_brute_remainder(monkeypatch):
    # an instance small enough that the remainder path does all the work
    rng = np.random.default_rng(10)
    inst = random_uniform_regular_instance(6, 2, rng)
    got = et.aete_uniform_regular(inst, 2, 1, np.random.default_rng(1))
    assert got == et.aete_brute(inst, with_witnesses=False)
    # above the pair rule: one box for the algebraic path, the rest of the
    # summing pairs to the pair routine
    seen = spy_cover_path(monkeypatch)
    inst = above_pair_rule_instance(24, 12, rng)
    got = et.aete_uniform_regular(inst, 12, 1, np.random.default_rng(1))
    assert got == et.aete_brute(inst, with_witnesses=False)
    assert seen["cover"] == 1 and seen["small_doubling"] == 1
    assert len(seen["pairs"]) == 1 and seen["pairs"][0]


@pytest.mark.parametrize("k_boxes", [1, 2, 4])
def test_uniform_regular_random(k_boxes, monkeypatch):
    rng = np.random.default_rng(11 + k_boxes)
    for _ in range(6):
        d = int(rng.integers(1, 5))
        n = d * int(rng.integers(2, 7))
        inst = random_uniform_regular_instance(n, d, rng)
        got = et.aete_uniform_regular(inst, d, k_boxes,
                                      np.random.default_rng(0))
        assert got == et.aete_brute(inst, with_witnesses=False)
    for n, d in ABOVE_PAIR_RULE:
        seen = spy_cover_path(monkeypatch)
        inst = above_pair_rule_instance(n, d, rng)
        got = et.aete_uniform_regular(inst, d, k_boxes,
                                      np.random.default_rng(0))
        assert got == et.aete_brute(inst, with_witnesses=False)
        assert seen["cover"] == 1 and seen["small_doubling"] >= 1
        assert len(seen["pairs"]) == 1 and seen["pairs"][0]
        monkeypatch.undo()


def test_uniform_regular_below_pair_rule_skips_cover(monkeypatch):
    rng = np.random.default_rng(35)
    seen = spy_cover_path(monkeypatch)
    for d in (1, 4, 8):
        inst = random_uniform_regular_instance(2 * d, d, rng)
        got = et.aete_uniform_regular(inst, d, 2, np.random.default_rng(0))
        assert got == et.aete_brute(inst, with_witnesses=False)
        assert sorted(seen["pairs"].pop()) == sorted(
            (x, y) for x in inst.entry_set("a") for y in inst.entry_set("b")
            if x + y in inst.entry_set("c"))
    assert seen["cover"] == seen["small_doubling"] == 0


def pair_oracle(inst):
    """The pair routine over every summing value pair of a whole instance:
    a second triangle oracle, sharing no code with aete_brute."""
    a, b, c = inst.matrices()
    return et._pair_product(a, b, c, et._summing_pairs(a, b, c))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(*[hnp.arrays(
    np.int64, (n, n), elements=st.one_of(st.just(int(BOT)),
                                         st.integers(-6, 6)))] * 3)))
@example((np.zeros((0, 0), np.int64),) * 3)
@example((np.array([[2]]), np.array([[-5]]), np.array([[-3]])))
@example((np.array([[2]]), np.array([[-5]]), np.array([[3]])))
@example((np.full((3, 3), BOT), np.full((3, 3), BOT), np.full((3, 3), BOT)))
@example((np.full((3, 3), -1), np.full((3, 3), -2), np.full((3, 3), 4)))
def test_pair_oracle_matches_brute(mats):
    inst = et.TriangleInstance(*mats)
    a, b, c = inst.matrices()
    pairs = et._summing_pairs(a, b, c)
    z = inst.entry_set("c")
    assert pairs == sorted((x, y) for x in inst.entry_set("a")
                           for y in inst.entry_set("b") if x + y in z)
    # the stacked slot test finds each owner's summing pairs in order: the
    # triple and a checkerboard part, value tables padded with 0 slots
    board = np.indices((inst.n, inst.n)).sum(axis=0) % 2 == 0
    owners = [[et._present_values(m) for m in mats]
              for mats in ((a, b, c), [np.where(board, m, BOT) for m in (a, b, c)])]
    slots = []
    for m in range(3):
        table = np.zeros((2, max(v[m].size for v in owners) + 1), dtype=np.int64)
        real = np.zeros(table.shape, dtype=bool)
        for o, v in enumerate(owners):
            table[o, :v[m].size], real[o, :v[m].size] = v[m], True
        slots.append((table, real))
    o, i, j, k = et._summing_slots(*slots)
    for own, (x, y, z) in enumerate(owners):
        at = o == own
        assert np.array_equal(x[i[at]] + y[j[at]], z[k[at]])
        assert list(zip(x[i[at]].tolist(), y[j[at]].tolist())) == sorted(
            (u, v) for u in x.tolist() for v in y.tolist() if u + v in set(z.tolist()))
    yes = pair_oracle(inst)
    assert yes.shape == (inst.n, inst.n)
    assert np.array_equal(yes, et.aete_brute(inst, with_witnesses=False).yes)
    assert np.array_equal(yes, brute_reference(inst))


def test_summing_slots_at_257_slots_stays_quadratic():
    # 4 owners of 257 slots per matrix, as a d'-uniform piece with 256
    # values gives: a dense slot-triple test would hold 4 * 257^3 (68M)
    # cells per temporary, the lookup holds a few arrays of 4 * 257^2
    rng = np.random.default_rng(47)
    slots = []
    for m in range(3):
        vals = np.sort([rng.choice(2000, size=257, replace=False) for _ in range(4)])
        real = np.ones(vals.shape, dtype=bool)
        real[:, -1] = False
        slots.append((vals - 1000 * (m < 2), real))
    tracemalloc.start()
    o, i, j, k = et._summing_slots(*slots)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    (x, _), (y, _), (z, _) = slots
    want = []
    for own in range(4):
        at = {int(w): t for t, w in enumerate(z[own, :256])}
        want += [(own, u, v, at[s]) for u in range(256) for v in range(256)
                 if (s := int(x[own, u] + y[own, v])) in at]
    assert want and list(zip(*(t.tolist() for t in (o, i, j, k)))) == want


def test_pair_oracle_random_instances():
    rng = np.random.default_rng(36)
    answered = 0
    for t in range(24):
        inst, _ = random_triangle_instance(
            int(rng.integers(1, 25)), int(rng.integers(1, 7)), rng,
            promise=PROMISES[t % 6], low=-40, high=40,
            bot_density=float(rng.choice([0.0, 0.25, 0.9])),
            structured=bool(t % 2))
        yes = pair_oracle(inst)
        assert np.array_equal(yes, et.aete_brute(inst, with_witnesses=False).yes)
        answered += bool(yes.any())
    assert 0 < answered < 24


def test_uniform_regular_audit_failure():
    a = np.arange(16, dtype=np.int64).reshape(4, 4)  # 16 distinct values
    inst = et.TriangleInstance(a, a, a)
    with pytest.raises(AuditError):
        et.aete_uniform_regular(inst, 2, 1, np.random.default_rng(0))


def uniform_irregular_instance():
    """n = 4 with 2 values per matrix (2-uniform), but value 0 fills row 0 of
    A four times, past the max(1, 4 // 2) = 2 occurrences allowed."""
    a = np.array([[0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, BOT, BOT]])
    b = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, BOT, 1], [1, 0, 1, BOT]])
    return et.TriangleInstance(a, b, np.where(a == BOT, BOT, a + 1))


def test_uniform_regular_audit_failure_not_regular():
    inst = uniform_irregular_instance()
    audit = et.RegularityAudit(inst)
    assert audit.is_uniform(2) and not audit.is_regular(2)
    with pytest.raises(AuditError, match="not 2-regular"):
        et.aete_uniform_regular(inst, 2, 1, np.random.default_rng(0))


def test_value_mask_matches_isin():
    rng = np.random.default_rng(32)
    for _ in range(20):
        m = rng.integers(-6, 7, size=(5, 5))
        m[rng.random((5, 5)) < 0.3] = BOT
        values = set(rng.integers(-8, 9, size=int(rng.integers(0, 6))).tolist())
        want = np.isin(m, list(values)) & (m != BOT)
        assert np.array_equal(et._value_mask(m, values), want)
        assert np.array_equal(et._restrict_values(m, values),
                              np.where(want, m, BOT))


# ----------------------------------------------------------------------------
# uniformize
# ----------------------------------------------------------------------------

def test_uniformize_naive_identity_split():
    rng = np.random.default_rng(12)
    inst, _ = random_triangle_instance(6, 2, rng)
    dist = max(len(inst.entry_set(w)) for w in "abc")
    out = et.uniformize_naive(inst, dist, 1)
    assert len(out) == 1
    assert out[0].triangles() == inst.triangles()


def test_uniformize_naive_partitions():
    rng = np.random.default_rng(13)
    inst, _ = random_triangle_instance(8, 2, rng)
    out = et.uniformize_naive(inst, 1,
                              max(len(inst.entry_set(w)) for w in "abc"))
    check_exact_decomposition(inst, out, set(), uniform_d=1)


def test_uniformize_naive_all_bot_c():
    rng = np.random.default_rng(14)
    inst, _ = random_triangle_instance(5, 2, rng)
    inst = et.TriangleInstance(inst.a, inst.b,
                               WeightMatrix(np.full((5, 5), BOT, np.int64)))
    d = 2
    parts = max(1, -(-max(len(inst.entry_set(w)) for w in "abc") // d))
    assert et.uniformize_naive(inst, d, parts) == []


def uniformize_naive_reference(mats, d, parts):
    """The former loop of uniformize_naive with its pruning on: chunks of d
    ascending values per matrix, one piece per chunk triple in loop order,
    pieces with an all-BOT matrix skipped."""
    chunks = []
    for m in mats:
        vals = sorted(set(m[m != BOT].tolist()))
        if len(vals) > d * parts:
            raise AuditError(f"matrix has {len(vals)} distinct entries, "
                             f"more than d*parts = {d * parts}")
        cs = [set(vals[i:i + d]) for i in range(0, len(vals), d)]
        chunks.append(cs + [set()] * (parts - len(cs)))
    out = []
    for xa in range(parts):
        for yb in range(parts):
            for zc in range(parts):
                piece = tuple(et._restrict_values(m, cs[t]) for m, cs, t in
                              zip(mats, chunks, (xa, yb, zc)))
                if not any((p == BOT).all() for p in piece):
                    out.append(piece)
    return out


def split_regular_reference(m, r, big_r):
    """The former per-matrix split of regularize_naive: row part by rank in
    the row, then column part by rank in the column of each row piece."""
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


def regularize_naive_reference(mats, r, big_r):
    """The former loop of regularize_naive with its pruning on."""
    splits = [split_regular_reference(m, r, big_r) for m in mats]
    out = []
    for ka in sorted(splits[0]):
        for kb in sorted(splits[1]):
            for kc in sorted(splits[2]):
                piece = (splits[0][ka], splits[1][kb], splits[2][kc])
                if not any((p == BOT).all() for p in piece):
                    out.append(piece)
    return out


def assert_same_pieces(got, want):
    assert len(got) == len(want)
    for inst, ref in zip(got, want):
        assert inst.promise == "A_rows"
        for mg, mw in zip(inst.matrices(), ref):
            assert mg.dtype == mw.dtype and np.array_equal(mg, mw)


def assert_same_outcome(fn, reference):
    """fn() and reference() return the same pieces or raise the same
    AuditError."""
    try:
        want = reference()
    except AuditError as exc:
        with pytest.raises(AuditError) as got:
            fn()
        assert str(got.value) == str(exc)
        return
    assert_same_pieces(fn(), want)


def random_split_matrices(rng, n, t):
    """Three n x n matrices over a few values with BOT holes; every fifth
    case makes one of them all BOT."""
    nv = int(rng.integers(1, 6))
    mats = [rng.integers(-nv, nv, size=(n, n)).astype(np.int64) for _ in "abc"]
    for m in mats:
        m[rng.random((n, n)) < rng.choice([0.0, 0.3, 0.8])] = BOT
    if t % 5 == 4:
        mats[int(rng.integers(0, 3))][:] = BOT
    return mats


def test_uniformize_naive_matches_loop_reference():
    rng = np.random.default_rng(42)
    for t in range(120):
        n = t % 13
        mats = random_split_matrices(rng, n, t)
        inst = et.TriangleInstance(*mats)
        d = int(rng.integers(1, 5))
        need = max([len(inst.entry_set(w)) for w in "abc"] + [1])
        # parts one short of the need raises AuditError in both
        parts = max(1, -(-need // d) + int(rng.integers(-1, 2)))
        assert_same_outcome(lambda: et.uniformize_naive(inst, d, parts),
                            lambda: uniformize_naive_reference(mats, d, parts))


def test_regularize_naive_matches_loop_reference():
    rng = np.random.default_rng(43)
    for t in range(120):
        n = t % 13
        mats = random_split_matrices(rng, n, t)
        inst = et.TriangleInstance(*mats)
        ref = regularity_reference(inst)
        worst = max([v[k] for v in ref.values() for k in (1, 2)] + [1])
        r = int(rng.integers(1, max(2, worst + 1)))
        # R = 1 (kept whole when r-regular), the exact ceil(worst / r), and
        # one short of it, which raises AuditError in both
        big_r = max(1, (1, -(-worst // r), -(-worst // r) - 1)[t % 3])
        assert_same_outcome(lambda: et.regularize_naive(inst, 1, r, big_r),
                            lambda: regularize_naive_reference(mats, r, big_r))


@pytest.mark.parametrize("delta", [1, 2])
def test_uniformize_exact_decomposition(delta):
    rng = np.random.default_rng(15 + delta)
    for t in range(6):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 4))
        inst, _ = random_triangle_instance(n, d, rng)
        subs, triples = et.uniformize(inst, d, delta)
        check_exact_decomposition(inst, subs, triples, uniform_d=d)


def test_uniformize_no_triangles():
    a = np.zeros((6, 6), dtype=np.int64)
    b = np.zeros((6, 6), dtype=np.int64)
    c = np.full((6, 6), 5, dtype=np.int64)
    inst = et.TriangleInstance(a, b, c)
    subs, triples = et.uniformize(inst, 1, 2)
    assert triples == set()
    for sub in subs:
        assert not et.aete_brute(sub).yes.any()


def test_uniformize_requires_row_promise():
    a = np.arange(9, dtype=np.int64).reshape(3, 3)
    inst = et.TriangleInstance(a, a, a)
    with pytest.raises(AuditError):
        et.uniformize(inst, 1, 2)


def listing_reference(a, b, c, a_values=None, b_values=None, width=1):
    """Scalar triple loop over the triangles (a + b - c in [0, width)),
    optionally restricted to the a values a_values[i] of each row i or the
    b values b_values[j] of each column j."""
    out = set()
    for i in range(a.shape[0]):
        for k in range(a.shape[1]):
            for j in range(b.shape[1]):
                av, bv, cv = int(a[i, k]), int(b[k, j]), int(c[i, j])
                if BOT in (av, bv, cv) or not 0 <= av + bv - cv < width:
                    continue
                if a_values is not None and av not in a_values[i]:
                    continue
                if b_values is not None and bv not in b_values[j]:
                    continue
                out.add((i, k, j))
    return out


def random_value_subsets(rng, m):
    """Per row of m: a random subset of its values plus one absent value."""
    out = []
    for row in m:
        vals = sorted(set(row[row != BOT].tolist()))
        out.append({v for v in vals if rng.random() < 0.5} | {99})
    return out


def triple_set(found):
    """The (i, k, j) tuples of a list of _list_triangles results."""
    return {t for ix in found for t in zip(*(x.tolist() for x in ix))}


def keep_row_values(m, sets):
    """m with BOT wherever row i holds a value outside sets[i]."""
    return np.array([[v if v in sets[i] else BOT for v in row.tolist()]
                     for i, row in enumerate(m)], dtype=np.int64).reshape(m.shape)


def keep_slots(m, sets):
    """_keep_slots with the slots of row i that hold a value of sets[i]."""
    vals, valid, slot = row_values(m, BOT)
    keep = valid & np.array([[v in sets[i] for v in row.tolist()]
                             for i, row in enumerate(vals)],
                            dtype=bool).reshape(vals.shape)
    return et._keep_slots(m, slot, keep)


def test_list_triangles_matches_scalar_reference(monkeypatch):
    # blocks of 1 and 7 joined pairs split the inputs into many blocks
    for join_pairs in (1, 7, et._JOIN_PAIRS):
        monkeypatch.setattr(et, "_JOIN_PAIRS", join_pairs)
        check_list_triangles(np.random.default_rng(40))


def check_list_triangles(rng):
    for t in range(40):
        # n in {0, 1}, square n x n, then rectangular n x m times m x p
        n = (0, 1)[t] if t < 2 else int(rng.integers(2, 9))
        m, p = (n, n) if t < 20 else rng.integers(0, 9, size=2)
        a = rng.integers(-3, 4, size=(n, m)).astype(np.int64)
        b = rng.integers(-3, 4, size=(m, p)).astype(np.int64)
        c = rng.integers(-6, 7, size=(n, p)).astype(np.int64)
        for mat in (a, b, c):
            mat[rng.random(mat.shape) < 0.25] = BOT
        if t % 7 == 3:
            c[:] = BOT
        got = et._list_triangles(a, b, c)
        assert len(got) == 3
        listed = triple_set([got])
        assert len(listed) == got[0].size  # no triangle listed twice
        assert listed == listing_reference(a, b, c)
        # a window of three: a + b - c in {0, 1, 2}
        got = et._list_triangles(a, b, c, width=3)
        listed = triple_set([got])
        assert len(listed) == got[0].size
        assert listed == listing_reference(a, b, c, width=3)
        # restricted to some values per row of a, or per column of b
        a_vals = random_value_subsets(rng, a)
        a_kept = keep_row_values(a, a_vals)
        assert np.array_equal(keep_slots(a, a_vals), a_kept)
        assert (triple_set([et._list_triangles(a_kept, b, c)])
                == listing_reference(a, b, c, a_values=a_vals))
        b_vals = random_value_subsets(rng, b.T)
        b_kept = keep_row_values(b.T, b_vals).T
        assert np.array_equal(keep_slots(b.T, b_vals).T, b_kept)
        assert (triple_set([et._list_triangles(a, b_kept, c)])
                == listing_reference(a, b, c, b_values=b_vals))


def test_uniformize_class_lists_unpopular_targets(monkeypatch):
    # every row of A and column of B holds all of {0, 1, 2}: with d = 3 and
    # delta = 1 both sides form one part around the core {-2, -1, 0}, whose
    # only popular sum (t_pop = d = 3 representations) is -2, so targets
    # other than c = 2 are listed.  uniformize itself never sends such a
    # class here, since a long column class there holds fewer than d values.
    rng = np.random.default_rng(41)
    n, d = 6, 3
    a = np.stack([rng.permutation(np.arange(n) % d) for _ in range(n)])
    b = np.stack([rng.permutation(np.arange(n) % d) for _ in range(n)]).T
    c = rng.integers(-1, 6, size=(n, n)).astype(np.int64)
    c[rng.random((n, n)) < 0.2] = BOT
    inst = et.TriangleInstance(a, b, c)
    listed = []
    real = et._list_triangles

    def spy(a_side, b_side, target):
        out = real(a_side, b_side, target)
        # the remainder listings take c itself as their target
        if target is not inst.c.data:
            listed.append(triple_set([out]))
        return out

    monkeypatch.setattr(et, "_list_triangles", spy)
    groups, found = et._uniformize_class(a, b, inst.c.data, d, 1)
    stack = et._LabelGroups(groups, d)
    subs = [et.TriangleInstance(*stack.arrays(p)) for p in range(stack.size)]
    triples = triple_set(found)
    assert listed and any(listed)
    assert set().union(*listed) <= triples
    check_exact_decomposition(inst, subs, triples, uniform_d=d)


# ----------------------------------------------------------------------------
# regularize
# ----------------------------------------------------------------------------

def test_regularize_naive_single_heavy_row():
    n = 8
    a = np.tile(np.int64(5), (n, n))
    b = np.tile(np.int64(3), (n, n))
    c = np.full((n, n), np.int64(8))
    inst = et.TriangleInstance(a, b, c)
    subs = et.regularize_naive(inst, 1, n // 2, 2)
    assert len(subs) == 64
    check_exact_decomposition(inst, subs, set(), uniform_d=1)
    for sub in subs:
        assert et.RegularityAudit(sub).is_regular(n // 2)


def test_regularize_naive_r1_identity():
    rng = np.random.default_rng(16)
    inst = random_uniform_regular_instance(6, 2, rng)
    subs = et.regularize_naive(inst, 2, 3, 1)
    assert len(subs) == 1
    assert subs[0].triangles() == inst.triangles()


def test_regularize_naive_all_bot():
    m = WeightMatrix(np.full((4, 4), BOT, np.int64))
    inst = et.TriangleInstance(m, m, m)
    assert et.regularize_naive(inst, 1, 2, 2) == []


def test_regularize_d1_trivial():
    rng = np.random.default_rng(17)
    inst, _ = random_triangle_instance(8, 1, rng)
    pieces, triples = et.regularize(inst, 1, 2, eps=1.0)
    check_exact_decomposition(inst, pieces, triples, uniform_d=1,
                              regular_r=True)


@pytest.mark.parametrize("delta", [1, 2])
def test_regularize_exact_decomposition(delta):
    rng = np.random.default_rng(18 + delta)
    for t in range(5):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 5))
        inst, _ = random_triangle_instance(n, d, rng)
        stats = et.RegularizeStats()
        pieces, triples = et.regularize(inst, d, delta, eps=1.0, stats=stats)
        check_exact_decomposition(inst, pieces, triples, regular_r=True)
        rho = max(float(d), 1.0) ** (1.0 / 6.0)
        if rho > 1.0000001:
            bound = int(np.ceil(np.log(max(d, 2)) / np.log(rho)))
            assert stats.max_depth <= bound + 1


def test_regularize_splits_like_regularize_naive_on_every_piece():
    # pieces with R = 1 skip regularize_naive; the output must still equal
    # sending every piece of the recursion through it, in order, and
    # dropping the parts without a summing value pair
    # (eps = 2, as aete_few_weights at delta_exp = 28, leaves pieces of both
    # kinds; eps = 1 at this size leaves almost none)
    rng = np.random.default_rng(33)
    big_rs = []
    for t in range(20):
        n = int(rng.integers(4, 17))
        d = int(rng.integers(1, 6))
        delta = et.default_split_parameter(n, 2.0)
        inst, _ = random_triangle_instance(n, d, rng, planted=2,
                                           promise=PROMISES[t % 6])
        raw, want_t = et._regularize_unsplit(inst, d, delta, 2.0, None, None)
        want = []
        for d_l, mats in raw:
            piece = et.TriangleInstance(*mats)
            r = max(1, n // max(d_l, 1))
            ref = regularity_reference(piece)
            worst = max([v[k] for v in ref.values() for k in (1, 2)] + [1])
            big_rs.append(-(-worst // r))
            want += [(d_l, sub) for sub in
                     et.regularize_naive(piece, d_l, r, big_rs[-1])
                     if summing_pair_count(sub)]
        got, got_t = et.regularize(inst, d, delta, eps=2.0)
        assert got_t == want_t
        assert len(got) == len(want), t
        for (dg, pg), (dw, pw) in zip(got, want):
            assert dg == dw and pg.promise == pw.promise
            for mg, mw in zip(pg.matrices(), pw.matrices()):
                assert mg.dtype == mw.dtype and np.array_equal(mg, mw)
    assert 1 in big_rs and max(big_rs) > 1


def test_regularize_drops_triples_without_summing_pair(monkeypatch):
    # the input's test (_summing_pairs) and the stacked branch and rest
    # tests of every uniformize call (_LabelGroups.kept) drop some triples
    # and keep others
    rng = np.random.default_rng(37)
    kept = []
    summing_pairs, label_groups = et._summing_pairs, et._LabelGroups.__init__

    def pairs_spy(*args):
        out = summing_pairs(*args)
        kept.append(bool(out))
        return out

    def groups_spy(self, groups, d, threshold=None):
        label_groups(self, groups, d, threshold)
        if threshold is not None:
            kept.extend(self.kept.ravel().tolist())

    monkeypatch.setattr(et, "_summing_pairs", pairs_spy)
    monkeypatch.setattr(et._LabelGroups, "__init__", groups_spy)
    for t in range(8):
        n = int(rng.integers(4, 17))
        d = int(rng.integers(1, 6))
        delta = et.default_split_parameter(n, 2.0)
        inst, _ = random_triangle_instance(n, d, rng, planted=2,
                                           promise=PROMISES[t % 6])
        pieces, triples = et.regularize(inst, d, delta, eps=2.0)
        check_exact_decomposition(inst, pieces, triples, regular_r=True)
        assert all(summing_pair_count(piece) for _, piece in pieces)
    assert any(kept) and not all(kept)


def test_few_weights_skips_instance_whose_sums_miss_c(monkeypatch):
    # X + Y = {0, 1, 10, 11} misses Z = {5, 20}: no uniformize call and
    # no label groups
    rng = np.random.default_rng(38)
    a = rng.choice([0, 1, BOT], size=(8, 8))
    b = rng.choice([0, 10, BOT], size=(8, 8))
    c = rng.choice([5, 20, BOT], size=(8, 8))
    inst = et.TriangleInstance(a, b, c)
    calls = []
    uniformize, label_groups = et._uniformize, et._LabelGroups
    monkeypatch.setattr(et, "_uniformize",
                        lambda *args: calls.append(args) or uniformize(*args))
    monkeypatch.setattr(et, "_LabelGroups",
                        lambda *args: calls.append(args) or label_groups(*args))
    got = et.aete_few_weights(inst, 2, delta_exp=28.0,
                              rng=np.random.default_rng(0))
    assert not got.yes.any() and got == et.aete_brute(inst)
    assert calls == []


def test_regularize_audits_piece_uniformity(monkeypatch):
    inst = uniform_irregular_instance()
    monkeypatch.setattr(et, "_regularize_unsplit",
                        lambda *args: ([(1, inst.matrices())], set()))
    with pytest.raises(AuditError, match="not 1-uniform"):
        et.regularize(inst, 2, 1, eps=1.0)


def test_regularize_depth_guard():
    rng = np.random.default_rng(19)
    inst, _ = random_triangle_instance(8, 4, rng)
    with pytest.raises(RuntimeError):
        et.regularize(inst, 4, 1, eps=1.0, depth_guard=-1)


# ----------------------------------------------------------------------------
# regularize against its former per-piece code
# ----------------------------------------------------------------------------

def uniformize_reference(inst, d, delta):
    """The former uniformize: one TriangleInstance per label piece of each
    (x-part, y-part) pair, labels from np.unique per matrix."""
    a, b, c = inst.matrices()
    n = inst.n
    if occurrence_stats(a, BOT)[2].max(initial=0) > d:
        raise AuditError(f"rows of A exceed {d} distinct entries")
    found, instances = [], []
    b_classes = sorted(et._col_occurrence_classes(b, BOT).items())
    for _, ax in sorted(et._row_occurrence_classes(a, BOT).items()):
        for y, by in b_classes:
            if 2 ** y <= n / (d * delta):
                found.append(et._list_triangles(ax, by, c))
                continue
            avals, avalid, aslot = row_values(ax, BOT)
            bvals, bvalid, bslot = row_values(by.T, BOT)
            xdec, ydec = popular_sum_decomposition(
                (avals, avalid), (bvals, bvalid), d * delta, delta * delta)
            if xdec.rest.any():
                found.append(et._list_triangles(
                    et._keep_slots(ax, aslot, xdec.rest), by, c))
            if ydec.rest.any():
                found.append(et._list_triangles(
                    ax, et._keep_slots(by.T, bslot, ydec.rest).T, c))
            t_pop = max(1.0, d / float(delta) ** 9)
            b_parts = [(et._shifted_part(by.T, bslot, lvl), lvl.shift,
                        sorted(lvl.core.tolist()))
                       for lvl in ydec.parts if lvl.member.any()]
            for xlvl in xdec.parts:
                if not xlvl.member.any():
                    continue
                ag, sshift = et._shifted_part(ax, aslot, xlvl), xlvl.shift
                sg = sorted(xlvl.core.tolist())
                for bh_t, tshift, th in b_parts:
                    bh = bh_t.T
                    pop = popular_sums_exact(sg, th, t_pop) if sg and th else set()
                    cgh = np.where(c != BOT, c - sshift[:, None] - tshift, BOT)
                    keep = et._value_mask(cgh, pop)
                    found.append(et._list_triangles(ag, bh, np.where(keep, BOT, cgh)))
                    if not keep.any():
                        continue
                    mats = (ag, bh, np.where(keep, cgh, BOT))
                    labels = [np.where(m != BOT, np.searchsorted(
                        np.unique(m[m != BOT]), m) // d, -1) for m in mats]
                    per_matrix = [[np.where(lab == t, m, BOT)
                                   for t in np.unique(lab[lab >= 0])]
                                  for m, lab in zip(mats, labels)]
                    instances.extend(et.TriangleInstance(*p)
                                     for p in itertools.product(*per_matrix))
    return instances, set(zip(*(np.concatenate(ix).tolist() for ix in zip(*found))))


def three_way_split_reference(m, threshold):
    """The former (row-heavy, col-heavy, regular) split by occurrence counts."""
    fin = m != BOT
    heavy_row = fin & (occurrence_stats(m, BOT)[0] > threshold)
    heavy_col = fin & ~heavy_row & (occurrence_stats(m.T, BOT)[0].T > threshold)
    regular = fin & ~heavy_row & ~heavy_col
    return tuple(np.where(mask, m, BOT) for mask in (heavy_row, heavy_col, regular))


def keeps_a_pair_reference(mats, pairs):
    """The former test of a triple cut from one whose summing pairs are known."""
    a, b, c = mats
    return any((a == x).any() and (b == y).any() and (c == x + y).any()
               for x, y in pairs)


def regularize_reference(inst, d, delta, eps):
    """The former regularize: per-piece recursion over uniformize_reference
    instances, then one RegularityAudit and regularize_naive per piece."""
    n = inst.n
    rho = max(float(d), 1.0) ** (eps / 6.0)

    def rec(mats, d_cur, delta_cur, tag):
        if d_cur <= 0:
            return [], set()
        oriented = et.TriangleInstance(*et._FORWARD[tag](*mats))
        insts, t_acc = uniformize_reference(oriented, d_cur, delta_cur)
        pieces_acc = []
        delta_next = delta_cur * 12 * max(1, len(insts))
        threshold = (n / max(d_cur, 1)) * rho
        for sub in insts:
            pairs = et._summing_pairs(*sub.matrices())
            if not pairs:
                continue
            (a_row, a_col, a_reg), (b_row, b_col, b_reg), (c_row, c_col, c_reg) = (
                three_way_split_reference(m, threshold) for m in sub.matrices())
            a, b, c = sub.matrices()
            for branch, side in (((a_row, b, c), "A_rows"), ((a_col, b, c), "A_cols"),
                                 ((a_reg, b_row, c), "B_rows"),
                                 ((a_reg, b_col, c), "B_cols"),
                                 ((a_reg, b_reg, c_row), "C_rows"),
                                 ((a_reg, b_reg, c_col), "C_cols")):
                if keeps_a_pair_reference(branch, pairs):
                    sp, st = rec(branch, int(d_cur // rho), delta_next, side)
                    pieces_acc.extend(sp)
                    t_acc |= st
            if keeps_a_pair_reference((a_reg, b_reg, c_reg), pairs):
                pieces_acc.append((d_cur, (a_reg, b_reg, c_reg)))
        back = et._FORWARD[et._INVERSE[tag]]
        return ([(dl, back(*m)) for dl, m in pieces_acc],
                et.triples_to_original(t_acc, tag))

    if not et._summing_pairs(*inst.matrices()):
        return [], set()
    raw, triples = rec(inst.matrices(), d, delta, inst.promise)
    final = []
    for d_l, mats in raw:
        piece = et.TriangleInstance(*mats)
        audit = et.RegularityAudit(piece)
        if not audit.is_uniform(d_l):
            raise AuditError(f"regularize piece is not {d_l}-uniform: "
                             f"{audit.global_distinct}")
        r = max(1, n // max(d_l, 1))
        worst = max(*audit.max_row_occ.values(), *audit.max_col_occ.values(), 1)
        big_r = -(-worst // r)
        if big_r == 1:
            final.append((d_l, piece))
            continue
        pairs = et._summing_pairs(*mats)
        final.extend((d_l, sub) for sub in et.regularize_naive(piece, d_l, r, big_r)
                     if keeps_a_pair_reference(sub.matrices(), pairs))
    return final, triples


def few_weights_reference(inst, d, delta_exp, rng):
    """The former aete_few_weights: one uniform regular body per piece."""
    n = inst.n
    eps = delta_exp / 14.0
    pieces, triples = regularize_reference(
        inst, d, et.default_split_parameter(n, eps), eps)
    yes = np.zeros((n, n), dtype=bool)
    for i, _, j in triples:
        yes[i, j] = True
    for d_l, piece in pieces:
        yes |= et._uniform_regular_body(
            piece, et.structured_box_count(n, d_l), rng).yes
    return yes


def assert_same_instances(got, want):
    """Equal (d', instance) lists: d', promise, matrices with dtype, order."""
    assert len(got) == len(want)
    for (dg, pg), (dw, pw) in zip(got, want):
        assert dg == dw and pg.promise == pw.promise
        for mg, mw in zip(pg.matrices(), pw.matrices()):
            assert mg.dtype == mw.dtype and np.array_equal(mg, mw)


def differential_cases():
    """42 instances: every promise, n from 1 to 33, d from 1 to 7 (so d > n
    at the small n), bot densities 0 to 0.6, and an all-bot A, B or C in
    every fourteenth."""
    rng = np.random.default_rng(44)
    sizes = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 33)
    for t in range(42):
        n, d = sizes[t % len(sizes)], 1 + t % 7
        inst, _ = random_triangle_instance(
            n, d, rng, planted=2, promise=PROMISES[t % 6],
            bot_density=(0.0, 0.25, 0.6)[t % 3], structured=t % 5 == 4)
        if t % 14 == 13:
            mats = list(inst.matrices())
            mats[t // 14] = np.full((n, n), BOT, dtype=np.int64)
            inst = et.TriangleInstance(*mats, promise=inst.promise)
        yield t, d, inst


def test_regularize_matches_per_piece_reference():
    splits = 0
    for t, d, inst in differential_cases():
        delta = et.default_split_parameter(inst.n, 2.0)
        got, got_t = et.regularize(inst, d, delta, eps=2.0)
        want, want_t = regularize_reference(inst, d, delta, 2.0)
        assert got_t == want_t, t
        assert_same_instances(got, want)
        splits += len(got)

        oriented, _ = et.canonical_orientation(inst)
        got, got_t = et.uniformize(oriented, d, delta)
        want, want_t = uniformize_reference(oriented, d, delta)
        assert got_t == want_t, t
        assert_same_instances([(0, x) for x in got], [(0, x) for x in want])

        got_rng, want_rng = np.random.default_rng(t), np.random.default_rng(t)
        got = et.aete_few_weights(inst, d, 28.0, rng=got_rng).yes
        assert np.array_equal(got, few_weights_reference(inst, d, 28.0, want_rng))
        assert np.array_equal(got, brute_reference(inst))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert splits


def test_few_weights_cover_pieces_match_reference(monkeypatch):
    # with the pair rule lowered to 0, every piece takes the cover path,
    # which draws from rng in piece order (pieces at d = 4 rarely have more
    # than two summing pairs)
    monkeypatch.setattr(et, "_MIN_NTT_POINTS", 0)
    covers = []
    cover = et.bsg_cover
    monkeypatch.setattr(et, "bsg_cover",
                        lambda *args: covers.append(args) or cover(*args))
    rng = np.random.default_rng(45)
    total = 0
    for t in range(4):
        inst, _ = random_triangle_instance(12 + 4 * t, 4, rng, planted=2,
                                           promise=PROMISES[t])
        got_rng, want_rng = np.random.default_rng(t), np.random.default_rng(t)
        got = et.aete_few_weights(inst, 4, 28.0, rng=got_rng).yes
        calls = len(covers)
        assert np.array_equal(got, few_weights_reference(inst, 4, 28.0, want_rng))
        assert len(covers) == 2 * calls
        assert np.array_equal(got, brute_reference(inst))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        total += calls
        covers.clear()
    assert total


def test_stacked_domain_checks():
    # each label group stack and each piece stack is checked once: an entry
    # at +-2^62 raises WeightError, bot and +-(2^62 - 1) pass
    ok = np.array([[BOT, 2 ** 62 - 1], [0, -(2 ** 62 - 1)]], dtype=np.int64)
    et._LabelGroups([(ok, ok, ok)], 1)
    et._PieceStack([(4, (ok, ok, ok))])
    for v in (2 ** 62, -2 ** 62):
        bad = ok.copy()
        bad[1, 0] = v
        for mats in ((bad, ok, ok), (ok, bad, ok), (ok, ok, bad)):
            with pytest.raises(WeightError):
                et._LabelGroups([(ok, ok, ok), mats], 1)
            with pytest.raises(WeightError):
                et._PieceStack([(4, (ok, ok, ok)), (4, mats)])


# ----------------------------------------------------------------------------
# few-weights solver
# ----------------------------------------------------------------------------

def test_few_weights_d1():
    rng = np.random.default_rng(20)
    inst, _ = random_triangle_instance(16, 1, rng)
    got = et.aete_few_weights(inst, 1, delta_exp=21.0,
                              rng=np.random.default_rng(0))
    assert got == et.aete_brute(inst, with_witnesses=False)


def test_few_weights_planted():
    rng = np.random.default_rng(21)
    inst, planted = random_triangle_instance(14, 3, rng, planted=3)
    assert planted
    rep = et.aete_few_weights(inst, 3, delta_exp=21.0,
                              rng=np.random.default_rng(0))
    for i, k, j in planted:
        assert rep.yes[i, j]


@pytest.mark.parametrize("promise", PROMISES)
def test_few_weights_all_promise_sides(promise):
    rng = np.random.default_rng(22)
    inst, _ = random_triangle_instance(9, 3, rng, promise=promise)
    got = et.aete_few_weights(inst, 3, delta_exp=21.0,
                              rng=np.random.default_rng(0))
    assert got == et.aete_brute(inst, with_witnesses=False)


def test_few_weights_random_sweep():
    rng = np.random.default_rng(23)
    for t in range(10):
        n = int(rng.integers(6, 21))
        d = int(rng.integers(1, 5))
        inst, _ = random_triangle_instance(n, d, rng)
        got = et.aete_few_weights(inst, d, delta_exp=21.0,
                                  rng=np.random.default_rng(t))
        assert got == et.aete_brute(inst, with_witnesses=False)


def test_few_weights_declared_d_above_n():
    # with d > n, regularize splits its pieces max(1, n // d) = 1-regular,
    # and the piece solver audits the same bound
    inst, _ = random_triangle_instance(3, 4, np.random.default_rng(0), low=-3,
                                       high=4, structured=True)
    cases = [(inst, 4)]
    rng = np.random.default_rng(25)
    for n in (1, 2, 3):
        for d in range(n + 1, n + 4):
            for structured in (False, True):
                inst, _ = random_triangle_instance(n, d, rng, low=-3, high=4,
                                                   structured=structured)
                cases.append((inst, d))
    for t, (inst, d) in enumerate(cases):
        for delta_exp in (21.0, 28.0):
            got = et.aete_few_weights(inst, d, delta_exp=delta_exp,
                                      rng=np.random.default_rng(t))
            assert got == et.aete_brute(inst, with_witnesses=False), (t, delta_exp)


def test_few_weights_audits_each_regularize_piece_once(monkeypatch):
    rng = np.random.default_rng(34)
    inst, _ = random_triangle_instance(16, 4, rng, planted=2)
    audits, raw_pieces, single = [], [], []
    real_stack, real_unsplit = et._PieceStack.__init__, et._regularize_unsplit

    def stacked_audit(self, pieces):
        audits.extend(pieces)
        real_stack(self, pieces)

    class CountingAudit(et.RegularityAudit):
        def __init__(self, piece):
            single.append(piece)
            super().__init__(piece)

    def unsplit(*args):
        pieces, triples = real_unsplit(*args)
        raw_pieces.extend(pieces)
        return pieces, triples

    monkeypatch.setattr(et._PieceStack, "__init__", stacked_audit)
    monkeypatch.setattr(et, "RegularityAudit", CountingAudit)
    monkeypatch.setattr(et, "_regularize_unsplit", unsplit)
    # one stack per 2 pieces, so the pieces span several stacks
    monkeypatch.setattr(et, "_STACK_CELLS", 2 * 3 * 16 * 16)
    got = et.aete_few_weights(inst, 4, delta_exp=28.0,
                              rng=np.random.default_rng(0))
    assert got == et.aete_brute(inst, with_witnesses=False)
    assert len(raw_pieces) > 2 and len(audits) == len(raw_pieces)
    assert all(a is p for a, p in zip(audits, raw_pieces))
    assert single == []


def test_few_weights_seed_replay():
    rng = np.random.default_rng(24)
    inst, _ = random_triangle_instance(12, 4, rng)
    a = et.aete_few_weights(inst, 4, delta_exp=21.0,
                            rng=np.random.default_rng(7))
    b = et.aete_few_weights(inst, 4, delta_exp=21.0,
                            rng=np.random.default_rng(7))
    assert a == b


# ----------------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------------

def test_regularity_audit_counts():
    a = np.array([[1, 1, 2], [2, 2, 2], [BOT, 3, 3]], dtype=np.int64)
    inst = et.TriangleInstance(a, a, a)
    audit = et.RegularityAudit(inst)
    assert audit.global_distinct == {"a": 3, "b": 3, "c": 3}
    assert audit.max_row_occ["a"] == 3
    assert audit.max_col_occ["a"] == 2
    assert audit.is_uniform(3) and not audit.is_uniform(2)
    assert audit.is_regular(3) and not audit.is_regular(2)


def regularity_reference(inst):
    """Per-row and per-column np.unique loop: the audit's former body."""
    out = {}
    for name, m in zip("abc", inst.matrices()):
        rows = [m[i][m[i] != BOT] for i in range(m.shape[0])]
        cols = [m[:, j][m[:, j] != BOT] for j in range(m.shape[1])]
        row_counts = [np.unique(r, return_counts=True)[1] for r in rows if r.size]
        col_counts = [np.unique(c, return_counts=True)[1] for c in cols if c.size]
        out[name] = (len(set(m[m != BOT].tolist())),
                     max((int(c.max()) for c in row_counts), default=0),
                     max((int(c.max()) for c in col_counts), default=0),
                     max((c.size for c in row_counts), default=0),
                     max((c.size for c in col_counts), default=0))
    return out


def test_regularity_audit_matches_loop_reference():
    rng = np.random.default_rng(31)
    cases = [et.TriangleInstance(np.zeros((0, 0)), np.zeros((0, 0)),
                                 np.zeros((0, 0)))]
    for t in range(8):
        n = int(rng.integers(1, 12))
        cases.append(random_triangle_instance(
            n, int(rng.integers(1, 5)), rng, promise=PROMISES[t % 6],
            bot_density=float(rng.choice([0.0, 0.3, 0.9])))[0])
    for inst in cases:
        audit = et.RegularityAudit(inst)
        got = {name: (audit.global_distinct[name], audit.max_row_occ[name],
                      audit.max_col_occ[name], audit.max_row_distinct[name],
                      audit.max_col_distinct[name]) for name in "abc"}
        assert got == regularity_reference(inst)


@st.composite
def audit_instances(draw):
    n = draw(st.integers(0, 5))
    entries = st.one_of(st.just(int(BOT)), st.integers(-6, 6))
    mats = [draw(hnp.arrays(np.int64, (n, n), elements=entries)) for _ in "abc"]
    return et.TriangleInstance(*mats)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(audit_instances())
@example(et.TriangleInstance(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))))
@example(et.TriangleInstance([[BOT]], [[-3]], [[BOT]]))
@example(et.TriangleInstance(np.full((3, 3), BOT), np.full((3, 3), -1),
                             -np.arange(9).reshape(3, 3)))
def test_regularity_audit_property(inst):
    # both counting branches: nv < n (bincount table), nv >= n (sorts)
    audit = et.RegularityAudit(inst)
    got = {name: (audit.global_distinct[name], audit.max_row_occ[name],
                  audit.max_col_occ[name], audit.max_row_distinct[name],
                  audit.max_col_distinct[name]) for name in "abc"}
    assert got == regularity_reference(inst)


def test_uniform_regular_pure_remainder_path(monkeypatch):
    # force the degenerate cover (everything in R): only the brute remainder
    # enumeration answers, and it must still equal the oracle
    rng = np.random.default_rng(30)
    inst = random_uniform_regular_instance(12, 3, rng)
    from fewweights.additive import CoverOutput

    def all_remainder(x, y, z, k, rng2=None, **kw):
        zset = set(z)
        pairs = {(a, b) for a in x for b in y if a + b in zset}
        return CoverOutput([(set(), set())] * k, pairs)

    monkeypatch.setattr(et, "bsg_cover", all_remainder)
    got = et.aete_uniform_regular(inst, 3, 2, np.random.default_rng(0))
    assert got == et.aete_brute(inst, with_witnesses=False)
    # above the pair rule the cover runs, and its remainder, every summing
    # pair, goes to the pair routine; the forced cover has no box for
    # aete_small_doubling
    seen = spy_cover_path(monkeypatch)
    inst = above_pair_rule_instance(22, 11, rng)
    got = et.aete_uniform_regular(inst, 11, 2, np.random.default_rng(0))
    assert got == et.aete_brute(inst, with_witnesses=False)
    assert seen["cover"] == 1 and seen["small_doubling"] == 0
    assert len(seen["pairs"]) == 1
    assert len(seen["pairs"][0]) == summing_pair_count(inst)
