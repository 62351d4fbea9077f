import numpy as np
import pytest

from fewweights.core import AuditError, BOT, WeightMatrix
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


def test_poly_mm_matches_convolution():
    rng = np.random.default_rng(3)
    for _ in range(6):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 12))
        ae = rng.integers(0, p, size=(n, n)).astype(np.int64)
        be = rng.integers(0, p, size=(n, n)).astype(np.int64)
        ae[rng.random((n, n)) < 0.3] = BOT
        be[rng.random((n, n)) < 0.3] = BOT
        pres = et.poly_matrix_multiply(ae, be, p)
        for i in range(n):
            for j in range(n):
                want = {int(ae[i, k] + be[k, j]) for k in range(n)
                        if ae[i, k] != BOT and be[k, j] != BOT}
                assert set(np.nonzero(pres[i, j])[0].tolist()) == want


def test_poly_mm_rejects_bad_exponents():
    with pytest.raises(ValueError):
        et.poly_matrix_multiply([[5]], [[0]], 5)


def test_poly_mm_rejects_int64_overflow_before_allocating():
    # a zero-stride view: n = 2^22 rows cost no memory, and the headroom
    # check n*(q-1)^2 < 2^63 (q > n) must fire before any n x n array exists
    n = 2**22
    huge = np.broadcast_to(np.int64(0), (n, n))
    with pytest.raises(ValueError, match="2\\^63"):
        et.poly_matrix_multiply(huge, huge, 2)


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


def test_uniform_regular_degenerate_cover_is_brute_remainder():
    # an instance small enough that the remainder path does all the work
    rng = np.random.default_rng(10)
    inst = random_uniform_regular_instance(6, 2, rng)
    got = et.aete_uniform_regular(inst, 2, 1, np.random.default_rng(1))
    assert got == et.aete_brute(inst, with_witnesses=False)


@pytest.mark.parametrize("k_boxes", [1, 2, 4])
def test_uniform_regular_random(k_boxes):
    rng = np.random.default_rng(11 + k_boxes)
    for _ in range(6):
        d = int(rng.integers(1, 5))
        n = d * int(rng.integers(2, 7))
        inst = random_uniform_regular_instance(n, d, rng)
        got = et.aete_uniform_regular(inst, d, k_boxes,
                                      np.random.default_rng(0))
        assert got == et.aete_brute(inst, with_witnesses=False)


def test_uniform_regular_audit_failure():
    a = np.arange(16, dtype=np.int64).reshape(4, 4)  # 16 distinct values
    inst = et.TriangleInstance(a, a, a)
    with pytest.raises(AuditError):
        et.aete_uniform_regular(inst, 2, 1, np.random.default_rng(0))


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
    for sub in et.uniformize_naive(inst, d, parts):
        assert not et.aete_brute(sub).yes.any()


@pytest.mark.parametrize("delta", [1, 2])
def test_uniformize_exact_decomposition(delta):
    rng = np.random.default_rng(15 + delta)
    for t in range(6):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 4))
        inst, _ = random_triangle_instance(n, d, rng)
        subs, triples = et.uniformize(inst, d, delta, np.random.default_rng(t))
        check_exact_decomposition(inst, subs, triples, uniform_d=d)


def test_uniformize_no_triangles():
    a = np.zeros((6, 6), dtype=np.int64)
    b = np.zeros((6, 6), dtype=np.int64)
    c = np.full((6, 6), 5, dtype=np.int64)
    inst = et.TriangleInstance(a, b, c)
    subs, triples = et.uniformize(inst, 1, 2, np.random.default_rng(0))
    assert triples == set()
    for sub in subs:
        assert not et.aete_brute(sub).yes.any()


def test_uniformize_requires_row_promise():
    a = np.arange(9, dtype=np.int64).reshape(3, 3)
    inst = et.TriangleInstance(a, a, a)
    with pytest.raises(AuditError):
        et.uniformize(inst, 1, 2, np.random.default_rng(0))


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
    for sub in et.regularize_naive(inst, 1, 2, 2):
        assert (sub.a.data == BOT).all()


def test_regularize_d1_trivial():
    rng = np.random.default_rng(17)
    inst, _ = random_triangle_instance(8, 1, rng)
    pieces, triples = et.regularize(inst, 1, 2, eps=1.0,
                                    rng=np.random.default_rng(0))
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
        pieces, triples = et.regularize(inst, d, delta, eps=1.0,
                                        rng=np.random.default_rng(t),
                                        stats=stats)
        check_exact_decomposition(inst, pieces, triples, regular_r=True)
        rho = max(float(d), 1.0) ** (1.0 / 6.0)
        if rho > 1.0000001:
            bound = int(np.ceil(np.log(max(d, 2)) / np.log(rho)))
            assert stats.max_depth <= bound + 1


def test_regularize_depth_guard():
    rng = np.random.default_rng(19)
    inst, _ = random_triangle_instance(8, 4, rng)
    with pytest.raises(RuntimeError):
        et.regularize(inst, 4, 1, eps=1.0, rng=np.random.default_rng(0),
                      depth_guard=-1)


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
