import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fewweights.core import (
    AuditError,
    EdgeWeightedGraph,
    POS_INF,
    WeightError,
    WeightMatrix,
    build_one_hop_matrix,
    node_weighted_graph,
)
from fewweights import apsp, bench, generators
from fewweights import minplus as mp
from helpers import trivial_rows


def triple_loop_minplus(a, b):
    """Definitional oracle, independent of the library kernels."""
    n1, n2 = a.shape
    n3 = b.shape[1]
    out = np.full((n1, n3), POS_INF, dtype=np.int64)
    for i in range(n1):
        for j in range(n3):
            best = int(POS_INF)
            for k in range(n2):
                if a[i, k] != POS_INF and b[k, j] != POS_INF:
                    best = min(best, int(a[i, k]) + int(b[k, j]))
            out[i, j] = best
    return out


def rand_matrix(rng, r, c, inf_p=0.25, lo=-20, hi=20):
    m = rng.integers(lo, hi, size=(r, c)).astype(np.int64)
    m[rng.random((r, c)) < inf_p] = POS_INF
    return WeightMatrix(m, copy=False)


def dijkstra_node_weighted(n, edges, weights, s):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    dist = [int(POS_INF)] * n
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in adj[u]:
            nd = d + int(weights[v])
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


# ----------------------------------------------------------------------------
# min_plus_naive
# ----------------------------------------------------------------------------

def test_naive_identity():
    ident = WeightMatrix.identity(4)
    assert mp.min_plus_naive(ident, ident) == ident


def test_naive_hand_example():
    a = WeightMatrix([[1, 2]])
    b = WeightMatrix([[3], [0]])
    assert mp.min_plus_naive(a, b).data.tolist() == [[2]]


def test_naive_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rand_matrix(rng, 12, 9)
    b = rand_matrix(rng, 9, 7)
    assert np.array_equal(mp.min_plus_naive(a, b).data,
                          triple_loop_minplus(a.data, b.data))


@st.composite
def naive_operands(draw):
    """(A, B) with 0-8 rows, inner and columns, and all-+inf rows of A and
    columns of B.  Each operand draws its own magnitude cap, 9, 2^12,
    2^12 + 1, 2^28, 2^28 + 1 or MAX_OPERAND, on either side of
    min_plus_naive's int16 and int32 rules, and holds +-cap, values within
    it and +inf."""
    n1, n2, n3 = (draw(st.integers(0, 8)) for _ in range(3))

    def operand(shape):
        cap = draw(st.sampled_from([9, 2**12, 2**12 + 1, 2**28, 2**28 + 1,
                                    int(mp.MAX_OPERAND)]))
        values = st.one_of(st.integers(-cap, cap), st.sampled_from([cap, -cap, int(POS_INF)]))
        return draw(hnp.arrays(np.int64, shape, elements=values))

    a, b = operand((n1, n2)), operand((n2, n3))
    a[draw(hnp.arrays(bool, n1))] = POS_INF
    b[:, draw(hnp.arrays(bool, n3))] = POS_INF
    return a, b


@settings(max_examples=300, derandomize=True, deadline=None)
@given(naive_operands())
def test_naive_matches_triple_loop_on_edge_operands(operands):
    a, b = operands
    got = mp.min_plus_naive(a, b).data
    assert got.dtype == np.int64
    assert np.array_equal(got, triple_loop_minplus(a, b))


def test_naive_extreme_sums_stay_finite():
    # every sum of two entries at +-2^12, +-(2^12 + 1), +-2^28, +-(2^28 + 1)
    # or +-MAX_OPERAND is finite, including 2^12 + 1 + 2^12 + 1 past the
    # int16 cut, 2^28 + 1 + 2^28 + 1 past the int32 one and MAX_OPERAND +
    # MAX_OPERAND at the int64 one
    ext = [v * sign for v in (2**12, 2**12 + 1, 2**28, 2**28 + 1, int(mp.MAX_OPERAND))
           for sign in (1, -1)]
    for x in ext:
        for y in ext:
            assert mp.min_plus_naive([[x, POS_INF]], [[y], [0]]).data.tolist() == [[x + y]]


@pytest.mark.parametrize("cells", [1, 2 * 5, 3 * 9 * 5])
def test_naive_in_row_blocks(monkeypatch, cells):
    # a budget of 1 takes the 7 rows of A one per block and k one at a
    # time; 2 * 5 cells take one row and k in blocks of 2, 2, 2, 2, 1;
    # 3 * 9 * 5 cells take all of k and the rows 3 per block, with a last
    # block of one row; entries up to 20 run in int16, up to 2^20 in int32
    # and up to 2^40 in int64.  Each k in turn gets a row of B at 3 * lo, so
    # that it is the unique minimizer wherever it is finite and no block of
    # k goes unseen.
    monkeypatch.setattr(mp, "_NAIVE_CELLS", cells)
    rng = np.random.default_rng(12)
    for lo, hi in ((-20, 20), (-2**20, 2**20), (-2**40, 2**40)):
        a = rand_matrix(rng, 7, 9, lo=lo, hi=hi).data.copy()
        a[2] = POS_INF
        b = rand_matrix(rng, 9, 5, lo=lo, hi=hi).data.copy()
        b[:, 3] = POS_INF
        assert (a != POS_INF).any(axis=0).all()
        got = mp.min_plus_naive(a, b).data
        assert got.dtype == np.int64 and np.array_equal(got, triple_loop_minplus(a, b))
        for k in range(9):
            bk = b.copy()
            bk[k] = np.where(b[k] == POS_INF, POS_INF, 3 * lo)
            assert np.array_equal(mp.min_plus_naive(a, bk).data, triple_loop_minplus(a, bk))


def test_naive_shape_mismatch():
    with pytest.raises(ValueError):
        mp.min_plus_naive(WeightMatrix([[1]]), WeightMatrix([[1], [2]]))


# ----------------------------------------------------------------------------
# boolean product
# ----------------------------------------------------------------------------

def test_boolean_matmul_identity_and_zero_row():
    rng = np.random.default_rng(1)
    p = rng.random((6, 6)) < 0.4
    p[2, :] = False
    assert np.array_equal(mp.boolean_matrix_multiply(p, np.eye(6, dtype=bool)), p)
    q = rng.random((6, 6)) < 0.4
    assert not mp.boolean_matrix_multiply(p, q)[2].any()


def test_boolean_matmul_random_vs_naive():
    rng = np.random.default_rng(2)
    p = rng.random((64, 64)) < 0.3
    q = rng.random((64, 64)) < 0.3
    assert np.array_equal(mp.boolean_matrix_multiply(p, q),
                          mp.boolean_matmul_naive(p, q))


def test_boolean_matmul_wide_inner_dimension():
    # an inner dimension wider than any in the hop products
    rng = np.random.default_rng(3)
    p = rng.random((5, 1030)) < 0.02
    q = rng.random((1030, 9)) < 0.02
    assert np.array_equal(mp.boolean_matrix_multiply(p, q),
                          mp.boolean_matmul_naive(p, q))


# ----------------------------------------------------------------------------
# boolean_min_plus
# ----------------------------------------------------------------------------

def bool_minplus_ref(a, b):
    s, n = a.shape
    t = b.shape[1]
    out = np.full((s, t), POS_INF, dtype=np.int64)
    for i in range(s):
        for j in range(t):
            cand = [int(a[i, k]) for k in range(n)
                    if b[k, j] and a[i, k] != POS_INF]
            out[i, j] = min(cand) if cand else int(POS_INF)
    return out


def test_boolean_min_plus_identity():
    rng = np.random.default_rng(3)
    a = rand_matrix(rng, 5, 5)
    got, wit = mp.boolean_min_plus(a, np.eye(5, dtype=bool))
    assert got == a


def test_boolean_min_plus_all_ones_gives_row_minima():
    rng = np.random.default_rng(4)
    a = rand_matrix(rng, 6, 8, inf_p=0.1)
    got, _ = mp.boolean_min_plus(a, np.ones((8, 3), dtype=bool))
    mins = np.where(a.finite_mask().any(axis=1),
                    np.min(np.where(a.data == POS_INF, POS_INF, a.data), axis=1),
                    POS_INF)
    assert np.array_equal(got.data, np.tile(mins[:, None], (1, 3)))


@pytest.mark.parametrize("seed", [1, 4, 16])
def test_boolean_min_plus_random(seed):
    rng = np.random.default_rng(5 + seed)
    for _ in range(20):
        s, n, t = rng.integers(1, 17, size=3)
        a = rand_matrix(rng, s, n)
        b = rng.random((n, t)) < 0.4
        got, wit = mp.boolean_min_plus(a, b)
        assert np.array_equal(got.data, bool_minplus_ref(a.data, b))
        for i in range(s):
            for j in range(t):
                if got.data[i, j] != POS_INF:
                    k = int(wit[i, j])
                    assert b[k, j] and a.data[i, k] == got.data[i, j]
                else:
                    assert wit[i, j] == -1


def min_plus_smallest_witness(a, b):
    """Min-plus product and its smallest minimizing k (-1 where +inf)."""
    ok = (a[:, :, None] != POS_INF) & (b[None, :, :] != POS_INF)
    sums = np.where(ok, np.where(ok, a[:, :, None], 0) + np.where(ok, b[None], 0),
                    POS_INF)
    vals = sums.min(axis=1, initial=POS_INF)
    wit = (sums == vals[:, None, :]).argmax(axis=1)
    return vals, np.where(vals != POS_INF, wit, -1)


def smallest_witness_reference(a, bw):
    """min_plus_smallest_witness, also for an empty inner dimension."""
    if a.shape[1]:
        return min_plus_smallest_witness(a, bw)
    shape = (a.shape[0], bw.shape[1])
    return (np.full(shape, POS_INF, dtype=np.int64), np.full(shape, -1, dtype=np.int64))


def check_dweights_routes(a, bw):
    """Each private route of d_weights_min_plus, forced, against the references.

    Both routes must give the naive values and the smallest witnesses, and
    all -1 witnesses when none are asked for.
    """
    want, want_wit = smallest_witness_reference(a, bw)
    assert np.array_equal(want, mp.min_plus_naive(a, bw).data)
    op = mp.DWeightsOperand(bw)
    for route in (lambda w: mp._dweights_gather(a, op, w),
                  lambda w: mp._dweights_bucketed(a, op, w)):
        got, wit = route(True)
        assert np.array_equal(got, want)
        assert np.array_equal(wit, want_wit)
        got, wit = route(False)
        assert np.array_equal(got, want)
        assert (wit == -1).all()


def check_bucketed_kernels(a, b, bw):
    """Both kernels against the references and the smallest witnesses.

    b is a boolean operand and bw a d-weights one.  Both routes also run,
    forced, on bw and on two one-slot operands: b's 0/+inf pattern, and one
    weight per column of b with the first column empty.
    """
    bool_vals, bool_wit = smallest_witness_reference(a, np.where(b, 0, POS_INF))
    assert np.array_equal(bool_vals, bool_minplus_ref(a, b))
    dw_vals, dw_wit = smallest_witness_reference(a, bw)
    assert np.array_equal(dw_vals, mp.min_plus_naive(a, bw).data)
    got, wit = mp.boolean_min_plus(a, b)
    assert np.array_equal(got.data, bool_vals)
    assert np.array_equal(wit, bool_wit)
    got, wit = mp.d_weights_min_plus(a, bw, return_witnesses=True)
    assert np.array_equal(got.data, dw_vals)
    assert np.array_equal(wit, dw_wit)
    check_dweights_routes(a, bw)
    uniform = np.where(b, np.arange(b.shape[1]) % 5 - 2, POS_INF)
    uniform[:, :1] = POS_INF
    for one_slot in (np.where(b, 0, POS_INF), uniform):
        op = mp.DWeightsOperand(one_slot)
        assert op.slot_val.size == op.starts.size
        check_dweights_routes(a, one_slot)


def test_bucketed_kernels_at_bucket_width_boundaries():
    # buckets hold at most 24 sorted positions: n = 24 and 48 fill them, so
    # an all-finite row against an all-True column sums to 2^24 - 1; n = 80
    # cuts rows into 4 buckets, and n = 0 (an empty inner dimension) has 1
    rng = np.random.default_rng(10)
    for n in (23, 24, 25, 48, 49, 80, 0):
        # few distinct values: repeated and negative keys
        a = rand_matrix(rng, 6, n, inf_p=0.3, lo=-3, hi=3).data.copy()
        a[0] = rng.integers(-3, 3, size=n)
        a[1] = POS_INF
        b = rng.random((n, 7)) < 0.3
        b[:, 0] = True
        b[:, 1] = False
        bw = column_capped_matrix(rng, n, 7, 3, lo=-5, hi=5).data.copy()
        bw[:, 0] = 2
        bw[:, 1] = POS_INF
        for sub_a, sub_b, sub_bw in ((a, b, bw), (a[:1], b, bw),
                                     (a[1:2], b, bw), (a, b[:, :0], bw[:, :0])):
            check_bucketed_kernels(sub_a, sub_b, sub_bw)


@pytest.mark.parametrize("cells", [1, 150, 700])
def test_bucketed_kernels_in_row_blocks(monkeypatch, cells):
    # a small cell budget takes the rows of A in blocks of one row, and of
    # four rows (two on the gather route) with a shorter last block; the
    # gather route cuts B's entries into one chunk per column, into chunks
    # of several columns, or into one chunk
    monkeypatch.setattr(mp, "_BUCKET_CELLS", cells)
    monkeypatch.setattr(mp, "_GATHER_CELLS", cells)
    rng = np.random.default_rng(11)
    a = rand_matrix(rng, 7, 50, inf_p=0.3, lo=-3, hi=3).data.copy()
    a[2] = POS_INF
    b = rng.random((50, 9)) < 0.2
    bw = column_capped_matrix(rng, 50, 9, 3, lo=-5, hi=5).data
    check_bucketed_kernels(a, b, bw)


@st.composite
def bucketed_operands(draw):
    """(A, boolean B, B with at most d values per column); A has +inf entries."""
    s, n, t = draw(st.integers(1, 5)), draw(st.integers(1, 30)), draw(st.integers(0, 5))
    a = draw(hnp.arrays(np.int64, (s, n), elements=st.integers(-2, 2)))
    a[draw(hnp.arrays(bool, (s, n)))] = POS_INF
    d = draw(st.integers(1, 3))
    palette = draw(hnp.arrays(np.int64, (d, t), elements=st.integers(-2, 2)))
    pick = draw(hnp.arrays(np.int64, (n, t), elements=st.integers(-1, d - 1)))
    bw = np.where(pick >= 0, palette[np.maximum(pick, 0), np.arange(t)], POS_INF)
    return a, draw(hnp.arrays(bool, (n, t))), bw


@settings(max_examples=100, derandomize=True, deadline=None)
@given(bucketed_operands())
def test_bucketed_kernels_property(operands):
    check_bucketed_kernels(*operands)


# ----------------------------------------------------------------------------
# d_weights_min_plus
# ----------------------------------------------------------------------------

def column_capped_matrix(rng, n, t, d, inf_p=0.3, lo=-10, hi=10):
    m = np.full((n, t), POS_INF, dtype=np.int64)
    for j in range(t):
        palette = rng.integers(lo, hi, size=d)
        for i in range(n):
            if rng.random() >= inf_p:
                m[i, j] = palette[rng.integers(0, d)]
    return WeightMatrix(m, copy=False)


def test_dweights_all_inf():
    a = WeightMatrix(np.full((3, 4), POS_INF, dtype=np.int64))
    b = WeightMatrix(np.full((4, 5), POS_INF, dtype=np.int64))
    out = mp.d_weights_min_plus(a, b)
    assert np.all(out.data == POS_INF)


@pytest.mark.parametrize("seed", [1, 4, 16])
def test_dweights_random_vs_naive(seed):
    rng = np.random.default_rng(11 + seed)
    for _ in range(20):
        s, n, t = rng.integers(1, 13, size=3)
        a = rand_matrix(rng, s, n)
        b = column_capped_matrix(rng, n, t, 3)
        got, wit = mp.d_weights_min_plus(a, b, return_witnesses=True)
        want = mp.min_plus_naive(a, b)
        assert got == want
        for i in range(s):
            for j in range(t):
                if got.data[i, j] != POS_INF:
                    k = int(wit[i, j])
                    assert a.data[i, k] + b.data[k, j] == got.data[i, j]


def test_dweights_equals_boolean_plus_column_weight():
    # d = 1: one-hop matrix of a node-weighted graph
    rng = np.random.default_rng(20)
    n = 9
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.4]
    w = rng.integers(0, 9, size=n)
    onehop = np.full((n, n), POS_INF, dtype=np.int64)
    adjacency = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        onehop[u, v] = w[v]
        adjacency[u, v] = True
    a = rand_matrix(rng, 5, n, inf_p=0.2, lo=0, hi=15)
    got = mp.d_weights_min_plus(a, WeightMatrix(onehop), d=1)
    bool_part, _ = mp.boolean_min_plus(a, adjacency)
    want = np.where(bool_part.data == POS_INF, POS_INF,
                    bool_part.data + w[None, :])
    assert np.array_equal(got.data, want)


def test_dweights_audit_error():
    a = WeightMatrix([[0, 0, 0]])
    b = WeightMatrix([[1], [2], [3]])
    with pytest.raises(AuditError):
        mp.d_weights_min_plus(a, b, d=2)


@st.composite
def prepared_operand_cases(draw):
    """(several A, B with at most d values per column, d).

    Every A shares B's inner dimension; s, n or t may be 0, some rows of A
    and some columns of B may be all +inf, and B may hold a single finite
    entry.  Entries lie in [-2, 2], so negative values and ties are common.
    """
    n, t, d = draw(st.integers(0, 30)), draw(st.integers(0, 5)), draw(st.integers(1, 3))
    palette = draw(hnp.arrays(np.int64, (d, t), elements=st.integers(-2, 2)))
    pick = draw(hnp.arrays(np.int64, (n, t), elements=st.integers(-1, d - 1)))
    bw = np.where(pick >= 0, palette[np.maximum(pick, 0), np.arange(t)], POS_INF)
    bw[:, draw(hnp.arrays(bool, t))] = POS_INF
    if n and t and draw(st.booleans()):
        k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, t - 1))
        single = np.full((n, t), POS_INF, dtype=np.int64)
        single[k, j] = draw(st.integers(-2, 2))
        bw = single
    many = []
    for s in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)):
        a = draw(hnp.arrays(np.int64, (s, n), elements=st.integers(-2, 2)))
        a[draw(hnp.arrays(bool, (s, n)))] = POS_INF
        a[draw(hnp.arrays(bool, s))] = POS_INF
        many.append(a)
    return many, bw, d


@settings(max_examples=60, derandomize=True, deadline=None)
@given(prepared_operand_cases())
def test_prepared_operand_property(case):
    many, bw, d = case
    op = mp.DWeightsOperand(bw, d=d)
    assert op.shape == bw.shape and not op.data.flags.writeable
    for a in many:  # one operand for every A: no state leaks between calls
        want, want_wit = smallest_witness_reference(a, bw)
        assert np.array_equal(want, mp.min_plus_naive(a, bw).data)
        for b in (bw, op, op):
            got, wit = mp.d_weights_min_plus(a, b, return_witnesses=True)
            assert np.array_equal(got.data, want)
            assert np.array_equal(wit, want_wit)
            assert np.array_equal(mp.d_weights_min_plus(a, b, d=d).data, want)
        check_dweights_routes(a, bw)
    # a d below some column's count fails the same way, prepared or not
    counts = np.diff(mp._column_slots(*column_slot_inputs(bw))[2])
    if counts.size and counts.max() > 1:
        small = int(counts.max()) - 1
        with pytest.raises(AuditError) as want_err:
            mp._column_slots(*column_slot_inputs(bw), d=small)
        calls = (lambda: mp.DWeightsOperand(bw, d=small),
                 lambda: mp.d_weights_min_plus(many[0], bw, d=small),
                 lambda: mp.d_weights_min_plus(many[0], op, d=small))
        for call in calls:
            with pytest.raises(AuditError) as err:
                call()
            assert str(err.value) == str(want_err.value)


def test_dweights_routes_on_edge_operands():
    rng = np.random.default_rng(13)
    a = rand_matrix(rng, 5, 9, inf_p=0.3, lo=-3, hi=3).data.copy()
    a[1] = POS_INF  # an all-+inf row of A
    # negative values, two per column, so sums tie across k
    bw = column_capped_matrix(rng, 9, 6, 2, inf_p=0.2, lo=-4, hi=0).data.copy()
    bw[:, 2] = POS_INF  # an empty column of B
    single = np.full((9, 6), POS_INF, dtype=np.int64)
    single[4, 3] = -7
    empty = np.full((9, 6), POS_INF, dtype=np.int64)
    for b in (bw, single, empty):
        for rows in (a, a[:0], a[1:2]):  # s = 0 and an all-+inf A
            check_dweights_routes(rows, b)


def test_dweights_routes_solve_past_the_old_witness_key_bound():
    # no route forms an n*A+k key, so an A whose keys would pass
    # MAX_OPERAND gives the naive values and the least witnesses: ties
    # across a column's slots (row 0), at the least value within a slot
    # (row 1) and next to -top
    n = 4
    top = int(mp.MAX_OPERAND) // n - 2  # the smallest |A| past the old bound
    b = np.array([[0, 1], [POS_INF, 2], [3, POS_INF], [1, 1]], dtype=np.int64)
    op = mp.DWeightsOperand(b)
    past = np.array([[-top, -top - 1, POS_INF, -top - 1], [1, 5, POS_INF, 1],
                     [-top, 0, POS_INF, 5]], dtype=np.int64)
    want, want_wit = min_plus_smallest_witness(past, b)
    assert np.array_equal(want, mp.min_plus_naive(past, b).data)
    assert want_wit.tolist() == [[0, 3], [0, 0], [0, 0]]
    check_dweights_routes(past, b)
    for operand in (b, op):
        got, wit = mp.d_weights_min_plus(past, operand, return_witnesses=True)
        assert np.array_equal(got.data, want) and np.array_equal(wit, want_wit)


def test_cost_rule_picks_gather_for_dweights_solves_and_bucket_for_dense_palette(
        monkeypatch):
    taken = []
    for name in ("_dweights_gather", "_dweights_bucketed"):
        def spy(*args, _route=getattr(mp, name), _name=name):
            taken.append(_name)
            return _route(*args)
        monkeypatch.setattr(mp, name, spy)
    # the one-hop operands of the d-weights APSP solves at n = 48, d = 4,
    # as both their right and their left hop products see them
    g = generators.random_dweights_graph(48, 4, np.random.default_rng(1))
    assert apsp.solve_apsp(g, "dweights", h=4, d=4) == apsp.apsp_oracle(g)
    assert taken and set(taken) == {"_dweights_gather"}
    # the minplus bench's operands at n = 512, with witnesses as it asks
    # for them: s = 64 rows against the dense palette (70 % finite, four
    # values per column) and the sparse B
    rng = np.random.default_rng(0)
    a = rng.integers(0, 512, size=(64, 512))
    for bw, route in ((bench._dense_palette(512, rng), "_dweights_bucketed"),
                      (bench._sparse_many_values(512, rng), "_dweights_gather")):
        taken.clear()
        mp.d_weights_min_plus(a, mp.DWeightsOperand(bw), return_witnesses=True)
        assert taken == [route]


def test_prepared_operand_checks_b_once():
    with pytest.raises(WeightError, match="B contains neg_inf entries"):
        mp.DWeightsOperand(np.array([[1, -POS_INF]], dtype=np.int64))
    # bot, and finite entries past the bound on either side, next to +inf
    for bad, match in ((POS_INF + 7, "bot entries"), (POS_INF + 1, "beyond the kernel"),
                       (mp.MAX_OPERAND + 1, "beyond the kernel"),
                       (-mp.MAX_OPERAND - 1, "beyond the kernel"),
                       (np.iinfo(np.int64).min, "beyond the kernel")):
        with pytest.raises(WeightError, match=f"B (contains|has finite entries) {match}"):
            mp.DWeightsOperand(np.array([[1, POS_INF, bad]], dtype=np.int64))
    assert mp.DWeightsOperand(np.array([[-mp.MAX_OPERAND, POS_INF, mp.MAX_OPERAND]]))
    with pytest.raises(ValueError, match="B must be 2-d"):
        mp.DWeightsOperand(np.zeros(3, dtype=np.int64))
    b = np.array([[1, 2], [3, POS_INF]], dtype=np.int64)
    op = mp.DWeightsOperand(b)
    b[0, 0] = 9  # the operand holds its own copy
    assert op.data[0, 0] == 1
    with pytest.raises(ValueError, match="shape mismatch"):
        mp.d_weights_min_plus(np.zeros((2, 3), dtype=np.int64), op)


def column_slot_inputs(bdata):
    """_column_slots's inputs: B's finite entries by column, then row, and m."""
    ecol, erow = np.nonzero(bdata.T != POS_INF)
    return ecol, bdata[erow, ecol], bdata.shape[1]


def column_slots_reference(bdata):
    """Per-column loop: distinct finite values in ascending order."""
    slot_col, slot_val, col_start = [], [], [0]
    for j in range(bdata.shape[1]):
        vals = sorted({v for v in bdata[:, j].tolist() if v != POS_INF})
        slot_col += [j] * len(vals)
        slot_val += vals
        col_start.append(len(slot_val))
    return slot_col, slot_val, col_start


def test_column_slots_match_loop_reference():
    rng = np.random.default_rng(12)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (7, 1)]
    shapes += [tuple(rng.integers(1, 12, size=2)) for _ in range(12)]
    for n, m in shapes:
        b = column_capped_matrix(rng, n, m, int(rng.integers(1, 5)), inf_p=0.4).data
        got = mp._column_slots(*column_slot_inputs(b))
        for g, w in zip(got, column_slots_reference(b)):
            assert g.dtype == np.int64
            assert g.tolist() == w
    b = np.array([[1, 5, POS_INF], [2, 5, 4], [1, 6, 3]], dtype=np.int64)
    with pytest.raises(AuditError, match="column 0 has 2 distinct entries"):
        mp._column_slots(*column_slot_inputs(b), d=1)
    b = np.array([[1, 5], [1, 6], [1, 7]], dtype=np.int64)
    with pytest.raises(AuditError, match="column 1 has 3 distinct entries"):
        mp._column_slots(*column_slot_inputs(b), d=2)


# ----------------------------------------------------------------------------
# hop-bounded products
# ----------------------------------------------------------------------------

def rand_node_edges(rng, n, p=0.3, lo=0, hi=10):
    """Random node-weighted digraph as its edge pairs and node weights."""
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return edges, rng.integers(lo, hi, size=n)


def rand_node_graph(rng, n, p=0.3, lo=0, hi=10):
    return node_weighted_graph(n, *rand_node_edges(rng, n, p, lo, hi))


def test_hop_product_h0_returns_input():
    rng = np.random.default_rng(30)
    g = rand_node_graph(rng, 6)
    a = rand_matrix(rng, 3, 6)
    out = mp.hop_bounded_product(a, g, 0)
    assert out.values == a


def test_hop_product_matches_dijkstra():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(4, 12))
        edges, w = rand_node_edges(rng, n)
        g = node_weighted_graph(n, edges, w)
        res = mp.hop_bounded_product(trivial_rows(np.arange(n), n), g, n)
        for s in range(n):
            assert res.values.data[s].tolist() == dijkstra_node_weighted(n, edges, w, s)


def test_hop_product_prefix_sum_path():
    g = node_weighted_graph(3, [(0, 1), (1, 2)], [7, 2, 3])
    res = mp.hop_bounded_product(trivial_rows(np.array([0]), 3), g, 2)
    assert res.values.data[0].tolist() == [0, 2, 5]
    assert res.path(0, 2) == [0, 1, 2]


def test_hop_product_monotone_in_h():
    rng = np.random.default_rng(32)
    g = rand_node_graph(rng, 10)
    a = trivial_rows(np.arange(10), 10)
    prev = None
    for h in range(6):
        cur = mp.hop_bounded_product(a, g, h).values.data
        if prev is not None:
            assert np.all(cur <= prev)
        prev = cur


def test_hop_product_witness_paths_reevaluate():
    rng = np.random.default_rng(33)
    edges, nodew = rand_node_edges(rng, 9)
    g = node_weighted_graph(9, edges, nodew)
    a = rand_matrix(rng, 4, 9, inf_p=0.5, lo=0, hi=9)
    res = mp.hop_bounded_product(a, g, 4)
    for i in range(4):
        for v in range(9):
            p = res.path(i, v)
            val = res.values.data[i, v]
            if val == POS_INF:
                assert p is None
                continue
            assert len(p) - 1 <= 4
            w = int(a.data[i, p[0]]) + sum(int(nodew[x]) for x in p[1:])
            assert w == val


def test_left_product_h0_and_cross_check():
    rng = np.random.default_rng(34)
    g = rand_node_graph(rng, 8)
    a = rand_matrix(rng, 8, 3, inf_p=0.3, lo=0, hi=9)
    assert mp.hop_bounded_product_left(g, a, 0).values == a
    # D^{<=3} * A computed two ways
    one = build_one_hop_matrix(g)
    d3 = mp.min_plus_naive(mp.min_plus_naive(one, one), one)
    want = mp.min_plus_naive(d3, a)
    got = mp.hop_bounded_product_left(g, a, 3)
    assert got.values == want


def test_left_product_trivial_matches_right_on_reverse():
    rng = np.random.default_rng(35)
    g = rand_node_graph(rng, 9)
    n = g.n
    sel = np.array([1, 4, 7])
    a = np.full((n, sel.size), POS_INF, dtype=np.int64)
    a[sel, np.arange(sel.size)] = 0
    left = mp.hop_bounded_product_left(g, a, 3).values.data
    one = build_one_hop_matrix(g)
    d3 = mp.min_plus_naive(mp.min_plus_naive(one, one), one).data
    assert np.array_equal(left, d3[:, sel])


def rand_edge_graph(rng, n, d, p=0.35, lo=0, hi=20):
    palettes = [rng.integers(lo, hi, size=d) for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges.append((u, v, int(palettes[v][rng.integers(0, d)])))
    return EdgeWeightedGraph(n, edges)


def test_hop_edge_h0():
    rng = np.random.default_rng(36)
    g = rand_edge_graph(rng, 7, 2)
    a = rand_matrix(rng, 3, 7)
    assert mp.hop_bounded_product_edge(a, g, 0, d=2).values == a


def test_hop_edge_d1_matches_node_weighted():
    rng = np.random.default_rng(37)
    n = 8
    pairs, w = rand_node_edges(rng, n)
    gnode = node_weighted_graph(n, pairs, w)
    gedge = EdgeWeightedGraph(n, [(u, v, int(w[v])) for u, v in pairs])
    a = trivial_rows(np.arange(n), n)
    r1 = mp.hop_bounded_product(a, gnode, 4).values
    r2 = mp.hop_bounded_product_edge(a, gedge, 4, d=1).values
    assert r1 == r2


def test_hop_edge_matches_repeated_naive():
    rng = np.random.default_rng(38)
    g = rand_edge_graph(rng, 9, 3)
    one = build_one_hop_matrix(g)
    a = rand_matrix(rng, 4, 9, inf_p=0.4, lo=0, hi=9)
    cur = a
    for _ in range(4):
        cur = mp.min_plus_naive(cur, one)
    got = mp.hop_bounded_product_edge(a, g, 4, d=3)
    assert got.values == cur
    for i in range(4):
        for v in range(9):
            p = got.path(i, v)
            if p is None:
                continue
            w = int(a.data[i, p[0]])
            for x, y in zip(p, p[1:]):
                w += min(int(wt) for (u2, v2, wt) in g.edges()
                         if u2 == x and v2 == y)
            assert w == got.values.data[i, v]


def test_hop_edge_audit_failure():
    g = EdgeWeightedGraph(3, [(0, 2, 1), (1, 2, 2)])
    a = trivial_rows(np.arange(3), 3)
    with pytest.raises(AuditError):
        mp.hop_bounded_product_edge(a, g, 1, d=1)


def test_left_product_edge_weighted_matches_naive():
    rng = np.random.default_rng(39)
    for _ in range(4):
        n = int(rng.integers(2, 11))
        g = rand_edge_graph(rng, n, 3)
        a = rand_matrix(rng, n, 4, inf_p=0.4, lo=0, hi=9)
        assert mp.hop_bounded_product_left(g, a, 0).values == a
        one = build_one_hop_matrix(g)
        d3 = mp.min_plus_naive(mp.min_plus_naive(one, one), one)
        got = mp.hop_bounded_product_left(g, a, 3)
        assert got.values == mp.min_plus_naive(d3, a)
        for u in range(n):
            for j in range(4):
                p = got.path(u, j)
                if p is None:
                    continue
                assert p[0] == u and len(p) - 1 <= 3
                w = sum(int(one.data[x, y]) for x, y in zip(p, p[1:]))
                assert w + int(a.data[p[-1], j]) == got.values.data[u, j]


def test_solver_product_matches_kernel_hop_products():
    rng = np.random.default_rng(40)
    g = rand_edge_graph(rng, 9, 2)
    a = rand_matrix(rng, 4, 9, inf_p=0.4, lo=0, hi=9)
    calls = []

    def solver(x, y):
        calls.append(x.shape)
        return mp.min_plus_naive(x, y)

    op = mp.HopOperator(g, solver)
    right = mp.hop_bounded_product_edge(a, op, 3)
    assert right.values == mp.hop_bounded_product_edge(a, g, 3).values
    left = mp.hop_bounded_product_left(op, a.transpose(), 3)
    assert left.values == mp.hop_bounded_product_left(g, a.transpose(), 3).values
    assert calls == [(4, 9)] * 6
    one = build_one_hop_matrix(g).data
    for i in range(4):
        for v in range(9):
            p = right.path(i, v)
            if p is not None:
                w = int(a.data[i, p[0]]) + sum(int(one[x, y]) for x, y in zip(p, p[1:]))
                assert w == right.values.data[i, v] and len(p) - 1 <= 3
            q = left.path(v, i)
            if q is not None:
                w = sum(int(one[x, y]) for x, y in zip(q, q[1:])) + int(a.data[i, q[-1]])
                assert w == left.values.data[v, i] and len(q) - 1 <= 3
    # a solver product also stands in for the boolean kernel of a node graph
    gnode = rand_node_graph(rng, 9)
    op = mp.HopOperator(gnode, mp.min_plus_naive)
    assert (mp.hop_bounded_product(a, op, 3).values
            == mp.hop_bounded_product(a, gnode, 3).values)
    assert (mp.hop_bounded_product_left(op, a.transpose(), 3).values
            == mp.hop_bounded_product_left(gnode, a.transpose(), 3).values)


def uniform_edge_graph(rng, n, side, p=0.35, lo=-3, hi=9):
    """Edge graph whose in- (side "in") or out-edges share one weight per node."""
    c = rng.integers(lo, hi, size=n)
    edges = [(u, v, int(c[v] if side == "in" else c[u]))
             for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return EdgeWeightedGraph(n, edges + edges[:3])  # a few duplicates


def hop_edge_case_graphs():
    rng = np.random.default_rng(42)
    loops = rand_edge_graph(rng, 7, 3, lo=-2, hi=9)
    extra = [(0, 0, -1), (3, 3, 4), (2, 5, 1), (2, 5, 7), (2, 5, 1)]
    return {
        "node n=0": node_weighted_graph(0, [], []),
        "edge n=0": EdgeWeightedGraph(0, []),
        "node n=1": node_weighted_graph(1, [], [4]),
        "node n=1 loop": node_weighted_graph(1, [(0, 0)], [-1]),
        "edge n=1": EdgeWeightedGraph(1, []),
        "edge n=1 loops": EdgeWeightedGraph(1, [(0, 0, 3), (0, 0, -2)]),
        "in-uniform": uniform_edge_graph(rng, 9, "in"),
        "out-uniform": uniform_edge_graph(rng, 9, "out"),
        "node loops": node_weighted_graph(6, [(0, 0), (1, 2), (1, 2), (2, 2), (2, 4)],
                                          [-1, 3, 0, 5, 2, -4]),
        "edge loops": EdgeWeightedGraph(7, list(loops.edges()) + extra),
    }


@pytest.mark.parametrize("name", list(hop_edge_case_graphs()))
def test_hop_products_edge_cases(name):
    g = hop_edge_case_graphs()[name]
    n, h = g.n, 3
    rng = np.random.default_rng(43)
    a = rand_matrix(rng, 3, n, inf_p=0.3, lo=-4, hi=9)
    one = build_one_hop_matrix(g)
    offdiag = mp.one_hop_offdiag(g)
    # h rounds of the reference, and the rounds the row frontier runs: every
    # round through the first that improves no entry
    rounds = 0
    want_right, want_left = a, a.transpose()
    moving_right = moving_left = True
    for _ in range(h):
        next_right = mp.min_plus_naive(want_right, one)
        next_left = mp.min_plus_naive(one, want_left)
        rounds += moving_right + moving_left
        moving_right &= not np.array_equal(next_right.data, want_right.data)
        moving_left &= not np.array_equal(next_left.data, want_left.data)
        want_right, want_left = next_right, next_left
    for want_paths in (True, False):
        mp.reset_counters()
        right = mp.hop_bounded_product(a, g, h, want_paths=want_paths)
        left = mp.hop_bounded_product_left(g, a.transpose(), h,
                                           want_paths=want_paths)
        counts = mp.snapshot_counters()
        # every step, whatever the one-hop matrix, is one d-weights product
        assert counts["d_weights_min_plus"] == counts["hop_iterations"] == rounds, name
        assert counts["boolean_min_plus"] == 0, name
        assert right.values == want_right, name
        assert left.values == want_left, name
        if not want_paths:
            assert right._parents == [] and left._parents == []
            continue
        for i in range(a.rows):
            for v in range(n):
                p = right.path(i, v)
                if p is None:
                    assert want_right.data[i, v] == POS_INF
                else:
                    w = int(a.data[i, p[0]]) + sum(int(offdiag[x, y]) for x, y in zip(p, p[1:]))
                    assert p[-1] == v and len(p) - 1 <= h
                    assert w == want_right.data[i, v], name
                q = left.path(v, i)
                if q is None:
                    assert want_left.data[v, i] == POS_INF
                else:
                    w = sum(int(offdiag[x, y]) for x, y in zip(q, q[1:])) + int(a.data[i, q[-1]])
                    assert q[0] == v and len(q) - 1 <= h
                    assert w == want_left.data[v, i], name


def full_round_reference(a, onehop, h):
    """h rounds of vals = min(vals, vals * onehop) that step every row in
    every round, with min_plus_naive: the hop recurrence without its row
    frontier.  Each round's parent matrix holds the smallest k that attains
    a strictly improved entry, else -1."""
    vals, parents = a.copy(), []
    for _ in range(h):
        prod = mp.min_plus_naive(vals, onehop).data
        finite = (vals != POS_INF)[:, :, None] & (onehop != POS_INF)[None]
        sums = np.where(finite, vals[:, :, None] + onehop[None], POS_INF)
        better = prod < vals
        parents.append(np.where(better, (sums == prod[:, None, :]).argmax(axis=1), -1))
        vals = np.where(better, prod, vals)
    return vals, parents


def negative_edge_graphs():
    """A node-weighted and a d-weights graph with negative edges and no
    negative cycle.  In the node-weighted one no edge joins two of the
    negative nodes (weights -3..-1) and the others weigh 3..8, so every cycle
    weighs at least 0; the d-weights one has its negative-cycle components
    deleted."""
    rng = np.random.default_rng(70)
    n = 16
    weights = rng.integers(3, 9, size=n)
    negative = rng.random(n) < 0.3
    weights[negative] = rng.integers(-3, 0, size=negative.sum())
    node_edges = [(u, v) for u in range(n) for v in range(n)
                  if rng.random() < 0.2 and not (negative[u] and negative[v])]
    graphs = {
        "node": node_weighted_graph(n, node_edges, weights),
        "dweights": apsp.eliminate_negative_cycles(
            rand_edge_graph(rng, n, 3, p=0.2, lo=-2, hi=9))[0],
    }
    for g in graphs.values():
        assert g.n == n and (g.edge_array[:, 2] < 0).any()
        assert apsp.eliminate_negative_cycles(g)[0] is g
    return graphs


@pytest.mark.parametrize("h", [1, 2, 4, 8])
def test_row_frontier_matches_full_rounds(h, monkeypatch):
    stepped = []  # rows of every kernel or solver step
    kernel = mp.d_weights_min_plus

    def counted(a, *args, **kwargs):
        stepped.append(np.shape(a)[0])
        return kernel(a, *args, **kwargs)

    def solver(x, y):
        stepped.append(x.rows)
        return mp.min_plus_naive(x, y)

    monkeypatch.setattr(mp, "d_weights_min_plus", counted)
    stopped = 0
    for name, g in negative_edge_graphs().items():
        rng = np.random.default_rng(71 + h)
        a = rand_matrix(rng, 6, g.n, inf_p=0.7, lo=-3, hi=9).data.copy()
        a[1] = POS_INF  # a row that never steps after the first round
        a[2] = trivial_rows([3], g.n)[0]
        onehop = mp.one_hop_offdiag(g)
        for product in (None, solver):
            stepped.clear()
            op = mp.HopOperator(g, product)
            right = mp.hop_bounded_product(a, op, h)
            left = mp.hop_bounded_product_left(op, a.T, h)
            # the first round steps all 6 rows of each side; the all-inf row
            # improves nothing, so later rounds step fewer
            assert stepped[0] == 6 and (h == 1 or sum(stepped) < 2 * 6 * h), (name, h)
            for side, got, m in (("right", right, onehop), ("left", left, onehop.T)):
                vals, parents = full_round_reference(a, m, h)
                if side == "left":
                    want = mp.HopProduct(WeightMatrix(vals.T), parents, h, reversed_paths=True)
                else:
                    want = mp.HopProduct(WeightMatrix(vals), parents, h)
                assert got.values == want.values, (name, side, h)
                i, j = np.nonzero(want.values.data != POS_INF)
                for x, y in zip(got.paths(i, j), want.paths(i, j)):
                    assert np.array_equal(x, y), (name, side, h)
                stopped += len(got._parents) < h
    if h == 8:  # the recurrence ran out of improving rows before round h
        assert stopped > 0


def resume_case_operators(rng):
    """A node graph, an edge graph and a solver operator for the resume tests."""
    gedge = rand_edge_graph(rng, 10, 3, p=0.25, lo=-2)
    return {"node": rand_node_graph(rng, 10, p=0.25),
            "edge": gedge,
            "solver": mp.HopOperator(gedge, mp.min_plus_naive)}


def hop_on_side(side, a, g, h, want_paths):
    """The right product of A, or the left product of A.T; A may be a
    HopProduct of that side to resume."""
    if side == "right":
        return mp.hop_bounded_product(a, g, h, want_paths=want_paths)
    if not isinstance(a, mp.HopProduct):
        a = a.transpose()
    return mp.hop_bounded_product_left(g, a, h, want_paths=want_paths)


def counted_rounds(fn):
    mp.reset_counters()
    out = fn()
    return out, mp.snapshot_counters()["hop_iterations"]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("start_paths, want_paths",
                         [(True, True), (False, False), (True, False)])
def test_resumed_hop_product_matches_fresh(side, start_paths, want_paths):
    # a resume runs exactly the rounds after its start and gives a fresh
    # product's values, and its paths on every finite pair
    rng = np.random.default_rng(91)
    for name, g in resume_case_operators(rng).items():
        a = rand_matrix(rng, 5, 10, inf_p=0.6, lo=0, hi=9)
        # (start h, h): from 0, mid-recurrence, h equal to the start's, and a
        # start (h 30 on 10 nodes) whose row frontier emptied
        for h0, h in ((0, 3), (1, 3), (2, 5), (3, 3), (30, 40)):
            fresh, fresh_rounds = counted_rounds(lambda: hop_on_side(side, a, g, h, want_paths))
            start, start_rounds = counted_rounds(lambda: hop_on_side(side, a, g, h0, start_paths))
            before = start.values.data.copy()
            got, rounds = counted_rounds(lambda: hop_on_side(side, start, g, h, want_paths))
            case = (name, side, h0, h)
            assert rounds == fresh_rounds - start_rounds, case
            if h0 == 30:
                assert start_rounds < h0 and rounds == 0, case
            assert got.values == fresh.values, case
            assert np.array_equal(start.values.data, before), case
            assert got.h == h, case
            if not want_paths:
                continue
            i, j = np.nonzero(fresh.values.data != POS_INF)
            for x, y in zip(got.paths(i, j), fresh.paths(i, j)):
                assert np.array_equal(x, y), case
            # the last round's improved entries, by recomputing one round less
            if h > 0:
                prev = hop_on_side(side, a, g, h - 1, False).values.data
                want = np.nonzero(prev != fresh.values.data)
                for x, y in zip(got.last_round_pairs(), want):
                    assert np.array_equal(np.sort(x), np.sort(y)), case
                if h0 == 30:
                    assert got.last_round_pairs()[0].size == 0, case


def test_hop_product_resume_rejects_bad_starts():
    rng = np.random.default_rng(92)
    g = rand_node_graph(rng, 8)
    a = rand_matrix(rng, 3, 8, inf_p=0.5, lo=0, hi=9)
    right = mp.hop_bounded_product(a, g, 2)
    left = mp.hop_bounded_product_left(g, a.transpose(), 2)
    bare = mp.hop_bounded_product(a, g, 2, want_paths=False)
    with pytest.raises(ValueError, match="cannot resume an h=2 product at h=1"):
        mp.hop_bounded_product(right, g, 1)
    with pytest.raises(ValueError, match="same side"):
        mp.hop_bounded_product(left, g, 3)
    with pytest.raises(ValueError, match="same side"):
        mp.hop_bounded_product_left(g, right, 3)
    with pytest.raises(ValueError, match="recorded without paths"):
        mp.hop_bounded_product(bare, g, 3)
    with pytest.raises(ValueError, match="recorded without paths"):
        bare.paths([0], [0])
    with pytest.raises(ValueError, match="recorded without paths"):
        bare.last_round_pairs()
    assert mp.hop_bounded_product(bare, g, 3, want_paths=False).values == \
        mp.hop_bounded_product(a, g, 3).values


def backtrace_loop_reference(prod, i, j):
    """The per-pair backtrace HopProduct.path ran before `paths` existed."""
    if prod.values.data[i, j] == POS_INF:
        return None
    if prod._reversed:
        i, j = j, i
    cur = j
    nodes = [cur]
    for t in range(len(prod._parents) - 1, -1, -1):
        p = int(prod._parents[t][i, cur])
        if p >= 0:
            cur = p
            nodes.append(cur)
    if not prod._reversed:
        nodes.reverse()
    return nodes


@pytest.mark.parametrize("h", [0, 1, 3])
def test_hop_paths_match_per_pair_path(h):
    rng = np.random.default_rng(41)
    gnode = rand_node_graph(rng, 9)
    gedge = rand_edge_graph(rng, 9, 3)
    m = rand_matrix(rng, 4, 9, inf_p=0.4, lo=0, hi=9).data.copy()
    m[2] = POS_INF  # an all-inf row: every entry of it stays infinite
    a = WeightMatrix(m)
    products = {
        "node right": mp.hop_bounded_product(a, gnode, h),
        "edge right": mp.hop_bounded_product_edge(a, gedge, h, d=3),
        "node left": mp.hop_bounded_product_left(gnode, a.transpose(), h),
        "edge left": mp.hop_bounded_product_left(gedge, a.transpose(), h),
        "solver right": mp.hop_bounded_product_edge(
            a, mp.HopOperator(gedge, mp.min_plus_naive), h),
        "solver left": mp.hop_bounded_product_left(
            mp.HopOperator(gedge, mp.min_plus_naive), a.transpose(), h),
        # the node-weight shift on edge graphs: one weight per one-hop row
        "in-uniform left": mp.hop_bounded_product_left(
            uniform_edge_graph(rng, 9, "in"), a.transpose(), h),
        "out-uniform right": mp.hop_bounded_product(
            a, uniform_edge_graph(rng, 9, "out"), h),
    }
    for name, prod in products.items():
        vals = prod.values.data
        rows, cols = np.indices(vals.shape)
        rows, cols = rows.ravel(), cols.ravel()
        nodes, hops = prod.paths(rows, cols)
        assert nodes.shape == (rows.size, h + 1) and hops.shape == (rows.size,)
        assert nodes.dtype == np.int64
        for r, (i, j) in enumerate(zip(rows, cols)):
            want = prod.path(i, j)
            assert want == backtrace_loop_reference(prod, i, j), name
            if want is None:
                assert vals[i, j] == POS_INF
                assert hops[r] == -1 and (nodes[r] == -1).all(), name
                continue
            assert hops[r] == len(want) - 1, name
            assert nodes[r, :hops[r] + 1].tolist() == want, name
            assert (nodes[r, hops[r] + 1:] == -1).all(), name
        finite = vals != POS_INF
        inf_rows = (~finite).all(axis=1) if name.endswith("right") else (~finite).all(axis=0)
        assert inf_rows.any(), name
        if h == 0:
            assert (hops[finite.ravel()] == 0).all(), name
        empty_nodes, empty_hops = prod.paths(np.array([], dtype=np.int64),
                                             np.array([], dtype=np.int64))
        assert empty_nodes.shape == (0, h + 1) and empty_hops.shape == (0,)


def test_solver_step_witnesses_match_loop_reference(monkeypatch):
    # witnesses of a solver product are the smallest k with
    # A[i, k] + B[k, j] == prod[i, j], wherever prod improves on A, as the
    # gather's tie pass finds them; tiny cell budgets force many blocks
    rng = np.random.default_rng(42)

    def loop_reference(vals, onehop, prod):
        wit = np.full(prod.shape, -1, dtype=np.int64)
        need = prod < vals
        for k in range(vals.shape[1]):
            for i, j in zip(*np.nonzero(need)):
                if (vals[i, k] != POS_INF and onehop[k, j] != POS_INF
                        and vals[i, k] + onehop[k, j] == prod[i, j]):
                    wit[i, j] = k
                    need[i, j] = False
        return wit

    for budget in (1, 5, 64, mp._GATHER_CELLS):
        monkeypatch.setattr(mp, "_GATHER_CELLS", budget)
        for _ in range(20):
            s, n = int(rng.integers(0, 7)), int(rng.integers(0, 10))
            vals = rand_matrix(rng, s, n, inf_p=0.3, lo=-5, hi=9).data
            onehop = rand_matrix(rng, n, n, inf_p=0.4, lo=-3, hi=6).data
            prod = mp.min_plus_naive(vals, onehop).data
            # a solver side on this one-hop matrix, and its operand's
            # chunks, under this budget
            op = mp.HopOperator(EdgeWeightedGraph(n, []), mp.min_plus_naive)
            op._onehop = onehop
            got, wit = op.step(vals, False, True)
            assert np.array_equal(got, prod)
            assert np.array_equal(np.where(prod < vals, wit, -1),
                                  loop_reference(vals, onehop, prod))
            # elsewhere too the witness is the least minimizing k
            assert np.array_equal(wit, smallest_witness_reference(vals, onehop)[1])
            got, wit = op.step(vals, False, False)
            assert np.array_equal(got, prod) and wit is None


def test_compact_paths_matches_argsort_form():
    def argsort_form(nodes):
        order = np.argsort(nodes < 0, axis=1, kind="stable")
        return np.take_along_axis(nodes, order, axis=1)

    rng = np.random.default_rng(8)
    cases = [np.full((3, 5), -1), np.zeros((0, 4)), np.zeros((4, 0)), np.zeros((0, 0))]
    for _ in range(40):
        p, w = rng.integers(1, 9, size=2)
        nodes = np.where(rng.random((p, w)) < 0.4, -1, rng.integers(0, 20, size=(p, w)))
        nodes[rng.random(p) < 0.2] = -1  # all -1 rows
        cases.append(nodes)
    for nodes in cases:
        nodes = np.asarray(nodes, dtype=np.int64)
        got = mp.compact_paths(nodes)
        assert got.dtype == np.int64 and np.array_equal(got, argsort_form(nodes))


def test_dweights_hop_step_asks_witnesses_only_for_paths(monkeypatch):
    # a graph with two distinct weights in some column and some row, so
    # both the right and the left product take the d-weights kernel
    g = EdgeWeightedGraph(4, [(0, 2, 1), (1, 2, 5), (2, 3, 2), (0, 1, 3),
                              (0, 3, 7), (3, 0, 1)])
    a = trivial_rows(np.arange(4), 4)
    asked = []
    kernel = mp.d_weights_min_plus

    def spy(*args, **kwargs):
        asked.append(kwargs.get("return_witnesses", False))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(mp, "d_weights_min_plus", spy)
    for hop in (lambda **k: mp.hop_bounded_product(a, g, 3, **k),
                lambda **k: mp.hop_bounded_product_left(g, a, 3, **k)):
        asked.clear()
        with_paths = hop(want_paths=True).values
        assert asked == [True] * 3
        asked.clear()
        assert hop(want_paths=False).values == with_paths
        assert asked == [False] * 3


def test_hop_operator_matches_graph_on_every_kernel_branch():
    rng = np.random.default_rng(44)
    a = rand_matrix(rng, 4, 9, inf_p=0.4, lo=-3, hi=9)
    # graph, solver product, and the operands of the right and the left side
    branches = {
        "node": (rand_node_graph(rng, 9), None, ("dweights", "shift")),
        "out-uniform": (uniform_edge_graph(rng, 9, "out"), None, ("shift", "dweights")),
        "d-weights": (rand_edge_graph(rng, 9, 3, lo=-2), None, ("dweights",) * 2),
        "solver": (rand_edge_graph(rng, 9, 3), mp.min_plus_naive, ("product",) * 2),
    }
    # a node without out-edges: an all-+inf one-hop row, shifted by 0
    sink = uniform_edge_graph(rng, 9, "out")
    sink = EdgeWeightedGraph(9, [e for e in sink.edges() if e[0] != 4])
    assert (mp.one_hop_offdiag(sink)[4] == POS_INF).all()
    branches["out-uniform sink"] = (sink, None, ("shift", "dweights"))

    def kind(op, left):
        if op.product is not None:
            return "product"
        return "dweights" if op._side(left)[1] is None else "shift"

    everywhere = np.indices((4, 9)).reshape(2, -1)
    for name, (g, product, kinds) in branches.items():
        op = mp.HopOperator(g, product)
        assert (kind(op, False), kind(op, True)) == kinds, name
        if name == "node":  # one slot per nonempty column on both sides
            for operand, _ in (op._side(False), op._side(True)):
                assert operand.slot_val.size == operand.starts.size
        for want_paths in (True, False, True):  # the operator is reused
            got = (mp.hop_bounded_product(a, op, 3, want_paths=want_paths),
                   mp.hop_bounded_product_left(op, a.transpose(), 3, want_paths=want_paths))
            fresh = g if product is None else mp.HopOperator(g, product)
            want = (mp.hop_bounded_product(a, fresh, 3, want_paths=want_paths),
                    mp.hop_bounded_product_left(fresh, a.transpose(), 3,
                                                want_paths=want_paths))
            for side, x, y in zip(("right", "left"), got, want):
                assert x.values == y.values, (name, side)
                assert len(x._parents) == len(y._parents) == (3 if want_paths else 0)
                if want_paths:
                    i, j = everywhere if side == "right" else everywhere[::-1]
                    for p, q in zip(x.paths(i, j), y.paths(i, j)):
                        assert np.array_equal(p, q), (name, side)


def test_hop_operator_picks_each_side_once(monkeypatch):
    rng = np.random.default_rng(45)
    g = rand_edge_graph(rng, 9, 3, lo=-2)
    built = []

    class Spy(mp.DWeightsOperand):
        def __init__(self, B, d=None):
            built.append(np.shape(B))
            super().__init__(B, d)

    monkeypatch.setattr(mp, "DWeightsOperand", Spy)
    op = mp.HopOperator(g)
    a = trivial_rows(np.arange(9), 9)
    for _ in range(3):
        mp.hop_bounded_product(a, op, 2)
        mp.hop_bounded_product_left(op, a, 2)
    assert built == [(9, 9), (9, 9)]
    assert isinstance(op._side(False)[0], mp.DWeightsOperand)
    assert isinstance(op._side(True)[0], mp.DWeightsOperand)
    # a whole solve, with hop products on both sides: one operand per side
    built.clear()
    gin = rand_edge_graph(rng, 9, 3)
    assert apsp.solve_apsp(gin, "dweights", h=4, d=3, promise="in") == apsp.apsp_oracle(gin)
    assert built == [(9, 9), (9, 9)]


def _seeded_start_graphs():
    rng = np.random.default_rng(91)
    for t in range(3):  # negative edges, no negative cycle
        g = generators.random_dweights_graph(12, 3, rng, density=0.3, low=-2)
        yield apsp.eliminate_negative_cycles(g)[0], None
    for t in range(2):  # node-weighted: the left side is shifted
        yield generators.random_node_weighted_graph(12, rng), None
    yield generators.random_dweights_graph(12, 1, rng, promise="in"), None  # d=1
    yield generators.random_dweights_graph(10, 3, rng), mp.min_plus_naive
    yield EdgeWeightedGraph(4, [(0, 0, 3), (0, 1, 2), (1, 2, -1), (2, 3, 1)]), None


@pytest.mark.parametrize("left", [False, True])
def test_sources_matches_trivial_rows_product(left):
    # the seeded start, resumed with or without paths, is the product from
    # the trivial rows
    run = mp.hop_bounded_product_left if left else mp.hop_bounded_product
    for g, product in _seeded_start_graphs():
        op = mp.HopOperator(g, product)
        s = np.arange(0, g.n, 2)
        a = trivial_rows(s, g.n)
        for h in range(1, 5):
            for want_paths in (True, False):
                got = run(op, op.sources(s, left=True), h, want_paths=want_paths) if left \
                    else run(op.sources(s), op, h, want_paths=want_paths)
                want = run(op, a.T, h, want_paths=want_paths) if left \
                    else run(a, op, h, want_paths=want_paths)
                assert np.array_equal(got.values.data, want.values.data)
                if want_paths:
                    i, j = np.nonzero(want.values.data != POS_INF)
                    for x, y in zip(got.paths(i, j), want.paths(i, j)):
                        assert np.array_equal(x, y)
                    for x, y in zip(got.last_round_pairs(), want.last_round_pairs()):
                        assert np.array_equal(x, y)
                more = [run(op, p, h + 2, want_paths=want_paths) if left
                        else run(p, op, h + 2, want_paths=want_paths) for p in (got, want)]
                assert np.array_equal(more[0].values.data, more[1].values.data)


def test_sources_calls_no_kernel_or_solver(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return mp.min_plus_naive(*args, **kwargs)

    monkeypatch.setattr(mp, "d_weights_min_plus",
                        lambda *a, **k: calls.append(a) or pytest.fail("kernel called"))
    for g, product in _seeded_start_graphs():
        op = mp.HopOperator(g, spy if product else None)
        mp.reset_counters()
        for left in (False, True):
            op.sources(np.arange(g.n), left=left)
        assert calls == [] and mp.snapshot_counters()["hop_iterations"] == 0
