import numpy as np
import pytest

from fewweights.core import (
    AuditError,
    BOT,
    EdgeWeightedGraph,
    POS_INF,
    WeightMatrix,
    one_hop_offdiag,
)
from fewweights import apsp as ap
from fewweights import minplus as mp
from fewweights import reductions as red
from fewweights.exact_triangle import aete_brute
from fewweights.generators import (
    random_column_dweights_matrix,
    random_dweights_graph,
    random_weight_matrix,
)


def nw_det_solver(g):
    return ap.solve_apsp(g, "nw-det", h=2)


# ----------------------------------------------------------------------------
# minplus_from_aete
# ----------------------------------------------------------------------------

def test_minplus_from_aete_scalar():
    got = red.minplus_from_aete(WeightMatrix([[3]]), WeightMatrix([[5]]),
                                None, aete_brute)
    assert got.data.tolist() == [[8]]


def test_minplus_from_aete_all_inf():
    m = WeightMatrix(np.full((3, 3), POS_INF, dtype=np.int64))
    got = red.minplus_from_aete(m, m, None, aete_brute)
    assert np.all(got.data == POS_INF)


def test_minplus_from_aete_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        r, k, c = rng.integers(1, 11, size=3)
        a = random_weight_matrix(r, k, rng, low=0, high=50)
        b = random_weight_matrix(k, c, rng, low=0, high=50)
        got = red.minplus_from_aete(a, b, None, aete_brute)
        assert got == mp.min_plus_naive(a, b)


def test_minplus_from_aete_rejects_negative():
    with pytest.raises(ValueError):
        red.minplus_from_aete(WeightMatrix([[-1]]), WeightMatrix([[0]]),
                              None, aete_brute)


def test_minplus_from_aete_audits_declared_d():
    # every row of the 6 x 6 A holds five distinct values
    a = WeightMatrix((np.arange(6)[:, None] + np.arange(6)) % 5)
    with pytest.raises(AuditError, match="exceed 1 distinct"):
        red.minplus_from_aete(a, a, 1, aete_brute)
    # +inf entries are not counted, and d = 5 or d = None passes
    holes = WeightMatrix(np.where(a.data > 0, a.data, POS_INF))
    assert red.minplus_from_aete(holes, a, 4, aete_brute) == mp.min_plus_naive(holes, a)
    for d in (5, None):
        assert red.minplus_from_aete(a, a, d, aete_brute) == mp.min_plus_naive(a, a)


def test_minplus_from_aete_detects_broken_solver():
    class NoSayer:
        def __call__(self, inst):
            from fewweights.exact_triangle import TriangleReport
            return TriangleReport.empty(inst.n)

    with pytest.raises(RuntimeError):
        red.minplus_from_aete(WeightMatrix([[3]]), WeightMatrix([[5]]),
                              None, NoSayer())


# ----------------------------------------------------------------------------
# apsp_from_minplus
# ----------------------------------------------------------------------------

def test_apsp_from_minplus_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = random_dweights_graph(int(rng.integers(6, 28)), 2, rng,
                                  promise="in")
        got = red.apsp_from_minplus(g, 2, mp.min_plus_naive, eps=1.0)
        assert np.array_equal(got.data, ap.apsp_oracle(g).data)


def test_apsp_from_minplus_single_edge():
    g = EdgeWeightedGraph(3, [(0, 1, 7)])
    got = red.apsp_from_minplus(g, 1, mp.min_plus_naive, eps=1.0).data
    assert got[0, 1] == 7
    assert (got != POS_INF).sum() == 4  # diagonal plus one edge


def test_apsp_from_minplus_eps_invariant():
    rng = np.random.default_rng(2)
    g = random_dweights_graph(14, 2, rng, promise="in")
    outs = [red.apsp_from_minplus(g, 2, mp.min_plus_naive, eps=e).data
            for e in (0.01, 1.0, 4.0)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


def test_apsp_from_minplus_counts_solver_hops():
    rng = np.random.default_rng(3)
    g = random_dweights_graph(12, 2, rng, promise="in")
    calls = []

    def solver(x, y):
        calls.append(x.shape)
        return mp.min_plus_naive(x, y)

    mp.reset_counters()
    got = red.apsp_from_minplus(g, 2, solver, eps=3.0)
    counts = mp.snapshot_counters()
    assert np.array_equal(got.data, ap.apsp_oracle(g).data)
    assert len(calls) > 0
    assert counts["hop_iterations"] == len(calls)
    assert counts["d_weights_min_plus"] == 0


def test_apsp_from_minplus_audit():
    g = EdgeWeightedGraph(3, [(0, 2, 1), (1, 2, 2)])
    with pytest.raises(AuditError):
        red.apsp_from_minplus(g, 1, mp.min_plus_naive, eps=1.0)


# ----------------------------------------------------------------------------
# bounded min-plus gadget
# ----------------------------------------------------------------------------

def bounded_inputs(rng, n=16, eps=0.25, inf_p=0.0):
    s = int(round(n ** (0.5 + eps)))
    cap = int(np.ceil(n ** (0.5 + eps)))
    a = rng.integers(0, cap, size=(n, s)).astype(np.int64)
    b = rng.integers(0, cap, size=(s, n)).astype(np.int64)
    if inf_p:
        a[rng.random(a.shape) < inf_p] = POS_INF
        b[rng.random(b.shape) < inf_p] = POS_INF
    return WeightMatrix(a), WeightMatrix(b), cap


def test_bounded_gadget_zero_matrices():
    n, eps = 9, 0.25
    s = int(round(n ** (0.5 + eps)))
    a = WeightMatrix(np.zeros((n, s), dtype=np.int64))
    b = WeightMatrix(np.zeros((s, n), dtype=np.int64))
    gg = red.gen_bounded_minplus_gadget(a, b, eps)
    assert np.all(gg.decode(ap.apsp_oracle(gg.graph)).data == 0)
    ggu = red.gen_bounded_minplus_gadget(a, b, eps, undirected=True)
    raw = ap.apsp_oracle(ggu.graph).data
    block = raw[np.ix_(ggu.sources, ggu.sinks)]
    assert np.all(block == ggu.offset)  # distances are product + 2M


@pytest.mark.parametrize("undirected", [False, True])
def test_bounded_gadget_decodes_product(undirected):
    rng = np.random.default_rng(3)
    for t in range(4):
        a, b, cap = bounded_inputs(rng, inf_p=0.1 if t % 2 else 0.0)
        want = mp.min_plus_naive(a, b)
        gg = red.gen_bounded_minplus_gadget(a, b, 0.25, undirected=undirected)
        assert gg.decode(ap.apsp_oracle(gg.graph)) == want
        assert gg.distinct_edge_weights() <= 16 ** (2 * 0.25) + 1
        assert gg.graph.n <= 2 * 16 + 8 * (2 * 2 - 1)


def test_bounded_gadget_offset_is_2m():
    rng = np.random.default_rng(4)
    a, b, cap = bounded_inputs(rng)
    gg = red.gen_bounded_minplus_gadget(a, b, 0.25, undirected=True)
    assert gg.offset == 2 * gg.meta["M"] == 2 * (2 * cap)


def test_bounded_gadget_entry_range_error():
    a = WeightMatrix(np.full((16, 8), 10 ** 6, dtype=np.int64))
    b = WeightMatrix(np.zeros((8, 16), dtype=np.int64))
    with pytest.raises(ValueError):
        red.gen_bounded_minplus_gadget(a, b, 0.25)


# ----------------------------------------------------------------------------
# column-weight gadget
# ----------------------------------------------------------------------------

def test_column_gadget_scalar():
    gg = red.gen_column_weight_gadget(WeightMatrix([[7]]), WeightMatrix([[9]]))
    assert gg.decode(ap.apsp_oracle(gg.graph)).data[0, 0] == 16
    ggu = red.gen_column_weight_gadget(WeightMatrix([[7]]), WeightMatrix([[9]]),
                                       undirected=True)
    raw = ap.apsp_oracle(ggu.graph).data
    assert raw[ggu.sources[0], ggu.sinks[0]] == 16 + 12 * ggu.meta["M"]
    assert ggu.decode(ap.apsp_oracle(ggu.graph)).data[0, 0] == 16


@pytest.mark.parametrize("undirected", [False, True])
def test_column_gadget_random(undirected):
    rng = np.random.default_rng(5)
    for _ in range(4):
        n, inner, d = 12, 4, 3
        a = random_column_dweights_matrix(n, inner, rng, d, inf_density=0.1)
        bt = random_column_dweights_matrix(n, inner, rng, d, inf_density=0.1)
        b = WeightMatrix(bt.data.T)
        want = mp.min_plus_naive(a, b)
        gg = red.gen_column_weight_gadget(a, b, undirected=undirected)
        assert gg.decode(ap.apsp_oracle(gg.graph)) == want
        assert all(sz <= n for sz in gg.meta["layers"])
        # node-weighted: each one-hop column holds one weight
        off = one_hop_offdiag(gg.graph)
        for col in off.T:
            assert np.unique(col[col != POS_INF]).size <= 1


# ----------------------------------------------------------------------------
# scaling promise and row-weight reduction
# ----------------------------------------------------------------------------

def test_promise_window_holds():
    rng = np.random.default_rng(6)
    for _ in range(8):
        n = int(rng.integers(1, 12))
        a = random_weight_matrix(n, n, rng, low=0, high=60)
        b = random_weight_matrix(n, n, rng, low=0, high=60)
        prom = red.make_scaling_promise(a, b).data
        want = mp.min_plus_naive(a, b).data
        fin = want != POS_INF
        assert np.array_equal(fin, prom != POS_INF)
        assert np.all(want[fin] - prom[fin] >= 0)
        assert np.all(want[fin] - prom[fin] <= 2)


def test_promise_all_zero():
    a = WeightMatrix(np.zeros((4, 4), dtype=np.int64))
    prom = red.make_scaling_promise(a, a)
    assert np.all(prom.data == 0)


def test_promise_scalar_window():
    prom = red.make_scaling_promise(WeightMatrix([[7]]), WeightMatrix([[9]]))
    assert prom.data[0, 0] in (14, 15, 16)


def row_weight_inputs(rng, n=16, d=4, inf_p=0.0):
    inner = n // d
    a = np.stack([rng.choice(rng.integers(0, 30, size=d), size=inner)
                  for _ in range(n)]).astype(np.int64)
    b = np.stack([rng.choice(rng.integers(0, 30, size=d), size=inner)
                  for _ in range(n)]).T.astype(np.int64)
    if inf_p:
        a[rng.random(a.shape) < inf_p] = POS_INF
        b[rng.random(b.shape) < inf_p] = POS_INF
    return WeightMatrix(a), WeightMatrix(b)


def test_row_weight_d1_constant_rows():
    rng = np.random.default_rng(7)
    a, b = row_weight_inputs(rng, n=8, d=1)
    prom = red.make_scaling_promise(a, b)
    got = red.row_weight_minplus_via_nw_apsp(a, b, prom, 2, nw_det_solver,
                                             np.random.default_rng(0))
    assert got == mp.min_plus_naive(a, b)


@pytest.mark.parametrize("undirected", [False, True])
def test_row_weight_matches_naive(undirected):
    rng = np.random.default_rng(8)
    for t in range(4):
        a, b = row_weight_inputs(rng, inf_p=0.15 if t % 2 else 0.0)
        prom = red.make_scaling_promise(a, b)
        got = red.row_weight_minplus_via_nw_apsp(
            a, b, prom, 2, nw_det_solver, np.random.default_rng(t),
            undirected=undirected)
        assert got == mp.min_plus_naive(a, b)


def test_row_weight_promise_violation():
    a, b = WeightMatrix([[3]]), WeightMatrix([[5]])
    with pytest.raises(red.PromiseViolation):
        red.row_weight_minplus_via_nw_apsp(a, b, WeightMatrix([[20]]), 2,
                                           nw_det_solver,
                                           np.random.default_rng(0))


def test_row_weight_unbalanced_distinct_counts_brute_path():
    # one side has many more distinct values, triggering the brute case
    rng = np.random.default_rng(9)
    n, inner = 12, 6
    a = np.tile(rng.integers(0, 5, size=(n, 1)), (1, inner)).astype(np.int64)
    b = rng.integers(0, 40, size=(inner, n)).astype(np.int64)
    a, b = WeightMatrix(a), WeightMatrix(b)
    prom = red.make_scaling_promise(a, b)
    got = red.row_weight_minplus_via_nw_apsp(a, b, prom, 4, nw_det_solver,
                                             np.random.default_rng(0))
    assert got == mp.min_plus_naive(a, b)


def _reference_remainder_flags(cp, s_sets, t_sets, xdec, ydec, threshold):
    """The per-(i, j, c) flag loop: (i, j) is flagged when a window value c of
    cp[i, j] has `threshold` representations c = a + b through a remainder
    value (a in X_i's remainder and b in T_j, or b in Y_j's and a in S_i)."""
    n = cp.shape[0]

    def window(i, j):
        base = cp[i, j]
        if base == POS_INF:
            return ()
        return (int(base), int(base) + 1, int(base) + 2)

    def rem_pairs(i, j, c):
        t_j, s_i = t_sets[j], s_sets[i]
        return (sum(1 for av in xdec.remainders[i] if (c - av) in t_j)
                + sum(1 for bv in ydec.remainders[j] if (c - bv) in s_i))

    flagged = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            for c in window(i, j):
                if rem_pairs(i, j, c) >= threshold:
                    flagged[i, j] = True
                    break
    return flagged


def test_remainder_flags_match_pair_loop(monkeypatch):
    # the flags are read back from the targets of the first remainder
    # listing after each decomposition: flagged pairs are BOT there
    seen = []
    decompose, listing = red.popular_sum_decomposition, red._list_remainder_triangles

    def spy_decompose(s_sets, t_sets, d, delta, rng):
        xdec, ydec = decompose(s_sets, t_sets, d, delta, rng)
        seen.append({"sets": (s_sets, t_sets), "dec": (xdec, ydec),
                     "delta": delta, "targets": []})
        return xdec, ydec

    def spy_listing(rowpos, colpos, c, xdec, ydec):
        seen[-1]["targets"].append(c)
        return listing(rowpos, colpos, c, xdec, ydec)

    monkeypatch.setattr(red, "popular_sum_decomposition", spy_decompose)
    monkeypatch.setattr(red, "_list_remainder_triangles", spy_listing)
    rng = np.random.default_rng(21)
    n, d, inner = 32, 4, 8  # the shape of the benchmark's row-weight products
    flag_counts = []
    for t in range(3):
        a = WeightMatrix(np.stack([rng.choice(rng.integers(0, 30, size=d),
                                              size=inner) for _ in range(n)]))
        b = WeightMatrix(np.stack([rng.choice(rng.integers(0, 30, size=d),
                                              size=inner) for _ in range(n)]).T)
        prom = red.make_scaling_promise(a, b)
        seen.clear()
        got = red.row_weight_minplus_via_nw_apsp(
            a, b, prom, 2, ap.apsp_oracle, np.random.default_rng(t))
        assert got == mp.min_plus_naive(a, b)
        assert seen
        cp = prom.data
        for call in seen:
            s_sets, t_sets = call["sets"]
            threshold = max(1.0, 2.0 * max(len(s) for s in t_sets) / call["delta"])
            want = _reference_remainder_flags(cp, s_sets, t_sets, *call["dec"],
                                              threshold)
            got_flags = (cp != POS_INF) & (call["targets"][0] == BOT)
            assert np.array_equal(got_flags, want)
            flag_counts.append(int(want.sum()))
    assert max(flag_counts) > 0 and min(flag_counts) < n * n


def test_scaling_frames_window_per_level():
    rng = np.random.default_rng(10)
    a = random_weight_matrix(7, 6, rng, low=0, high=60)
    b = random_weight_matrix(6, 8, rng, low=0, high=60)
    frames = []
    got = red.minplus_from_aete(a, b, None, aete_brute, frames=frames)
    assert got == mp.min_plus_naive(a, b)
    cur_a, cur_b = a.data, b.data
    for frame in sorted(frames, key=lambda f: f.level):
        c_here = mp.min_plus_naive(WeightMatrix(cur_a),
                                   WeightMatrix(cur_b)).data
        fin = c_here != POS_INF
        assert np.all(2 * frame.c_prime[fin] <= c_here[fin])
        assert np.all(2 * frame.c_prime[fin] >= c_here[fin] - 4)
        cur_a, cur_b = frame.a_half, frame.b_half
