import numpy as np
import pytest

from fewweights.additive import PartLevel
from fewweights.core import (
    AuditError,
    BOT,
    EdgeWeightedGraph,
    POS_INF,
    WeightMatrix,
    node_weighted_graph,
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


def _reference_bounded_gadget(a, b, eps, undirected):
    """The per-entry loop builder: path edges k-major, then A edges i-major,
    then B edges k-major."""
    n, s = a.shape
    cap = int(np.ceil(n ** (0.5 + eps)))
    q = int(np.ceil(n ** (0.5 - eps)))
    big_m = 2 * cap if undirected else 0
    plen = 2 * q - 1
    mid = q - 1
    edges = []
    for k in range(s):
        for pos in range(plen - 1):
            base = 2 * n + k * plen
            edges.append((base + pos, base + pos + 1, 1))
    for i in range(n):
        for k in range(s):
            v = int(a[i, k])
            if v != POS_INF:
                edges.append((i, 2 * n + k * plen + mid - v % q,
                              q * (v // q) + big_m))
    for k in range(s):
        for j in range(n):
            v = int(b[k, j])
            if v != POS_INF:
                edges.append((2 * n + k * plen + mid + v % q, n + j,
                              q * (v // q) + big_m))
    if undirected:
        edges = edges + [(v, u, w) for (u, v, w) in edges]
    graph = EdgeWeightedGraph(2 * n + s * plen, edges)
    return red.GadgetGraph(graph, np.arange(n), np.arange(n, 2 * n),
                           offset=2 * big_m if undirected else 0,
                           meta={"q": q, "M": big_m, "eps": eps,
                                 "weight_budget": n ** (2 * eps) + 1},
                           finite_cap=2 * (cap - 1) if undirected else None)


def _assert_same_gadget(got, want):
    assert got.graph.n == want.graph.n
    e_got, e_want = got.graph.edge_array, want.graph.edge_array
    assert e_got.dtype == e_want.dtype and e_got.shape == e_want.shape
    assert e_got.tobytes() == e_want.tobytes()
    assert (got.offset, got.finite_cap, got.meta) == (
        want.offset, want.finite_cap, want.meta)
    assert np.array_equal(got.sources, want.sources)
    assert np.array_equal(got.sinks, want.sinks)


def _holes(rng, m, mode):
    """m with +inf holes: none, random, a whole row, a whole column, all."""
    m = m.copy()
    if mode == "random":
        m[rng.random(m.shape) < 0.3] = POS_INF
    elif mode == "row" and m.shape[0]:
        m[rng.integers(m.shape[0])] = POS_INF
    elif mode == "col" and m.shape[1]:
        m[:, rng.integers(m.shape[1])] = POS_INF
    elif mode == "all":
        m[:] = POS_INF
    return m


HOLE_MODES = ("none", "random", "row", "col", "all")


@pytest.mark.parametrize("undirected", [False, True])
def test_bounded_gadget_matches_loop_builder(undirected):
    rng = np.random.default_rng(11)
    for t in range(120):
        n = 1 if t < 10 else int(rng.integers(1, 20))
        s = 1 if t % 7 == 0 else int(rng.integers(0, 8))
        eps = float(rng.choice([0.1, 0.25, 0.4]))
        cap = int(np.ceil(n ** (0.5 + eps)))
        a = _holes(rng, rng.integers(0, cap, size=(n, s)), HOLE_MODES[t % 5])
        b = _holes(rng, rng.integers(0, cap, size=(s, n)),
                   HOLE_MODES[(t // 5) % 5])
        _assert_same_gadget(
            red.gen_bounded_minplus_gadget(a, b, eps, undirected=undirected),
            _reference_bounded_gadget(a, b, eps, undirected))


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


def _reference_column_gadget(a, b, undirected):
    """The per-entry loop builder: K1 nodes per (column, value of A), then K2
    nodes per (row, value of B), each in (k, value) order; M >= 1."""
    n, dcols = a.shape
    fa, fb = a != POS_INF, b != POS_INF
    big_m = max(1, int(a[fa].max(initial=0)), int(b[fb].max(initial=0)))
    bonus = 4 * big_m if undirected else 0
    col_vals = [sorted(set(a[fa[:, k], k].tolist())) for k in range(dcols)]
    row_vals = [sorted(set(b[k, fb[k, :]].tolist())) for k in range(dcols)]
    node_weight = [0] * (2 * n)
    k1_id, k2_id = {}, {}
    for ids, vals in ((k1_id, col_vals), (k2_id, row_vals)):
        for k in range(dcols):
            for z in vals[k]:
                ids[(k, z)] = len(node_weight)
                node_weight.append(z)
    edges = [(k1_id[(k, z)], k2_id[(k, y)]) for k in range(dcols)
             for z in col_vals[k] for y in row_vals[k]]
    edges += [(i, k1_id[(k, int(a[i, k]))]) for i in range(n)
              for k in range(dcols) if fa[i, k]]
    edges += [(k2_id[(k, int(b[k, j]))], n + j) for k in range(dcols)
              for j in range(n) if fb[k, j]]
    if undirected:
        edges = edges + [(v, u) for (u, v) in edges]
    graph = node_weighted_graph(len(node_weight), edges,
                                np.array(node_weight, dtype=np.int64) + bonus)
    return red.GadgetGraph(graph, np.arange(n), np.arange(n, 2 * n),
                           offset=3 * bonus,
                           meta={"M": big_m,
                                 "layers": (n, len(k1_id), len(k2_id), n)},
                           finite_cap=2 * big_m if undirected else None)


@pytest.mark.parametrize("undirected", [False, True])
def test_column_gadget_matches_loop_builder(undirected):
    rng = np.random.default_rng(12)
    for t in range(150):
        n = 1 if t < 10 else int(rng.integers(1, 10))
        dcols = 1 if t % 7 == 0 else int(rng.integers(0, 6))
        high = int(rng.integers(1, 12))  # high 1: every finite entry is 0
        a = _holes(rng, rng.integers(0, high, size=(n, dcols)),
                   HOLE_MODES[t % 5])
        b = _holes(rng, rng.integers(0, high, size=(dcols, n)),
                   HOLE_MODES[(t // 5) % 5])
        _assert_same_gadget(
            red.gen_column_weight_gadget(a, b, undirected=undirected),
            _reference_column_gadget(a, b, undirected))


@pytest.mark.parametrize("undirected", [False, True])
def test_column_gadget_all_zero_entries(undirected):
    # with every entry 0 the undirected bonus 4M must stay positive, or a
    # path weaving through the layers decodes to 0 for an unreachable pair
    a = WeightMatrix([[0, 0], [POS_INF, 0]])
    b = WeightMatrix([[0, POS_INF], [POS_INF, 0]])
    gg = red.gen_column_weight_gadget(a, b, undirected=undirected)
    got = gg.decode(ap.apsp_oracle(gg.graph))
    assert got == mp.min_plus_naive(a, b)
    assert got.data[1, 0] == POS_INF


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


def _masked_part_min(ax, by, xparts, yparts):
    """Brute force: min over level pairs and k of ax[i, k] + by[k, j] with
    ax[i, k] - sigma[i] in core_x and by[k, j] - tau[j] in core_y."""
    n, inner = ax.shape
    out = np.full((n, by.shape[1]), POS_INF, dtype=np.int64)
    for xp in xparts:
        for yp in yparts:
            for i in range(n):
                for j in range(by.shape[1]):
                    for k in range(inner):
                        a, b = int(ax[i, k]), int(by[k, j])
                        if (a != POS_INF and b != POS_INF
                                and a - xp.shift[i] in xp.core
                                and b - yp.shift[j] in yp.core):
                            out[i, j] = min(out[i, j], a + b)
    return out


@pytest.mark.parametrize("undirected", [False, True])
def test_part_pair_products_match_masked_brute_force(undirected):
    rng = np.random.default_rng(13)
    n, inner = 7, 5
    for _ in range(6):
        ax = rng.integers(0, 12, size=(n, inner))
        by = rng.integers(0, 12, size=(inner, n))
        ax[rng.random(ax.shape) < 0.2] = POS_INF
        by[rng.random(by.shape) < 0.2] = POS_INF

        def level(core, lo, hi):  # per-index shifts in [lo, hi)
            return PartLevel(np.array(sorted(core), dtype=np.int64),
                             rng.integers(lo, hi, size=n),
                             np.zeros((n, 1), dtype=bool))

        xparts = [level({-3, 0, 2, 5}, 0, 7), level(set(), 0, 3),
                  level({1000}, 0, 3)]  # the last matches no A entry
        yparts = [level({-6, -1, 4}, 0, 7), level({0, 1, 2, 3}, -2, 3)]
        calls = []

        def solver(g):
            calls.append(g.n)
            return ap.apsp_oracle(g)

        got = red._part_pair_products(ax, by, xparts, yparts, solver,
                                      undirected)
        assert np.array_equal(got, _masked_part_min(ax, by, xparts, yparts))
        # only the first x level holds A entries: one call per y level, none
        # for the empty core or the core {1000}
        assert (got != POS_INF).any()
        assert len(calls) == 2


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


def family_sets(vals, mask):
    """The sets of a padded family under a slot mask."""
    return [set(v[m].tolist()) for v, m in zip(vals, mask)]


def _reference_remainder_flags(cp, s_sets, t_sets, x_rest, y_rest, threshold):
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
        return (sum(1 for av in x_rest[i] if (c - av) in t_j)
                + sum(1 for bv in y_rest[j] if (c - bv) in s_i))

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
    decompose, listing = red.popular_sum_decomposition, red._list_triangles

    def spy_decompose(s_family, t_family, d, delta):
        xdec, ydec = decompose(s_family, t_family, d, delta)
        seen.append({"sets": (family_sets(*s_family), family_sets(*t_family)),
                     "dec": (family_sets(xdec.vals, xdec.rest),
                             family_sets(ydec.vals, ydec.rest)),
                     "delta": delta, "targets": []})
        return xdec, ydec

    def spy_listing(a, b, c, width=1):
        # a class that skips the decomposition lists before any is seen;
        # after one, such listings follow the first remainder listing
        if seen:
            seen[-1]["targets"].append(c)
        return listing(a, b, c, width=width)

    monkeypatch.setattr(red, "popular_sum_decomposition", spy_decompose)
    monkeypatch.setattr(red, "_list_triangles", spy_listing)
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
