import copy
import math

import numpy as np
import pytest

from fewweights.core import (
    AuditError,
    EdgeWeightedGraph,
    NEG_INF,
    POS_INF,
    WeightError,
    build_one_hop_matrix,
    node_weighted_graph,
    one_hop_offdiag,
)
from fewweights import apsp as ap
from fewweights import minplus as mp
from fewweights import reductions as red
from fewweights.generators import (
    random_dweights_graph,
    random_node_weighted_graph,
)


def floyd_warshall(one):
    """Independent cubic oracle over plain python ints (nonnegative case)."""
    n = one.shape[0]
    inf = int(POS_INF)
    d = [[int(one[i, j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            row_k = d[k]
            row_i = d[i]
            for j in range(n):
                if row_k[j] != inf and dik + row_k[j] < row_i[j]:
                    row_i[j] = dik + row_k[j]
    return np.array(d, dtype=np.int64)


def bellman_ford_reference(g):
    """Independent per-source Bellman-Ford with -inf propagation."""
    n = g.n
    triples = list(g.edges())
    out = np.empty((n, n), dtype=np.int64)
    for s in range(n):
        dist = {v: None for v in range(n)}
        dist[s] = 0
        for _ in range(n):
            for u, v, w in triples:
                if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
                    dist[v] = dist[u] + w
        bad = set()
        for u, v, w in triples:
            if dist[u] is not None and dist[v] is not None and dist[u] + w < dist[v]:
                bad.add(v)
        frontier = list(bad)
        adj = [[] for _ in range(n)]
        for u, v, _ in triples:
            adj[u].append(v)
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in bad:
                    bad.add(y)
                    frontier.append(y)
        for v in range(n):
            if v in bad:
                out[s, v] = NEG_INF
            elif dist[v] is None:
                out[s, v] = POS_INF
            else:
                out[s, v] = dist[v]
    return out


def graph_zoo(rng, count):
    """Node- and edge-weighted graphs with negative weights, planted negative
    cycles, self-loops (negative ones too), duplicate edges and n in {0, 1}."""
    graphs = [node_weighted_graph(0, [], []), EdgeWeightedGraph(0, []),
              node_weighted_graph(1, [], [-4]), node_weighted_graph(1, [(0, 0)], [-1]),
              EdgeWeightedGraph(1, [(0, 0, 3)]), EdgeWeightedGraph(1, [(0, 0, -2)])]
    for t in range(count):
        n = int(rng.integers(2, 14))
        loops = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
        if t % 2 == 0:
            # the generator draws the node weights first and changes only
            # those of planted-cycle nodes, which all have in-edges
            w = copy.deepcopy(rng).integers(-6, 10, size=n)
            g = random_node_weighted_graph(n, rng, low=-6, high=10,
                                           negative_cycle=(t % 4 == 0))
            w[g.edge_array[:, 1]] = g.edge_array[:, 2]
            edges = g.edge_array[:, :2].tolist()
            edges += [(int(v), int(v)) for v in loops] + edges[:2]
            graphs.append(node_weighted_graph(n, edges, w))
        else:
            g = random_dweights_graph(n, 3, rng, low=-4, high=12,
                                      negative_cycle=(t % 4 == 1))
            edges = list(g.edges())
            edges += [(int(v), int(v), int(rng.integers(-3, 5))) for v in loops]
            edges += [(u, v, int(rng.integers(-2, 12))) for u, v, _ in edges[:3]]
            graphs.append(EdgeWeightedGraph(n, edges))
    return graphs


def test_oracle_single_node():
    g = node_weighted_graph(1, [], [5])
    assert ap.apsp_oracle(g).data.tolist() == [[0]]


def test_oracle_negative_two_cycle():
    g = node_weighted_graph(2, [(0, 1), (1, 0)], [-2, 1])
    d = ap.apsp_oracle(g).data
    assert np.all(d == NEG_INF)


def test_oracle_matches_floyd_warshall():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = random_node_weighted_graph(int(rng.integers(5, 30)), rng)
        want = floyd_warshall(build_one_hop_matrix(g).data)
        assert np.array_equal(ap.apsp_oracle(g).data, want)
    g50 = random_node_weighted_graph(50, rng)
    assert np.array_equal(ap.apsp_oracle(g50).data,
                          floyd_warshall(build_one_hop_matrix(g50).data))


def test_oracle_matches_bellman_reference_with_negatives():
    rng = np.random.default_rng(1)
    for t in range(8):
        g = random_node_weighted_graph(int(rng.integers(4, 14)), rng, low=-6,
                                       high=10,
                                       negative_cycle=(t % 2 == 0))
        assert np.array_equal(ap.apsp_oracle(g).data, bellman_ford_reference(g))
    for g in graph_zoo(np.random.default_rng(11), 24):
        assert np.array_equal(ap.apsp_oracle(g).data, bellman_ford_reference(g))


def test_oracle_matches_scipy_johnson():
    """scipy's float64 Johnson as a second, independent oracle: equal
    distances without negative cycles, NegativeCycleError exactly when the
    oracle has a -inf entry."""
    pytest.importorskip("scipy")
    from scipy.sparse import csgraph
    for g in graph_zoo(np.random.default_rng(12), 100):
        want = ap.apsp_oracle(g).data
        off = one_hop_offdiag(g)
        # null_value=inf keeps zero-weight edges as edges
        sparse = csgraph.csgraph_from_dense(
            np.where(off == POS_INF, np.inf, off.astype(np.float64)),
            null_value=np.inf)
        if (want == NEG_INF).any():
            with pytest.raises(csgraph.NegativeCycleError):
                csgraph.johnson(sparse)
        else:
            got = csgraph.johnson(sparse)
            assert np.array_equal(
                np.where(want == POS_INF, np.inf, want.astype(np.float64)), got)


@pytest.mark.parametrize("weight", [2 ** 59, 2 ** 56], ids=["2^59", "2^56"])
def test_oracle_raises_instead_of_wrapping(weight):
    # the path 0 -> 39 weighs 39 * weight, beyond the kernel operand bound:
    # an unchecked int64 sum gives +inf at 2^59 and a value past GUARD at 2^56
    g = node_weighted_graph(40, [(i, i + 1) for i in range(39)], [weight] * 40)
    with pytest.raises(WeightError):
        ap.apsp_oracle(g)
    with pytest.raises(WeightError):
        ap.solve_apsp(g, "nw-det")


# ----------------------------------------------------------------------------
# eliminate_negative_cycles
# ----------------------------------------------------------------------------

def test_eliminate_identity_on_nonnegative():
    rng = np.random.default_rng(2)
    g = random_node_weighted_graph(10, rng)
    g2, remap = ap.eliminate_negative_cycles(g)
    assert g2 is g and not remap.bad_nodes.any()
    want = ap.apsp_oracle(g)
    assert remap.decode(want) == want


def test_eliminate_tail_to_negative_cycle():
    # 0 -> 1 <-> 2 with a negative 2-cycle; tail distance decodes to -inf
    g = node_weighted_graph(3, [(0, 1), (1, 2), (2, 1)], [0, -3, 1])
    g2, remap = ap.eliminate_negative_cycles(g)
    decoded = remap.decode(ap.apsp_oracle(g2))
    want = bellman_ford_reference(g)
    assert np.array_equal(decoded.data, want)
    assert decoded.data[0, 1] == NEG_INF


def test_eliminate_all_negative_cycle_graph():
    n = 4
    edges = [(i, (i + 1) % n) for i in range(n)]
    g = node_weighted_graph(n, edges, [-1] * n)
    g2, remap = ap.eliminate_negative_cycles(g)
    assert g2.n == 0
    assert remap.decode(np.zeros((0, 0), dtype=np.int64)) == ap.apsp_oracle(g)


def test_eliminate_node_weighted_keeps_one_slot_per_column():
    # a planted negative 2-cycle {1, 2} entered from 0 (into w(1) = -3) and
    # from 3 (into w(2) = 1): deleting it keeps every other weight, so each
    # one-hop column of the kept graph still holds one weight, and every hop
    # step of nw-det is one d-weights product with one slot per nonempty
    # column
    edges = [(0, 1), (3, 2), (0, 3), (1, 2), (2, 1), (2, 4), (4, 5), (5, 4),
             (5, 6), (6, 7), (1, 7)]
    g = node_weighted_graph(8, edges, [2, -3, 1, 4, 0, 5, 3, 2])
    g2, remap = ap.eliminate_negative_cycles(g)
    assert g2.n == 6 and remap.bad_nodes.tolist() == [0, 1, 1, 0, 0, 0, 0, 0]
    off = one_hop_offdiag(g2)
    for col in off.T:
        assert np.unique(col[col != POS_INF]).size <= 1
    for left in (False, True):
        operand = mp.HopOperator(g2).kernel(left).operand
        assert operand.slot_val.size == operand.starts.size
    mp.reset_counters()
    got = ap.solve_apsp(g, "nw-det", h=4)
    assert mp.counters["d_weights_min_plus"] == mp.counters["hop_iterations"] > 0
    assert mp.counters["boolean_min_plus"] == 0
    assert np.array_equal(got.data, ap.apsp_oracle(g).data)
    assert got.data[0, 7] == NEG_INF and got.data[4, 6] == 8


def test_eliminate_edge_weighted_decode():
    rng = np.random.default_rng(3)
    for t in range(6):
        g = random_dweights_graph(int(rng.integers(4, 14)), 3, rng, low=-5,
                                  high=12, negative_cycle=True)
        g2, remap = ap.eliminate_negative_cycles(g)
        decoded = remap.decode(ap.apsp_oracle(g2))
        assert np.array_equal(decoded.data, bellman_ford_reference(g))


def test_eliminate_keeps_edges_between_kept_nodes():
    # deletion invents no weight: the kept graph's edges are exactly the
    # input's edges between kept nodes, relabelled in order, so max|w| does
    # not grow; the deleted nodes are those the oracle gives a -inf diagonal
    rng = np.random.default_rng(4)
    deleted = 0
    for t in range(20):
        n = int(rng.integers(2, 16))
        g = random_dweights_graph(n, 3, rng, density=0.2, low=-4, high=9,
                                  negative_cycle=t % 4 != 3)
        g2, remap = ap.eliminate_negative_cycles(g)
        bad = remap.bad_nodes
        assert bad.tolist() == (np.diagonal(ap.apsp_oracle(g).data) == NEG_INF).tolist()
        kept = np.flatnonzero(~bad)
        pos = {int(v): i for i, v in enumerate(kept)}
        want = sorted((pos[u], pos[v], w) for u, v, w in g.edges()
                      if u in pos and v in pos)
        assert g2.n == kept.size and sorted(g2.edges()) == want
        if g2.m:
            assert np.abs(g2.edge_array[:, 2]).max() <= np.abs(g.edge_array[:, 2]).max()
        deleted += int(bad.sum())
    assert deleted > 0


def negative_chain_graph():
    """Five negative 2-cycles (edges -2^54 and 2^54 - 1) chained by edges of
    weight 2^54, entered from nodes 10..12, which no cycle reaches."""
    big = 2 ** 54
    edges = [(10, 11, big), (11, 12, 3 - big), (12, 11, big), (10, 0, big),
             (12, 4, big)]
    for i in range(5):
        edges += [(2 * i, 2 * i + 1, -big), (2 * i + 1, 2 * i, big - 1)]
        if i < 4:
            edges.append((2 * i + 1, 2 * i + 2, big))
    return EdgeWeightedGraph(13, edges)


@pytest.mark.parametrize("algo", ["nw-det", "nw-rand", "dweights"])
def test_negative_cycle_chain_stays_in_operand_range(algo):
    # the kept nodes 10..12 solve with their own weights: every value a
    # pivot solver forms is a walk weight of the kept graph, within 2 * 2^54,
    # far inside the kernel operand bound
    g = negative_chain_graph()
    want = ap.apsp_oracle(g)
    assert want.data[10, 12] == 3 and want.data[10, 9] == NEG_INF
    assert want.data[0, 10] == POS_INF
    got = ap.solve_apsp(g, algo, h=4, rng=np.random.default_rng(0))
    assert got == want


def _scalar_component_has_negative_cycle(nodes, edge_triples):
    """Bellman-Ford over edge tuples, one edge at a time, updating in place."""
    if not edge_triples:
        return False
    pos = {v: i for i, v in enumerate(nodes)}
    k = len(nodes)
    dist = [0] * k
    for rounds in range(k + 1):
        changed = False
        for u, v, w in edge_triples:
            nd = dist[pos[u]] + w
            if nd < dist[pos[v]]:
                dist[pos[v]] = nd
                changed = True
        if not changed:
            return False
    return True


def _random_scc(rng, k, low, high):
    """Sorted, non-contiguous node ids joined by a Hamiltonian cycle (so the
    component is strongly connected) plus random chords."""
    nodes = np.sort(rng.choice(4 * k, size=k, replace=False))
    order = rng.permutation(nodes)
    edges = [(int(order[i]), int(order[(i + 1) % k]), int(rng.integers(low, high)))
             for i in range(k)]
    for _ in range(int(rng.integers(0, 2 * k))):
        u, v = rng.choice(nodes, size=2)
        edges.append((int(u), int(v), int(rng.integers(low, high))))
    return nodes, edges


def negative_cycle_flags(n, edges):
    """The solver's negative-cycle flags per node of an n-node edge list."""
    e = np.array(edges, dtype=np.int64).reshape(-1, 3)
    return ap._negative_cycle_nodes(e, ap._reachability(n, e))


def test_component_labels_match_scipy_strong_components():
    pytest.importorskip("scipy")
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components, shortest_path
    assert ap._reachability(0, np.zeros((0, 3), dtype=np.int64)).shape == (0, 0)
    rng = np.random.default_rng(30)
    for t in range(60):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 3 * n))
        # isolated nodes are those no edge touches, self-loops come from
        # equal endpoints and duplicate edges from repeated draws
        ends = rng.integers(0, max(1, n - 3), size=(m, 2))
        ends = np.concatenate([ends, ends[:m // 4], np.zeros((t % 2, 2), int)])
        e = np.column_stack([ends, rng.integers(-3, 4, size=len(ends))])
        reach = ap._reachability(n, e)
        adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
        _, comp = connected_components(adj, directed=True, connection="strong")
        assert np.array_equal(reach, np.isfinite(shortest_path(adj.tocsr(), unweighted=True)))
        # two nodes share a component exactly when each reaches the other
        assert np.array_equal(reach & reach.T, comp[:, None] == comp[None, :])


def test_negative_cycle_test_matches_scalar_bellman_ford():
    # disjoint unions of strongly connected components, joined by edges
    # from earlier to later components that merge none of them
    rng = np.random.default_rng(31)
    found = {True: 0, False: 0}
    for _ in range(60):
        comps, edges, n = [], [], 0
        for _ in range(int(rng.integers(1, 7))):
            k = int(rng.integers(1, 10))
            nodes, comp_edges = _random_scc(rng, k, int(rng.integers(-6, 1)), 7)
            comps.append((nodes + n, [(u + n, v + n, w) for u, v, w in comp_edges]))
            edges += comps[-1][1]
            n += 4 * k
        for _ in range(len(comps)):
            lo, hi = sorted(rng.choice(len(comps), size=2))
            if lo < hi:
                edges.append((int(rng.choice(comps[lo][0])),
                              int(rng.choice(comps[hi][0])), -50))
        got = negative_cycle_flags(n, edges)
        in_comp = np.zeros(n, dtype=bool)
        for nodes, comp_edges in comps:
            want = _scalar_component_has_negative_cycle(nodes, comp_edges)
            assert (got[nodes] == want).all()
            in_comp[nodes] = True
            found[want] += 1
        assert not got[~in_comp].any()
    assert min(found.values()) > 20


def test_negative_cycle_test_zero_weight_cycles():
    nodes = np.array([2, 5, 9])
    zero = [(2, 5, 0), (5, 9, 0), (9, 2, 0)]
    balanced = [(2, 5, -4), (5, 9, 1), (9, 2, 3)]  # sums to 0
    below = [(2, 5, -4), (5, 9, 1), (9, 2, 2)]  # sums to -1
    for edges, want in ((zero, False), (balanced, False), (below, True),
                        (balanced + [(5, 2, 4)], False),
                        (balanced + [(9, 5, -2)], True), ([], False)):
        got = negative_cycle_flags(10, edges)
        assert (got[nodes] == want).all()
        assert got.sum() == 3 * want
        assert _scalar_component_has_negative_cycle(nodes, edges) == want
    # a self-loop: zero weight is no negative cycle, a negative one is
    assert not negative_cycle_flags(6, [(4, 4, 0)]).any()
    assert negative_cycle_flags(6, [(4, 4, -1)]).tolist() == [
        False, False, False, False, True, False]


# ----------------------------------------------------------------------------
# pivots and hitting sets
# ----------------------------------------------------------------------------

def test_sample_pivots_trivial_levels():
    rng = np.random.default_rng(4)
    piv = ap.sample_pivots(10, 1, rng)
    assert piv.depth == 0 and piv.levels[0].size == 10
    piv = ap.sample_pivots(10, 8, rng, constant=100.0)
    for lvl, rate in zip(piv.levels, piv.rates):
        assert rate == 1.0 and lvl.size == 10


def test_sample_pivots_binomial_statistics():
    n, h, constant = 1000, 128, 1.0
    big_l = math.ceil(math.log2(h))
    rate = min(constant * math.log2(n) / 2 ** big_l, 1.0)
    assert rate < 1.0
    sizes = []
    for seed in range(50):
        piv = ap.sample_pivots(n, h, np.random.default_rng(seed), constant)
        assert piv.rates[big_l] == rate
        sizes.append(piv.levels[big_l].size)
    mean = n * rate
    sigma = math.sqrt(n * rate * (1 - rate))
    assert abs(np.mean(sizes) - mean) <= 4 * sigma


def padded(paths, extra=0):
    """Node lists as the -1-padded rows greedy_hitting_set reads, with
    `extra` all -1 columns past the longest path."""
    width = max((len(p) for p in paths), default=0) + extra
    out = np.full((len(paths), width), -1, dtype=np.int64)
    for r, p in enumerate(paths):
        out[r, :len(p)] = p
    return out


def test_hitting_set_single_path():
    h = ap.greedy_hitting_set(padded([[3, 5, 7]]), 10)
    assert h.size == 1 and h[0] in (3, 5, 7)


def test_hitting_set_disjoint_singletons():
    paths = [[i] for i in range(8)]
    assert ap.greedy_hitting_set(padded(paths), 8).tolist() == list(range(8))


def test_hitting_set_random_paths_bound():
    rng = np.random.default_rng(5)
    n, plen, count = 100, 8, 200
    paths = [rng.choice(n, size=plen, replace=False).tolist()
             for _ in range(count)]
    h = ap.greedy_hitting_set(padded(paths), n)
    hs = set(h.tolist())
    assert all(hs & set(p) for p in paths)
    assert h.size <= (n / plen) * math.log(count) + 1


def test_hitting_set_rejects_empty_path():
    with pytest.raises(ValueError):
        ap.greedy_hitting_set(padded([[]]), 4)
    with pytest.raises(ValueError):
        ap.greedy_hitting_set(padded([[1, 2], []]), 4)


def greedy_hitting_set_loop(paths, n):
    """The per-path set loop that greedy_hitting_set replaced, as reference."""
    psets = [set(int(x) for x in p) for p in paths]
    by_vertex = [[] for _ in range(n)]
    counts = np.zeros(n, dtype=np.int64)
    for pid, s in enumerate(psets):
        for v in s:
            by_vertex[v].append(pid)
            counts[v] += 1
    alive = np.ones(len(psets), dtype=bool)
    remaining = len(psets)
    chosen = []
    while remaining > 0:
        v = int(np.argmax(counts))
        chosen.append(v)
        for pid in by_vertex[v]:
            if alive[pid]:
                alive[pid] = False
                remaining -= 1
                for u in psets[pid]:
                    counts[u] -= 1
    return np.array(sorted(chosen), dtype=np.int64)


def test_hitting_set_matches_loop_reference():
    rng = np.random.default_rng(13)
    assert ap.greedy_hitting_set(padded([]), 5).tolist() == []
    for _ in range(300):
        n = int(rng.integers(1, 25))
        # repeated vertices within a path and many ties
        paths = [rng.integers(0, n, size=int(rng.integers(1, 8))).tolist()
                 for _ in range(int(rng.integers(0, 40)))]
        got = ap.greedy_hitting_set(padded(paths), n)
        assert got.dtype == np.int64
        assert np.array_equal(got, greedy_hitting_set_loop(paths, n))


def test_hitting_set_padded_array_matches_lists():
    # the random paths of test_hitting_set_matches_loop_reference, padded
    # with -1 up to the longest path plus 0-2 columns, against the loop over
    # the unpadded node lists
    rng = np.random.default_rng(13)
    assert ap.greedy_hitting_set(np.full((0, 3), -1), 5).tolist() == []
    for case in range(300):
        n = int(rng.integers(1, 25))
        paths = [rng.integers(0, n, size=int(rng.integers(1, 8))).tolist()
                 for _ in range(int(rng.integers(0, 40)))]
        got = ap.greedy_hitting_set(padded(paths, case % 3), n)
        assert got.dtype == np.int64
        assert np.array_equal(got, greedy_hitting_set_loop(paths, n))
    with pytest.raises(ValueError, match="paths must be nonempty"):
        ap.greedy_hitting_set(np.array([[1, 2, -1], [-1, -1, -1]]), 4)
    with pytest.raises(ValueError, match="paths must be nonempty"):
        ap.greedy_hitting_set(padded([[1, 2], []]), 4)


# ----------------------------------------------------------------------------
# solvers vs oracle
# ----------------------------------------------------------------------------

def test_simple_path_prefix_sums():
    g = node_weighted_graph(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3, 4])
    d = ap.solve_apsp(g, "nw-det", h=2).data
    assert d[0].tolist() == [0, 2, 5, 9]
    assert d[1, 3] == 7 and d[3, 0] == POS_INF


def test_complete_graph_unit_weights():
    n = 6
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    g = node_weighted_graph(n, edges, [1] * n)
    d = ap.solve_apsp(g, "nw-det", h=2).data
    assert np.all(d[~np.eye(n, dtype=bool)] == 1)
    assert np.all(np.diag(d) == 0)


def test_h_equals_n_single_level():
    rng = np.random.default_rng(6)
    g = random_node_weighted_graph(12, rng)
    want = ap.apsp_oracle(g)
    got = ap.solve_apsp(g, "nw-rand", h=12, rng=np.random.default_rng(0))
    assert got == want


@pytest.mark.parametrize("h", [2, 4, 8])
def test_solvers_match_oracle_nonneg(h):
    rng = np.random.default_rng(7 + h)
    for t in range(10):
        g = random_node_weighted_graph(int(rng.integers(5, 30)), rng)
        want = ap.apsp_oracle(g)
        assert ap.solve_apsp(g, "nw-det", h=h) == want
        assert ap.solve_apsp(g, "nw-rand", h=h, rng=np.random.default_rng(t)) == want


@pytest.mark.parametrize("h", [2, 4])
def test_pipeline_with_negative_cycles(h):
    rng = np.random.default_rng(11 + h)
    for t in range(10):
        g = random_node_weighted_graph(int(rng.integers(4, 20)), rng, low=-6,
                                       high=10, negative_cycle=(t % 2 == 0))
        want = ap.apsp_oracle(g).data
        for algo in ("nw-det", "nw-rand"):
            got = ap.solve_apsp(g, algo, h=h, rng=np.random.default_rng(t))
            assert np.array_equal(got.data, want)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_dweights_matches_oracle(d):
    rng = np.random.default_rng(20 + d)
    for t in range(6):
        g = random_dweights_graph(int(rng.integers(5, 24)), d, rng,
                                  promise="out")
        want = ap.apsp_oracle(g).data
        got = ap.solve_apsp(g, "dweights", h=4, d=d, promise="out")
        assert np.array_equal(got.data, want)


def test_dweights_single_global_weight():
    rng = np.random.default_rng(30)
    n = 10
    edges = [(u, v, 7) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.3]
    g = EdgeWeightedGraph(n, edges)
    got = ap.solve_apsp(g, "dweights", h=4, d=1, promise="in").data
    hops = ap.apsp_oracle(EdgeWeightedGraph(n, [(u, v, 1) for u, v, _ in edges])).data
    want = np.where(hops == POS_INF, POS_INF, hops * 7)
    assert np.array_equal(got, want)


def test_dweights_in_promise_audit():
    g = EdgeWeightedGraph(3, [(0, 2, 1), (1, 2, 2)])
    with pytest.raises(AuditError):
        ap.solve_apsp(g, "dweights", h=2, d=1, promise="in")


def test_dweights_direct_in_promise():
    rng = np.random.default_rng(31)
    g = random_dweights_graph(14, 2, rng, promise="in")
    want = ap.apsp_oracle(g)
    assert ap.solve_apsp(g, "dweights", h=4, d=2, promise="in") == want


def test_deterministic_solvers_replay_identical():
    rng = np.random.default_rng(40)
    g = random_node_weighted_graph(20, rng, low=-4, high=12)
    a = ap.solve_apsp(g, "nw-det", h=4).data
    b = ap.solve_apsp(g, "nw-det", h=4).data
    assert np.array_equal(a, b)
    ge = random_dweights_graph(16, 3, rng)
    a = ap.solve_apsp(ge, "dweights", h=4, d=3).data
    b = ap.solve_apsp(ge, "dweights", h=4, d=3).data
    assert np.array_equal(a, b)


def test_randomized_seed_replay_identical():
    rng = np.random.default_rng(41)
    g = random_node_weighted_graph(30, rng)
    a = ap.solve_apsp(g, "nw-rand", h=8, rng=np.random.default_rng(5), constant=0.8)
    b = ap.solve_apsp(g, "nw-rand", h=8, rng=np.random.default_rng(5), constant=0.8)
    assert a == b


def test_randomized_low_constant_mostly_correct():
    # with an aggressive (tiny) sampling constant the hitting event can fail;
    # the failure rate must stay small
    rng = np.random.default_rng(42)
    fails = 0
    for seed in range(30):
        g = random_node_weighted_graph(30, rng)
        want = ap.apsp_oracle(g)
        got = ap.solve_apsp(g, "nw-rand", h=8, rng=np.random.default_rng(seed),
                            constant=0.5)
        fails += int(not (got == want))
    assert fails <= 6


def test_full_base_replay_runs_no_level_product(monkeypatch):
    # at h=4 and the default constant every sampling rate is 1: every level
    # is V, and the replay returns its squared base without a level product
    levels = []
    level_products = ap._level_products

    def spy(op, s_cur, *args):
        levels.append(s_cur.size)
        return level_products(op, s_cur, *args)

    monkeypatch.setattr(ap, "_level_products", spy)
    rng = np.random.default_rng(74)
    for t, low in enumerate((0, -3, 0, -3)):
        g = random_node_weighted_graph(20, rng, low=low, high=12)
        assert all(s.size == 20 for s in ap.sample_pivots(20, 4, rng).levels)
        mp.reset_counters()
        got = ap.solve_apsp(g, "nw-rand", h=4, rng=np.random.default_rng(t))
        assert got == ap.apsp_oracle(g)
        # one hop product, the base of 2^L = 4 hops
        assert mp.snapshot_counters()["hop_iterations"] <= 4
    assert levels == []
    # sampled levels (rates below 1) still run every level
    g = random_node_weighted_graph(20, rng)
    ap.solve_apsp(g, "nw-rand", h=8, rng=np.random.default_rng(0), constant=0.5)
    assert len(levels) == 3


def test_bridging_replay_reuses_step_two_products(monkeypatch):
    # the replay's m1 terms D^{<=2^(l+1)}[S_l, S_l] are step 2's: inside the
    # replay the right products are the base and each level's m2 alone
    in_replay, hops = [False], []
    replay, right_product = ap._replay, ap.hop_bounded_product

    def replay_spy(*args):
        in_replay[0] = True
        try:
            return replay(*args)
        finally:
            in_replay[0] = False

    def product_spy(a, g, h, *args, **kwargs):
        if in_replay[0]:
            hops.append(h)
        return right_product(a, g, h, *args, **kwargs)

    monkeypatch.setattr(ap, "_replay", replay_spy)
    monkeypatch.setattr(ap, "hop_bounded_product", product_spy)
    rng = np.random.default_rng(75)
    graphs = [random_node_weighted_graph(20, rng, low=0, high=12),
              random_dweights_graph(20, 3, rng, low=-1, promise="in")]
    for g in graphs:
        g2, remap = ap.eliminate_negative_cycles(g)
        for product in (None, mp.min_plus_naive):
            hops.clear()
            state = ap.BridgingState()
            got = ap.deterministic_pivot_apsp(g2, 4, product=product, state=state)
            assert remap.decode(got) == ap.apsp_oracle(g)
            assert state.levels[-1].size < g2.n  # the levels run
            assert hops == [16, 2, 1]


def test_bridging_state_q_path_bounds():
    # after step 2 every stored Q path has hop-length <= 3*2^L and weight
    # at most the 2^L-hop-bounded distance of its endpoints, and S* hits
    # every Q path of hop-length >= 2^L
    from fewweights.minplus import hop_bounded_product, trivial_rows

    rng = np.random.default_rng(50)
    for t in range(4):
        n = int(rng.integers(6, 18))
        g = random_node_weighted_graph(n, rng)
        one = build_one_hop_matrix(g).data
        h = 4
        state = ap.BridgingState()
        dist = ap.deterministic_pivot_apsp(g, h, state=state)
        assert dist == ap.apsp_oracle(g)
        big_l = 2  # ceil(log2(4))
        hop_cap = 3 * 2 ** big_l
        bound = hop_bounded_product(trivial_rows(np.arange(n), n), g,
                                    2 ** big_l).values.data
        assert state.s_star is not None
        assert set(state.levels[-1].tolist()) <= set(state.s_star.tolist())
        for (u, v), (w, path) in state.q_paths.items():
            assert len(path) - 1 <= hop_cap
            assert path[0] == u and path[-1] == v
            assert w <= bound[u, v]
            assert sum(int(one[x, y]) for x, y in zip(path, path[1:])) == w
        assert_s_star_hits_long_q_paths(state, 2 ** big_l)
    # edge-weighted graphs through the d-weights kernel and a min-plus solver
    rng = np.random.default_rng(51)
    for t in range(4):
        n = int(rng.integers(6, 18))
        g = random_dweights_graph(n, 3, rng, density=0.25,
                                  low=-1 if t % 2 else 0, promise="in")
        g2, remap = ap.eliminate_negative_cycles(g)
        one = build_one_hop_matrix(g2).data
        bound = mp.hop_bounded_product_edge(trivial_rows(np.arange(g2.n), g2.n), g2,
                                            4).values.data
        for product in (None, mp.min_plus_naive):
            state = ap.BridgingState()
            dist = ap.deterministic_pivot_apsp(g2, 4, product=product, state=state)
            assert remap.decode(dist) == ap.apsp_oracle(g)
            assert state.q_paths
            for (u, v), (w, path) in state.q_paths.items():
                assert len(path) - 1 <= 3 * 4
                assert path[0] == u and path[-1] == v
                assert w <= bound[u, v]
                assert sum(int(one[x, y]) for x, y in zip(path, path[1:])) == w
            assert_s_star_hits_long_q_paths(state, 4)


def assert_s_star_hits_long_q_paths(state, hl):
    s_star = set(state.s_star.tolist())
    long_paths = [p for _, p in state.q_paths.values() if len(p) - 1 >= hl]
    assert long_paths and all(s_star & set(p) for p in long_paths)


def test_randomized_simple_path_prefix_sums():
    g = node_weighted_graph(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3, 4])
    d = ap.solve_apsp(g, "nw-rand", h=2, rng=np.random.default_rng(0)).data
    assert d[0].tolist() == [0, 2, 5, 9]
    assert d[2, 0] == POS_INF


def test_deterministic_single_node():
    g = node_weighted_graph(1, [], [7])
    assert ap.solve_apsp(g, "nw-det", h=2).data.tolist() == [[0]]


def test_dweights_d1_encoding_matches_node_weighted():
    rng = np.random.default_rng(60)
    g = random_node_weighted_graph(14, rng)
    want = ap.solve_apsp(g, "nw-det", h=4)
    got = ap.solve_apsp(g, "dweights", h=4, d=1, promise="in")
    assert got == want


@pytest.mark.parametrize("algo", ["nw-det", "nw-rand", "dweights"])
def test_hop_iterations_count_kernel_calls(algo):
    rng = np.random.default_rng(61)
    if algo == "dweights":
        g = random_dweights_graph(14, 2, rng)
    else:
        g = random_node_weighted_graph(14, rng)
    mp.reset_counters()
    ap.solve_apsp(g, algo, h=4, d=2 if algo == "dweights" else None,
                  rng=np.random.default_rng(0))
    counts = mp.snapshot_counters()
    # every solver's hop steps are d-weights products
    assert counts["hop_iterations"] > 0
    assert counts["hop_iterations"] == counts["d_weights_min_plus"]
    assert counts["boolean_min_plus"] == 0


def test_dweights_solve_builds_one_hop_operator(monkeypatch):
    g = random_dweights_graph(14, 4, np.random.default_rng(62))
    want = ap.apsp_oracle(g)
    built = {"one_hop_offdiag": 0, "_column_slots": 0}
    for name in built:
        def counted(*args, _name=name, _fn=getattr(mp, name), **kwargs):
            built[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mp, name, counted)
    mp.reset_counters()
    assert ap.solve_apsp(g, "dweights", h=4, d=4) == want
    # one one-hop matrix per solve, and one slot set per side, however many
    # kernel calls the hop products make
    assert built["one_hop_offdiag"] == 1
    assert 1 <= built["_column_slots"] <= 2
    assert mp.snapshot_counters()["d_weights_min_plus"] > 2 * built["_column_slots"]


@pytest.mark.parametrize("algo", ["nw-det", "nw-rand"])
def test_declared_d_is_rejected_outside_dweights(algo, monkeypatch):
    g = random_node_weighted_graph(8, np.random.default_rng(63))

    def no_work(*args, **kwargs):
        raise AssertionError("the solver started before rejecting d")

    with monkeypatch.context() as m:
        m.setattr(ap, "eliminate_negative_cycles", no_work)
        with pytest.raises(ValueError, match="d applies to the dweights solver only"):
            ap.solve_apsp(g, algo, h=4, d=1)
    assert ap.solve_apsp(g, algo, h=4, d=None) == ap.apsp_oracle(g)


@pytest.mark.parametrize("algo", ["nw-det", "nw-rand"])
@pytest.mark.parametrize("promise", ["out", "in"])
def test_declared_promise_is_rejected_outside_dweights(algo, promise, monkeypatch):
    g = random_node_weighted_graph(8, np.random.default_rng(64))

    def no_work(*args, **kwargs):
        raise AssertionError("the solver started before rejecting the promise")

    with monkeypatch.context() as m:
        m.setattr(ap, "eliminate_negative_cycles", no_work)
        with pytest.raises(ValueError, match="promise applies to the dweights solver only"):
            ap.solve_apsp(g, algo, h=4, promise=promise)
    assert ap.solve_apsp(g, algo, h=4, promise=None) == ap.apsp_oracle(g)


ALGOS = ["nw-det", "nw-rand", "dweights"]


@pytest.mark.parametrize("algo", ALGOS)
def test_solve_empty_graph(algo):
    got = ap.solve_apsp(EdgeWeightedGraph(0, []), algo)
    assert got.data.shape == (0, 0)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("h", [0, -3])
def test_solve_rejects_h_below_one(algo, h):
    g = random_node_weighted_graph(6, np.random.default_rng(70))
    with pytest.raises(ValueError, match="h must be >= 1"):
        ap.solve_apsp(g, algo, h=h)


@pytest.mark.parametrize("d", [2, None])
def test_solve_rejects_unknown_promise(d):
    # an out-promise graph holding d = 2: an unknown promise must not be
    # read as "in" (which fails the audit) or leave the graph unreversed
    g = random_dweights_graph(10, 2, np.random.default_rng(71), promise="out")
    with pytest.raises(ValueError, match="promise must be 'out' or 'in'"):
        ap.solve_apsp(g, "dweights", h=4, d=d, promise="outgoing")
    assert ap.solve_apsp(g, "dweights", h=4, d=d, promise="out") == ap.apsp_oracle(g)


def test_promise_audit_message_is_shared():
    # node 2 has two distinct incoming weights; its reverse has two outgoing
    g = EdgeWeightedGraph(3, [(0, 2, 1), (1, 2, 2)])
    a = mp.trivial_rows(np.arange(3), 3)
    in_msg = "in-distinct audit failed: 2 > 1"
    calls = [
        (lambda: ap.solve_apsp(g, "dweights", h=2, d=1, promise="in"), in_msg),
        (lambda: ap.solve_apsp(g.reverse(), "dweights", h=2, d=1, promise="out"),
         "out-distinct audit failed: 2 > 1"),
        (lambda: mp.hop_bounded_product_edge(a, g, 1, d=1), in_msg),
        (lambda: mp.hop_bounded_product_edge(a, mp.HopOperator(g, mp.min_plus_naive), 1,
                                             d=1), in_msg),
        (lambda: red.apsp_from_minplus(g, 1, mp.min_plus_naive, eps=1.0), in_msg),
    ]
    for call, msg in calls:
        with pytest.raises(AuditError) as err:
            call()
        assert str(err.value) == msg
    # d=None skips the audit
    want = ap.apsp_oracle(g)
    assert ap.solve_apsp(g, "dweights", h=2, d=None, promise="in") == want
    assert ap.solve_apsp(g.reverse(), "dweights", h=2, promise="out") == \
        ap.apsp_oracle(g.reverse())
    assert mp.hop_bounded_product_edge(a, g, 1, d=None).values == \
        mp.hop_bounded_product(a, g, 1).values
    assert red.apsp_from_minplus(g, None, mp.min_plus_naive, eps=1.0) == want
