import numpy as np
import pytest

from fewweights.core import (
    _line_runs,
    BOT,
    EdgeWeightedGraph,
    FormatError,
    GUARD,
    NEG_INF,
    POS_INF,
    WeightError,
    WeightMatrix,
    audit_distinct_weights,
    build_one_hop_matrix,
    load_graph,
    load_matrix,
    node_weighted_graph,
    occurrence_stats,
    one_hop_offdiag,
    save_graph,
    row_values,
    save_matrix,
)


def test_matrix_restrict_composition():
    rng = np.random.default_rng(1)
    m = WeightMatrix(rng.integers(-9, 9, size=(8, 7)))
    s, t = [1, 3, 5, 6], [0, 2, 4]
    s2, t2 = [0, 2], [1, 2]
    once = m.restrict(s, t).restrict(s2, t2)
    direct = m.restrict([s[i] for i in s2], [t[j] for j in t2])
    assert once == direct


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    data = rng.integers(-50, 50, size=(5, 4)).astype(np.int64)
    data[0, 0] = POS_INF
    data[1, 2] = NEG_INF
    data[3, 3] = BOT
    m = WeightMatrix(data)
    p = tmp_path / "m.mat"
    save_matrix(m, p)
    assert load_matrix(p) == m


def test_matrix_fixture_tokens(tmp_path):
    p = tmp_path / "fix.mat"
    p.write_text("3 3\n1 inf -2\n-inf 0 bot\n7 8 9\n")
    m = load_matrix(p)
    want = np.array([[1, POS_INF, -2], [NEG_INF, 0, BOT], [7, 8, 9]],
                    dtype=np.int64)
    assert np.array_equal(m.data, want)


@pytest.mark.parametrize("text,msg", [
    ("3\n", "header"),
    ("2 2\n1 2\n3\n", "entries"),
    ("1 1\nzzz\n", "token"),
    (f"1 1\n{2**63 - 5}\n", "range"),
    ("1 1\n1\nextra\n", "trailing"),
])
def test_matrix_malformed(tmp_path, text, msg):
    p = tmp_path / "bad.mat"
    p.write_text(text)
    with pytest.raises(FormatError):
        load_matrix(p)


def test_one_hop_two_isolated_nodes():
    g = node_weighted_graph(2, [], [4, 9])
    m = build_one_hop_matrix(g)
    assert np.array_equal(m.data, [[0, POS_INF], [POS_INF, 0]])


def test_one_hop_single_edge_node_weighted():
    g = node_weighted_graph(2, [(0, 1)], [3, 5])
    m = build_one_hop_matrix(g)
    assert m.data[0, 1] == 5
    assert m.data[0, 0] == 0 and m.data[1, 1] == 0
    assert m.data[1, 0] == POS_INF


def test_one_hop_column_constancy():
    rng = np.random.default_rng(3)
    n = 10
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.4]
    g = node_weighted_graph(n, edges, rng.integers(0, 20, size=n))
    m = build_one_hop_matrix(g).data
    for j in range(n):
        col = [m[i, j] for i in range(n) if i != j and m[i, j] != POS_INF]
        assert len(set(col)) <= 1


def test_one_hop_matches_edge_loop():
    rng = np.random.default_rng(4)
    for n in (0, 1, 6, 11):
        edges = [(int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(-5, 9)))
                 for _ in range(3 * n)]  # repeats and self-loops included
        nodew = rng.integers(-5, 9, size=n)
        for g, by_node in ((EdgeWeightedGraph(n, edges), False),
                           (node_weighted_graph(n, [(u, v) for u, v, _ in edges],
                                                nodew), True)):
            want = np.full((n, n), POS_INF, dtype=np.int64)
            for u, v, w in edges:
                w = int(nodew[v]) if by_node else w
                want[u, v] = min(want[u, v], w)
            assert np.array_equal(one_hop_offdiag(g), want)
            np.fill_diagonal(want, np.minimum(np.diagonal(want), 0))
            assert np.array_equal(build_one_hop_matrix(g).data, want)


def test_audit_distinct_weights():
    g = EdgeWeightedGraph(3, [(0, 1, 5), (1, 2, 5), (2, 0, 5)])
    assert audit_distinct_weights(g) == (1, 1)
    star = EdgeWeightedGraph(5, [(0, i, i) for i in range(1, 5)])
    assert audit_distinct_weights(star) == (4, 1)


def test_audit_matches_recount():
    rng = np.random.default_rng(4)
    n = 12
    edges = [(u, v, int(rng.integers(0, 6))) for u in range(n)
             for v in range(n) if u != v and rng.random() < 0.3]
    # the same pairs again as parallel edges with other weights
    parallel = [(u, v, w + 1 + int(rng.integers(0, 3))) for u, v, w in edges[::3]]
    for edges in (edges, edges + parallel):
        g = EdgeWeightedGraph(n, edges)
        outs = [set() for _ in range(n)]
        ins = [set() for _ in range(n)]
        for u, v, w in edges:
            outs[u].add(w)
            ins[v].add(w)
        assert audit_distinct_weights(g) == (max(map(len, outs)), max(map(len, ins)))


def test_audit_empty_graph_and_repeated_edges():
    assert audit_distinct_weights(EdgeWeightedGraph(0, [])) == (0, 0)
    assert audit_distinct_weights(EdgeWeightedGraph(4, [])) == (0, 0)
    g = EdgeWeightedGraph(4, [(2, 2, -3), (2, 2, -3), (2, 1, 4)])
    assert audit_distinct_weights(g) == (2, 1)


def audit_set_reference(g):
    """Per-node distinct weights by Python sets: (max_out, max_in)."""
    outs = [set() for _ in range(g.n)]
    ins = [set() for _ in range(g.n)]
    for u, v, w in g.edges():
        outs[u].add(w)
        ins[v].add(w)
    return max(map(len, outs), default=0), max(map(len, ins), default=0)


@pytest.mark.parametrize("seed", range(4))
def test_audit_matches_set_reference_near_guard(seed):
    # weights next to +-GUARD, where a combined node-and-weight key would
    # overflow, and duplicate edges, on graphs down to n = 0 and n = 1
    rng = np.random.default_rng(seed)
    top = int(GUARD) - 1
    palette = np.array([-top, -top + 1, -1, 0, 1, top - 1, top], dtype=np.int64)
    for n in (0, 1, 2, 7):
        m = int(rng.integers(0, 3 * n * n + 2)) if n else 0
        edges = np.column_stack([rng.integers(0, max(n, 1), m),
                                 rng.integers(0, max(n, 1), m),
                                 rng.choice(palette, m)]).astype(np.int64)
        edges = np.concatenate([edges, edges[:m // 2]])
        g = EdgeWeightedGraph(n, edges)
        assert audit_distinct_weights(g) == audit_set_reference(g), (seed, n)
        assert audit_distinct_weights(g.reverse()) == audit_set_reference(g)[::-1]


def occurrence_reference(m, absent):
    """Per-row np.unique statistics: the loop occurrence_stats replaces."""
    count = np.zeros(m.shape, dtype=np.int64)
    rank = np.zeros(m.shape, dtype=np.int64)
    distinct = np.zeros(m.shape[0], dtype=np.int64)
    for i in range(m.shape[0]):
        present = np.nonzero(m[i] != absent)[0]
        if not present.size:
            continue
        vals, inv, counts = np.unique(m[i, present], return_inverse=True,
                                      return_counts=True)
        count[i, present] = counts[inv]
        distinct[i] = vals.size
        seen = {}
        for j in present:
            v = int(m[i, j])
            rank[i, j] = seen.get(v, 0)
            seen[v] = rank[i, j] + 1
    return count, rank, distinct


@pytest.mark.parametrize("absent", [BOT, POS_INF])
def test_occurrence_stats_matches_per_row_unique(absent):
    rng = np.random.default_rng(11)
    shapes = [(0, 0), (1, 1), (0, 3), (3, 0), (1, 7), (7, 1), (5, 9), (9, 4),
              (16, 16)]
    for rows, cols in shapes:
        for density in (0.0, 0.3, 1.0):
            m = rng.integers(-4, 5, size=(rows, cols)).astype(np.int64)
            m[rng.random((rows, cols)) < density] = absent
            if rows > 2:
                m[rows // 2] = absent  # an all-absent row
            for mat in (m, m.T):
                got = occurrence_stats(mat, absent)
                want = occurrence_reference(mat, absent)
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert np.array_equal(g, w)


def test_line_runs_match_per_line_reference():
    # counts and ranks of a stack of codes along rows and along columns
    rng = np.random.default_rng(46)
    for t in range(30):
        n, width = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        codes = rng.integers(0, width, size=(2, 3, n, n))
        for axis in (-1, -2):
            count, rank = _line_runs(codes, axis)
            assert np.array_equal(_line_runs(codes, axis, ranks=False)[0], count)
            for m, cnt, rnk in zip(*(x.reshape(-1, n, n) for x in (codes, count, rank))):
                if axis == -2:
                    m, cnt, rnk = m.T, cnt.T, rnk.T
                want = occurrence_reference(m, -1)
                assert np.array_equal(cnt, want[0]) and np.array_equal(rnk, want[1])


def row_values_reference(m, absent):
    """Per-row loop over the present entries: each row's sorted distinct
    values, and each entry's index among them (-1 where absent)."""
    rows = [sorted({int(v) for v in row if v != absent}) for row in m]
    slot = [[r.index(int(v)) if v != absent else -1 for v in row]
            for r, row in zip(rows, m)]
    return rows, np.array(slot, dtype=np.int64).reshape(m.shape)


@pytest.mark.parametrize("absent", [BOT, POS_INF])
def test_row_values_match_loop_reference(absent):
    rng = np.random.default_rng(12)
    shapes = [(0, 0), (1, 1), (0, 3), (3, 0), (1, 7), (7, 1), (5, 9), (9, 4),
              (16, 16)]
    for rows, cols in shapes:
        for density in (0.0, 0.3, 1.0):
            m = rng.integers(-4, 5, size=(rows, cols)).astype(np.int64)
            m[rng.random((rows, cols)) < density] = absent
            if rows > 2:
                m[rows // 2] = absent  # an all-absent row
            for mat in (m, m.T):
                vals, valid, slot = row_values(mat, absent)
                want, want_slot = row_values_reference(mat, absent)
                width = max([1] + [len(r) for r in want])
                sizes = np.array([len(r) for r in want]).reshape(-1, 1)
                assert np.array_equal(valid, np.arange(width) < sizes)
                assert [v[k].tolist() for v, k in zip(vals, valid)] == want
                assert (vals[~valid] == 0).all()
                assert np.array_equal(slot, want_slot)
                i, k = np.nonzero(mat != absent)
                assert np.array_equal(vals[i, slot[i, k]], mat[i, k])


def test_reverse_graph():
    g = EdgeWeightedGraph(3, [(0, 1, 7)])
    r = g.reverse()
    assert list(r.edges()) == [(1, 0, 7)]
    rr = r.reverse()
    assert sorted(rr.edges()) == sorted(g.edges())


def test_reverse_is_adjacency_transpose():
    rng = np.random.default_rng(5)
    n = 9
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.35]
    g = node_weighted_graph(n, edges, rng.integers(0, 9, size=n))
    assert np.array_equal(one_hop_offdiag(g.reverse()), one_hop_offdiag(g).T)


def test_graph_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    n = 7
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.3]
    nodew = rng.integers(-5, 10, size=n)
    g = node_weighted_graph(n, edges, nodew)
    p = tmp_path / "g.txt"
    save_graph(g, p)
    assert p.read_text().split("\n", 1)[0] == f"{n} {len(edges)} edge-weighted"
    g2 = load_graph(p)
    assert sorted(g2.edges()) == sorted((u, v, int(nodew[v])) for u, v in edges)

    ge = EdgeWeightedGraph(n, [(u, v, int(rng.integers(-4, 9)))
                               for (u, v) in edges])
    pe = tmp_path / "ge.txt"
    save_graph(ge, pe)
    ge2 = load_graph(pe)
    assert sorted(ge2.edges()) == sorted(ge.edges())


def test_graph_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 1 stuff\n")
    with pytest.raises(FormatError):
        load_graph(p)
    p.write_text("2 1 node-weighted\n0 1\n1 2\n0 1 3\n")
    with pytest.raises(FormatError):
        load_graph(p)


def test_load_node_weighted_dedupes_edges(tmp_path):
    p = tmp_path / "nw.txt"
    p.write_text("3 5 node-weighted\n0 4\n2 -1\n1 6\n"
                 "1 2\n0 1\n1 2\n2 2\n0 1\n")
    g = load_graph(p)
    assert g.n == 3
    assert g.edge_array.tolist() == [[0, 1, 6], [1, 2, -1], [2, 2, -1]]


def test_node_weighted_graph_errors():
    with pytest.raises(ValueError, match="one entry per node"):
        node_weighted_graph(3, [(0, 1)], [1, 2])
    with pytest.raises(WeightError):
        node_weighted_graph(2, [(0, 1)], [0, int(GUARD)])
    # the endpoint check comes before the weights are indexed
    for bad in ([(0, 3)], [(-1, 0)]):
        with pytest.raises(ValueError, match="endpoint out of range") as exc:
            node_weighted_graph(3, bad, [1, 2, 3])
        assert exc.type is ValueError
