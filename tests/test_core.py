import numpy as np
import pytest

from fewweights.core import (
    BOT,
    EdgeWeightedGraph,
    FormatError,
    NEG_INF,
    NodeWeightedGraph,
    POS_INF,
    Weight,
    WeightError,
    WeightMatrix,
    audit_distinct_weights,
    build_one_hop_matrix,
    load_graph,
    load_matrix,
    occurrence_stats,
    reverse_graph,
    save_graph,
    save_matrix,
    weight_min_empty,
)


def test_weight_kinds():
    assert Weight.finite(5).kind == "finite"
    assert Weight.pos_inf().kind == "pos_inf"
    assert Weight.neg_inf().kind == "neg_inf"
    assert Weight.bot().kind == "bot"
    assert Weight.finite(-3).value == -3


def test_weight_algebra_sampled_triples():
    rng = np.random.default_rng(0)
    vals = [int(v) for v in rng.integers(-1000, 1000, size=12)]
    for a in vals:
        for b in vals:
            wa, wb = Weight.finite(a), Weight.finite(b)
            assert (wa + wb).value == a + b
            assert wa.min(wb).value == min(a, b)
            assert wb.min(wa).value == min(a, b)
            for c in vals[:4]:
                wc = Weight.finite(c)
                assert ((wa + wb) + wc).value == (wa + (wb + wc)).value


def test_weight_inf_and_bot_rules():
    x = Weight.finite(7)
    assert (Weight.pos_inf() + x).kind == "pos_inf"
    assert (x + Weight.pos_inf()).kind == "pos_inf"
    assert (Weight.neg_inf() + x).kind == "neg_inf"
    assert (Weight.bot() + x).kind == "bot"
    assert (Weight.pos_inf() + Weight.bot()).kind == "bot"
    with pytest.raises(WeightError):
        Weight.pos_inf() + Weight.neg_inf()
    assert Weight.pos_inf().min(x) == x
    assert weight_min_empty().kind == "pos_inf"
    with pytest.raises(WeightError):
        x.min(Weight.bot())


def test_weight_overflow_is_an_error():
    big = Weight.finite(2 ** 60)
    with pytest.raises(WeightError):
        big + big
    with pytest.raises(WeightError):
        Weight.finite(2 ** 62)


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
    assert m.entry(1, 2).kind == "bot"


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
    g = NodeWeightedGraph(2, [], [4, 9])
    m = build_one_hop_matrix(g)
    assert np.array_equal(m.data, [[0, POS_INF], [POS_INF, 0]])


def test_one_hop_single_edge_node_weighted():
    g = NodeWeightedGraph(2, [(0, 1)], [3, 5])
    m = build_one_hop_matrix(g)
    assert m.data[0, 1] == 5
    assert m.data[0, 0] == 0 and m.data[1, 1] == 0
    assert m.data[1, 0] == POS_INF


def test_one_hop_column_constancy():
    rng = np.random.default_rng(3)
    n = 10
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.4]
    g = NodeWeightedGraph(n, edges, rng.integers(0, 20, size=n))
    m = build_one_hop_matrix(g).data
    for j in range(n):
        col = [m[i, j] for i in range(n) if i != j and m[i, j] != POS_INF]
        assert len(set(col)) <= 1


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


def test_reverse_graph():
    g = EdgeWeightedGraph(3, [(0, 1, 7)])
    r = reverse_graph(g)
    assert list(r.edges()) == [(1, 0, 7)]
    rr = reverse_graph(r)
    assert sorted(rr.edges()) == sorted(g.edges())


def test_reverse_is_adjacency_transpose():
    rng = np.random.default_rng(5)
    n = 9
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.35]
    g = NodeWeightedGraph(n, edges, rng.integers(0, 9, size=n))
    assert np.array_equal(g.reverse().adjacency_bool(), g.adjacency_bool().T)


def test_graph_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    n = 7
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.3]
    g = NodeWeightedGraph(n, edges, rng.integers(-5, 10, size=n))
    p = tmp_path / "g.txt"
    save_graph(g, p)
    g2 = load_graph(p)
    assert np.array_equal(g2.node_weight, g.node_weight)
    assert sorted(g2.edges()) == sorted(g.edges())

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
