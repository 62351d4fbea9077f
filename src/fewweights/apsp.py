"""All-pairs shortest path solvers.

apsp_oracle gives exact distances (with -inf for pairs whose shortest path
can hit a negative cycle) by min-plus repeated squaring of the one-hop
matrix; weights beyond the min-plus kernel's operand range raise WeightError.
solve_apsp is the one entry of the multi-level pivot solver, which comes in
a randomized variant (uniform pivot samples per level) and a deterministic
variant (bridging sets built by greedy hitting sets); both run one level
recursion (_level_products, _replay).  There is one graph type,
EdgeWeightedGraph: a node-weighted graph is the edge graph whose edges into
v weigh w(v) (core.node_weighted_graph).  Both solvers run through one hop
product, and every hop step is one d-weights product: against the one-hop
matrix, or against its 0/+inf pattern on X + r when every row holds one
weight r (node-weighted graphs' left products).  Each solve builds one
HopOperator, so the one-hop matrix and, per side (right products against
it, left products against its transpose), the prepared d-weights B
operand are built once per solve.  _replay skips the levels when every
level is V (its squared base is then exact), and the bridging solver hands
its step-2 products to _replay as the levels' direct terms.
A pivot solve first deletes each strongly connected component (from the
boolean reachability closure) that one Bellman-Ford finds a negative cycle
in, solves the rest with its own weights and marks -inf from the closure.
Every value a pivot solver forms is then a walk weight of a graph with no
negative cycle, within (n - 1) * max|w|.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    EdgeWeightedGraph,
    NEG_INF,
    POS_INF,
    WeightMatrix,
    _as_data,
    build_one_hop_matrix,
    require_distinct_weights,
)
from .minplus import (
    HopOperator,
    boolean_matrix_multiply,
    compact_paths,
    hop_bounded_product,
    hop_bounded_product_left,
    min_plus_naive,
    trivial_rows,
)

DEFAULT_SAMPLING_CONSTANT = 10.0
DEFAULT_OMEGA_HAT = 3.0


def default_hop_parameter(n, omega_hat=DEFAULT_OMEGA_HAT):
    """Planned hop cutoff h = ceil(n^((3-omega_hat)/2))."""
    return max(1, math.ceil(n ** ((3.0 - omega_hat) / 2.0)))


# ----------------------------------------------------------------------------
# Oracle.
# ----------------------------------------------------------------------------

def _min_plus(x, y):
    return min_plus_naive(x, y).data


def _repeated_square(m, product):
    """Square m by product(m, m) (_min_plus or boolean_matrix_multiply)
    ceil(log2 n) times, once for n = 1 and never for n = 0, stopping at a
    fixpoint."""
    n = m.shape[0]
    for _ in range(max(1, math.ceil(math.log2(n))) if n else 0):
        nxt = product(m, m)
        if np.array_equal(nxt, m):
            break
        m = nxt
    return m


def apsp_oracle(g):
    """Exact distance matrix by min-plus repeated squaring of D^{<=1}.

    After ceil(log2 n) squarings every node on a negative cycle has a
    negative diagonal entry; a pair is -inf exactly when some such node is
    reachable from its source and reaches its target.  Every other entry is
    a simple-path distance.  Weights too large for the min-plus kernel raise
    WeightError instead of wrapping.
    """
    d = _repeated_square(build_one_hop_matrix(g).data, _min_plus)
    finite = d != POS_INF
    cyc = np.diagonal(d) < 0
    pumped = boolean_matrix_multiply(finite[:, cyc], finite[cyc, :])
    return WeightMatrix(np.where(pumped, NEG_INF, d), copy=False)


# ----------------------------------------------------------------------------
# Negative-cycle elimination.
# ----------------------------------------------------------------------------

def _reachability(n, e):
    """Whether each node reaches each node (every node reaches itself): the
    closure of adjacency + I by ceil(log2 n) boolean squarings, O(n^omega
    log n) time, inside the pivot solvers' budget."""
    reach = np.eye(n, dtype=bool)
    reach[e[:, 0], e[:, 1]] = True
    return _repeated_square(reach, boolean_matrix_multiply)


def _negative_cycle_nodes(e, reach):
    """Whether each node's strongly connected component holds a negative
    cycle, by one Bellman-Ford from a virtual all-zero source over the edges
    inside components (u -> v where v reaches u).  A component of k nodes
    without a negative cycle settles within k - 1 rounds, and one with a
    negative cycle has an edge that relaxes in every round: after n rounds,
    the edges that still relax name exactly the components that hold a
    negative cycle."""
    n = reach.shape[0]
    u, v, w = e[reach[e[:, 1], e[:, 0]]].T
    dist = np.zeros(n, dtype=np.int64)
    for _ in range(n):
        cand = dist[u] + w
        if not (cand < dist[v]).any():
            break
        np.minimum.at(dist, v, cand)
    src = u[dist[u] + w < dist[v]]
    return (reach[:, src] & reach[src, :].T).any(axis=1)


class NegativeCycleRemap:
    """Translation from kept-graph distances back to the input graph."""

    def __init__(self, bad_nodes, reach):
        self.bad_nodes = bad_nodes
        self.reach = reach

    def decode(self, dist):
        """Embed the kept nodes' distances, +inf elsewhere, then set -inf on
        every pair whose source reaches a deleted node that reaches its
        target (the oracle's rule)."""
        bad = self.bad_nodes
        out = np.full((bad.size, bad.size), POS_INF, dtype=np.int64)
        out[np.ix_(~bad, ~bad)] = _as_data(dist)
        if bad.any():
            out[boolean_matrix_multiply(self.reach[:, bad], self.reach[bad, :])] = NEG_INF
        return WeightMatrix(out, copy=False)


def eliminate_negative_cycles(g):
    """Delete every node whose strongly connected component holds a
    negative cycle.

    The kept graph is the subgraph induced on the other nodes, relabelled in
    order, with every weight untouched: no weight is new, a node-weighted
    graph stays node-weighted, and the kept graph has no negative cycle.
    Decoding is exact.  A walk through a deleted node makes its pair -inf,
    so every other pair has its distance in the kept graph; a pair with a
    deleted end is -inf when its source reaches its target, else +inf.
    Every distance of the kept graph is a simple-path weight, within
    (n - 1) * max|w|.
    """
    n, e = g.n, g.edge_array
    bad, reach = np.zeros(n, dtype=bool), None
    if (e[:, 2] < 0).any():
        reach = _reachability(n, e)
        bad = _negative_cycle_nodes(e, reach)
    remap = NegativeCycleRemap(bad, reach)
    if not bad.any():
        return g, remap
    node_map = np.cumsum(~bad) - 1
    e = e[~(bad[e[:, 0]] | bad[e[:, 1]])]
    g2 = EdgeWeightedGraph(n - int(bad.sum()),
                           np.column_stack([node_map[e[:, :2]], e[:, 2]]))
    return g2, remap


# ----------------------------------------------------------------------------
# Pivot hierarchies and hitting sets.
# ----------------------------------------------------------------------------

class PivotHierarchy:
    """Node sets S_0 = V, S_1, ..., S_L with their nominal sampling rates."""

    def __init__(self, levels, rates):
        self.levels = levels
        self.rates = rates

    @property
    def depth(self):
        return len(self.levels) - 1


def sample_pivots(n, h, rng, constant=DEFAULT_SAMPLING_CONSTANT):
    """Independent uniform pivot samples at rate min(c*log2(n)/2^l, 1).

    Level 0 is the full vertex set; level l aims to hit paths of hop-length
    2^l.  The constant defaults to a desk-scale value and is configurable.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    levels = [np.arange(n, dtype=np.int64)]
    rates = [1.0]
    big_l = max(0, math.ceil(math.log2(h)))
    logn = math.log2(max(n, 2))
    for ell in range(1, big_l + 1):
        rate = min(constant * logn / (2.0 ** ell), 1.0)
        rates.append(rate)
        if rate >= 1.0:
            levels.append(np.arange(n, dtype=np.int64))
        else:
            mask = rng.random(n) < rate
            levels.append(np.nonzero(mask)[0].astype(np.int64))
    return PivotHierarchy(levels, rates)


def greedy_hitting_set(paths, n):
    """Greedy hitting set: repeatedly take the vertex on the most unhit paths.

    `paths` is a 2-D int array whose rows are paths padded with -1.  Ties
    break to the lowest vertex index.  Returns a sorted array that hits
    every row.
    """
    real = paths >= 0
    sizes = real.sum(axis=1)
    flat = paths[real].astype(np.int64, copy=False)
    if (sizes == 0).any():
        raise ValueError("paths must be nonempty")
    # one (path, vertex) entry per distinct vertex of a path, sorted by path;
    # a sort and a neighbour test, which beat np.unique's hashing here
    key = np.sort(np.repeat(np.arange(sizes.size), sizes) * n + flat)
    key = key[np.diff(key, prepend=-1) != 0]
    pid, vert = key // n, key % n
    path_start = np.searchsorted(pid, np.arange(sizes.size + 1))
    by_vertex = np.argsort(vert, kind="stable")
    vertex_start = np.searchsorted(vert[by_vertex], np.arange(n + 1))
    counts = np.bincount(vert, minlength=n)
    alive = np.ones(sizes.size, dtype=bool)
    chosen = []
    while counts.any():  # some live path remains
        v = int(np.argmax(counts))
        chosen.append(v)
        hit = pid[by_vertex[vertex_start[v]:vertex_start[v + 1]]]
        hit = hit[alive[hit]]
        alive[hit] = False
        # entries of the newly hit paths, gathered range by range
        lens = path_start[hit + 1] - path_start[hit]
        offsets = np.repeat(path_start[hit] - (np.cumsum(lens) - lens), lens)
        counts -= np.bincount(vert[offsets + np.arange(lens.sum())], minlength=n)
    return np.array(sorted(chosen), dtype=np.int64)


# ----------------------------------------------------------------------------
# Level recursion: one bridging level's hop products, and the replay of all
# levels, shared by the randomized and the deterministic solver.  Every hop
# product steps through the solve's one HopOperator, which prepares the
# d-weights operand of each side once; a min-plus solver `product` can take
# the kernel's place.
# ----------------------------------------------------------------------------

def _level_products(op, s_cur, s_next, d_next, hl, want_paths):
    """The two bridging hop products of one level, S = s_cur, S' = s_next.

    m2 = d_next * D^{<=hl}[S', V] for distances d_next over S' x S', and
    m3 = D^{<=hl}[V, S'] * m2[S', S].  The level's distances are
    min(m1[:, S], m3[S, :]), where the caller supplies m1, the level's
    direct bounded-hop distances D^{<=k}[S, V] for some k >= hl.
    """
    n = op.n
    a2 = np.full((s_next.size, n), POS_INF, dtype=np.int64)
    a2[:, s_next] = d_next
    m2 = hop_bounded_product(a2, op, hl, want_paths=want_paths)
    a3 = np.full((n, s_cur.size), POS_INF, dtype=np.int64)
    a3[s_next, :] = m2.values.data[:, s_cur]
    m3 = hop_bounded_product_left(op, a3, hl, want_paths=want_paths)
    return m2, m3


def _replay(op, levels, base_set, base_hops, m1=None):
    """Distances over V from pivot levels S_0 = V, ..., S_L.

    The base squares D^{<=base_hops}[B, B] for a sorted base set B holding
    S_L and restricts it to S_L; level l = L-1, ..., 0 then takes
    min(m1[l], D^{<=2^l} * D_{l+1} * D^{<=2^l}) through S_{l+1}, where
    m1[l] is a direct bounded-hop term D^{<=k}[S_l, S_l] with k >= 2^l.
    The caller may hand in m1, already computed (the bridging solver's step
    2 gives k = 2^(l+1)); else each level computes D^{<=2^l}[S_l, S_l].

    When every level is all of V, so is B, and the squared base is the
    answer: with no negative cycle, ceil(log2 n) squarings of D^{<=k}
    (k >= 1) give exact distances.  A level's min(m1, m3) is the weight of
    some walk, so at least the distance, and on S_{l+1} x S_{l+1} at most
    D_{l+1} (m3 runs through S_{l+1} with zero-hop ends); with every level
    V, each level would return the exact distances it was given.
    """
    n = op.n
    base = hop_bounded_product(trivial_rows(base_set, n), op, base_hops,
                               want_paths=False).values.data
    d_cur = _repeated_square(base[:, base_set], _min_plus)
    if all(s.size == n for s in levels):
        return WeightMatrix(d_cur, copy=False)
    idx = np.searchsorted(base_set, levels[-1])
    d_cur = d_cur[np.ix_(idx, idx)]
    for ell in range(len(levels) - 2, -1, -1):
        s_cur = levels[ell]
        if m1 is None:
            w1 = hop_bounded_product(trivial_rows(s_cur, n), op, 2 ** ell,
                                     want_paths=False).values.data[:, s_cur]
        else:
            w1 = m1[ell]
        _, m3 = _level_products(op, s_cur, levels[ell + 1], d_cur, 2 ** ell, False)
        d_cur = np.minimum(w1, m3.values.data[s_cur, :])
    return WeightMatrix(d_cur, copy=False)


class BridgingState:
    """Introspection record of the deterministic solver's bridging sets.

    levels holds S_0..S_L, s_star the augmented base set, and
    exact_path_counts the number of exact-length witness paths each level
    hits.  q_paths maps (u, v) to (weight, node list) for every pair joined
    by a Q path; every Q path has hop-length at most 3 * 2^L and weight at
    most the 2^L-hop-bounded distance from u to v.  The solver keeps Q as a
    weight matrix and a -1-padded path array and builds this dict from them
    only when a state is passed.
    """

    def __init__(self):
        self.levels = []
        self.s_star = None
        self.q_paths = {}
        self.exact_path_counts = []


def deterministic_pivot_apsp(g, h, *, product=None, state=None):
    """Bridging-set APSP (no randomness) on a negative-cycle-free graph.

    Hop products step against the one-hop matrix by the d-weights kernel
    (with one slot per nonempty column for node-weighted graphs and d=1
    edge graphs); a solver `product(A, B) -> WeightMatrix` can take the
    kernel's place.  One
    HopOperator, built here, serves every hop product of the solve.

    Four steps: (1) build pivot levels by hitting all exact-length-2^l
    witness paths; (2) build candidate paths Q_uv of hop-length <= 3*2^L and
    weight <= D^{<=2^L}[u, v]; (3) augment the base level with a hitting set
    of the long Q paths; (4) replay the level recursion on these sets.
    Witness paths travel as -1-padded node arrays (HopProduct.paths): Q over
    S_l x S_l is a weight matrix (+inf where no Q path exists) plus an
    (|S_l|, |S_l|, 3*2^L+1) path array, and both hitting sets read such
    arrays.  Passing a BridgingState records the constructed sets and Q paths.
    """
    n = g.n
    if n == 0:
        return WeightMatrix(np.zeros((0, 0), dtype=np.int64))
    big_l = max(0, math.ceil(math.log2(h))) if h > 1 else 0
    op = HopOperator(g, product)

    # Step 1: pivot levels from exact-length witness paths.
    levels = [np.arange(n, dtype=np.int64)]
    for ell in range(big_l):
        hl = 2 ** ell
        s_cur = levels[ell]
        right = hop_bounded_product(trivial_rows(s_cur, n), op, hl)
        a_left = np.full((n, s_cur.size), POS_INF, dtype=np.int64)
        a_left[s_cur, np.arange(s_cur.size)] = 0
        left = hop_bounded_product_left(op, a_left, hl)
        rows, cols = np.nonzero(right.values.data != POS_INF)
        r_nodes, r_hops = right.paths(rows, cols)
        rows, cols = np.nonzero(left.values.data.T != POS_INF)
        l_nodes, l_hops = left.paths(cols, rows)
        paths = np.concatenate([r_nodes[r_hops == hl], l_nodes[l_hops == hl]])
        if state is not None:
            state.exact_path_counts.append(len(paths))
        levels.append(greedy_hitting_set(paths, n))

    # Step 2: candidate paths Q (bounded hops, weight <= D^{<=2^L}) over
    # positions in S_l: weights q_w and -1-padded node rows q_nodes.
    hl = 2 ** big_l
    # a Q path has at most 2^L hops at the base and gains at most 2^(l+1)
    # per level, 3*2^L - 2 in all, so every splice fits in width columns
    width = 3 * hl + 1
    s_last = levels[big_l]
    base = hop_bounded_product(trivial_rows(s_last, n), op, hl)
    q_w = base.values.data[:, s_last]
    q_nodes = np.full(q_w.shape + (width,), -1, dtype=np.int64)
    rows, cols = np.nonzero(q_w != POS_INF)
    q_nodes[rows, cols, :hl + 1] = base.paths(rows, s_last[cols])[0]
    # step 2's D^{<=2^(l+1)}[S_l, S_l], the replay's m1 terms
    m1 = [None] * big_l
    for ell in range(big_l - 1, -1, -1):
        s_cur, s_next = levels[ell], levels[ell + 1]
        pos_next = np.full(n, -1, dtype=np.int64)
        pos_next[s_next] = np.arange(s_next.size)
        ri = hop_bounded_product(trivial_rows(s_cur, n), op, 2 ** (ell + 1))
        m2, m3 = _level_products(op, s_cur, s_next, q_w, 2 ** ell, True)
        w1 = m1[ell] = ri.values.data[:, s_cur]
        w2 = m3.values.data[s_cur, :]
        new_nodes = np.full(w1.shape + (width,), -1, dtype=np.int64)
        rows, cols = np.nonzero((w1 <= w2) & (w1 != POS_INF))
        new_nodes[rows, cols, :2 ** (ell + 1) + 1] = ri.paths(rows, s_cur[cols])[0]
        # the rest bridge u -> x in S_next, Q(x, t), then t -> v
        rows, cols = np.nonzero(w2 < w1)
        seg1, hops1 = m3.paths(s_cur[rows], cols)
        x = pos_next[seg1[np.arange(rows.size), hops1]]
        seg2 = m2.paths(x, s_cur[cols])[0]
        mid = q_nodes[x, pos_next[seg2[:, 0]]]
        spliced = compact_paths(np.concatenate([seg1, mid[:, 1:], seg2[:, 1:]], axis=1))
        new_nodes[rows, cols] = spliced[:, :width]
        q_w, q_nodes = np.minimum(w1, w2), new_nodes

    # Step 3: S* = S_L plus a hitting set of all long Q paths.
    q_hops = (q_nodes >= 0).sum(axis=2) - 1
    hitting = greedy_hitting_set(q_nodes[q_hops >= hl], n)
    s_star = np.unique(np.concatenate([s_last, hitting])).astype(np.int64)
    if state is not None:
        state.levels = levels
        state.s_star = s_star
        # Q now spans S_0 = V, so positions are node ids
        state.q_paths = {
            (int(u), int(v)): (int(q_w[u, v]), q_nodes[u, v, :q_hops[u, v] + 1].tolist())
            for u, v in zip(*np.nonzero(q_w != POS_INF))}

    # Step 4: replay the level recursion from D^{<=4*2^L}[S*, S*], with
    # step 2's m1 terms.
    return _replay(op, levels, s_star, 4 * hl, m1)


def solve_apsp(g, algo="nw-det", h=None, *, rng=None, d=None, promise=None,
               constant=DEFAULT_SAMPLING_CONSTANT):
    """APSP by the oracle or a pivot solver; the one entry of the pivot solvers.

    The pivot solvers delete the nodes of negative-cycle components, solve
    the kept graph, whose values lie within (n - 1) * max|w|, and decode
    -inf from reachability (eliminate_negative_cycles).  h defaults to default_hop_parameter(n).  "nw-rand"
    replays pivot levels sampled from rng (default: seed 0); "nw-det" and
    "dweights" run the bridging-set solver.  "dweights" audits at most d
    distinct weights per node on the promised side ("out" when promise is
    None), and with the promise on outgoing edges it solves the reversed
    graph and transposes the result; the other pivot solvers reject a
    declared d or promise.
    """
    if algo == "oracle":
        return apsp_oracle(g)
    if algo not in ("nw-rand", "nw-det", "dweights"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if d is not None and algo != "dweights":
        raise ValueError("d applies to the dweights solver only")
    if promise is not None and algo != "dweights":
        raise ValueError("promise applies to the dweights solver only")
    promise = "out" if promise is None else promise
    h = default_hop_parameter(g.n) if h is None else h
    rng = np.random.default_rng(0) if rng is None else rng
    if h < 1:
        raise ValueError("h must be >= 1")
    if algo == "dweights":
        require_distinct_weights(g, d, promise)
    g2, remap = eliminate_negative_cycles(g)
    if algo == "nw-rand":
        levels = sample_pivots(g2.n, h, rng, constant).levels
        dist = _replay(HopOperator(g2), levels, levels[-1], 2 ** (len(levels) - 1))
    elif algo == "dweights" and promise == "out":
        dist = deterministic_pivot_apsp(g2.reverse(), h).data.T
    else:
        dist = deterministic_pivot_apsp(g2, h)
    return remap.decode(dist)
