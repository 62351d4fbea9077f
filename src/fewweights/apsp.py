"""All-pairs shortest path solvers.

apsp_oracle gives exact distances (with -inf for pairs whose shortest path
can hit a negative cycle) by per-source search.  The multi-level pivot
solver comes in a randomized variant (uniform pivot samples per level) and
a deterministic variant (bridging sets built by greedy hitting sets), plus
the d-weights generalization that swaps every boolean min-plus product for
a d-weights product.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AuditError,
    DistanceMatrix,
    EdgeWeightedGraph,
    NEG_INF,
    NodeWeightedGraph,
    POS_INF,
    WeightMatrix,
    audit_distinct_weights,
    build_one_hop_matrix,
    saturating_add,
)
from .minplus import (
    hop_bounded_product,
    hop_bounded_product_edge,
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

def _one_hop_step(cur, one):
    """One Bellman round for all sources at once: min(cur, cur * one)."""
    n = cur.shape[0]
    nxt = cur.copy()
    for k in range(n):
        col = cur[:, k]
        row = one[k, :]
        bad = (col[:, None] == POS_INF) | (row[None, :] == POS_INF)
        s = np.where(bad, POS_INF, col[:, None] + row[None, :])
        np.minimum(nxt, s, out=nxt)
    return nxt

def _bool_closure(adj):
    """Reflexive-transitive closure of a boolean adjacency matrix."""
    n = adj.shape[0]
    reach = adj.copy()
    np.fill_diagonal(reach, True)
    hops = 1
    while hops < n:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
        hops *= 2
    return reach


def apsp_oracle(g):
    """Exact distance matrix by per-source search.

    Uses array-scan Dijkstra per source for nonnegative weights and an
    all-sources Bellman-Ford sweep otherwise, marking -inf for every pair
    whose walks can be pumped through a negative cycle.
    """
    n = g.n
    one = build_one_hop_matrix(g).data
    finite = one != POS_INF
    nonneg = not np.any(one[finite] < 0)
    if nonneg:
        out = np.empty((n, n), dtype=np.int64)
        for s in range(n):
            dist = one[s].copy()
            dist[s] = 0
            done = np.zeros(n, dtype=bool)
            done[s] = True
            for _ in range(n - 1):
                cand = np.where(done, POS_INF, dist)
                u = int(np.argmin(cand))
                if cand[u] == POS_INF:
                    break
                done[u] = True
                relax = saturating_add(np.full(n, dist[u]), one[u])
                np.minimum(dist, relax, out=dist)
            out[s] = dist
        return DistanceMatrix(out, copy=False)
    cur = one.copy()
    changed = True
    for _ in range(n):
        nxt = _one_hop_step(cur, one)
        changed = not np.array_equal(nxt, cur)
        cur = nxt
        if not changed:
            break
    if changed:
        probe = _one_hop_step(cur, one)
        improving = probe < cur
        if improving.any():
            reach = _bool_closure(one != POS_INF)
            pumped = improving | (improving @ reach)
            cur = np.where(pumped, NEG_INF, cur)
    return DistanceMatrix(cur, copy=False)


# ----------------------------------------------------------------------------
# Negative-cycle elimination.
# ----------------------------------------------------------------------------

def _strongly_connected_components(n, edge_list):
    """Iterative Tarjan; returns component id per node."""
    adj = [[] for _ in range(n)]
    for u, v in edge_list:
        adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return np.array(comp), ncomp


def _component_has_negative_cycle(nodes, edge_triples):
    """Bellman-Ford from a virtual all-zero source inside one component."""
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


class NegativeCycleRemap:
    """Translation from contracted-graph distances back to the original graph."""

    def __init__(self, node_map, bad_nodes, threshold, identity=False):
        self.node_map = node_map
        self.bad_nodes = bad_nodes
        self.threshold = threshold
        self.identity = identity

    def decode(self, dist):
        data = dist.data if isinstance(dist, WeightMatrix) else np.asarray(dist)
        if self.identity:
            return DistanceMatrix(data)
        raw = data[np.ix_(self.node_map, self.node_map)].copy()
        reachable = raw != POS_INF
        endpoint_bad = self.bad_nodes[:, None] | self.bad_nodes[None, :]
        below = reachable & (raw < self.threshold)
        raw[reachable & endpoint_bad] = NEG_INF
        raw[below] = NEG_INF
        return DistanceMatrix(raw, copy=False)


def eliminate_negative_cycles(g):
    """Contract every SCC containing a negative cycle into one node.

    The contracted node carries weight -2*W*n (node-weighted) or shifts all
    entering edges by -2*W*n (edge-weighted), where W is the largest weight
    magnitude.  Decoding maps distances below -W*n (or touching a contracted
    node) to -inf; all other distances are unchanged.
    """
    n = g.n
    node_weighted = isinstance(g, NodeWeightedGraph)
    if node_weighted:
        pairs = list(g.edges())
        weights_abs = int(np.abs(g.node_weight).max()) if n else 0
        triples = [(u, v, int(g.node_weight[v])) for u, v in pairs]
    else:
        triples = list(g.edges())
        pairs = [(u, v) for u, v, _ in triples]
        weights_abs = int(np.abs(g.edge_array[:, 2]).max()) if g.m else 0
    if not any(w < 0 for _, _, w in triples):
        remap = NegativeCycleRemap(np.arange(n), np.zeros(n, dtype=bool), 0, identity=True)
        return g, remap
    comp, ncomp = _strongly_connected_components(n, pairs)
    by_comp = [[] for _ in range(ncomp)]
    for u, v, w in triples:
        if comp[u] == comp[v]:
            by_comp[comp[u]].append((u, v, w))
    bad_comp = np.zeros(ncomp, dtype=bool)
    for c in range(ncomp):
        if by_comp[c]:
            nodes = np.nonzero(comp == c)[0]
            bad_comp[c] = _component_has_negative_cycle(nodes, by_comp[c])
    bad_nodes = bad_comp[comp]
    penalty = -2 * weights_abs * n
    if not bad_comp.any():
        remap = NegativeCycleRemap(np.arange(n), bad_nodes, 0, identity=True)
        return g, remap
    node_map = np.full(n, -1, dtype=np.int64)
    new_id = 0
    comp_node = {}
    for v in range(n):
        if not bad_nodes[v]:
            node_map[v] = new_id
            new_id += 1
    for c in np.nonzero(bad_comp)[0]:
        comp_node[c] = new_id
        new_id += 1
    for v in range(n):
        if bad_nodes[v]:
            node_map[v] = comp_node[comp[v]]
    n2 = new_id
    threshold = -weights_abs * n
    if node_weighted:
        w2 = np.zeros(n2, dtype=np.int64)
        for v in range(n):
            if not bad_nodes[v]:
                w2[node_map[v]] = g.node_weight[v]
        for c, nid in comp_node.items():
            w2[nid] = penalty
        edges2 = set()
        for u, v in pairs:
            nu, nv = int(node_map[u]), int(node_map[v])
            if nu == nv and bad_nodes[u] and bad_nodes[v]:
                continue
            edges2.add((nu, nv))
        g2 = NodeWeightedGraph(n2, sorted(edges2), w2)
    else:
        edges2 = []
        contracted = set(comp_node.values())
        for u, v, w in triples:
            nu, nv = int(node_map[u]), int(node_map[v])
            if nu == nv and bad_nodes[u] and bad_nodes[v]:
                continue
            edges2.append((nu, nv, w + (penalty if nv in contracted else 0)))
        g2 = EdgeWeightedGraph(n2, edges2)
    return g2, NegativeCycleRemap(node_map, bad_nodes, threshold)


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

    Ties break to the lowest vertex index.  Returns a sorted array that hits
    every input path.
    """
    psets = []
    for p in paths:
        if len(p) == 0:
            raise ValueError("paths must be nonempty")
        psets.append(set(int(x) for x in p))
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


# ----------------------------------------------------------------------------
# Engines: how a solver multiplies against hop-bounded distance matrices.
# ----------------------------------------------------------------------------

class NodeHopEngine:
    def __init__(self, g, delta):
        self.g = g
        self.n = g.n
        self.delta = delta

    def right(self, a, h, want_paths=True):
        return hop_bounded_product(a, self.g, h, self.delta, want_paths)

    def left(self, a, h, want_paths=True):
        return hop_bounded_product_left(self.g, a, h, self.delta, want_paths)


class EdgeHopEngine:
    def __init__(self, g, delta):
        self.g = g
        self.n = g.n
        self.delta = delta

    def right(self, a, h, want_paths=True):
        return hop_bounded_product_edge(a, self.g, h, None, self.delta, want_paths)

    def left(self, a, h, want_paths=True):
        return hop_bounded_product_left(self.g, a, h, self.delta, want_paths)


def _repeated_square(m):
    """Min-plus repeated squaring to the power n, stopping on fixpoint."""
    n = m.shape[0]
    if n == 0:
        return m
    cur = WeightMatrix(m)
    for _ in range(max(1, math.ceil(math.log2(max(n, 2))))):
        nxt = min_plus_naive(cur, cur)
        if nxt == cur:
            break
        cur = nxt
    return cur.data


def _level_pass(engine, s_cur, s_next, d_next, ell, m1_hops):
    """One bridging level: min(M1[S,S], D^{<=2^l}[S,S'] * D' * D^{<=2^l}[S',S])."""
    n = engine.n
    m1 = engine.right(trivial_rows(s_cur, n), m1_hops, want_paths=False).values.data
    a2 = np.full((s_next.size, n), POS_INF, dtype=np.int64)
    a2[:, s_next] = d_next
    m2 = engine.right(a2, 2 ** ell, want_paths=False).values.data
    a3 = np.full((n, s_cur.size), POS_INF, dtype=np.int64)
    a3[s_next, :] = m2[:, s_cur]
    m3 = engine.left(a3, 2 ** ell, want_paths=False).values.data
    return np.minimum(m1[:, s_cur], m3[s_cur, :])


def _validate_no_neg_inf(g):
    if isinstance(g, NodeWeightedGraph):
        ok = np.all(np.abs(g.node_weight) < POS_INF)
    else:
        ok = g.m == 0 or np.all(np.abs(g.edge_array[:, 2]) < POS_INF)
    if not ok:
        raise ValueError("graph weights must be finite")


def nw_apsp_randomized(g, h=None, rng=None, delta=None,
                       constant=DEFAULT_SAMPLING_CONSTANT):
    """Node-weighted APSP via randomly sampled multi-level pivots.

    Requires a graph with no negative cycles (run eliminate_negative_cycles
    first).  The base level squares D^{<=2^L}[S_L, S_L]; each higher level
    takes the three-factor minimum through the next level's pivots.
    """
    _validate_no_neg_inf(g)
    n = g.n
    if n == 0:
        return DistanceMatrix(np.zeros((0, 0), dtype=np.int64))
    if h is None:
        h = default_hop_parameter(n)
    if rng is None:
        rng = np.random.default_rng(0)
    if delta is None:
        delta = max(1, h)
    piv = sample_pivots(n, h, rng, constant)
    engine = NodeHopEngine(g, delta)
    return _pivot_apsp(engine, piv.levels)


def _pivot_apsp(engine, levels):
    n = engine.n
    big_l = len(levels) - 1
    s_last = levels[big_l]
    base = engine.right(trivial_rows(s_last, n), 2 ** big_l,
                        want_paths=False).values.data
    d_cur = _repeated_square(base[:, s_last])
    for ell in range(big_l - 1, -1, -1):
        d_cur = _level_pass(engine, levels[ell], levels[ell + 1], d_cur, ell,
                            m1_hops=2 ** ell)
    return DistanceMatrix(d_cur, copy=False)


class BridgingState:
    """Introspection record of the deterministic solver's bridging sets.

    levels holds S_0..S_L, s_star the augmented base set, and q_paths maps
    (u, v) to (weight, node path); every Q path has hop-length at most
    3 * 2^L and weight at most the 2^L-hop-bounded distance from u to v.
    """

    def __init__(self):
        self.levels = []
        self.s_star = None
        self.q_paths = {}
        self.exact_path_counts = []


def _exact_length_paths(prod, rows, n, target, reversed_axes=False):
    """Collect witness paths of hop-length exactly `target`."""
    out = []
    vals = prod.values.data
    for ri in range(rows.size):
        for v in range(n):
            if reversed_axes:
                if vals[v, ri] == POS_INF:
                    continue
                p = prod.path(v, ri)
            else:
                if vals[ri, v] == POS_INF:
                    continue
                p = prod.path(ri, v)
            if p is not None and len(p) - 1 == target:
                out.append(p)
    return out


def deterministic_pivot_apsp(engine, h, state=None):
    """Bridging-set APSP on an arbitrary hop engine (no randomness).

    Four steps: (1) build pivot levels by hitting all exact-length-2^l
    witness paths; (2) build candidate paths Q_uv of hop-length <= 3*2^L and
    weight <= D^{<=2^L}[u, v]; (3) augment the base level with a hitting set
    of the long Q paths; (4) replay the level recursion on these sets.
    Passing a BridgingState records the constructed sets and Q paths.
    """
    n = engine.n
    if n == 0:
        return DistanceMatrix(np.zeros((0, 0), dtype=np.int64))
    big_l = max(0, math.ceil(math.log2(h))) if h > 1 else 0

    # Step 1: pivot levels from exact-length witness paths.
    levels = [np.arange(n, dtype=np.int64)]
    for ell in range(big_l):
        hl = 2 ** ell
        s_cur = levels[ell]
        right = engine.right(trivial_rows(s_cur, n), hl)
        a_left = np.full((n, s_cur.size), POS_INF, dtype=np.int64)
        a_left[s_cur, np.arange(s_cur.size)] = 0
        left = engine.left(a_left, hl)
        paths = _exact_length_paths(right, s_cur, n, hl)
        paths += _exact_length_paths(left, s_cur, n, hl, reversed_axes=True)
        if state is not None:
            state.exact_path_counts.append(len(paths))
        levels.append(greedy_hitting_set(paths, n))

    # Step 2: candidate paths Q (bounded hops, weight <= D^{<=2^L}).
    hl = 2 ** big_l
    s_last = levels[big_l]
    base = engine.right(trivial_rows(s_last, n), hl)
    q_paths = {}
    for i, u in enumerate(s_last):
        for v in s_last:
            v = int(v)
            if base.values.data[i, v] != POS_INF:
                q_paths[(int(u), v)] = (int(base.values.data[i, v]),
                                        base.path(i, v))
    for ell in range(big_l - 1, -1, -1):
        s_cur, s_next = levels[ell], levels[ell + 1]
        ri = engine.right(trivial_rows(s_cur, n), 2 ** (ell + 1))
        q_ext = np.full((s_next.size, n), POS_INF, dtype=np.int64)
        for i, x in enumerate(s_next):
            for t in s_next:
                rec = q_paths.get((int(x), int(t)))
                if rec is not None:
                    q_ext[i, int(t)] = rec[0]
        m2 = engine.right(q_ext, 2 ** ell)
        a3 = np.full((n, s_cur.size), POS_INF, dtype=np.int64)
        a3[s_next, :] = m2.values.data[:, s_cur]
        m3 = engine.left(a3, 2 ** ell)
        pos_next = {int(x): i for i, x in enumerate(s_next)}
        new_q = {}
        for i, u in enumerate(s_cur):
            u = int(u)
            for jj, v in enumerate(s_cur):
                v = int(v)
                w1 = int(ri.values.data[i, v])
                w2 = int(m3.values.data[u, jj])
                if w1 == POS_INF and w2 == POS_INF:
                    continue
                if w1 <= w2:
                    new_q[(u, v)] = (w1, ri.path(i, v))
                else:
                    seg1 = m3.path(u, jj)
                    x = seg1[-1]
                    seg2 = m2.path(pos_next[x], v)
                    t = seg2[0]
                    mid = q_paths[(x, t)][1]
                    new_q[(u, v)] = (w2, seg1 + mid[1:] + seg2[1:])
        q_paths = new_q

    # Step 3: S* = S_L plus a hitting set of all long Q paths.
    long_paths = [p for (w, p) in q_paths.values() if len(p) - 1 >= hl]
    hitting = greedy_hitting_set(long_paths, n)
    s_star = np.unique(np.concatenate([s_last, hitting])).astype(np.int64)
    if state is not None:
        state.levels = levels
        state.s_star = s_star
        state.q_paths = dict(q_paths)

    # Step 4: replay the level recursion deterministically.
    base4 = engine.right(trivial_rows(s_star, n), 4 * hl,
                         want_paths=False).values.data
    d_star = _repeated_square(base4[:, s_star])
    pos_star = {int(x): i for i, x in enumerate(s_star)}
    idx = np.array([pos_star[int(x)] for x in s_last], dtype=np.int64)
    d_cur = d_star[np.ix_(idx, idx)]
    for ell in range(big_l - 1, -1, -1):
        d_cur = _level_pass(engine, levels[ell], levels[ell + 1], d_cur, ell,
                            m1_hops=2 ** (ell + 1))
    return DistanceMatrix(d_cur, copy=False)


def nw_apsp_deterministic(g, h=None, delta=None, state=None):
    """Deterministic node-weighted APSP via bridging sets."""
    _validate_no_neg_inf(g)
    n = g.n
    if h is None:
        h = default_hop_parameter(n)
    if delta is None:
        delta = max(1, h)
    return deterministic_pivot_apsp(NodeHopEngine(g, delta), h, state=state)


def dweights_apsp(g, d=None, h=None, delta=None):
    """Deterministic APSP for graphs with at most d distinct incoming weights.

    Same bridging-set structure as the node-weighted solver with every
    boolean product replaced by a d-weights product.  Graphs whose promise
    is on outgoing edges should be solved through the reversed graph.
    """
    if not isinstance(g, EdgeWeightedGraph):
        raise TypeError("dweights_apsp expects an EdgeWeightedGraph")
    _validate_no_neg_inf(g)
    if d is not None:
        max_in = audit_distinct_weights(g)[1]
        if max_in > d:
            raise AuditError(
                f"incoming-distinct audit failed: {max_in} > {d}")
    n = g.n
    if h is None:
        h = default_hop_parameter(n)
    if delta is None:
        delta = max(1, h)
    return deterministic_pivot_apsp(EdgeHopEngine(g, delta), h)


def solve_apsp(g, algo="nw-det", h=None, delta=None, rng=None, d=None,
               promise="out", constant=DEFAULT_SAMPLING_CONSTANT):
    """Composite pipeline: eliminate negative cycles, solve, decode -inf.

    For edge-weighted graphs with the distinct-weights promise on outgoing
    edges the solver runs on the reversed graph and transposes the result.
    """
    if algo == "oracle":
        return apsp_oracle(g)
    g2, remap = eliminate_negative_cycles(g)
    if algo == "nw-rand":
        dist = nw_apsp_randomized(g2, h=h, rng=rng, delta=delta, constant=constant)
    elif algo == "nw-det":
        dist = nw_apsp_deterministic(g2, h=h, delta=delta)
    elif algo == "dweights":
        if d is not None and isinstance(g, EdgeWeightedGraph):
            max_out, max_in = audit_distinct_weights(g)
            actual = max_out if promise == "out" else max_in
            if actual > d:
                raise AuditError(f"{promise}-distinct audit failed: {actual} > {d}")
        if promise == "out":
            dist_rev = dweights_apsp(g2.reverse(), d=None, h=h, delta=delta)
            dist = WeightMatrix(dist_rev.data.T)
        else:
            dist = dweights_apsp(g2, d=None, h=h, delta=delta)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return remap.decode(dist)
