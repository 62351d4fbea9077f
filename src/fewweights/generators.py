"""Random instance generators for graphs, matrices, and triangle instances.

All generators take an explicit numpy Generator so runs replay exactly from
a seed.  Instances are built to honor the promise they declare: distinct-
weight budgets, regularity caps, planted triangles or negative cycles.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BOT,
    EdgeWeightedGraph,
    POS_INF,
    WeightMatrix,
    node_weighted_graph,
)
from .exact_triangle import TriangleInstance, normalize_promise


def random_node_weighted_graph(n, rng, density=0.3, low=0, high=20,
                               negative_cycle=False):
    """Random digraph with node weights in [low, high), as the edge graph
    of node_weighted_graph.

    Each pair u != v, in row-major order, is an edge with probability
    `density`.
    """
    w = rng.integers(low, high, size=n)
    u, v = np.nonzero(~np.eye(n, dtype=bool))
    keep = rng.random(u.size) < density
    edges = np.column_stack([u[keep], v[keep]])
    if negative_cycle and n >= 2:
        size = int(rng.integers(2, min(n, 4) + 1))
        cyc = rng.choice(n, size=size, replace=False)
        edges = np.concatenate([edges, np.column_stack([cyc, np.roll(cyc, -1)])])
        w[cyc] = rng.integers(low if low < 0 else -3, 0, size=size)
    return node_weighted_graph(n, edges, w)


def random_dweights_graph(n, d, rng, density=0.3, low=0, high=30,
                          promise="out", negative_cycle=False):
    """Random edge-weighted digraph with <= d distinct weights per node.

    promise "out" bounds each node's outgoing weights, "in" the incoming.
    A planted negative cycle reserves one palette slot of its nodes for a
    negative weight, so the distinct-weights budget still holds.
    """
    palettes = [rng.integers(low, high, size=d) for _ in range(n)]
    cyc = []
    if negative_cycle and n >= 2:
        size = int(rng.integers(2, min(n, 4) + 1))
        cyc = [int(v) for v in rng.choice(n, size=size, replace=False)]
        for v in cyc:
            palettes[v][0] = rng.integers(-5, 0)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                node = u if promise == "out" else v
                w = int(palettes[node][rng.integers(0, d)])
                edges.append((u, v, w))
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        node = a if promise == "out" else b
        edges.append((a, b, int(palettes[node][0])))
    return EdgeWeightedGraph(n, edges)


def random_weight_matrix(rows, cols, rng, low=0, high=20, inf_density=0.2):
    m = rng.integers(low, high, size=(rows, cols)).astype(np.int64)
    m[rng.random((rows, cols)) < inf_density] = POS_INF
    return WeightMatrix(m, copy=False)


def random_column_dweights_matrix(rows, cols, rng, d, low=0, high=30,
                                  inf_density=0.2):
    """Matrix with at most d distinct finite entries per column."""
    m = np.full((rows, cols), POS_INF, dtype=np.int64)
    for j in range(cols):
        palette = rng.integers(low, high, size=d)
        for i in range(rows):
            if rng.random() >= inf_density:
                m[i, j] = palette[rng.integers(0, d)]
    return WeightMatrix(m, copy=False)


def _dense_bot_matrix(n, rng, low, high, bot_density):
    m = np.full((n, n), BOT, dtype=np.int64)
    mask = rng.random((n, n)) >= bot_density
    m[mask] = rng.integers(low, high, size=int(mask.sum()))
    return m


def random_triangle_instance(n, d, rng, promise="A_rows", low=-20, high=20,
                             bot_density=0.25, align=0.5, planted=0,
                             structured=False):
    """d-weights Exact Triangle instance honoring the declared promise side.

    `align` is the fraction of present C entries rewritten so some triple
    sums exactly (giving yes answers); for promises on C the alignment
    adjusts A instead so the C side keeps its weight budget.  `planted`
    forces that many specific triangles and returns them.
    """
    promise = normalize_promise(promise)
    if structured:
        base = int(rng.integers(low, high))
        step = int(rng.integers(1, 4))

        def palette_draw(size):
            start = base + int(rng.integers(0, 3)) * step
            return np.array([start + step * i for i in range(size)])
    else:
        def palette_draw(size):
            return rng.integers(low, high, size=size)

    def few_rows():
        m = np.full((n, n), BOT, dtype=np.int64)
        for i in range(n):
            palette = palette_draw(d)
            for j in range(n):
                if rng.random() >= bot_density:
                    m[i, j] = palette[rng.integers(0, d)]
        return m

    a = _dense_bot_matrix(n, rng, low, high, bot_density)
    b = _dense_bot_matrix(n, rng, low, high, bot_density)
    c = _dense_bot_matrix(n, rng, 2 * low, 2 * high, bot_density)
    side, orient = promise.split("_")
    few = few_rows()
    if orient == "cols":
        few = np.ascontiguousarray(few.T)
    if side == "A":
        a = few
    elif side == "B":
        b = few
    else:
        c = few
    planted_triples = []
    want = int(np.ceil(align * n * n)) if align else 0
    for _ in range(want + planted):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        ks = np.nonzero((a[i, :] != BOT) & (b[:, j] != BOT))[0]
        if ks.size == 0:
            continue
        k = int(ks[rng.integers(0, ks.size)])
        if side == "C":
            if c[i, j] == BOT:
                continue
            a[i, k] = c[i, j] - b[k, j]
        else:
            c[i, j] = a[i, k] + b[k, j]
        if len(planted_triples) < planted:
            planted_triples.append((i, k, j))
    inst = TriangleInstance(WeightMatrix(a, copy=False),
                            WeightMatrix(b, copy=False),
                            WeightMatrix(c, copy=False), promise=promise)
    return inst, planted_triples


def random_uniform_regular_instance(n, d, rng, low=-15, high=15,
                                    bot_density=0.15):
    """d-uniform, (n/d)-regular instance (n must be a multiple of d).

    Entries follow a shifted Latin-style template so every value appears
    exactly n/d times per row and per column before bot deletions, which
    only lower the occurrence counts.
    """
    if n % d != 0:
        raise ValueError("n must be a multiple of d")

    def structured_matrix(values):
        # column multiplier coprime to d keeps every value at exactly n/d
        # occurrences per row and per column before bot deletions
        vals = np.asarray(values, dtype=np.int64)
        units = [s for s in range(1, d + 1) if np.gcd(s, d) == 1]
        s = units[int(rng.integers(0, len(units)))]
        idx = (np.add.outer(np.arange(n), np.arange(n) * s)) % d
        m = vals[idx]
        m = m[np.ix_(rng.permutation(n), rng.permutation(n))]
        m[rng.random((n, n)) < bot_density] = BOT
        return m

    va = rng.choice(np.arange(low, high), size=d, replace=False)
    vb = rng.choice(np.arange(low, high), size=d, replace=False)
    pool = sorted({int(x + y) for x in va for y in vb})
    vc = np.array(pool[:d], dtype=np.int64)
    a = structured_matrix(va)
    b = structured_matrix(vb)
    c = structured_matrix(vc)
    return TriangleInstance(WeightMatrix(a, copy=False),
                            WeightMatrix(b, copy=False),
                            WeightMatrix(c, copy=False))
