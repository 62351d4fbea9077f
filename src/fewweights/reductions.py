"""Executable fine-grained reductions and hardness-gadget generators.

These turn the solver stack into pipeline glue: min-plus products through an
exact-triangle solver, APSP through a min-plus solver, and graph gadgets
whose selected pairwise distances decode to a min-plus product.
"""

from __future__ import annotations

import math

import numpy as np

from .apsp import deterministic_pivot_apsp, eliminate_negative_cycles
from .core import (
    AuditError,
    BOT,
    EdgeWeightedGraph,
    POS_INF,
    WeightMatrix,
    _as_data,
    node_weighted_graph,
    occurrence_stats,
    require_distinct_weights,
    row_values,
    saturating_add,
)
from .exact_triangle import (
    TriangleInstance,
    _col_occurrence_classes,
    _keep_slots,
    _list_triangles,
    _row_occurrence_classes,
)
from .minplus import boolean_matrix_multiply, min_plus_naive
from .additive import popular_sum_decomposition


class PromiseViolation(ValueError):
    """The promised 3-candidate window missed the true min-plus value."""


class ScalingFrame:
    """One halving level of the scaling recursion.

    Holds the halved inputs and the recursive product c_prime; doubling
    c_prime under-approximates the level's true product by at most 4.
    """

    def __init__(self, level, a_half, b_half, c_prime):
        self.level = level
        self.a_half = a_half
        self.b_half = b_half
        self.c_prime = c_prime


# ----------------------------------------------------------------------------
# Min-plus product from All-Edges Exact Triangle.
# ----------------------------------------------------------------------------

def _pad_square(m, n, fill):
    out = np.full((n, n), fill, dtype=np.int64)
    out[:m.shape[0], :m.shape[1]] = m
    return out


def minplus_from_aete(a, b, d, solver, frames=None):
    """Min-plus product via scaling and 5 offset probes per level.

    Halve the entries recursively; at each level the doubled recursive
    product is within {0,...,4} of the truth, and an All-Edges Exact
    Triangle query per offset pins the exact value.  The solver must answer
    instances whose A rows keep at most d distinct entries (halving
    preserves that budget); a given d is audited first, with AuditError when
    some row of A has more finite entries.  Passing a list as `frames`
    records one ScalingFrame per recursion level.
    """
    a, b = _as_data(a), _as_data(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    fa, fb = a != POS_INF, b != POS_INF
    if (a[fa] < 0).any() or (b[fb] < 0).any():
        raise ValueError("entries must be nonnegative (shift first)")
    if d is not None and occurrence_stats(a, POS_INF)[2].max(initial=0) > d:
        raise AuditError(f"rows of A exceed {d} distinct finite entries")
    n1, n2 = a.shape
    n3 = b.shape[1]
    n = max(n1, n2, n3)

    def rec(av, bv, level=0):
        fav, fbv = av != POS_INF, bv != POS_INF
        top = 0
        if fav.any():
            top = max(top, int(av[fav].max()))
        if fbv.any():
            top = max(top, int(bv[fbv].max()))
        if top == 0:
            reach = boolean_matrix_multiply(fav, fbv)
            return np.where(reach, 0, POS_INF).astype(np.int64)
        a2 = np.where(fav, av // 2, POS_INF)
        b2 = np.where(fbv, bv // 2, POS_INF)
        c_prime = rec(a2, b2, level + 1)
        if frames is not None:
            frames.append(ScalingFrame(level, a2, b2, c_prime))
        amat = _pad_square(np.where(fav, av, BOT), n, BOT)
        bmat = _pad_square(np.where(fbv, bv, BOT), n, BOT)
        out = np.full((n1, n3), POS_INF, dtype=np.int64)
        finite = c_prime != POS_INF
        for ell in range(5):
            pending = finite & (out == POS_INF)
            if not pending.any():
                break
            cml = np.where(pending, 2 * c_prime + ell, BOT)
            inst = TriangleInstance(amat, bmat, _pad_square(cml, n, BOT))
            rep = solver(inst)
            hit = pending & rep.yes[:n1, :n3]
            out[hit] = 2 * c_prime[hit] + ell
        if (finite & (out == POS_INF)).any():
            raise RuntimeError("no offset answered yes for a finite entry; "
                               "the exact-triangle solver is faulty")
        return out

    return WeightMatrix(rec(a, b), copy=False)


# ----------------------------------------------------------------------------
# APSP from a min-plus product solver.
# ----------------------------------------------------------------------------

def apsp_from_minplus(g, d, minplus_solver, eps):
    """APSP with all d-weights products dispatched to the given solver.

    Runs the deterministic bridging-set framework with hop cutoff
    h = ceil(n^(eps/4)); the nodes of negative-cycle components are deleted
    up front (eliminate_negative_cycles) and decoded back to -inf entries.
    """
    require_distinct_weights(g, d, "in")
    h = max(1, math.ceil(g.n ** (eps / 4.0)))
    g2, remap = eliminate_negative_cycles(g)
    dist = deterministic_pivot_apsp(g2, h, product=minplus_solver)
    return remap.decode(dist)


# ----------------------------------------------------------------------------
# Gadget graphs.
# ----------------------------------------------------------------------------

class GadgetGraph:
    """Generated graph plus the bookkeeping needed to decode distances."""

    def __init__(self, graph, sources, sinks, offset, meta=None, finite_cap=None):
        self.graph = graph
        self.sources = np.asarray(sources, dtype=np.int64)
        self.sinks = np.asarray(sinks, dtype=np.int64)
        self.offset = int(offset)
        self.meta = meta or {}
        # largest decoded value a legitimate source-sink path can have; in
        # undirected gadgets with missing entries, anything above it comes
        # from a path weaving through extra heavy edges, i.e. unreachable
        self.finite_cap = finite_cap

    def decode(self, dist):
        """Source-sink block of a distance matrix minus the decode offset."""
        block = _as_data(dist)[np.ix_(self.sources, self.sinks)]
        out = np.where(block == POS_INF, POS_INF, block - self.offset)
        if self.finite_cap is not None:
            out = np.where(out > self.finite_cap, POS_INF, out)
        return WeightMatrix(out, copy=False)

    def distinct_edge_weights(self):
        return int(np.unique(self.graph.edge_array[:, 2]).size)


def gen_bounded_minplus_gadget(a, b, eps, undirected=False):
    """Graph whose R-to-C distances equal the min-plus product of A and B.

    A is n x s and B is s x n with entries in [0, ceil(n^(1/2+eps))); each
    inner index k becomes a path of 2q-1 unit-weight edges (q =
    ceil(n^(1/2-eps))) and the A/B entries split into a coarse edge weight
    q*floor(v/q) plus a position v mod q on the path.  The undirected
    variant adds M = 2*ceil(n^(1/2+eps)) on every edge touching R or C, so
    distances decode at offset 2M.
    """
    a, b = _as_data(a), _as_data(b)
    n, s = a.shape
    if b.shape != (s, n):
        raise ValueError("B must be s x n for A of shape n x s")
    cap = math.ceil(n ** (0.5 + eps))
    for m in (a, b):
        fin = m != POS_INF
        if fin.any() and ((m[fin] < 0).any() or (m[fin] >= cap).any()):
            raise ValueError(f"entries must lie in [0, {cap})")
    q = math.ceil(n ** (0.5 - eps))
    big_m = 2 * cap if undirected else 0
    plen = 2 * q - 1
    mid = q - 1  # position of the path middle w_k
    total = 2 * n + s * plen
    # path edges k-major, then A edges i-major, then B edges k-major
    path = (2 * n + plen * np.arange(s)[:, None] + np.arange(plen - 1)).ravel()
    ia, ka = np.nonzero(a != POS_INF)
    kb, jb = np.nonzero(b != POS_INF)
    va, vb = a[ia, ka], b[kb, jb]
    edges = np.concatenate([
        np.column_stack([path, path + 1, np.ones_like(path)]),
        np.column_stack([ia, 2 * n + ka * plen + mid - va % q,
                         q * (va // q) + big_m]),
        np.column_stack([2 * n + kb * plen + mid + vb % q, n + jb,
                         q * (vb // q) + big_m]),
    ])
    if undirected:
        edges = np.concatenate([edges, edges[:, [1, 0, 2]]])
    graph = EdgeWeightedGraph(total, edges)
    return GadgetGraph(graph, np.arange(n), np.arange(n, 2 * n),
                       offset=2 * big_m if undirected else 0,
                       meta={"q": q, "M": big_m, "eps": eps,
                             "weight_budget": n ** (2 * eps) + 1},
                       finite_cap=2 * (cap - 1) if undirected else None)


def gen_column_weight_gadget(a, b, undirected=False):
    """Four-layer node-weighted graph encoding a column-weights min-plus.

    A is n x D with few distinct entries per column, B is D x n with few
    distinct entries per row; middle layers carry one node per (column,
    value) pair.  The undirected variant adds 4M to every node weight so the
    I-to-J distances decode at offset 12M (paths of 5 or more nodes then
    cost at least 16M while any 4-node path costs at most 14M).
    """
    a, b = _as_data(a), _as_data(b)
    n, dcols = a.shape
    if b.shape != (dcols, n):
        raise ValueError("B must be D x n for A of shape n x D")
    fa, fb = a != POS_INF, b != POS_INF
    if (a[fa] < 0).any() or (b[fb] < 0).any():
        raise ValueError("entries must be nonnegative")
    # M >= 1 keeps the 4M bonus positive when every entry is 0
    big_m = max(1, int(a[fa].max(initial=0)), int(b[fb].max(initial=0)))
    bonus = 4 * big_m if undirected else 0
    # one middle node per (column, value) pair present: K1 nodes, then K2
    # nodes, each in (column, value) order
    ia, ka = np.nonzero(fa)
    kb, jb = np.nonzero(fb)
    k1, at1 = np.unique(np.column_stack([ka, a[ia, ka]]), axis=0,
                        return_inverse=True)
    k2, at2 = np.unique(np.column_stack([kb, b[kb, jb]]), axis=0,
                        return_inverse=True)
    first2 = 2 * n + len(k1)
    # each K1 node (k, z) links to the run of K2 nodes (k, y)
    lo = np.searchsorted(k2[:, 0], k1[:, 0])
    run = np.searchsorted(k2[:, 0], k1[:, 0], side="right") - lo
    src = np.repeat(np.arange(len(k1)), run)
    dst = np.arange(run.sum()) + np.repeat(lo + run - np.cumsum(run), run)
    edges = np.concatenate([
        np.column_stack([2 * n + src, first2 + dst]),
        np.column_stack([ia, 2 * n + at1.ravel()]),
        np.column_stack([first2 + at2.ravel(), n + jb]),
    ])
    if undirected:
        edges = np.concatenate([edges, edges[:, ::-1]])
    node_weight = np.concatenate([np.zeros(2 * n, dtype=np.int64),
                                  k1[:, 1], k2[:, 1]]) + bonus
    graph = node_weighted_graph(first2 + len(k2), edges, node_weight)
    layer_sizes = (n, len(k1), len(k2), n)
    return GadgetGraph(graph, np.arange(n), np.arange(n, 2 * n),
                       offset=3 * bonus,
                       meta={"M": big_m, "layers": layer_sizes},
                       finite_cap=2 * big_m if undirected else None)


def make_scaling_promise(a, b):
    """3-candidate promise matrix: twice the product of the halved inputs."""
    a, b = _as_data(a), _as_data(b)
    fa, fb = a != POS_INF, b != POS_INF
    if (a[fa] < 0).any() or (b[fb] < 0).any():
        raise ValueError("entries must be nonnegative")
    a2 = np.where(fa, a // 2, POS_INF)
    b2 = np.where(fb, b // 2, POS_INF)
    c2 = min_plus_naive(WeightMatrix(a2, copy=False),
                        WeightMatrix(b2, copy=False)).data
    return WeightMatrix(np.where(c2 == POS_INF, POS_INF, 2 * c2), copy=False)


# ----------------------------------------------------------------------------
# Row-weights min-plus through node-weighted APSP.
# ----------------------------------------------------------------------------

def row_weight_minplus_via_nw_apsp(a, b, c_promise, delta, nw_solver, rng=None,
                                   undirected=False):
    """Exact min-plus product for row-weights matrices via APSP gadgets.

    Given the 3-candidate promise, dyadic occurrence classes are handled by
    either a window-limited brute force (when the two sides' distinct counts
    are out of balance), enumeration of representations through the
    decomposition remainders, full scans for the few pairs with popular
    remainder sums, and one 4-layer node-weighted gadget per pair of
    decomposition parts solved by nw_solver.  The popular-sum decomposition
    is exact, so rng is unused; it stays for callers that pass it
    positionally.
    """
    a, b = _as_data(a), _as_data(b)
    cp = _as_data(c_promise)
    n, inner = a.shape
    if b.shape != (inner, n) or cp.shape != (n, n):
        raise ValueError("shape mismatch")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    result = np.full((n, n), POS_INF, dtype=np.int64)
    for x, ax in sorted(_row_occurrence_classes(a, POS_INF).items()):
        for y, by in sorted(_col_occurrence_classes(b, POS_INF).items()):
            sub = _row_weight_subcase(ax, by, cp, delta, nw_solver, undirected)
            np.minimum(result, sub, out=result)
    window_ok = ((result == POS_INF) & (cp == POS_INF)) | (
        (cp != POS_INF) & (result != POS_INF)
        & (result >= cp) & (result <= cp + 2))
    if not window_ok.all():
        raise PromiseViolation("computed product left the promised window")
    return WeightMatrix(result, copy=False)


def _row_weight_subcase(ax, by, cp, delta, nw_solver, undirected):
    n = ax.shape[0]
    out = np.full((n, n), POS_INF, dtype=np.int64)
    s_vals, s_valid, s_slot = row_values(ax, POS_INF)
    t_vals, t_valid, t_slot = row_values(by.T, POS_INF)
    d_a = int(s_valid.sum(axis=1).max(initial=0))
    d_b = int(t_valid.sum(axis=1).max(initial=0))
    if d_a == 0 or d_b == 0:
        return out
    finite = cp != POS_INF
    a_bot = np.where(ax == POS_INF, BOT, ax)
    b_bot = np.where(by == POS_INF, BOT, by)

    def write(a, b, target):
        # the least listed a + b per pair, over its 3-candidate window
        i, k, j = _list_triangles(a, b, target, width=3)
        np.minimum.at(out, (i, j), a[i, k] + b[k, j])

    root = math.sqrt(delta)
    if d_b > d_a * root or d_a > d_b * root:
        write(a_bot, b_bot, np.where(finite, cp, BOT))
        return out

    xdec, ydec = popular_sum_decomposition(
        (s_vals, s_valid), (t_vals, t_valid), max(d_a, d_b), delta)
    flag_threshold = max(1.0, 2.0 * d_b / delta)
    # representations of c = cp[i, j] + off (off < 3) as a + b with a in
    # X_i's remainder and b in T_j, or with a in S_i and b in Y_j's remainder
    window = np.where(finite, cp, 0)[:, :, None] + np.arange(3)

    def reps(u, uv, w, wv):
        hits = (u[:, None, None, :, None] + w[None, :, None, None, :]
                == window[:, :, :, None, None])
        return (hits & uv[:, None, None, :, None]
                & wv[None, :, None, None, :]).sum(axis=(3, 4))

    count = (reps(s_vals, xdec.rest, t_vals, t_valid)
             + reps(s_vals, s_valid, t_vals, ydec.rest))
    flagged = finite & (count >= flag_threshold).any(axis=2)

    ii, jj = np.nonzero(flagged)  # still +inf in out: full scans
    out[ii, jj] = saturating_add(ax[ii], by[:, jj].T).min(axis=1,
                                                          initial=POS_INF)
    target = np.where(finite & ~flagged, cp, BOT)
    write(_keep_slots(a_bot, s_slot, xdec.rest), b_bot, target)
    write(a_bot, _keep_slots(b_bot.T, t_slot, ydec.rest).T, target)

    part_min = _part_pair_products(ax, by, xdec.parts, ydec.parts, nw_solver,
                                   undirected)
    return np.minimum(out, part_min, out=out)


def _part_pair_products(ax, by, xparts, yparts, nw_solver, undirected):
    """Per pair of part levels (sigma, core_x) and (tau, core_y), the min over
    k of ax[i, k] + by[k, j] where ax[i, k] - sigma[i] lies in core_x and
    by[k, j] - tau[j] in core_y, through one column-weight gadget each; the
    elementwise min over the pairs.

    Each side is shifted by its core minimum, so the gadget sees entries
    >= 0, and sigma[i] + tau[j] + min(core_x) + min(core_y) is added back.
    A level pair with no A entry in its core makes no solver call.
    """

    def side(m, part, axis):
        # part's shift per row (axis 0) or column (axis 1) of m
        lo = part.core[0]
        rel = m - np.expand_dims(part.shift, 1 - axis)
        keep = (m != POS_INF) & np.isin(rel, part.core)
        return np.where(keep, rel - lo, POS_INF), part.shift + lo

    out = np.full((ax.shape[0], by.shape[1]), POS_INF, dtype=np.int64)
    y_sides = [side(by, ypart, 1) for ypart in yparts if ypart.core.size]
    for xpart in xparts:
        if not xpart.core.size:
            continue
        a_core, add_x = side(ax, xpart, 0)
        if (a_core == POS_INF).all():
            continue
        for b_core, add_y in y_sides:
            gadget = gen_column_weight_gadget(a_core, b_core, undirected)
            dist = gadget.decode(nw_solver(gadget.graph)).data
            np.minimum(out, saturating_add(dist, add_x[:, None] + add_y),
                       out=out)
    return out
