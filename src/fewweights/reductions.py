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
    NodeWeightedGraph,
    POS_INF,
    WeightMatrix,
    audit_distinct_weights,
    one_hop_offdiag,
    saturating_add,
)
from .exact_triangle import (
    TriangleInstance,
    _col_occurrence_classes,
    _row_occurrence_classes,
)
from .minplus import HopProduct, boolean_matrix_multiply, min_plus_naive
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
    preserves that budget).  Passing a list as `frames` records one
    ScalingFrame per recursion level.
    """
    a = a.data if isinstance(a, WeightMatrix) else np.asarray(a, dtype=np.int64)
    b = b.data if isinstance(b, WeightMatrix) else np.asarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    fa, fb = a != POS_INF, b != POS_INF
    if (a[fa] < 0).any() or (b[fb] < 0).any():
        raise ValueError("entries must be nonnegative (shift first)")
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
            inst = TriangleInstance(WeightMatrix(amat),
                                    WeightMatrix(bmat),
                                    WeightMatrix(_pad_square(cml, n, BOT)))
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

class SolverHopEngine:
    """Hop engine whose one-hop products go through a min-plus solver.

    Witnesses are recovered by a direct scan over the one-hop matrix after
    each dispatched product (only products are delegated to the solver).
    """

    def __init__(self, g, solver):
        self.g = g
        self.n = g.n
        self.solver = solver
        self.onehop = one_hop_offdiag(g)
        self.onehop_rev = one_hop_offdiag(g.reverse())

    def _sweep(self, a0, onehop, h, want_paths):
        vals = a0.copy()
        parents = []
        for _ in range(int(h)):
            prod = self.solver(WeightMatrix(vals, copy=True),
                               WeightMatrix(onehop, copy=True)).data
            better = prod < vals
            if want_paths:
                wit = np.full(prod.shape, -1, dtype=np.int64)
                need = better.copy()
                for k in range(self.n):
                    if not need.any():
                        break
                    cand = saturating_add(vals[:, k:k + 1], onehop[k:k + 1, :])
                    match = need & (cand == prod)
                    wit[match] = k
                    need &= ~match
                parents.append(wit)
            vals = np.where(better, prod, vals)
        return vals, parents

    def right(self, a, h, want_paths=True):
        vals, parents = self._sweep(np.asarray(a, dtype=np.int64), self.onehop,
                                    h, want_paths)
        return HopProduct(WeightMatrix(vals, copy=False), parents)

    def left(self, a, h, want_paths=True):
        a = np.asarray(a, dtype=np.int64)
        vals, parents = self._sweep(np.ascontiguousarray(a.T),
                                    self.onehop_rev, h, want_paths)
        return HopProduct(WeightMatrix(np.ascontiguousarray(vals.T), copy=False),
                          parents, reversed_paths=True)


def apsp_from_minplus(g, d, minplus_solver, eps):
    """APSP with all d-weights products dispatched to the given solver.

    Runs the deterministic bridging-set framework with hop cutoff
    h = ceil(n^(eps/4)); negative cycles are eliminated up front and decoded
    back to -inf entries.
    """
    if not isinstance(g, EdgeWeightedGraph):
        raise TypeError("apsp_from_minplus expects an EdgeWeightedGraph")
    if d is not None:
        max_in = audit_distinct_weights(g)[1]
        if max_in > d:
            raise AuditError(f"incoming-distinct audit failed: {max_in} > {d}")
    h = max(1, math.ceil(g.n ** (eps / 4.0)))
    g2, remap = eliminate_negative_cycles(g)
    dist = deterministic_pivot_apsp(SolverHopEngine(g2, minplus_solver), h)
    return remap.decode(dist)


# ----------------------------------------------------------------------------
# Gadget graphs.
# ----------------------------------------------------------------------------

class GadgetGraph:
    """Generated graph plus the bookkeeping needed to decode distances."""

    def __init__(self, graph, sources, sinks, offset, row_shift=None, meta=None,
                 finite_cap=None):
        self.graph = graph
        self.sources = np.asarray(sources, dtype=np.int64)
        self.sinks = np.asarray(sinks, dtype=np.int64)
        self.offset = int(offset)
        self.row_shift = row_shift
        self.meta = meta or {}
        # largest decoded value a legitimate source-sink path can have; in
        # undirected gadgets with missing entries, anything above it comes
        # from a path weaving through extra heavy edges, i.e. unreachable
        self.finite_cap = finite_cap

    def decode(self, dist):
        """Source-sink block of a distance matrix minus the decode offset."""
        data = dist.data if isinstance(dist, WeightMatrix) else np.asarray(dist)
        block = data[np.ix_(self.sources, self.sinks)]
        out = np.where(block == POS_INF, POS_INF, block - self.offset)
        if self.finite_cap is not None:
            out = np.where(out > self.finite_cap, POS_INF, out)
        if self.row_shift is not None:
            out = np.where(out == POS_INF, POS_INF, out + self.row_shift[:, None])
        return WeightMatrix(out, copy=False)

    def distinct_edge_weights(self):
        g = self.graph
        if isinstance(g, EdgeWeightedGraph):
            return len(set(g.edge_array[:, 2].tolist())) if g.m else 0
        return len(set(int(g.node_weight[v]) for v in range(g.n)))


def gen_bounded_minplus_gadget(a, b, eps, undirected=False):
    """Graph whose R-to-C distances equal the min-plus product of A and B.

    A is n x s and B is s x n with entries in [0, ceil(n^(1/2+eps))); each
    inner index k becomes a path of 2q-1 unit-weight edges (q =
    ceil(n^(1/2-eps))) and the A/B entries split into a coarse edge weight
    q*floor(v/q) plus a position v mod q on the path.  The undirected
    variant adds M = 2*ceil(n^(1/2+eps)) on every edge touching R or C, so
    distances decode at offset 2M.
    """
    a = a.data if isinstance(a, WeightMatrix) else np.asarray(a, dtype=np.int64)
    b = b.data if isinstance(b, WeightMatrix) else np.asarray(b, dtype=np.int64)
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
    total = 2 * n + s * plen
    edges = []

    def path_vertex(k, pos):
        return 2 * n + k * plen + pos

    for k in range(s):
        for pos in range(plen - 1):
            edges.append((path_vertex(k, pos), path_vertex(k, pos + 1), 1))
    mid = q - 1  # position of the path middle w_k
    for i in range(n):
        for k in range(s):
            v = a[i, k]
            if v == POS_INF:
                continue
            pos = mid - int(v) % q
            edges.append((i, path_vertex(k, pos), q * (int(v) // q) + big_m))
    for k in range(s):
        for j in range(n):
            v = b[k, j]
            if v == POS_INF:
                continue
            pos = mid + int(v) % q
            edges.append((path_vertex(k, pos), n + j, q * (int(v) // q) + big_m))
    if undirected:
        edges = edges + [(v, u, w) for (u, v, w) in edges]
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
    a = a.data if isinstance(a, WeightMatrix) else np.asarray(a, dtype=np.int64)
    b = b.data if isinstance(b, WeightMatrix) else np.asarray(b, dtype=np.int64)
    n, dcols = a.shape
    if b.shape != (dcols, n):
        raise ValueError("B must be D x n for A of shape n x D")
    fa, fb = a != POS_INF, b != POS_INF
    if (fa.any() and (a[fa] < 0).any()) or (fb.any() and (b[fb] < 0).any()):
        raise ValueError("entries must be nonnegative")
    big_m = 0
    if fa.any():
        big_m = max(big_m, int(a[fa].max()))
    if fb.any():
        big_m = max(big_m, int(b[fb].max()))
    bonus = 4 * big_m if undirected else 0
    col_vals = [sorted(set(a[fa[:, k], k].tolist())) for k in range(dcols)]
    row_vals = [sorted(set(b[k, fb[k, :]].tolist())) for k in range(dcols)]
    node_weight = [0] * (2 * n)
    k1_id = {}
    k2_id = {}
    nid = 2 * n
    for k in range(dcols):
        for z in col_vals[k]:
            k1_id[(k, z)] = nid
            node_weight.append(z)
            nid += 1
    for k in range(dcols):
        for y in row_vals[k]:
            k2_id[(k, y)] = nid
            node_weight.append(y)
            nid += 1
    node_weight = np.array(node_weight, dtype=np.int64) + bonus
    edges = []
    for k in range(dcols):
        for z in col_vals[k]:
            for y in row_vals[k]:
                edges.append((k1_id[(k, z)], k2_id[(k, y)]))
    for i in range(n):
        for k in range(dcols):
            if fa[i, k]:
                edges.append((i, k1_id[(k, int(a[i, k]))]))
    for k in range(dcols):
        for j in range(n):
            if fb[k, j]:
                edges.append((k2_id[(k, int(b[k, j]))], n + j))
    if undirected:
        edges = edges + [(v, u) for (u, v) in edges]
    graph = NodeWeightedGraph(nid, edges, node_weight)
    layer_sizes = (n, len(k1_id), len(k2_id), n)
    return GadgetGraph(graph, np.arange(n), np.arange(n, 2 * n),
                       offset=3 * bonus,
                       meta={"M": big_m, "layers": layer_sizes},
                       finite_cap=2 * big_m if undirected else None)


def make_scaling_promise(a, b):
    """3-candidate promise matrix: twice the product of the halved inputs."""
    a = a.data if isinstance(a, WeightMatrix) else np.asarray(a, dtype=np.int64)
    b = b.data if isinstance(b, WeightMatrix) else np.asarray(b, dtype=np.int64)
    fa, fb = a != POS_INF, b != POS_INF
    if (fa.any() and (a[fa] < 0).any()) or (fb.any() and (b[fb] < 0).any()):
        raise ValueError("entries must be nonnegative")
    a2 = np.where(fa, a // 2, POS_INF)
    b2 = np.where(fb, b // 2, POS_INF)
    c2 = min_plus_naive(WeightMatrix(a2, copy=False),
                        WeightMatrix(b2, copy=False)).data
    return WeightMatrix(np.where(c2 == POS_INF, POS_INF, 2 * c2), copy=False)


# ----------------------------------------------------------------------------
# Row-weights min-plus through node-weighted APSP.
# ----------------------------------------------------------------------------

def _row_value_lists(m):
    fin = m != POS_INF
    return [sorted(set(m[i, fin[i]].tolist())) for i in range(m.shape[0])]


def _col_positions(m):
    fin = m != POS_INF
    out = []
    for j in range(m.shape[1]):
        d = {}
        for k in np.nonzero(fin[:, j])[0]:
            d.setdefault(int(m[k, j]), []).append(int(k))
        out.append(d)
    return out


def _row_positions(m):
    fin = m != POS_INF
    out = []
    for i in range(m.shape[0]):
        d = {}
        for k in np.nonzero(fin[i])[0]:
            d.setdefault(int(m[i, k]), []).append(int(k))
        out.append(d)
    return out


def row_weight_minplus_via_nw_apsp(a, b, c_promise, delta, nw_solver, rng=None,
                                   undirected=False):
    """Exact min-plus product for row-weights matrices via APSP gadgets.

    Given the 3-candidate promise, dyadic occurrence classes are handled by
    either a window-limited brute force (when the two sides' distinct counts
    are out of balance), enumeration of representations through the
    decomposition remainders, full scans for the few pairs with popular
    remainder sums, and one 4-layer node-weighted gadget per pair of
    decomposition parts solved by nw_solver.
    """
    a = a.data if isinstance(a, WeightMatrix) else np.asarray(a, dtype=np.int64)
    b = b.data if isinstance(b, WeightMatrix) else np.asarray(b, dtype=np.int64)
    cp = c_promise.data if isinstance(c_promise, WeightMatrix) else \
        np.asarray(c_promise, dtype=np.int64)
    n, inner = a.shape
    if b.shape != (inner, n) or cp.shape != (n, n):
        raise ValueError("shape mismatch")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    result = np.full((n, n), POS_INF, dtype=np.int64)
    for x, ax in sorted(_row_occurrence_classes(a, POS_INF).items()):
        for y, by in sorted(_col_occurrence_classes(b, POS_INF).items()):
            sub = _row_weight_subcase(ax, by, cp, delta, nw_solver, rng,
                                      undirected)
            np.minimum(result, sub, out=result)
    window_ok = ((result == POS_INF) & (cp == POS_INF)) | (
        (cp != POS_INF) & (result != POS_INF)
        & (result >= cp) & (result <= cp + 2))
    if not window_ok.all():
        raise PromiseViolation("computed product left the promised window")
    return WeightMatrix(result, copy=False)


def _row_weight_subcase(ax, by, cp, delta, nw_solver, rng, undirected):
    n, inner = ax.shape
    out = np.full((n, n), POS_INF, dtype=np.int64)
    s_sets = _row_value_lists(ax)
    t_sets = _row_value_lists(np.ascontiguousarray(by.T))
    d_a = max((len(s) for s in s_sets), default=0)
    d_b = max((len(s) for s in t_sets), default=0)
    if d_a == 0 or d_b == 0:
        return out
    rowpos_a = _row_positions(ax)
    colpos_b = _col_positions(by)

    def window(i, j):
        base = cp[i, j]
        if base == POS_INF:
            return ()
        return (int(base), int(base) + 1, int(base) + 2)

    root = math.sqrt(delta)
    if d_b > d_a * root or d_a > d_b * root:
        for i in range(n):
            for j in range(n):
                for c in window(i, j):
                    hit = False
                    for av in s_sets[i]:
                        for k in colpos_b[j].get(c - av, ()):
                            if ax[i, k] == av:
                                hit = True
                                break
                        if hit:
                            break
                    if hit:
                        out[i, j] = c
                        break
        return out

    d_max = max(d_a, d_b)
    xdec, ydec = popular_sum_decomposition(
        [set(s) for s in s_sets], [set(t) for t in t_sets], d_max, delta, rng)
    flag_threshold = max(1.0, 2.0 * d_b / delta)

    def rem_pairs(i, j, c):
        """Representations c = a + b through a remainder on either side."""
        found = []
        sx = xdec.remainders[i]
        ty = set(t_sets[j])
        for av in sx:
            if (c - av) in ty:
                found.append(av)
        tyr = ydec.remainders[j]
        sfull = set(s_sets[i])
        for bv in tyr:
            if (c - bv) in sfull:
                found.append(c - bv)
        return found

    flagged = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            for c in window(i, j):
                if len(rem_pairs(i, j, c)) >= flag_threshold:
                    flagged[i, j] = True
                    break

    ii, jj = np.nonzero(flagged)
    for i, j in zip(ii.tolist(), jj.tolist()):
        best = POS_INF
        fa = ax[i] != POS_INF
        both = fa & (by[:, j] != POS_INF)
        if both.any():
            best = int((ax[i][both] + by[both, j]).min())
        out[i, j] = min(out[i, j], best)
    for i in range(n):
        for j in range(n):
            if flagged[i, j]:
                continue
            for c in window(i, j):
                hit = False
                for av in rem_pairs(i, j, c):
                    for k in rowpos_a[i].get(av, ()):
                        if by[k, j] == c - av:
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    out[i, j] = min(out[i, j], c)
                    break

    shifts_x = [xdec.parts[g].shifts for g in range(xdec.level_count)]
    for g in range(xdec.level_count):
        core_x = sorted(xdec.parts[g].core)
        if not core_x:
            continue
        sigma = np.array([shifts_x[g].get(i, 0) for i in range(n)],
                         dtype=np.int64)
        for hlev in range(ydec.level_count):
            core_y = sorted(ydec.parts[hlev].core)
            if not core_y:
                continue
            tau = np.array([ydec.parts[hlev].shifts.get(j, 0) for j in range(n)],
                           dtype=np.int64)
            cand = _part_pair_gadget(ax, by, sigma, tau, core_x, core_y,
                                     nw_solver, undirected)
            np.minimum(out, cand, out=out)
    return out


def _part_pair_gadget(ax, by, sigma, tau, core_x, core_y, nw_solver,
                      undirected):
    """One 4-layer gadget: I (shift sigma), K1 (core x), K2 (core y), J (tau)."""
    n, inner = ax.shape
    setx, sety = set(core_x), set(core_y)
    k1_id, k2_id = {}, {}
    weights = list(sigma) + list(tau)
    nid = 2 * n
    for k in range(inner):
        for xv in core_x:
            k1_id[(k, xv)] = nid
            weights.append(xv)
            nid += 1
        for yv in core_y:
            k2_id[(k, yv)] = nid
            weights.append(yv)
            nid += 1
    edges = []
    used = False
    for k in range(inner):
        for xv in core_x:
            for yv in core_y:
                edges.append((k1_id[(k, xv)], k2_id[(k, yv)]))
    for i in range(n):
        for k in range(inner):
            v = ax[i, k]
            if v != POS_INF and int(v) - int(sigma[i]) in setx:
                edges.append((i, k1_id[(k, int(v) - int(sigma[i]))]))
                used = True
    for j in range(n):
        for k in range(inner):
            v = by[k, j]
            if v != POS_INF and int(v) - int(tau[j]) in sety:
                edges.append((k2_id[(k, int(v) - int(tau[j]))], n + j))
    out = np.full((n, n), POS_INF, dtype=np.int64)
    if not used:
        return out
    weights = np.array(weights, dtype=np.int64)
    bonus = 0
    offset = 0
    cap = None
    if undirected:
        # 10x the largest node magnitude forces shortest finite paths onto
        # the 4-layer shape; anything decoding above the largest legitimate
        # x+y+tau is a weaving path, i.e. not a real candidate
        top = max(1, int(np.abs(weights).max()))
        bonus = 10 * top
        cap = max(core_x) + max(core_y) + int(tau.max())
        weights = weights + bonus
        offset = 3 * bonus
        edges = edges + [(v, u) for (u, v) in edges]
    graph = NodeWeightedGraph(nid, edges, weights)
    dist = nw_solver(graph).data
    block = dist[np.ix_(np.arange(n), np.arange(n, 2 * n))]
    fin = block != POS_INF
    if cap is not None:
        fin &= (block - offset) <= cap
    out[fin] = block[fin] - offset + sigma[np.nonzero(fin)[0]]
    return out
