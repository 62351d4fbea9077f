"""Integer weight algebra, dense matrices, weighted graphs, and text file I/O.

Weights are 64-bit signed integers with three reserved sentinel encodings:
positive infinity (unreachable), negative infinity (negative-cycle reachable)
and "bot" (absent entry).  Finite magnitudes are capped by a configurable
bound U so that derived quantities like n*value+k never overflow int64.
"""

from __future__ import annotations

import numpy as np

# Sentinel encodings.  All finite weights must stay strictly below GUARD in
# absolute value; the default U leaves room for n*U+n witness encodings.
POS_INF = np.int64(2**62)
NEG_INF = np.int64(-(2**62))
BOT = np.int64(2**62 + 7)
GUARD = np.int64(2**61)
DEFAULT_U = 2**40

VALID_KINDS = ("finite", "pos_inf", "neg_inf", "bot")


class WeightError(ValueError):
    """Raised on invalid weight arithmetic (overflow, inf-inf, bot in min)."""


class FormatError(ValueError):
    """Raised on malformed matrix/graph files."""


class AuditError(ValueError):
    """Raised when a distinct-weights or regularity promise does not hold."""


class Weight:
    """A single weight value: finite integer, +inf, -inf, or bot."""

    __slots__ = ("raw",)

    def __init__(self, raw):
        raw = int(raw)
        if raw not in (POS_INF, NEG_INF, BOT) and abs(raw) >= GUARD:
            raise WeightError(f"finite weight {raw} exceeds the representable bound")
        self.raw = raw

    @classmethod
    def finite(cls, value):
        value = int(value)
        if abs(value) >= GUARD:
            raise WeightError(f"finite weight {value} exceeds the representable bound")
        return cls(value)

    @classmethod
    def pos_inf(cls):
        return cls(POS_INF)

    @classmethod
    def neg_inf(cls):
        return cls(NEG_INF)

    @classmethod
    def bot(cls):
        return cls(BOT)

    @property
    def kind(self):
        if self.raw == POS_INF:
            return "pos_inf"
        if self.raw == NEG_INF:
            return "neg_inf"
        if self.raw == BOT:
            return "bot"
        return "finite"

    @property
    def value(self):
        if self.kind != "finite":
            raise WeightError(f"{self.kind} weight has no finite value")
        return self.raw

    def is_finite(self):
        return self.kind == "finite"

    def __add__(self, other):
        if not isinstance(other, Weight):
            other = Weight.finite(other)
        a, b = self.kind, other.kind
        if a == "bot" or b == "bot":
            return Weight.bot()
        if a == "pos_inf" or b == "pos_inf":
            if a == "neg_inf" or b == "neg_inf":
                raise WeightError("pos_inf + neg_inf is undefined")
            return Weight.pos_inf()
        if a == "neg_inf" or b == "neg_inf":
            return Weight.neg_inf()
        s = self.raw + other.raw
        if abs(s) >= GUARD:
            raise WeightError(f"weight sum {s} overflows the representable bound")
        return Weight(s)

    __radd__ = __add__

    def min(self, other):
        if not isinstance(other, Weight):
            other = Weight.finite(other)
        if self.kind == "bot" or other.kind == "bot":
            raise WeightError("bot does not participate in min")
        return self if self.raw <= other.raw else other

    def __eq__(self, other):
        if isinstance(other, Weight):
            return self.raw == other.raw
        if isinstance(other, (int, np.integer)):
            return self.kind == "finite" and self.raw == int(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.raw)

    def __repr__(self):
        k = self.kind
        if k == "finite":
            return f"Weight({self.raw})"
        return f"Weight.{k}()"


def weight_min_empty():
    """min over an empty set of weights."""
    return Weight.pos_inf()


def token_to_raw(tok):
    if tok == "inf":
        return int(POS_INF)
    if tok == "-inf":
        return int(NEG_INF)
    if tok == "bot":
        return int(BOT)
    try:
        v = int(tok)
    except ValueError:
        raise FormatError(f"bad weight token {tok!r}") from None
    if abs(v) >= GUARD:
        raise FormatError(f"entry {v} out of range")
    return v


def raw_to_token(raw):
    raw = int(raw)
    if raw == POS_INF:
        return "inf"
    if raw == NEG_INF:
        return "-inf"
    if raw == BOT:
        return "bot"
    return str(raw)


def saturating_add(a, b):
    """Entrywise a+b on int64 arrays holding finite or pos_inf values.

    pos_inf absorbs; finite sums are assumed to stay below GUARD (callers
    bound their inputs).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inf = (a >= POS_INF) | (b >= POS_INF)
    out = np.where(inf, POS_INF, a + b)
    return out


class WeightMatrix:
    """Dense rectangular matrix of weights stored as an int64 array."""

    __slots__ = ("data",)

    def __init__(self, data, copy=True):
        arr = np.array(data, dtype=np.int64, copy=copy)
        if arr.ndim != 2:
            raise ValueError("WeightMatrix needs a 2-d array")
        arr.setflags(write=False)
        self.data = arr

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    @classmethod
    def full(cls, rows, cols, fill=POS_INF):
        return cls(np.full((rows, cols), fill, dtype=np.int64), copy=False)

    @classmethod
    def identity(cls, n):
        """Min-plus identity: zero diagonal, +inf off-diagonal."""
        m = np.full((n, n), POS_INF, dtype=np.int64)
        np.fill_diagonal(m, 0)
        return cls(m, copy=False)

    def restrict(self, row_idx, col_idx):
        """A[S, T]: restriction to the given row and column index sequences."""
        r = np.asarray(row_idx, dtype=np.intp)
        c = np.asarray(col_idx, dtype=np.intp)
        return WeightMatrix(self.data[np.ix_(r, c)], copy=False)

    def transpose(self):
        return WeightMatrix(self.data.T, copy=True)

    def entry(self, i, j):
        return Weight(int(self.data[i, j]))

    def finite_mask(self):
        return (self.data != POS_INF) & (self.data != NEG_INF) & (self.data != BOT)

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self):
        return f"WeightMatrix({self.rows}x{self.cols})"


class DistanceMatrix(WeightMatrix):
    """A WeightMatrix whose entry [u, v] is a shortest-path length.

    hop_bound, when set, marks the matrix as h-hop-bounded distances.
    """

    __slots__ = ("hop_bound",)

    def __init__(self, data, hop_bound=None, copy=True):
        super().__init__(data, copy=copy)
        self.hop_bound = hop_bound


class NodeWeightedGraph:
    """Directed graph with a finite integer weight on every node.

    The weight of a path v_0 .. v_l is w(v_1)+...+w(v_l): the first vertex is
    excluded so that concatenated paths add up.
    """

    __slots__ = ("n", "adj", "node_weight")

    def __init__(self, n, edges, node_weight):
        self.n = int(n)
        w = np.asarray(node_weight, dtype=np.int64)
        if w.shape != (self.n,):
            raise ValueError("node_weight must have one entry per node")
        if np.any(np.abs(w) >= GUARD):
            raise WeightError("node weight out of range")
        w.setflags(write=False)
        self.node_weight = w
        adj = [[] for _ in range(self.n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u].append(v)
        self.adj = tuple(np.array(sorted(set(a)), dtype=np.int64) for a in adj)

    @property
    def m(self):
        return int(sum(len(a) for a in self.adj))

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                yield u, int(v)

    def adjacency_bool(self):
        b = np.zeros((self.n, self.n), dtype=bool)
        for u in range(self.n):
            b[u, self.adj[u]] = True
        return b

    def reverse(self):
        return NodeWeightedGraph(self.n, [(v, u) for u, v in self.edges()], self.node_weight)


class EdgeWeightedGraph:
    """Directed graph with integer edge weights, stored as (u, v, w) triples."""

    __slots__ = ("n", "edge_array")

    def __init__(self, n, edges):
        self.n = int(n)
        arr = np.array(list(edges), dtype=np.int64).reshape(-1, 3)
        if arr.size and (arr[:, 0].min() < 0 or arr[:, 0].max() >= self.n
                         or arr[:, 1].min() < 0 or arr[:, 1].max() >= self.n):
            raise ValueError("edge endpoint out of range")
        if arr.size and np.any(np.abs(arr[:, 2]) >= GUARD):
            raise WeightError("edge weight out of range")
        arr.setflags(write=False)
        self.edge_array = arr

    @property
    def m(self):
        return self.edge_array.shape[0]

    def edges(self):
        for u, v, w in self.edge_array:
            yield int(u), int(v), int(w)

    def reverse(self):
        e = self.edge_array
        if e.size == 0:
            return EdgeWeightedGraph(self.n, [])
        return EdgeWeightedGraph(self.n, np.column_stack([e[:, 1], e[:, 0], e[:, 2]]))


def reverse_graph(g):
    """Flip all edge orientations, preserving weights."""
    return g.reverse()


def build_one_hop_matrix(g):
    """One-hop distance matrix D^{<=1} of a node- or edge-weighted graph.

    Entry [u, v] is the cheapest single edge u->v (target-node weight in the
    node-weighted case), 0 on the diagonal, +inf otherwise.
    """
    n = g.n
    m = np.full((n, n), POS_INF, dtype=np.int64)
    if isinstance(g, NodeWeightedGraph):
        for u in range(n):
            m[u, g.adj[u]] = g.node_weight[g.adj[u]]
    elif isinstance(g, EdgeWeightedGraph):
        for u, v, w in g.edges():
            if w < m[u, v]:
                m[u, v] = w
    else:
        raise TypeError(f"unsupported graph type {type(g)!r}")
    d = np.diagonal(m).copy()
    np.fill_diagonal(m, np.minimum(d, 0))
    return WeightMatrix(m, copy=False)


def one_hop_offdiag(g):
    """One-hop matrix restricted to actual edges (no implicit 0 diagonal).

    Hop-recurrence engines min against the previous iterate, which plays the
    role of the diagonal, so columns keep at most d distinct edge weights.
    """
    n = g.n
    m = np.full((n, n), POS_INF, dtype=np.int64)
    if isinstance(g, NodeWeightedGraph):
        for u in range(n):
            m[u, g.adj[u]] = g.node_weight[g.adj[u]]
    else:
        for u, v, w in g.edges():
            if w < m[u, v]:
                m[u, v] = w
    return m


def audit_distinct_weights(g):
    """Exact per-node distinct-weight maxima (max_out, max_in) of an edge-weighted graph."""
    if not isinstance(g, EdgeWeightedGraph):
        raise TypeError("audit_distinct_weights expects an EdgeWeightedGraph")
    e = g.edge_array
    # distinct (direction, node, weight) triples; direction 0 keys the tail
    # of an edge (outgoing), 1 its head (incoming)
    side = np.repeat(np.arange(2, dtype=np.int64), e.shape[0])
    keys = np.unique(np.column_stack([side, np.concatenate([e[:, 0], e[:, 1]]),
                                      np.tile(e[:, 2], 2)]), axis=0)
    counts = np.bincount(keys[:, 0] * g.n + keys[:, 1], minlength=2 * g.n)
    return int(counts[:g.n].max(initial=0)), int(counts[g.n:].max(initial=0))


def occurrence_stats(m, absent):
    """Occurrence counts and ranks of the entries of m within their rows.

    Entries equal to `absent` are skipped.  Returns (count, rank, distinct):
    count[i, j] is how often m[i, j] occurs in row i, rank[i, j] is the
    number of equal entries to its left in that row (both 0 at absent
    entries), and distinct[i] is the number of distinct values in row i.
    Column statistics are occurrence_stats(m.T, absent) transposed back.
    """
    m = np.asarray(m, dtype=np.int64)
    rows, cols = np.nonzero(m != absent)
    vals = m[rows, cols]
    # stable sort by (row, value): equal values keep their column order
    order = np.lexsort((vals, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (vals[1:] != vals[:-1])
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    sizes = np.diff(np.append(starts, rows.size))
    count = np.zeros(m.shape, dtype=np.int64)
    rank = np.zeros(m.shape, dtype=np.int64)
    count[rows, cols] = sizes[group]
    rank[rows, cols] = np.arange(rows.size) - starts[group]
    distinct = np.bincount(rows[starts], minlength=m.shape[0])
    return count, rank, distinct


# ----------------------------------------------------------------------------
# File I/O.
#
# Matrix file: first line "rows cols", then `rows` lines of whitespace-
# separated tokens (integer, "inf", "-inf", "bot").
#
# Graph file: first line "n m node-weighted|edge-weighted"; node-weighted
# files continue with n lines "v w" and m lines "u v"; edge-weighted files
# continue with m lines "u v w".  Node ids are 0-based.
# ----------------------------------------------------------------------------

def save_matrix(mat, path):
    with open(path, "w") as f:
        f.write(f"{mat.rows} {mat.cols}\n")
        for i in range(mat.rows):
            f.write(" ".join(raw_to_token(x) for x in mat.data[i]) + "\n")


def load_matrix(path):
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise FormatError("matrix header must be 'rows cols'")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError("matrix header must be 'rows cols'") from None
        if rows < 0 or cols < 0:
            raise FormatError("negative matrix dimensions")
        data = np.empty((rows, cols), dtype=np.int64)
        for i in range(rows):
            toks = f.readline().split()
            if len(toks) != cols:
                raise FormatError(f"row {i} has {len(toks)} entries, expected {cols}")
            data[i] = [token_to_raw(t) for t in toks]
        if f.readline().strip():
            raise FormatError("trailing data after matrix rows")
    return WeightMatrix(data, copy=False)


def save_graph(g, path):
    with open(path, "w") as f:
        if isinstance(g, NodeWeightedGraph):
            f.write(f"{g.n} {g.m} node-weighted\n")
            for v in range(g.n):
                f.write(f"{v} {int(g.node_weight[v])}\n")
            for u, v in g.edges():
                f.write(f"{u} {v}\n")
        elif isinstance(g, EdgeWeightedGraph):
            f.write(f"{g.n} {g.m} edge-weighted\n")
            for u, v, w in g.edges():
                f.write(f"{u} {v} {w}\n")
        else:
            raise TypeError(f"unsupported graph type {type(g)!r}")


def _node_id(tok, n):
    try:
        v = int(tok)
    except ValueError:
        raise FormatError(f"bad node id {tok!r}") from None
    if not (0 <= v < n):
        raise FormatError(f"node id {v} out of range for n={n}")
    return v


def load_graph(path):
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 3 or header[2] not in ("node-weighted", "edge-weighted"):
            raise FormatError("graph header must be 'n m node-weighted|edge-weighted'")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError("graph header must be 'n m kind'") from None
        if n < 0 or m < 0:
            raise FormatError("negative graph dimensions")
        if header[2] == "node-weighted":
            weights = np.zeros(n, dtype=np.int64)
            seen = set()
            for _ in range(n):
                toks = f.readline().split()
                if len(toks) != 2:
                    raise FormatError("node-weight line must be 'v w'")
                v, w = _node_id(toks[0], n), token_to_raw(toks[1])
                if w in (POS_INF, NEG_INF, BOT):
                    raise FormatError("node weights must be finite")
                if v in seen:
                    raise FormatError(f"duplicate node id {v}")
                seen.add(v)
                weights[v] = w
            edges = []
            for _ in range(m):
                toks = f.readline().split()
                if len(toks) != 2:
                    raise FormatError("edge line must be 'u v'")
                edges.append((_node_id(toks[0], n), _node_id(toks[1], n)))
            if f.readline().strip():
                raise FormatError("trailing data after edges")
            return NodeWeightedGraph(n, edges, weights)
        else:
            edges = []
            for _ in range(m):
                toks = f.readline().split()
                if len(toks) != 3:
                    raise FormatError("edge line must be 'u v w'")
                w = token_to_raw(toks[2])
                if w in (POS_INF, NEG_INF, BOT):
                    raise FormatError("edge weights must be finite")
                edges.append((_node_id(toks[0], n), _node_id(toks[1], n), w))
            if f.readline().strip():
                raise FormatError("trailing data after edges")
            return EdgeWeightedGraph(n, edges)
