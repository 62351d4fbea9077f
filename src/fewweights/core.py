"""Integer weight algebra, dense matrices, weighted graphs, and text file I/O.

Weights are 64-bit signed integers with three reserved sentinel encodings:
positive infinity (unreachable), negative infinity (negative-cycle reachable)
and "bot" (absent entry).  Finite magnitudes stay below GUARD.
"""

from __future__ import annotations

import math

import numpy as np

# Sentinel encodings.  All finite weights must stay strictly below GUARD in
# absolute value.
POS_INF = np.int64(2**62)
NEG_INF = np.int64(-(2**62))
BOT = np.int64(2**62 + 7)
GUARD = np.int64(2**61)


class WeightError(ValueError):
    """Raised on invalid weight arithmetic (overflow, inf-inf, bot in min)."""


class FormatError(ValueError):
    """Raised on malformed matrix/graph files."""


class AuditError(ValueError):
    """Raised when a distinct-weights or regularity promise does not hold."""


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
    return np.where(inf, POS_INF, a + b)


def sum_tier(top):
    """(dtype, lift L, cut) of the narrowest w-bit integer dtype, w = 16, 32
    or 64, with top <= 2^(w-4), L = 2^(w-2) - 1 and cut 2^(w-3): a sum of two
    entries of magnitude at most top lies within +-cut, a sum through an
    entry lifted to L is at least L - top > cut, and L + L does not wrap.
    None when top > 2^60."""
    for dtype in (np.int16, np.int32, np.int64):
        w = np.iinfo(dtype).bits
        if top <= 2 ** (w - 4):
            return dtype, 2 ** (w - 2) - 1, 2 ** (w - 3)
    return None


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

    def finite_mask(self):
        return (self.data != POS_INF) & (self.data != NEG_INF) & (self.data != BOT)

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self):
        return f"WeightMatrix({self.rows}x{self.cols})"


def _as_data(mat):
    """The int64 array of a WeightMatrix, or `mat` as an int64 array."""
    if isinstance(mat, WeightMatrix):
        return mat.data
    return np.asarray(mat, dtype=np.int64)


def _int_rows(rows, width):
    """`rows` as an (m, width) int64 array; an array skips the list round trip."""
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    return np.array(rows, dtype=np.int64).reshape(-1, width)


class EdgeWeightedGraph:
    """Directed graph with integer edge weights, stored as (u, v, w) triples.

    `edges` is an (m, 3) integer array or a sequence of (u, v, w) triples.
    A node-weighted graph is the edge graph whose edges into v weigh w(v)
    (node_weighted_graph).
    """

    __slots__ = ("n", "edge_array")

    def __init__(self, n, edges):
        self.n = int(n)
        arr = _int_rows(edges, 3)
        if arr.size and (arr[:, :2].min() < 0 or arr[:, :2].max() >= self.n):
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
        return EdgeWeightedGraph(self.n, self.edge_array[:, [1, 0, 2]])


def node_weighted_graph(n, edges, node_weight):
    """Edge graph of a node-weighted digraph: one edge (u, v, w(v)) per
    distinct pair (u, v) of `edges`, sorted by (u, v).

    The weight of a path v_0 .. v_l is then w(v_1)+...+w(v_l): the first
    vertex is excluded so that concatenated paths add up.  Every column of
    the one-hop matrix holds one weight, so the d-weights kernel of its hop
    products has one slot per nonempty column.
    """
    n = int(n)
    w = np.asarray(node_weight, dtype=np.int64)
    if w.shape != (n,):
        raise ValueError("node_weight must have one entry per node")
    if np.any(np.abs(w) >= GUARD):
        raise WeightError("node weight out of range")
    uv = _int_rows(edges, 2)
    if uv.size and (uv.min() < 0 or uv.max() >= n):
        raise ValueError("edge endpoint out of range")
    u, v = np.divmod(np.unique(uv[:, 0] * n + uv[:, 1]), max(n, 1))
    return EdgeWeightedGraph(n, np.column_stack([u, v, w[v]]))


def one_hop_offdiag(g):
    """One-hop matrix restricted to actual edges (no implicit 0 diagonal).

    Entry [u, v] is the cheapest single edge u->v, +inf otherwise.  The hop
    recurrence mins against the previous iterate, which plays the role of
    the diagonal, so columns keep at most d distinct edge weights.
    """
    m = np.full((g.n, g.n), POS_INF, dtype=np.int64)
    e = g.edge_array
    np.minimum.at(m, (e[:, 0], e[:, 1]), e[:, 2])
    return m


def build_one_hop_matrix(g):
    """One-hop distance matrix D^{<=1}: one_hop_offdiag with a 0 diagonal
    (a negative self-loop keeps its weight)."""
    m = one_hop_offdiag(g)
    np.fill_diagonal(m, np.minimum(np.diagonal(m), 0))
    return WeightMatrix(m, copy=False)


def _distinct_pairs(line, value, lines):
    """The distinct (line, value) pairs, by line and then value, and their
    count per line: one lexsort and a neighbour test.  Returns (line,
    value, counts) with counts of length `lines`."""
    order = np.lexsort((value, line))
    line, value = line[order], value[order]
    first = np.ones(line.size, dtype=bool)
    first[1:] = (line[1:] != line[:-1]) | (value[1:] != value[:-1])
    line, value = line[first], value[first]
    return line, value, np.bincount(line, minlength=lines)


def audit_distinct_weights(g):
    """Exact per-node distinct-weight maxima (max_out, max_in) of a graph.

    Each edge gives two (line, weight) pairs: line u for its tail (outgoing)
    and n + v for its head (incoming); _distinct_pairs counts the distinct
    pairs per line.
    """
    e = g.edge_array
    counts = _distinct_pairs(np.concatenate([e[:, 0], g.n + e[:, 1]]),
                             np.tile(e[:, 2], 2), 2 * g.n)[2]
    return int(counts[:g.n].max(initial=0)), int(counts[g.n:].max(initial=0))


def require_distinct_weights(g, d, promise):
    """Raise AuditError unless every node of g has at most d distinct weights
    on its outgoing (promise "out") or incoming ("in") edges; d=None skips
    the check.  Any other promise is a ValueError."""
    if promise not in ("out", "in"):
        raise ValueError(f"promise must be 'out' or 'in', not {promise!r}")
    if d is None:
        return
    actual = audit_distinct_weights(g)[promise == "in"]
    if actual > d:
        raise AuditError(f"{promise}-distinct audit failed: {actual} > {d}")


def _sorted_lines(lines, kind=None):
    """Each row of a 2-d array sorted: (flat indices, values), row-major."""
    flat = np.argsort(lines, axis=1, kind=kind)
    flat += np.arange(lines.shape[0])[:, None] * lines.shape[1]
    flat = flat.ravel()
    return flat, lines.ravel()[flat]


def _run_firsts(vals, size):
    """Where runs of equal values start in sorted rows of length size."""
    first = np.ones(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=first[1:])
    first[::max(1, size)] = True
    return first


def _stack_codes(stack):
    """(nv, codes, vals) of each matrix of a stack (matrices on axis 0): its
    number of distinct present values, each entry's value rank (BOT, the
    largest, gets nv), and its values by rank in a row of an (M, w + 1)
    table (w the largest nv; slots from nv on are padding)."""
    lines = stack.reshape(stack.shape[0], math.prod(stack.shape[1:]))
    flat, vals = _sorted_lines(lines)
    rank = np.cumsum(_run_firsts(vals, lines.shape[1]), dtype=np.int32)
    rank = rank.reshape(lines.shape)
    rank -= rank[:, :1]
    codes = np.empty(lines.size, dtype=np.int32)
    codes[flat] = rank.ravel()
    vals = vals.reshape(lines.shape)
    if lines.shape[1]:
        nv = rank[:, -1] + (vals[:, -1] != BOT)
    else:
        nv = np.zeros(lines.shape[0], dtype=np.int32)
    table = np.zeros((lines.shape[0], int(nv.max(initial=0)) + 1), dtype=np.int64)
    table[np.arange(lines.shape[0])[:, None],
          np.minimum(rank, table.shape[1] - 1)] = vals
    return nv.astype(np.int64), codes.reshape(stack.shape), table


def _line_runs(m, axis, ranks=True):
    """Per entry of a stack of matrices: how often its value occurs in its
    row (axis -1) or column (axis -2) and, if `ranks`, how many equal
    values come before it there.  One sort per line (a stable one for
    ranks)."""
    x = m if axis == -1 else m.swapaxes(-1, -2)
    size = x.shape[-1]
    flat, vals = _sorted_lines(x.reshape(math.prod(x.shape[:-1]), size),
                               "stable" if ranks else None)
    first = _run_firsts(vals, size)
    run = np.cumsum(first, dtype=np.int32)
    run -= 1
    starts = np.flatnonzero(first).astype(np.int32)
    length = np.empty_like(starts)
    length[:-1] = starts[1:] - starts[:-1]
    length[-1:] = flat.size - starts[-1:]
    out = [np.empty(flat.size, dtype=np.int32)]
    out[0][flat] = length[run]
    if ranks:
        out.append(np.empty(flat.size, dtype=np.int32))
        out[1][flat] = np.arange(flat.size, dtype=np.int32) - starts[run]
    out = [v.reshape(x.shape) for v in out]
    return tuple(out if axis == -1 else (v.swapaxes(-1, -2) for v in out))


def occurrence_stats(m, absent):
    """Occurrence counts and ranks of the entries of m within their rows.

    Entries equal to `absent` are skipped.  Returns (count, rank, distinct):
    count[i, j] is how often m[i, j] occurs in row i, rank[i, j] is the
    number of equal entries to its left in that row (both 0 at absent
    entries), and distinct[i] is the number of distinct values in row i.
    Column statistics are occurrence_stats(m.T, absent) transposed back.
    """
    m = np.asarray(m, dtype=np.int64)
    present = m != absent
    count, rank = _line_runs(m, -1)
    count, rank = np.where(present, count, 0), np.where(present, rank, 0)
    return count, rank, (present & (rank == 0)).sum(axis=1)


def row_values(m, absent):
    """Per row of m, its distinct values other than `absent` (BOT counts as
    absent too), as a padded family (vals, valid, slot): vals holds each
    row's values in ascending order, zero-padded to the widest row (at least
    one slot), valid marks the real slots, and slot[i, k] is the slot of
    m[i, k] in row i (-1 where it is absent).  The value codes of
    _stack_codes; the column form is row_values(m.T, absent)."""
    nv, codes, table = _stack_codes(np.where(m == absent, BOT, m))
    valid = np.arange(max(1, nv.max(initial=0))) < nv[:, None]
    return (np.where(valid, table[:, :valid.shape[1]], 0), valid,
            np.where(codes < nv[:, None], codes, -1))


# ----------------------------------------------------------------------------
# File I/O.
#
# Matrix file: first line "rows cols", then `rows` lines of whitespace-
# separated tokens (integer, "inf", "-inf", "bot").
#
# Graph file: first line "n m node-weighted|edge-weighted"; node-weighted
# files continue with n lines "v w" and m lines "u v"; edge-weighted files
# continue with m lines "u v w".  Node ids are 0-based.  Both load as an
# EdgeWeightedGraph; save_graph writes the edge-weighted form.
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
        f.write(f"{g.n} {g.m} edge-weighted\n")
        for u, v, w in g.edges():
            f.write(f"{u} {v} {w}\n")


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
            return node_weighted_graph(n, edges, weights)
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
