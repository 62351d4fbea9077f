"""Benchmark suites: kernel crossover, APSP and exact-triangle comparisons.

Each suite returns machine-readable rows (dicts with fixed keys) plus a
rendered text table of per-(algorithm, n, d) median wall times.
"""

from __future__ import annotations

import time

import numpy as np

from . import minplus as mp
from .apsp import apsp_oracle, solve_apsp
from .core import POS_INF, WeightMatrix, _as_data
from .exact_triangle import aete_brute, aete_few_weights
from .generators import (
    random_dweights_graph,
    random_node_weighted_graph,
    random_triangle_instance,
    random_weight_matrix,
)


def _timed(fn):
    t0 = time.perf_counter_ns()
    out = fn()
    return out, time.perf_counter_ns() - t0


def bench_kernels(sizes, seeds, density=0.5):
    """BLAS vs naive boolean matrix product."""
    rows = []
    for n in sizes:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            p = rng.random((n, n)) < density
            q = rng.random((n, n)) < density
            got, t_blas = _timed(lambda: mp.boolean_matrix_multiply(p, q))
            want, t_naive = _timed(lambda: mp.boolean_matmul_naive(p, q))
            ok = bool(np.array_equal(got, want))
            rows.append({"algo": "bool-blas", "n": n, "d": 0, "seed": seed,
                         "wall_ns": t_blas, "ok": ok})
            rows.append({"algo": "bool-naive", "n": n, "d": 0, "seed": seed,
                         "wall_ns": t_naive, "ok": ok})
    return rows


def _dense_palette(n, rng):
    """n x n, 70 % finite, each column's entries from its own 4 values."""
    palette = rng.integers(0, n, size=(4, n))
    return np.where(rng.random((n, n)) < 0.7,
                    palette[rng.integers(0, 4, size=(n, n)), np.arange(n)], POS_INF)


def _sparse_many_values(n, rng):
    """n x n, 5 % finite, entries drawn from [-n, n): most distinct per column."""
    return np.where(rng.random((n, n)) < 0.05,
                    rng.integers(-n, n, size=(n, n)), POS_INF)


def _dweights_row(algo, n, d, seed, xs, op, product):
    """One d-weights row: product(x) for each x in xs, against the naive product.

    ok when every value matches min_plus_naive against the operand op's B
    and every finite entry has a witness k with x[i, k] + B[k, j] equal to
    it; the time is the mean.
    """
    bw = op.data
    ok, total = True, 0
    for x in xs:
        (got, wit), t = _timed(lambda: product(x))
        got = _as_data(got)
        r, c = np.nonzero(got != POS_INF)
        ok = (ok and np.array_equal(got, mp.min_plus_naive(x, WeightMatrix(bw)).data)
              and np.count_nonzero(wit >= 0) == r.size
              and bool((x.data[r, wit[r, c]] + bw[wit[r, c], c] == got[r, c]).all()))
        total += t
    return {"algo": algo, "n": n, "d": d, "seed": seed,
            "wall_ns": total // len(xs), "ok": ok}


def bench_minplus_crossover(n, seeds):
    """The d-weights kernel, and its 0/+inf case, vs the naive product.

    boolean_min_plus (the kernel on a boolean B's 0/+inf operand, built per
    call) runs in the node-weighted product shape: s = max(1, n // 8) rows
    against a boolean n x n matrix (naive runs on the 0/w equivalent
    matrix).  The minplus-naive row is ok when the naive product equals
    boolean_min_plus plus the column weights, on A and on A with its finite
    entries shifted by 2^40, so that both dtypes of min_plus_naive are
    checked against an independent kernel; its time is that of the
    unshifted product.  The boolean-minplus row is ok when it equals the
    naive product.

    d_weights_min_plus runs against a dense n x n matrix with at most 4
    distinct entries per column (d = 4), through one prepared operand used
    for two s-row products, so its cost rule picks the route.  Each of its
    two routes, dweights-gather and dweights-bucket, runs the same two
    products against that matrix and against a sparse one with many
    distinct entries per column (reported as d = n).  A d-weights
    row is ok when both products match the naive product, witnesses
    included, and its time is the mean of the two.
    """
    rows = []
    s = max(1, n // 8)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        a = random_weight_matrix(s, n, rng, low=0, high=n, inf_density=0.1)
        adj = rng.random((n, n)) < 0.3
        w = rng.integers(0, n, size=n)
        bmat = np.where(adj, w[None, :].repeat(n, axis=0),
                        POS_INF).astype(np.int64)

        def plus_w(vals):
            return np.where(vals == POS_INF, vals, vals + w[None, :])

        want, t_naive = _timed(lambda: mp.min_plus_naive(a, WeightMatrix(bmat)))
        shifted = WeightMatrix(np.where(a.data == POS_INF, POS_INF, a.data + 2**40))
        ok = all(np.array_equal(
            naive.data,
            plus_w(mp.boolean_min_plus(x, adj, return_witnesses=False)[0].data))
            for x, naive in ((a, want),
                             (shifted, mp.min_plus_naive(shifted, WeightMatrix(bmat)))))
        rows.append({"algo": "minplus-naive", "n": n, "d": 1, "seed": seed,
                     "wall_ns": t_naive, "ok": ok})
        (got, _), t_k = _timed(lambda: mp.boolean_min_plus(a, adj))
        ok = bool(np.array_equal(plus_w(got.data), want.data))
        rows.append({"algo": "boolean-minplus", "n": n, "d": 1, "seed": seed,
                     "wall_ns": t_k, "ok": ok})
        dense = mp.DWeightsOperand(_dense_palette(n, rng), d=4)
        xs = (a, random_weight_matrix(s, n, rng, low=-n, high=n, inf_density=0.1))
        sparse = mp.DWeightsOperand(_sparse_many_values(n, rng))
        rows.append(_dweights_row("dweights-minplus", n, 4, seed, xs, dense,
                                  lambda x: mp.d_weights_min_plus(
                                      x, dense, return_witnesses=True)))
        for op, d in ((dense, 4), (sparse, n)):
            rows.append(_dweights_row("dweights-gather", n, d, seed, xs, op,
                                      lambda x: mp._dweights_gather(x.data, op, True)))
            rows.append(_dweights_row("dweights-bucket", n, d, seed, xs, op,
                                      lambda x: mp._dweights_bucketed(x.data, op, True)))
    return rows


def bench_apsp(sizes, seeds, d=4, h=4):
    """Oracle vs the pivot solvers on random graphs."""
    rows = []
    for n in sizes:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            g = random_node_weighted_graph(n, rng)
            want, t0 = _timed(lambda: apsp_oracle(g))
            rows.append({"algo": "oracle", "n": n, "d": 1, "seed": seed,
                         "wall_ns": t0, "ok": True})
            for algo in ("nw-det", "nw-rand"):
                got, t1 = _timed(lambda: solve_apsp(
                    g, algo, h=h, rng=np.random.default_rng(seed)))
                rows.append({"algo": algo, "n": n, "d": 1, "seed": seed,
                             "wall_ns": t1,
                             "ok": bool(np.array_equal(got.data, want.data))})
            ge = random_dweights_graph(n, d, rng)
            wante, t2 = _timed(lambda: apsp_oracle(ge))
            got, t3 = _timed(lambda: solve_apsp(ge, "dweights", h=h, d=d))
            rows.append({"algo": "dweights", "n": n, "d": d, "seed": seed,
                         "wall_ns": t3,
                         "ok": bool(np.array_equal(got.data, wante.data))})
    return rows


def bench_triangle(sizes, seeds, d=4):
    """aete_few_weights vs aete_brute on random d-weights instances."""
    rows = []
    for n in sizes:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            inst, _ = random_triangle_instance(n, d, rng, planted=2)
            want, t0 = _timed(lambda: aete_brute(inst, with_witnesses=False))
            got, t1 = _timed(lambda: aete_few_weights(inst, d, 28.0, rng=rng))
            ok = bool(np.array_equal(got.yes, want.yes))
            rows += [{"algo": algo, "n": n, "d": d, "seed": seed,
                      "wall_ns": t, "ok": ok}
                     for algo, t in (("aete-brute", t0), ("aete-few-weights", t1))]
    return rows


def median_table(rows):
    """Median wall time per (algo, n, d) as a fixed-width text table."""
    groups = {}
    for r in rows:
        groups.setdefault((r["algo"], r["n"], r["d"]), []).append(r)
    lines = [f"{'algo':<24}{'n':>7}{'d':>5}{'median_ms':>12}{'ok':>5}"]
    for (algo, n, d) in sorted(groups):
        g = groups[(algo, n, d)]
        med = float(np.median([r["wall_ns"] for r in g])) / 1e6
        ok = all(r.get("ok", True) for r in g)
        lines.append(f"{algo:<24}{n:>7}{d:>5}{med:>12.3f}{str(ok):>5}")
    return "\n".join(lines) + "\n"


SUITES = {
    "kernels": lambda sizes, seeds: bench_kernels(sizes, seeds),
    "minplus": lambda sizes, seeds: [r for n in sizes
                                     for r in bench_minplus_crossover(n, seeds)],
    "apsp": lambda sizes, seeds: bench_apsp(sizes, seeds),
    "triangle": bench_triangle,
}
