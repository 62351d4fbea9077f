"""Command-line front end: instance generation, solving, verification,
benchmark tables, and reduction converters.

Exit codes: 0 success, 2 verification mismatch, 3 input/audit error,
4 parameter error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import minplus as mp
from .apsp import apsp_oracle, solve_apsp
from .core import (
    AuditError,
    FormatError,
    WeightError,
    WeightMatrix,
    load_graph,
    load_matrix,
    save_graph,
    save_matrix,
)
from .exact_triangle import (
    TriangleInstance,
    aete_brute,
    aete_few_weights,
    aete_small_doubling,
    aete_uniform_regular,
)
from .generators import (
    random_dweights_graph,
    random_node_weighted_graph,
    random_triangle_instance,
    random_weight_matrix,
)
from .reductions import (
    PromiseViolation,
    apsp_from_minplus,
    gen_bounded_minplus_gadget,
    gen_column_weight_gadget,
    make_scaling_promise,
    minplus_from_aete,
    row_weight_minplus_via_nw_apsp,
)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INPUT = 3
EXIT_PARAM = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_PARAM, f"{self.prog}: error: {message}\n")


@dataclasses.dataclass
class RunConfig:
    """Everything needed to reproduce a run byte-for-byte."""

    algo: str
    seed: int = 0
    inputs: list = dataclasses.field(default_factory=list)
    out: str = "."
    verify: bool = False
    params: dict = dataclasses.field(default_factory=dict)

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


def _write_config(cfg, outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.json").write_text(cfg.to_json() + "\n")


def _append_timing(outdir, record):
    with open(outdir / "timing.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def save_instance(inst, outdir, d=None, prefix="instance"):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, mat in (("A", inst.a), ("B", inst.b), ("C", inst.c)):
        p = outdir / f"{prefix}_{name}.mat"
        save_matrix(mat, p)
        paths[name] = p.name
    man = outdir / f"{prefix}.tri"
    with open(man, "w") as f:
        for name in ("A", "B", "C"):
            f.write(f"{name} {paths[name]}\n")
        f.write(f"d {d if d is not None else 0}\n")
        f.write(f"promise {inst.promise}\n")
    return man


def load_instance(path):
    path = Path(path)
    fields = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"bad manifest line {line!r}")
            fields[parts[0]] = parts[1]
    for key in ("A", "B", "C", "promise"):
        if key not in fields:
            raise FormatError(f"manifest missing field {key}")
    mats = [load_matrix(path.parent / fields[k]) for k in ("A", "B", "C")]
    inst = TriangleInstance(*mats, promise=fields["promise"])
    return inst, int(fields.get("d", 0)) or None


def _report_to_matrix(report):
    return WeightMatrix(report.yes.astype(np.int64))


# ----------------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------------

def cmd_gen(args):
    rng = np.random.default_rng(args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(algo=f"gen-{args.kind}", seed=args.seed, out=str(outdir),
                    params={"n": args.n, "d": args.d, "density": args.density,
                            "low": args.low, "high": args.high,
                            "eps": args.eps, "undirected": args.undirected,
                            "negative_cycle": args.negative_cycle,
                            "planted": args.planted})
    manifest = {"kind": args.kind, "seed": args.seed}
    if args.kind == "nw-graph":
        g = random_node_weighted_graph(args.n, rng, density=args.density,
                                       low=args.low, high=args.high,
                                       negative_cycle=args.negative_cycle)
        save_graph(g, outdir / "graph.txt")
        manifest["graph"] = "graph.txt"
    elif args.kind == "dweights-graph":
        g = random_dweights_graph(args.n, args.d, rng, density=args.density,
                                  low=args.low, high=args.high,
                                  promise=args.promise_dir,
                                  negative_cycle=args.negative_cycle)
        save_graph(g, outdir / "graph.txt")
        manifest["graph"] = "graph.txt"
        manifest["promise"] = args.promise_dir
        manifest["d"] = args.d
    elif args.kind == "minplus":
        a = random_weight_matrix(args.n, args.n, rng, low=max(args.low, 0),
                                 high=args.high)
        b = random_weight_matrix(args.n, args.n, rng, low=max(args.low, 0),
                                 high=args.high)
        save_matrix(a, outdir / "A.mat")
        save_matrix(b, outdir / "B.mat")
        manifest.update(A="A.mat", B="B.mat")
    elif args.kind == "exact-tri":
        inst, planted = random_triangle_instance(
            args.n, args.d, rng, promise=args.promise,
            low=args.low, high=args.high, planted=args.planted)
        man = save_instance(inst, outdir, d=args.d)
        manifest["instance"] = man.name
        manifest["planted"] = [list(t) for t in planted]
    elif args.kind == "gadget-bounded":
        n = args.n
        s = int(round(n ** (0.5 + args.eps)))
        cap = int(np.ceil(n ** (0.5 + args.eps)))
        a = WeightMatrix(rng.integers(0, cap, size=(n, s)))
        b = WeightMatrix(rng.integers(0, cap, size=(s, n)))
        gg = gen_bounded_minplus_gadget(a, b, args.eps,
                                        undirected=args.undirected)
        save_matrix(a, outdir / "A.mat")
        save_matrix(b, outdir / "B.mat")
        save_graph(gg.graph, outdir / "gadget.txt")
        manifest.update(A="A.mat", B="B.mat", graph="gadget.txt",
                        offset=gg.offset,
                        sources=gg.sources.tolist(), sinks=gg.sinks.tolist(),
                        finite_cap=gg.finite_cap)
    elif args.kind == "gadget-column":
        n, inner = args.n, max(1, args.n // max(args.d, 1))
        a = np.empty((n, inner), dtype=np.int64)
        for k in range(inner):
            palette = rng.integers(max(args.low, 0), args.high, size=args.d)
            a[:, k] = palette[rng.integers(0, args.d, size=n)]
        b = np.empty((inner, n), dtype=np.int64)
        for k in range(inner):
            palette = rng.integers(max(args.low, 0), args.high, size=args.d)
            b[k, :] = palette[rng.integers(0, args.d, size=n)]
        a, b = WeightMatrix(a), WeightMatrix(b)
        gg = gen_column_weight_gadget(a, b, undirected=args.undirected)
        save_matrix(a, outdir / "A.mat")
        save_matrix(b, outdir / "B.mat")
        save_graph(gg.graph, outdir / "gadget.txt")
        manifest.update(A="A.mat", B="B.mat", graph="gadget.txt",
                        offset=gg.offset,
                        sources=gg.sources.tolist(), sinks=gg.sinks.tolist(),
                        finite_cap=gg.finite_cap)
    else:
        raise ValueError(f"unknown kind {args.kind}")
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _write_config(cfg, outdir)
    return EXIT_OK


# ----------------------------------------------------------------------------
# run / verify
# ----------------------------------------------------------------------------

_GRAPH_ALGOS = ("oracle", "nw-det", "nw-rand", "dweights")
_TRI_ALGOS = ("aete-brute", "aete-small-doubling", "aete-uniform-regular",
              "aete-few-weights")
_MINPLUS_ALGOS = ("minplus-naive", "minplus-dweights")


def _run_graph(args, rng):
    g = load_graph(args.input)
    dist = solve_apsp(g, args.algo, h=args.h, rng=rng, d=args.d,
                      promise=args.promise_dir, constant=args.constant)
    ref = apsp_oracle(g) if (args.verify and args.algo != "oracle") else None
    return dist, (None if ref is None else bool(np.array_equal(dist.data, ref.data))), g.n


def _run_triangle(args, rng):
    inst, d_declared = load_instance(args.input)
    d = args.d if args.d is not None else (d_declared or inst.n)
    if args.algo == "aete-brute":
        rep = aete_brute(inst)
    elif args.algo == "aete-small-doubling":
        rep = aete_small_doubling(inst)
    elif args.algo == "aete-uniform-regular":
        rep = aete_uniform_regular(inst, d, args.K, rng)
    else:
        rep = aete_few_weights(inst, d, args.delta_exp, delta=args.delta,
                               omega_hat=args.omega_hat, rng=rng)
    ok = None
    if args.verify and args.algo != "aete-brute":
        ok = bool(rep == aete_brute(inst, with_witnesses=False))
    return _report_to_matrix(rep), ok, inst.n


def _run_minplus(args, rng):
    a = load_matrix(args.input)
    b = load_matrix(args.input_b)
    if args.algo == "minplus-naive":
        res = mp.min_plus_naive(a, b)
    else:
        res = mp.d_weights_min_plus(a, b, d=args.d)
    ok = None
    if args.verify and args.algo != "minplus-naive":
        ok = bool(res == mp.min_plus_naive(a, b))
    return res, ok, a.rows


def cmd_run(args):
    if args.delta is not None and args.algo != "aete-few-weights":
        raise ValueError("--delta applies to aete-few-weights only")
    rng = np.random.default_rng(args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(algo=args.algo, seed=args.seed,
                    inputs=[args.input] + ([args.input_b] if args.input_b else []),
                    out=str(outdir), verify=args.verify,
                    params={k: getattr(args, k) for k in
                            ("h", "delta", "d", "K", "delta_exp", "omega_hat",
                             "constant", "promise_dir")})
    _write_config(cfg, outdir)
    mp.reset_counters()
    t0 = time.perf_counter_ns()
    if args.algo in _GRAPH_ALGOS:
        result, ok, n = _run_graph(args, rng)
    elif args.algo in _TRI_ALGOS:
        result, ok, n = _run_triangle(args, rng)
    elif args.algo in _MINPLUS_ALGOS:
        result, ok, n = _run_minplus(args, rng)
    else:
        raise ValueError(f"unknown algorithm {args.algo}")
    wall = time.perf_counter_ns() - t0
    save_matrix(result, outdir / "result.mat")
    _append_timing(outdir, {"algo": args.algo, "n": n, "d": args.d or 0,
                            "seed": args.seed, "wall_ns": wall,
                            "ops": mp.snapshot_counters()})
    if ok is False:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    if ok is True:
        print("verification ok")
    return EXIT_OK


def cmd_verify(args):
    result = load_matrix(args.result)
    if args.kind == "apsp":
        g = load_graph(args.input)
        ref = apsp_oracle(g)
        ok = result == WeightMatrix(ref.data)
    elif args.kind == "exact-tri":
        inst, _ = load_instance(args.input)
        ref = aete_brute(inst, with_witnesses=False)
        ok = bool(np.array_equal(result.data.astype(bool), ref.yes))
    else:
        a = load_matrix(args.input)
        b = load_matrix(args.input_b)
        ok = result == mp.min_plus_naive(a, b)
    print("match" if ok else "MISMATCH")
    return EXIT_OK if ok else EXIT_VERIFY


# ----------------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------------

def cmd_bench(args):
    sizes = [int(x) for x in args.sizes.split(",")]
    seeds = list(range(args.seed, args.seed + args.runs))
    if args.suite not in bench_mod.SUITES:
        raise ValueError(f"unknown suite {args.suite}")
    if args.suite == "triangle":
        d = 4 if args.d is None else args.d
        if d < 1:
            raise ValueError("--d must be >= 1")
        rows = bench_mod.bench_triangle(sizes, seeds, d=d)
    elif args.d is not None:
        raise ValueError("--d applies to the triangle suite only")
    else:
        rows = bench_mod.SUITES[args.suite](sizes, seeds)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "bench.jsonl", "w") as f:
        for r in rows:
            f.write(json.dumps(r, sort_keys=True) + "\n")
    table = bench_mod.median_table(rows)
    (outdir / "table.txt").write_text(table)
    print(table, end="")
    if not all(r.get("ok", True) for r in rows):
        print("bench correctness column has failures", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ----------------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------------

def cmd_reduce(args):
    rng = np.random.default_rng(args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.name == "minplus-from-aete":
        a = load_matrix(args.input)
        b = load_matrix(args.input_b)
        res = minplus_from_aete(a, b, args.d, aete_brute)
    elif args.name == "apsp-from-minplus":
        g = load_graph(args.input)
        res = apsp_from_minplus(g, args.d, lambda x, y: mp.min_plus_naive(x, y),
                                eps=args.eps if args.eps is not None else 1.0)
    elif args.name == "make-promise":
        a = load_matrix(args.input)
        b = load_matrix(args.input_b)
        res = make_scaling_promise(a, b)
    elif args.name == "row-weight-minplus":
        a = load_matrix(args.input)
        b = load_matrix(args.input_b)
        prom = make_scaling_promise(a, b)
        res = row_weight_minplus_via_nw_apsp(
            a, b, prom, args.delta or 2,
            lambda g: solve_apsp(g, "nw-det", h=args.h), rng)
    else:
        raise ValueError(f"unknown reduction {args.name}")
    save_matrix(res, outdir / "result.mat")
    return EXIT_OK


# ----------------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="fewweights",
                description="APSP and exact-triangle toolkit for graphs with "
                            "few distinct weights per node")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance", parents=[])
    g.add_argument("kind", choices=["nw-graph", "dweights-graph", "minplus",
                                    "exact-tri", "gadget-bounded",
                                    "gadget-column"])
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="out")
    g.add_argument("--density", type=float, default=0.3)
    g.add_argument("--low", type=int, default=0)
    g.add_argument("--high", type=int, default=20)
    g.add_argument("--eps", type=float, default=0.25)
    g.add_argument("--undirected", action="store_true")
    g.add_argument("--negative-cycle", action="store_true",
                   dest="negative_cycle")
    g.add_argument("--planted", type=int, default=0)
    g.add_argument("--promise", default="A_rows")
    g.add_argument("--promise-dir", default="out", choices=["out", "in"],
                   dest="promise_dir")
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", help="run a solver on an instance")
    r.add_argument("algo", choices=list(_GRAPH_ALGOS) + list(_TRI_ALGOS)
                   + list(_MINPLUS_ALGOS))
    r.add_argument("--input", required=True)
    r.add_argument("--input-b", dest="input_b", default=None)
    r.add_argument("--out", default="out")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--h", type=int, default=None)
    r.add_argument("--delta", type=int, default=None,
                   help="split parameter of aete-few-weights (default: from n and "
                        "--delta-exp); other algorithms reject it")
    r.add_argument("--d", type=int, default=None)
    r.add_argument("--K", type=int, default=1)
    r.add_argument("--delta-exp", dest="delta_exp", type=float, default=21.0)
    r.add_argument("--omega-hat", dest="omega_hat", type=float, default=3.0)
    r.add_argument("--constant", type=float, default=10.0)
    r.add_argument("--promise-dir", default=None, choices=["out", "in"],
                   dest="promise_dir")
    r.add_argument("--verify", action="store_true")
    r.set_defaults(fn=cmd_run)

    v = sub.add_parser("verify", help="check a result file against the oracle")
    v.add_argument("kind", choices=["apsp", "exact-tri", "minplus"])
    v.add_argument("--input", required=True)
    v.add_argument("--input-b", dest="input_b", default=None)
    v.add_argument("--result", required=True)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("suite", choices=sorted(bench_mod.SUITES))
    b.add_argument("--sizes", default="64,128,256")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--runs", type=int, default=3)
    b.add_argument("--d", type=int, default=None,
                   help="weights per row of the triangle suite's instances "
                        "(default 4; other suites reject it)")
    b.add_argument("--out", default="out")
    b.set_defaults(fn=cmd_bench)

    rd = sub.add_parser("reduce", help="apply a named reduction converter")
    rd.add_argument("name", choices=["minplus-from-aete", "apsp-from-minplus",
                                     "make-promise", "row-weight-minplus"])
    rd.add_argument("--input", required=True)
    rd.add_argument("--input-b", dest="input_b", default=None)
    rd.add_argument("--out", default="out")
    rd.add_argument("--seed", type=int, default=0)
    rd.add_argument("--d", type=int, default=None)
    rd.add_argument("--h", type=int, default=None)
    rd.add_argument("--delta", type=int, default=None)
    rd.add_argument("--eps", type=float, default=None)
    rd.set_defaults(fn=cmd_reduce)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_PARAM
    try:
        return args.fn(args)
    except (AuditError, FormatError, FileNotFoundError, PromiseViolation,
            WeightError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
