"""The benchmark's workloads: seeded instance sets, solvers and oracles.

A workload is a fixed list of instances built from the workload seed.  Each
instance carries its input, the oracle that gives the exact answer, and one
or more solver cases that run a pipeline through its public entry point.
Every callable looks its library function up at call time, so a traced run
sees the wrapped function.
"""

from __future__ import annotations

import hashlib

import numpy as np


class Case:
    """One solver call on an instance: `solve()` returns the output."""

    def __init__(self, label, solve, handoff=None):
        self.label = label
        self.solve = solve
        self.handoff = handoff


class Instance:
    def __init__(self, kind, inputs, oracle, cases, same):
        self.kind = kind
        self.inputs = inputs
        self.oracle = oracle
        self.cases = cases
        self.same = same


class Handoff:
    """Solver callable handed to a reduction; counts how often it is used."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _same_matrix(got, want):
    return bool(np.array_equal(got.data, want.data))


def _same_report(got, want):
    return bool(np.array_equal(got.yes, want.yes))


def _rng(seed, *path):
    return np.random.default_rng([seed, *path])


# ---------------------------------------------------------------------------
# apsp-nw: node-weighted digraphs, nw-det and nw-rand against the oracle.
# nw-rand runs with three pivot samples per graph, so the median call falls
# inside one solver's cluster of times, not in the gap between the two.
# ---------------------------------------------------------------------------

NW_N, NW_GRAPHS, NW_H, NW_RAND_SAMPLES = 80, 12, 4, 3


def build_apsp_nw(fw, seed):
    ap, gen = fw["apsp"], fw["generators"]
    out = []
    for i in range(NW_GRAPHS):
        g = gen.random_node_weighted_graph(NW_N, _rng(seed, 0, i), density=0.3,
                                           low=0, high=20)
        cases = [Case("nw-det", lambda g=g: ap.solve_apsp(g, "nw-det", h=NW_H))]
        cases += [Case("nw-rand", lambda g=g, r=r: ap.solve_apsp(
            g, "nw-rand", h=NW_H, rng=_rng(seed, 1, i, r)))
                  for r in range(NW_RAND_SAMPLES)]
        out.append(Instance("nw-graph", g, lambda g=g: ap.apsp_oracle(g),
                            cases, _same_matrix))
    return out


# ---------------------------------------------------------------------------
# apsp-dweights: out-promise d-weights graphs; one in four has a planted
# negative cycle, so the oracle's Bellman branch and SCC contraction run.
# ---------------------------------------------------------------------------

DW_N, DW_D, DW_H, DW_GROUPS, DW_NONNEG_PER_GROUP = 48, 4, 4, 4, 3


def build_apsp_dweights(fw, seed):
    ap, gen = fw["apsp"], fw["generators"]
    out = []
    for grp in range(DW_GROUPS):
        for i in range(DW_NONNEG_PER_GROUP + 1):
            neg = i == DW_NONNEG_PER_GROUP
            g = gen.random_dweights_graph(DW_N, DW_D, _rng(seed, 0, grp, i),
                                          negative_cycle=neg)
            case = Case("dweights", lambda g=g: ap.solve_apsp(
                g, "dweights", h=DW_H, d=DW_D))
            out.append(Instance("neg-cycle" if neg else "nonneg", g,
                                lambda g=g: ap.apsp_oracle(g), [case],
                                _same_matrix))
    return out


# ---------------------------------------------------------------------------
# aete: few-weights exact triangle against the brute-force oracle.
# ---------------------------------------------------------------------------

AETE_N, AETE_D, AETE_PLANTED, AETE_INSTANCES, AETE_DELTA_EXP = 16, 4, 2, 44, 28.0


def build_aete(fw, seed):
    et, gen = fw["exact_triangle"], fw["generators"]
    out = []
    for i in range(AETE_INSTANCES):
        inst, _ = gen.random_triangle_instance(AETE_N, AETE_D, _rng(seed, 0, i),
                                               planted=AETE_PLANTED)
        case = Case("aete_few_weights", lambda inst=inst, i=i: et.aete_few_weights(
            inst, AETE_D, delta_exp=AETE_DELTA_EXP, rng=_rng(seed, 1, i)))
        out.append(Instance("triangle", inst,
                            lambda inst=inst: et.aete_brute(inst, with_witnesses=False),
                            [case], _same_report))
    return out


# ---------------------------------------------------------------------------
# reductions: the pipeline glue behind deliberately naive solvers.  A group
# is three row-weight products, one scaling product, two APSPs via min-plus
# and seven column-weight gadgets.  Row-weight calls vary 5x in cost from
# instance to instance, so the gadget and scaling calls, whose costs are
# close, are made most of the calls and hold the median call.
# ---------------------------------------------------------------------------

RW_N, RW_D, RW_DELTA = 32, 4, 2
MPA_N = 64
AMP_N, AMP_D, AMP_EPS, AMP_PER_GROUP = 72, 2, 1.0, 2
GADGET_N, GADGET_INNER, GADGET_D = 24, 8, 3
RED_GROUPS, GADGETS_PER_GROUP = 5, 7


def _row_weight_instance(fw, seed, grp, i):
    ap, mp, red = fw["apsp"], fw["minplus"], fw["reductions"]
    rng = _rng(seed, 0, grp, i)
    inner = RW_N // RW_D
    a = fw["core"].WeightMatrix(np.stack(
        [rng.choice(rng.integers(0, 30, size=RW_D), size=inner) for _ in range(RW_N)]))
    b = fw["core"].WeightMatrix(np.stack(
        [rng.choice(rng.integers(0, 30, size=RW_D), size=inner) for _ in range(RW_N)]).T)
    promise = red.make_scaling_promise(a, b)
    solver = Handoff(lambda g: ap.solve_apsp(g, "nw-det", h=2))
    case = Case("row_weight_minplus_via_nw_apsp",
                lambda: red.row_weight_minplus_via_nw_apsp(
                    a, b, promise, RW_DELTA, solver, _rng(seed, 1, grp, i)),
                handoff=solver)
    return Instance("row-weight", (a, b, promise), lambda: mp.min_plus_naive(a, b),
                    [case], _same_matrix)


def _minplus_from_aete_instance(fw, seed, grp):
    et, mp, red, gen = (fw["exact_triangle"], fw["minplus"], fw["reductions"],
                        fw["generators"])
    rng = _rng(seed, 2, grp)
    a = gen.random_weight_matrix(MPA_N, MPA_N, rng, low=0, high=40, inf_density=0.15)
    b = gen.random_weight_matrix(MPA_N, MPA_N, rng, low=0, high=40, inf_density=0.15)
    solver = Handoff(lambda inst: et.aete_brute(inst))
    case = Case("minplus_from_aete",
                lambda: red.minplus_from_aete(a, b, None, solver), handoff=solver)
    return Instance("scaling", (a, b), lambda: mp.min_plus_naive(a, b),
                    [case], _same_matrix)


def _apsp_from_minplus_instance(fw, seed, grp, i):
    ap, mp, red, gen = fw["apsp"], fw["minplus"], fw["reductions"], fw["generators"]
    g = gen.random_dweights_graph(AMP_N, AMP_D, _rng(seed, 3, grp, i), promise="in")
    solver = Handoff(lambda a, b: mp.min_plus_naive(a, b))
    case = Case("apsp_from_minplus",
                lambda: red.apsp_from_minplus(g, AMP_D, solver, AMP_EPS),
                handoff=solver)
    return Instance("apsp-via-minplus", g, lambda: ap.apsp_oracle(g), [case],
                    _same_matrix)


def _gadget_instance(fw, seed, grp, i):
    ap, mp, red, gen, core = (fw["apsp"], fw["minplus"], fw["reductions"],
                              fw["generators"], fw["core"])
    rng = _rng(seed, 4, grp, i)
    a = gen.random_column_dweights_matrix(GADGET_N, GADGET_INNER, rng, GADGET_D,
                                          low=0, high=25)
    bt = gen.random_column_dweights_matrix(GADGET_N, GADGET_INNER, rng, GADGET_D,
                                           low=0, high=25)
    b = core.WeightMatrix(bt.data.T)
    solver = Handoff(lambda graph: ap.apsp_oracle(graph))

    def solve():
        gadget = red.gen_column_weight_gadget(a, b)
        return gadget.decode(solver(gadget.graph))

    return Instance("column-gadget", (a, b), lambda: mp.min_plus_naive(a, b),
                    [Case("gen_column_weight_gadget", solve, handoff=solver)],
                    _same_matrix)


def build_reductions(fw, seed):
    out = []
    for grp in range(RED_GROUPS):
        out += [_row_weight_instance(fw, seed, grp, i) for i in range(3)]
        out.append(_minplus_from_aete_instance(fw, seed, grp))
        out += [_apsp_from_minplus_instance(fw, seed, grp, i)
                for i in range(AMP_PER_GROUP)]
        out += [_gadget_instance(fw, seed, grp, i) for i in range(GADGETS_PER_GROUP)]
    return out


class Workload:
    def __init__(self, build, sizes):
        self.build = build
        self.sizes = sizes


WORKLOADS = {
    "apsp-nw": Workload(
        build_apsp_nw,
        f"{NW_GRAPHS} node-weighted digraphs, n={NW_N}, density 0.3, weights "
        f"[0,20); solve_apsp nw-det once and nw-rand with {NW_RAND_SAMPLES} pivot "
        f"samples, h={NW_H}; "
        f"oracle apsp_oracle"),
    "apsp-dweights": Workload(
        build_apsp_dweights,
        f"{DW_GROUPS * (DW_NONNEG_PER_GROUP + 1)} edge-weighted digraphs, n={DW_N}, "
        f"<= {DW_D} distinct outgoing weights per node, density 0.3, one in "
        f"{DW_NONNEG_PER_GROUP + 1} with a planted negative cycle; solve_apsp "
        f"dweights at h={DW_H}; oracle apsp_oracle"),
    "aete": Workload(
        build_aete,
        f"{AETE_INSTANCES} exact-triangle instances, n={AETE_N}, d={AETE_D}, "
        f"planted={AETE_PLANTED}; aete_few_weights delta_exp={AETE_DELTA_EXP:g}; "
        f"oracle aete_brute"),
    "reductions": Workload(
        build_reductions,
        f"{RED_GROUPS} groups of: 3 row_weight_minplus_via_nw_apsp (n={RW_N}, "
        f"d={RW_D}, nw-det h=2), 1 minplus_from_aete (n={MPA_N}, aete_brute), "
        f"{AMP_PER_GROUP} apsp_from_minplus (n={AMP_N}, d={AMP_D}, min_plus_naive), "
        f"{GADGETS_PER_GROUP} "
        f"gen_column_weight_gadget ({GADGET_N}x{GADGET_INNER}, d={GADGET_D}, "
        f"apsp_oracle); oracles min_plus_naive and apsp_oracle"),
}


def feed(h, obj):
    """Hash a library object by its contents, not its identity."""
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d" % len(obj))
        for x in obj:
            feed(h, x)
    elif isinstance(obj, (int, float, str, np.integer)):
        h.update(repr(obj).encode())
    elif hasattr(obj, "yes"):  # TriangleReport
        feed(h, obj.yes)
    elif hasattr(obj, "matrices"):  # TriangleInstance
        feed(h, (obj.promise, [m.data for m in (obj.a, obj.b, obj.c)]))
    elif hasattr(obj, "edge_array"):  # EdgeWeightedGraph
        feed(h, (obj.n, obj.edge_array))
    elif hasattr(obj, "node_weight"):  # NodeWeightedGraph
        feed(h, (obj.n, obj.node_weight, list(obj.adj)))
    elif isinstance(getattr(obj, "data", None), np.ndarray):  # WeightMatrix
        feed(h, obj.data)
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(objs):
    h = hashlib.sha256()
    feed(h, list(objs))
    return h.hexdigest()
