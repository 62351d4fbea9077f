import json

import numpy as np
import pytest

from fewweights.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARAM,
    EXIT_VERIFY,
    RunConfig,
    load_instance,
    main,
    save_instance,
)
from fewweights.core import WeightMatrix, load_matrix, save_matrix
from fewweights.exact_triangle import TriangleInstance, aete_brute
from fewweights.generators import (random_triangle_instance,
                                   random_uniform_regular_instance)


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", "nw-graph", "--n", 12, "--seed", 7, "--out", a) == EXIT_OK
    assert run("gen", "nw-graph", "--n", 12, "--seed", 7, "--out", b) == EXIT_OK
    assert (a / "graph.txt").read_bytes() == (b / "graph.txt").read_bytes()


def test_gen_dweights_respects_audit(tmp_path):
    out = tmp_path / "g"
    assert run("gen", "dweights-graph", "--n", 14, "--d", 3, "--seed", 1,
               "--out", out) == EXIT_OK
    from fewweights.core import load_graph, audit_distinct_weights
    g = load_graph(out / "graph.txt")
    assert audit_distinct_weights(g)[0] <= 3


def test_gen_planted_triangle(tmp_path):
    out = tmp_path / "tri"
    assert run("gen", "exact-tri", "--n", 10, "--d", 3, "--seed", 2,
               "--planted", 2, "--out", out) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    inst, d = load_instance(out / manifest["instance"])
    rep = aete_brute(inst)
    for i, k, j in manifest["planted"]:
        assert rep.yes[i, j]


def test_run_oracle_and_verify_roundtrip(tmp_path):
    g = tmp_path / "g"
    assert run("gen", "nw-graph", "--n", 12, "--seed", 3, "--out", g) == EXIT_OK
    r1 = tmp_path / "r1"
    assert run("run", "nw-det", "--input", g / "graph.txt", "--h", 4,
               "--out", r1, "--verify") == EXIT_OK
    assert run("verify", "apsp", "--input", g / "graph.txt",
               "--result", r1 / "result.mat") == EXIT_OK
    # config and timing artifacts exist
    cfg = RunConfig.from_json((r1 / "config.json").read_text())
    assert cfg.algo == "nw-det" and cfg.params["h"] == 4
    rec = json.loads((r1 / "timing.jsonl").read_text().splitlines()[0])
    assert set(rec) == {"algo", "n", "d", "seed", "wall_ns", "ops"}


def test_run_verify_on_negative_cycle_chain(tmp_path):
    # five negative 2-cycles of weights -2^54 and 2^54 - 1, chained by
    # 2^54 edges and entered from nodes 10..12: nw-det deletes the cycles'
    # nodes and solves the rest with their own weights
    big = 2 ** 54
    edges = [(10, 11, big), (11, 12, 3 - big), (12, 11, big), (10, 0, big),
             (12, 4, big)]
    for i in range(5):
        edges += [(2 * i, 2 * i + 1, -big), (2 * i + 1, 2 * i, big - 1)]
        if i < 4:
            edges.append((2 * i + 1, 2 * i + 2, big))
    graph = tmp_path / "chain.txt"
    graph.write_text(f"13 {len(edges)} edge-weighted\n"
                     + "".join(f"{u} {v} {w}\n" for u, v, w in edges))
    assert run("run", "nw-det", "--input", graph, "--out", tmp_path / "r",
               "--verify") == EXIT_OK


def test_run_config_rerun_identical_results(tmp_path):
    g = tmp_path / "g"
    run("gen", "nw-graph", "--n", 10, "--seed", 9, "--out", g)
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert run("run", "nw-rand", "--input", g / "graph.txt", "--h", 4,
               "--seed", 5, "--out", r1) == EXIT_OK
    cfg = RunConfig.from_json((r1 / "config.json").read_text())
    assert run("run", cfg.algo, "--input", cfg.inputs[0], "--h",
               cfg.params["h"], "--seed", cfg.seed, "--out", r2) == EXIT_OK
    assert (r1 / "result.mat").read_bytes() == (r2 / "result.mat").read_bytes()


def test_run_verify_mismatch_exit_code(tmp_path, monkeypatch):
    g = tmp_path / "g"
    run("gen", "nw-graph", "--n", 8, "--seed", 4, "--out", g)
    import fewweights.cli as cli_mod
    from fewweights.core import WeightMatrix

    monkeypatch.setattr(cli_mod, "solve_apsp",
                        lambda *a, **k: WeightMatrix(
                            np.zeros((8, 8), dtype=np.int64)))
    r = tmp_path / "r"
    assert run("run", "nw-det", "--input", g / "graph.txt", "--out", r,
               "--verify") == EXIT_VERIFY


def test_run_bad_d_promise_exit_code(tmp_path):
    g = tmp_path / "g"
    run("gen", "dweights-graph", "--n", 10, "--d", 4, "--seed", 1, "--out", g)
    r = tmp_path / "r"
    code = run("run", "dweights", "--input", g / "graph.txt", "--d", 1,
               "--out", r)
    assert code == EXIT_INPUT


@pytest.mark.parametrize("algo", ["nw-det", "nw-rand"])
def test_run_d_outside_dweights_exit_code(tmp_path, algo):
    g = tmp_path / "g"
    run("gen", "dweights-graph", "--n", 10, "--d", 4, "--seed", 1, "--out", g)
    assert run("run", algo, "--input", g / "graph.txt", "--d", 1,
               "--out", tmp_path / "r") == EXIT_PARAM


@pytest.mark.parametrize("algo", ["nw-det", "nw-rand"])
def test_run_promise_dir_outside_dweights_exit_code(tmp_path, algo):
    g = tmp_path / "g"
    run("gen", "dweights-graph", "--n", 10, "--d", 4, "--seed", 1, "--out", g)
    assert run("run", algo, "--input", g / "graph.txt", "--promise-dir", "in",
               "--out", tmp_path / "r") == EXIT_PARAM
    assert run("run", "dweights", "--input", g / "graph.txt", "--d", 4,
               "--out", tmp_path / "r") == EXIT_OK


def test_run_delta_applies_to_aete_few_weights_only(tmp_path):
    # --delta is the split parameter of aete-few-weights; every other run
    # algorithm rejects it before writing anything, and takes the same
    # inputs without it (aete-uniform-regular then rejects this instance,
    # which is not uniform, as an input error)
    g, tri, mpl = tmp_path / "g", tmp_path / "tri", tmp_path / "mp"
    run("gen", "nw-graph", "--n", 8, "--seed", 2, "--out", g)
    run("gen", "exact-tri", "--n", 12, "--d", 3, "--seed", 5, "--out", tri)
    run("gen", "minplus", "--n", 6, "--seed", 1, "--out", mpl)
    inputs = {"graph": ["--input", g / "graph.txt"],
              "tri": ["--input", tri / "instance.tri"],
              "minplus": ["--input", mpl / "A.mat", "--input-b", mpl / "B.mat"]}
    rejected = [("oracle", "graph"), ("nw-det", "graph"), ("nw-rand", "graph"),
                ("dweights", "graph"), ("aete-brute", "tri"),
                ("aete-small-doubling", "tri"), ("aete-uniform-regular", "tri"),
                ("minplus-naive", "minplus"), ("minplus-dweights", "minplus")]
    for algo, kind in rejected:
        out = tmp_path / algo
        assert run("run", algo, *inputs[kind], "--delta", 64,
                   "--out", out) == EXIT_PARAM, algo
        assert not out.exists(), algo
        assert run("run", algo, *inputs[kind], "--out", out) != EXIT_PARAM, algo
    assert run("run", "aete-few-weights", *inputs["tri"], "--delta", 2, "--verify",
               "--out", tmp_path / "few") == EXIT_OK


def test_param_error_exit_code(tmp_path):
    assert run("run", "no-such-algo", "--input", "x") == EXIT_PARAM


@pytest.mark.parametrize("algo", ["nw-det", "nw-rand", "dweights"])
def test_run_h_zero_exit_code(tmp_path, algo):
    g = tmp_path / "g"
    run("gen", "nw-graph", "--n", 8, "--seed", 2, "--out", g)
    assert run("run", algo, "--input", g / "graph.txt", "--h", 0,
               "--out", tmp_path / "r") == EXIT_PARAM


def test_missing_input_exit_code(tmp_path):
    assert run("run", "oracle", "--input", tmp_path / "nope.txt",
               "--out", tmp_path / "r") == EXIT_INPUT


@pytest.mark.parametrize("text", [
    pytest.param("3 2 node-weighted\n0 1\nx 1\n2 1\n0 1\n1 2\n", id="nw-node-id"),
    pytest.param("3 2 node-weighted\n0 1\n1 1\n2 1\n0 1\n0 7\n", id="nw-endpoint-range"),
    pytest.param("3 1 node-weighted\n0 1\n1 1\n2 1\n0 z\n", id="nw-endpoint-token"),
    pytest.param("3 2 edge-weighted\n0 1 4\n0 7 2\n", id="ew-endpoint-range"),
    pytest.param("3 1 edge-weighted\n-1 1 4\n", id="ew-endpoint-negative"),
    pytest.param("3 1 edge-weighted\nq 1 4\n", id="ew-endpoint-token"),
    pytest.param("-2 0 edge-weighted\n", id="negative-n"),
    # in range for the loader, but path sums leave the min-plus operand range
    pytest.param("9 8 edge-weighted\n"
                 + "".join(f"{i} {i + 1} {2 ** 59}\n" for i in range(8)),
                 id="ew-weight-overflow"),
])
def test_malformed_graph_exit_code(tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert run("run", "oracle", "--input", bad, "--out", tmp_path / "r") == EXIT_INPUT


def test_triangle_run_and_verify(tmp_path):
    out = tmp_path / "tri"
    run("gen", "exact-tri", "--n", 12, "--d", 3, "--seed", 5, "--out", out)
    r = tmp_path / "r"
    assert run("run", "aete-few-weights", "--input", out / "instance.tri",
               "--out", r, "--verify") == EXIT_OK
    assert run("verify", "exact-tri", "--input", out / "instance.tri",
               "--result", r / "result.mat") == EXIT_OK


def test_uniform_regular_run_audits_input(tmp_path):
    # 2-uniform, but value 0 fills row 0 of A: not max(1, 4 // 2)-regular
    a = np.array([[0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 1]])
    bad = save_instance(TriangleInstance(a, a.T, a + 1), tmp_path / "bad", d=2)
    assert run("run", "aete-uniform-regular", "--input", bad,
               "--out", tmp_path / "r1") == EXIT_INPUT
    good = save_instance(random_uniform_regular_instance(
        4, 2, np.random.default_rng(3)), tmp_path / "good", d=2)
    assert run("run", "aete-uniform-regular", "--input", good,
               "--out", tmp_path / "r2", "--verify") == EXIT_OK


def test_instance_manifest_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    inst, _ = random_triangle_instance(7, 2, rng, promise="B_cols")
    man = save_instance(inst, tmp_path, d=2)
    inst2, d = load_instance(man)
    assert d == 2
    assert inst2.promise == "B_cols"
    assert inst2.a == inst.a and inst2.b == inst.b and inst2.c == inst.c


@pytest.mark.parametrize("field, value", [("d", "two"), ("promise", "D_rows"),
                                          ("C", "wide.mat"), ("d", "-3")])
def test_malformed_manifest_is_an_input_error(tmp_path, capsys, field, value):
    # a non-integer or negative d, an unknown promise, or matrices of
    # unequal shapes
    inst, _ = random_triangle_instance(5, 2, np.random.default_rng(4))
    man = save_instance(inst, tmp_path, d=2)
    save_matrix(WeightMatrix(np.zeros((5, 6), dtype=np.int64)), tmp_path / "wide.mat")
    lines = [f"{field} {value}" if line.split()[0] == field else line
             for line in man.read_text().splitlines()]
    man.write_text("\n".join(lines) + "\n")
    assert run("run", "aete-brute", "--input", man, "--out", tmp_path / "r") == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["aete-few-weights", "aete-uniform-regular"])
def test_run_triangle_d_below_one_is_a_parameter_error(tmp_path, capsys, algo):
    # a triangle --d below 1 is rejected before anything is written; a
    # manifest d of 0 still means "not declared" (the solver then takes n)
    tri = tmp_path / "tri"
    run("gen", "exact-tri", "--n", 8, "--d", 2, "--seed", 1, "--out", tri)
    for d in (0, -3):
        out = tmp_path / f"{algo}{d}"
        assert run("run", algo, "--input", tri / "instance.tri", "--d", d,
                   "--out", out) == EXIT_PARAM
        assert "parameter error: --d must be >= 1" in capsys.readouterr().err
        assert not out.exists()
    man = tri / "instance.tri"
    man.write_text("".join("d 0\n" if line.startswith("d ") else line
                           for line in man.read_text().splitlines(keepends=True)))
    assert load_instance(man)[1] is None
    assert run("run", "aete-few-weights", "--input", man, "--verify",
               "--out", tmp_path / "undeclared") == EXIT_OK


def test_directory_input_is_an_input_error(tmp_path, capsys):
    assert run("run", "oracle", "--input", tmp_path, "--out", tmp_path / "r") == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("algo, text", [
    pytest.param("oracle", None, id="missing"),
    pytest.param("oracle", "3 1 edge-weighted\nq 1 4\n", id="malformed-graph"),
    pytest.param("minplus-naive", "2 2\n1 x\n0 0\n", id="malformed-matrix"),
    pytest.param("aete-brute", "n 3\nA missing.mat\n", id="malformed-manifest"),
    pytest.param("oracle", "dir", id="directory"),
])
def test_run_input_error_writes_nothing(tmp_path, capsys, algo, text):
    # the inputs load before the output directory is made
    src = tmp_path / "in"
    if text == "dir":
        src.mkdir()
    elif text is not None:
        src.write_text(text)
    out = tmp_path / "out"
    b = ("--input-b", src) if algo == "minplus-naive" else ()
    assert run("run", algo, "--input", src, *b, "--out", out) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("run", "minplus-naive"), ("run", "minplus-dweights"),
                                  ("verify", "minplus", "--result", "A.mat"),
                                  ("reduce", "minplus-from-aete"),
                                  ("reduce", "make-promise"),
                                  ("reduce", "row-weight-minplus")])
def test_missing_input_b_is_a_parameter_error(tmp_path, capsys, argv):
    save_matrix(WeightMatrix(np.zeros((3, 3), dtype=np.int64)), tmp_path / "A.mat")
    argv = [tmp_path / a if a == "A.mat" else a for a in argv]
    out = tmp_path / "out"
    code = run(*argv, "--input", tmp_path / "A.mat",
               *(() if argv[0] == "verify" else ("--out", out)))
    assert code == EXIT_PARAM
    assert "parameter error: --input-b" in capsys.readouterr().err
    assert not out.exists()  # nothing was written


def test_reduce_minplus_from_aete(tmp_path):
    out = tmp_path / "mats"
    run("gen", "minplus", "--n", 8, "--seed", 6, "--out", out)
    r = tmp_path / "r"
    assert run("reduce", "minplus-from-aete", "--input", out / "A.mat",
               "--input-b", out / "B.mat", "--out", r) == EXIT_OK
    from fewweights.minplus import min_plus_naive
    a, b = load_matrix(out / "A.mat"), load_matrix(out / "B.mat")
    assert load_matrix(r / "result.mat") == min_plus_naive(a, b)


def test_reduce_minplus_from_aete_audits_d(tmp_path):
    # every row of the 6 x 6 A holds five distinct values
    a = WeightMatrix((np.arange(6)[:, None] + np.arange(6)) % 5)
    save_matrix(a, tmp_path / "A.mat")
    args = ("reduce", "minplus-from-aete", "--input", tmp_path / "A.mat",
            "--input-b", tmp_path / "A.mat")
    assert run(*args, "--d", 1, "--out", tmp_path / "r1") == EXIT_INPUT
    assert not (tmp_path / "r1" / "result.mat").exists()
    assert run(*args, "--d", 5, "--out", tmp_path / "r5") == EXIT_OK


def test_reduce_apsp_from_minplus(tmp_path):
    g = tmp_path / "g"
    run("gen", "dweights-graph", "--n", 10, "--d", 2, "--seed", 2,
        "--promise-dir", "in", "--out", g)
    r = tmp_path / "r"
    assert run("reduce", "apsp-from-minplus", "--input", g / "graph.txt",
               "--d", 2, "--out", r) == EXIT_OK
    assert run("verify", "apsp", "--input", g / "graph.txt",
               "--result", r / "result.mat") == EXIT_OK


def test_gadget_gen_manifest_decodes(tmp_path):
    out = tmp_path / "gad"
    assert run("gen", "gadget-column", "--n", 8, "--d", 2, "--seed", 3,
               "--undirected", "--out", out) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    from fewweights.core import load_graph
    from fewweights.apsp import apsp_oracle
    from fewweights.minplus import min_plus_naive
    from fewweights.core import POS_INF
    g = load_graph(out / manifest["graph"])
    dist = apsp_oracle(g).data
    block = dist[np.ix_(manifest["sources"], manifest["sinks"])]
    got = np.where(block == POS_INF, POS_INF, block - manifest["offset"])
    if manifest["finite_cap"] is not None:
        got = np.where(got > manifest["finite_cap"], POS_INF, got)
    a = load_matrix(out / manifest["A"])
    b = load_matrix(out / manifest["B"])
    assert np.array_equal(got, min_plus_naive(a, b).data)


def test_bench_kernels_table(tmp_path):
    out = tmp_path / "bench"
    assert run("bench", "kernels", "--sizes", "32,64", "--runs", 2,
               "--out", out) == EXIT_OK
    table = (out / "table.txt").read_text()
    rows = [json.loads(l) for l in (out / "bench.jsonl").read_text().splitlines()]
    assert len(rows) == 2 * 2 * 2  # sizes x seeds x algos
    assert "bool-blas" in table and "bool-naive" in table
    assert all(r["ok"] for r in rows)


def test_bench_table_row_count(tmp_path):
    out = tmp_path / "bench2"
    assert run("bench", "kernels", "--sizes", "16,32,64", "--runs", 2,
               "--out", out) == EXIT_OK
    table = (out / "table.txt").read_text().splitlines()
    # header plus one row per (algorithm, size)
    assert len(table) == 1 + 3 * 2


def test_bench_triangle_checks_few_weights_against_brute(tmp_path):
    out = tmp_path / "bench-triangle"
    assert run("bench", "triangle", "--sizes", "8,12", "--runs", 1,
               "--out", out) == EXIT_OK
    rows = [json.loads(l) for l in (out / "bench.jsonl").read_text().splitlines()]
    assert sorted((r["algo"], r["n"]) for r in rows) == [
        ("aete-brute", 8), ("aete-brute", 12),
        ("aete-few-weights", 8), ("aete-few-weights", 12)]
    assert all(r["ok"] for r in rows)


def test_bench_triangle_takes_weights_per_row(tmp_path):
    out = tmp_path / "bench-triangle-d"
    for d in (1, 8):
        assert run("bench", "triangle", "--sizes", "8", "--runs", 1, "--d", d,
                   "--out", out) == EXIT_OK
        rows = [json.loads(l) for l in (out / "bench.jsonl").read_text().splitlines()]
        assert {r["d"] for r in rows} == {d} and all(r["ok"] for r in rows)
    assert run("bench", "triangle", "--sizes", "8", "--runs", 1, "--d", 0,
               "--out", out) == EXIT_PARAM
    assert run("bench", "kernels", "--sizes", "8", "--runs", 1, "--d", 8,
               "--out", out) == EXIT_PARAM


def test_bench_triangle_mismatch_exits_verify(tmp_path, monkeypatch):
    from fewweights import bench as bench_mod
    from fewweights.exact_triangle import TriangleReport

    monkeypatch.setattr(bench_mod, "aete_few_weights",
                        lambda inst, d, *a, **k: TriangleReport.empty(inst.n))
    assert run("bench", "triangle", "--sizes", "8", "--runs", 1,
               "--out", tmp_path / "bad") == EXIT_VERIFY
