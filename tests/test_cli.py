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
from fewweights.core import load_matrix
from fewweights.exact_triangle import aete_brute
from fewweights.generators import random_triangle_instance


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
    from fewweights.core import DistanceMatrix

    monkeypatch.setattr(cli_mod, "solve_apsp",
                        lambda *a, **k: DistanceMatrix(
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


def test_param_error_exit_code(tmp_path):
    assert run("run", "no-such-algo", "--input", "x") == EXIT_PARAM


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


def test_instance_manifest_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    inst, _ = random_triangle_instance(7, 2, rng, promise="B_cols")
    man = save_instance(inst, tmp_path, d=2)
    inst2, d = load_instance(man)
    assert d == 2
    assert inst2.promise == "B_cols"
    assert inst2.a == inst.a and inst2.b == inst.b and inst2.c == inst.c


def test_reduce_minplus_from_aete(tmp_path):
    out = tmp_path / "mats"
    run("gen", "minplus", "--n", 8, "--seed", 6, "--out", out)
    r = tmp_path / "r"
    assert run("reduce", "minplus-from-aete", "--input", out / "A.mat",
               "--input-b", out / "B.mat", "--out", r) == EXIT_OK
    from fewweights.minplus import min_plus_naive
    a, b = load_matrix(out / "A.mat"), load_matrix(out / "B.mat")
    assert load_matrix(r / "result.mat") == min_plus_naive(a, b)


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
    assert "bool-packed" in table and "bool-naive" in table
    assert all(r["ok"] for r in rows)


def test_bench_table_row_count(tmp_path):
    out = tmp_path / "bench2"
    assert run("bench", "kernels", "--sizes", "16,32,64", "--runs", 2,
               "--out", out) == EXIT_OK
    table = (out / "table.txt").read_text().splitlines()
    # header plus one row per (algorithm, size)
    assert len(table) == 1 + 3 * 2
