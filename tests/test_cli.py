from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from focklab import cli, enumerate_multipartitions, structure_analysis
from focklab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_wt_examples(capsys):
    code, out = run(capsys, "--e", "2", "--s", "0", "wt", "[[ ]]")
    assert code == 0 and json.loads(out) == {"lambda": [1, 0], "delta": 0}
    code, out = run(capsys, "--e", "2", "--s", "0", "wt", "[[1]]")
    assert code == 0 and json.loads(out) == {"lambda": [-1, 2], "delta": -1}
    code, out = run(capsys, "--e", "2", "--s", "0,1", "wt", "[[1],[1]]")
    assert code == 0 and json.loads(out) == {"lambda": [1, 1], "delta": -1}


def test_wt_parse_error(capsys):
    code = main(["--e", "2", "--s", "0", "wt", "[[1,2]]"])
    captured = capsys.readouterr()
    assert code == 2 and "error" in captured.err


def test_flags_after_subcommand(capsys):
    code, out = run(capsys, "wt", "--e", "2", "--s", "0,1", "[[1],[1]]")
    assert code == 0 and json.loads(out) == {"lambda": [1, 1], "delta": -1}


def test_apply_examples(capsys):
    code, out = run(capsys, "--e", "2", "--s", "0", "apply", "f", "0", "[[]]")
    assert code == 0 and json.loads(out) == [{"coeff": "1", "mp": [[1]]}]

    vector = json.dumps(
        [{"coeff": "1", "mp": [[2]]}, {"coeff": "1", "mp": [[1, 1]]}]
    )
    code, out = run(capsys, "--e", "2", "--s", "0", "apply", "e", "1", vector)
    assert code == 0 and json.loads(out) == [{"coeff": "2", "mp": [[1]]}]

    code, out = run(capsys, "--e", "2", "--s", "0", "apply", "e", "0", "[[]]")
    assert code == 0 and json.loads(out) == []


def test_apply_reads_decimal_coefficients_exactly(capsys):
    vector = '[{"coeff": 0.1, "mp": [[1]]}]'
    code, out = run(capsys, "--e", "2", "--s", "0", "apply", "f", "1", vector)
    assert code == 0 and json.loads(out) == [
        {"coeff": "1/10", "mp": [[1, 1]]}, {"coeff": "1/10", "mp": [[2]]}]


def test_apply_boolean_coefficient_is_usage_error(capsys):
    vector = '[{"coeff": true, "mp": [[1]]}]'
    code = main(["--e", "2", "--s", "0", "apply", "f", "1", vector])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("vector", [
    '[{"coeff": "1"}]',
    '[{"mp": [[1]]}]',
    '[{"mp": [[1]], "coeff": "1", "extra": 0}]',
    '[{"mp": [[1]], "coeff": "1/0"}]',
], ids=["no-mp", "no-coeff", "extra-key", "zero-denominator"])
def test_apply_malformed_vector_is_usage_error(capsys, vector):
    code = main(["--e", "2", "--s", "0", "apply", "e", "0", vector])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("coeff", ["1e1000000", "1e4000000", '"1e4000000"'])
def test_apply_refuses_a_huge_decimal_before_expanding_it(capsys, coeff):
    # the refusal reads the exponent: 10**4000000 is never built (it took
    # seconds), and the message is focklab's, not Python's digit-limit error
    vector = f'[{{"mp": [[1]], "coeff": {coeff}}}]'
    start = time.perf_counter()
    code = main(["--e", "2", "--s", "0", "apply", "f", "1", vector])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"expands past {sys.get_int_max_str_digits()} digits" in captured.err
    assert elapsed < 1.0


def test_apply_bad_residue(capsys):
    code = main(["--e", "2", "--s", "0", "apply", "e", "5", "[[]]"])
    assert code == 2


def test_crystal_graph_sizes(capsys):
    code, out = run(capsys, "--e", "2", "--s", "0", "--max-rank", "0",
                    "crystal-graph")
    doc = json.loads(out)
    assert code == 0 and len(doc["nodes"]) == 1 and not doc["edges"]

    code, out = run(capsys, "--e", "2", "--s", "0", "--max-rank", "2",
                    "crystal-graph")
    doc = json.loads(out)
    assert len(doc["nodes"]) == 4 and len(doc["edges"]) == 2


def test_crystal_graph_dot(capsys):
    code, out = run(capsys, "--e", "2", "--s", "0", "--max-rank", "1",
                    "--format", "dot", "crystal-graph")
    assert code == 0 and out.startswith("digraph crystal {")


def test_invalid_order_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["--order", "sideways", "crystal-graph"])
    assert err.value.code == 2


def test_graph_resource_bound(capsys):
    code = main(["--e", "2", "--s", "0,1,2", "--max-rank", "40",
                 "crystal-graph"])
    captured = capsys.readouterr()
    assert code == 2 and "resource bound" in captured.err


def test_blocks_examples(capsys):
    code, out = run(capsys, "--e", "2", "--s", "0", "blocks", "2")
    doc = json.loads(out)
    assert code == 0 and len(doc["blocks"]) == 1
    assert doc["blocks"][0]["multipartitions"] == [[[1, 1]], [[2]]]

    code, out = run(capsys, "--e", "2", "--s", "0", "blocks", "3")
    assert len(json.loads(out)["blocks"]) == 2

    code, out = run(capsys, "--e", "2", "--s", "0", "blocks", "0")
    assert len(json.loads(out)["blocks"]) == 1


def _refuse(*args, **kwargs):
    raise AssertionError("work started past a refused argument")


def test_blocks_resource_bound(capsys, monkeypatch):
    # level 2: 49 010 shapes of rank 22, 68 150 of rank 23; refused unenumerated
    monkeypatch.setattr(cli, "enumerate_multipartitions", _refuse)
    code = main(["--e", "2", "--s", "0,1", "blocks", "23"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: resource bound exceeded: 68150 shapes > 50000\n"
    code = main(["--e", "2", "--s", "0,1", "blocks", "-1"])
    assert code == 2 and "rank must be nonnegative" in capsys.readouterr().err


def test_shape_counts_match_enumeration():
    for level in (1, 2, 3):
        counted = [len(enumerate_multipartitions(r, level)) for r in range(7)]
        assert cli._shape_counts(level, 6) == counted


def test_verify_fock(capsys):
    code, out = run(capsys, "verify", "fock", "--e", "2", "--s", "0",
                    "--max-rank", "4")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(doc["status"] == "pass" for doc in lines)
    assert {doc["axiom"] for doc in lines} >= {"fock.pieri", "fock.serre"}


@pytest.mark.parametrize("suite", ["fock", "crystal", "perfect", "components", "all"])
def test_verify_negative_rank_is_usage_error(capsys, suite):
    code = main(["--e", "2", "--s", "0", "verify", suite, "--max-rank", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "max_rank must be nonnegative" in captured.err


@pytest.mark.parametrize("suite", ["fock", "crystal", "perfect", "components", "all"])
def test_verify_resource_bound(capsys, suite):
    # 38 361 236 predicted nodes: refused before any sweep starts
    start = time.perf_counter()
    code = main(["--e", "3", "--s", "0,1", "verify", suite, "--max-rank", "40"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and not captured.out and "resource bound" in captured.err
    assert elapsed < 1


def test_verify_hecke(capsys):
    code, out = run(capsys, "verify", "hecke", "--e", "2", "--s", "0,1",
                    "--n", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    by_axiom = {doc["axiom"]: doc for doc in lines}
    assert by_axiom["hecke.relations"]["status"] == "pass"
    assert by_axiom["hecke.block_weights"]["status"] == "pass"


def test_verify_perfect_is_informational(capsys):
    # findings on the iff bullet and strict residual must not fail the run
    code, out = run(capsys, "verify", "perfect", "--e", "2", "--s", "0",
                    "--max-rank", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    by_axiom = {doc["axiom"]: doc for doc in lines}
    assert by_axiom["perfect.support_iff"]["status"] == "fail"
    assert by_axiom["perfect.support_iff"]["witnesses"]
    assert by_axiom["perfect.residual_strict"]["status"] == "fail"
    assert by_axiom["perfect.mutual_inverse"]["status"] == "pass"


def test_verify_all_exit_zero(capsys):
    code, out = run(capsys, "verify", "all", "--e", "2", "--s", "0",
                    "--max-rank", "3", "--n", "2")
    assert code == 0
    for line in out.splitlines():
        doc = json.loads(line)
        assert set(doc) == {"axiom", "status", "witnesses"}


def test_verify_determinism(capsys):
    _, first = run(capsys, "verify", "all", "--e", "2", "--s", "0",
                   "--max-rank", "3", "--n", "2")
    _, second = run(capsys, "verify", "all", "--e", "2", "--s", "0",
                    "--max-rank", "3", "--n", "2")
    assert first == second


@pytest.mark.parametrize("suite,builds", [
    ("all", 2), ("crystal", 2), ("components", 1),
    ("fock", 0), ("perfect", 0), ("hecke", 0),
])
def test_verify_builds_one_graph_per_run(capsys, monkeypatch, suite, builds):
    # one graph for every crystal check, plus the rebuild graph_determinism compares
    from focklab import cli

    original, calls = cli.build_graph, []
    monkeypatch.setattr(cli, "build_graph", lambda *a: calls.append(a) or original(*a))
    code, _ = run(capsys, "verify", suite, "--e", "2", "--s", "0", "--max-rank", "3")
    assert code == 0 and len(calls) == builds


@pytest.mark.parametrize("fault", ["edge_dropped", "eps_changed"])
def test_verify_graph_determinism_witnesses_a_different_rebuild(capsys, monkeypatch, fault):
    # the rebuild is compared by value: one edge or one eps entry off fails it
    from dataclasses import replace

    from focklab import cli

    original, builds = cli.build_graph, []

    def build(*args):
        graph = original(*args)
        builds.append(graph)
        if len(builds) == 1:
            return graph
        if fault == "edge_dropped":
            return replace(graph, edges=graph.edges[:-1])
        mp = graph.nodes[-1]
        return replace(graph, eps={**graph.eps, mp: (9,) + graph.eps[mp][1:]})

    monkeypatch.setattr(cli, "build_graph", build)
    code, out = run(capsys, "verify", "crystal", "--e", "2", "--s", "0", "--max-rank", "3")
    docs = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and len(builds) == 2
    assert [d for d in docs if d["status"] == "fail"] == [
        {"axiom": "crystal.graph_determinism", "status": "fail",
         "witnesses": [{"rebuilt_equal": False}]}]


def test_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus"])
    assert err.value.code == 2


def test_hecke_build_output(capsys):
    code, out = run(capsys, "--e", "2", "--s", "0,1", "--n", "2", "hecke-build")
    doc = json.loads(out)
    assert code == 0 and doc["dimension"] == 8
    assert len(doc["words"]) == 8 and doc["words"][0] == "Id"


def test_dim_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("FOCK_MAX_DIM", "4")
    code = main(["--e", "2", "--s", "0,1", "--n", "2", "hecke-build"])
    assert code == 2
    monkeypatch.setenv("FOCK_MAX_DIM", "8")
    assert main(["--e", "2", "--s", "0,1", "--n", "2", "hecke-build"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("n, env, err", [
    ("5", None, "error: dimension overflow: l^n*n! = 3840 exceeds bound 200\n"),
    ("0", None, "error: n must be at least 1\n"),
    ("2", "abc", "error: FOCK_MAX_DIM must be an integer, got 'abc'\n"),
])
def test_verify_all_refuses_hecke_arguments_before_any_suite(capsys, monkeypatch, n, env, err):
    if env is None:
        monkeypatch.delenv("FOCK_MAX_DIM", raising=False)
    else:
        monkeypatch.setenv("FOCK_MAX_DIM", env)
    monkeypatch.setattr(structure_analysis, "check_fock_relations", _refuse)
    code = main(["verify", "all", "--e", "2", "--s", "0,1", "--max-rank", "3", "--n", n])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == err


def test_dim_bound_env_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("FOCK_MAX_DIM", "abc")
    assert main(["--e", "2", "--s", "0,1", "--n", "2", "hecke-build"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: FOCK_MAX_DIM must be an integer, got 'abc'\n"


# the BFS word basis of every level-two build at n = 3 pinned below
_WORDS_L2_N3 = (
    "Id T0 T1 T2 T1*T0 T2*T0 T0*T1 T2*T1 T1*T2 T0*T1*T0 T2*T1*T0 T1*T2*T0 "
    "T1*T0*T1 T2*T0*T1 T1*T2*T1 T0*T1*T2 T1*T0*T1*T0 T2*T0*T1*T0 "
    "T1*T2*T1*T0 T0*T1*T2*T0 T2*T1*T0*T1 T1*T2*T0*T1 T0*T1*T2*T1 "
    "T1*T0*T1*T2 T2*T1*T0*T1*T0 T1*T2*T0*T1*T0 T0*T1*T2*T1*T0 "
    "T1*T0*T1*T2*T0 T1*T2*T1*T0*T1 T0*T1*T2*T0*T1 T1*T0*T1*T2*T1 "
    "T2*T1*T0*T1*T2 T1*T2*T1*T0*T1*T0 T0*T1*T2*T0*T1*T0 "
    "T1*T0*T1*T2*T1*T0 T2*T1*T0*T1*T2*T0 T0*T1*T2*T1*T0*T1 "
    "T1*T0*T1*T2*T0*T1 T2*T1*T0*T1*T2*T1 T0*T1*T2*T1*T0*T1*T0 "
    "T1*T0*T1*T2*T0*T1*T0 T2*T1*T0*T1*T2*T1*T0 T1*T0*T1*T2*T1*T0*T1 "
    "T2*T1*T0*T1*T2*T0*T1 T1*T0*T1*T2*T1*T0*T1*T0 "
    "T2*T1*T0*T1*T2*T0*T1*T0 T2*T1*T0*T1*T2*T1*T0*T1 "
    "T2*T1*T0*T1*T2*T1*T0*T1*T0"
)


# `hecke-build` stdout pinned byte for byte: sha256 of the JSON document and
# its BFS word basis, the first four as produced by the original dense
# two-pass saturation.
HECKE_BUILD_PINS = [
    (("--e", "2", "--s", "0,1", "--n", "2"),
     "3703d68c2fc20a3403ed25c8ad9a2918af79663aed1fe780b7e84708088135bc",
     "Id T0 T1 T1*T0 T0*T1 T0*T1*T0 T1*T0*T1 T1*T0*T1*T0"),
    (("--e", "3", "--s", "0,1", "--n", "2"),
     "c525fb16726c0cdbf4195dfcb7ce2904df3e8eb96a070bc3aa58c6ba6696661d",
     "Id T0 T1 T1*T0 T0*T1 T0*T1*T0 T1*T0*T1 T1*T0*T1*T0"),
    (("--e", "3", "--s", "0,1,2", "--n", "2"),
     "cf0d54fb71a96ed15b5a31b8b8e2e1c9a5dd770db17da9afa6b50439f3a4079f",
     "Id T0 T1 T0*T0 T1*T0 T0*T1 T1*T0*T0 T0*T1*T0 T0*T0*T1 T1*T0*T1 "
     "T0*T1*T0*T0 T0*T0*T1*T0 T1*T0*T1*T0 T1*T0*T0*T1 T0*T0*T1*T0*T0 "
     "T1*T0*T1*T0*T0 T1*T0*T0*T1*T0 T1*T0*T0*T1*T0*T0"),
    (("--e", "2", "--s", "0,1", "--n", "3"),
     "b6e215ec79895717bfb628e79ae5cff3067070de0733cd64505fa69841163111",
     _WORDS_L2_N3),
    # pinned before the saturation formed products from per-label rows
    pytest.param(("--e", "2", "--s", "0,1,2", "--n", "3"),  # perfbench saturation-c0
                 "2b8935b46dedd9da9791cedce615cfbd05be2c215a2bcc2aa7205b3c1bab0188",
                 "Id T0 T1 T2 T0*T0 T1*T0 T2*T0 T0*T1 T2*T1 T1*T2 T1*T0*T0 T2*T0*T0 "
                 "T0*T1*T0 T2*T1*T0 T1*T2*T0 T0*T0*T1 T1*T0*T1 T2*T0*T1 T1*T2*T1 "
                 "T0*T1*T2 T0*T1*T0*T0 T2*T1*T0*T0 T1*T2*T0*T0 T0*T0*T1*T0 T1*T0*T1*T0 "
                 "T2*T0*T1*T0 T1*T2*T1*T0 T0*T1*T2*T0 T1*T0*T0*T1 T2*T0*T0*T1 "
                 "T2*T1*T0*T1 T1*T2*T0*T1 T0*T1*T2*T1 T0*T0*T1*T2 T1*T0*T1*T2 "
                 "T0*T0*T1*T0*T0 T1*T0*T1*T0*T0 T2*T0*T1*T0*T0 T1*T2*T1*T0*T0 "
                 "T0*T1*T2*T0*T0 T1*T0*T0*T1*T0 T2*T0*T0*T1*T0 T2*T1*T0*T1*T0 "
                 "T1*T2*T0*T1*T0 T0*T1*T2*T1*T0 T0*T0*T1*T2*T0 T1*T0*T1*T2*T0 "
                 "T2*T1*T0*T0*T1 T1*T2*T0*T0*T1 T1*T2*T1*T0*T1 T0*T1*T2*T0*T1 "
                 "T0*T0*T1*T2*T1 T1*T0*T1*T2*T1 T1*T0*T0*T1*T2 T2*T1*T0*T1*T2 "
                 "T1*T0*T0*T1*T0*T0 T2*T0*T0*T1*T0*T0 T2*T1*T0*T1*T0*T0 "
                 "T1*T2*T0*T1*T0*T0 T0*T1*T2*T1*T0*T0 T0*T0*T1*T2*T0*T0 "
                 "T1*T0*T1*T2*T0*T0 T2*T1*T0*T0*T1*T0 T1*T2*T0*T0*T1*T0 "
                 "T1*T2*T1*T0*T1*T0 T0*T1*T2*T0*T1*T0 T0*T0*T1*T2*T1*T0 "
                 "T1*T0*T1*T2*T1*T0 T1*T0*T0*T1*T2*T0 T2*T1*T0*T1*T2*T0 "
                 "T1*T2*T1*T0*T0*T1 T0*T1*T2*T0*T0*T1 T0*T1*T2*T1*T0*T1 "
                 "T0*T0*T1*T2*T0*T1 T1*T0*T1*T2*T0*T1 T1*T0*T0*T1*T2*T1 "
                 "T2*T1*T0*T1*T2*T1 T2*T1*T0*T0*T1*T2 T2*T1*T0*T0*T1*T0*T0 "
                 "T1*T2*T0*T0*T1*T0*T0 T1*T2*T1*T0*T1*T0*T0 T0*T1*T2*T0*T1*T0*T0 "
                 "T0*T0*T1*T2*T1*T0*T0 T1*T0*T1*T2*T1*T0*T0 T1*T0*T0*T1*T2*T0*T0 "
                 "T2*T1*T0*T1*T2*T0*T0 T1*T2*T1*T0*T0*T1*T0 T0*T1*T2*T0*T0*T1*T0 "
                 "T0*T1*T2*T1*T0*T1*T0 T0*T0*T1*T2*T0*T1*T0 T1*T0*T1*T2*T0*T1*T0 "
                 "T1*T0*T0*T1*T2*T1*T0 T2*T1*T0*T1*T2*T1*T0 T2*T1*T0*T0*T1*T2*T0 "
                 "T0*T1*T2*T1*T0*T0*T1 T0*T0*T1*T2*T0*T0*T1 T1*T0*T1*T2*T0*T0*T1 "
                 "T0*T0*T1*T2*T1*T0*T1 T1*T0*T1*T2*T1*T0*T1 T1*T0*T0*T1*T2*T0*T1 "
                 "T2*T1*T0*T1*T2*T0*T1 T2*T1*T0*T0*T1*T2*T1 T1*T2*T1*T0*T0*T1*T0*T0 "
                 "T0*T1*T2*T0*T0*T1*T0*T0 T0*T1*T2*T1*T0*T1*T0*T0 "
                 "T0*T0*T1*T2*T0*T1*T0*T0 T1*T0*T1*T2*T0*T1*T0*T0 "
                 "T1*T0*T0*T1*T2*T1*T0*T0 T2*T1*T0*T1*T2*T1*T0*T0 "
                 "T2*T1*T0*T0*T1*T2*T0*T0 T0*T1*T2*T1*T0*T0*T1*T0 "
                 "T0*T0*T1*T2*T0*T0*T1*T0 T1*T0*T1*T2*T0*T0*T1*T0 "
                 "T0*T0*T1*T2*T1*T0*T1*T0 T1*T0*T1*T2*T1*T0*T1*T0 "
                 "T1*T0*T0*T1*T2*T0*T1*T0 T2*T1*T0*T1*T2*T0*T1*T0 "
                 "T2*T1*T0*T0*T1*T2*T1*T0 T0*T0*T1*T2*T1*T0*T0*T1 "
                 "T1*T0*T1*T2*T1*T0*T0*T1 T1*T0*T0*T1*T2*T0*T0*T1 "
                 "T2*T1*T0*T1*T2*T0*T0*T1 T1*T0*T0*T1*T2*T1*T0*T1 "
                 "T2*T1*T0*T1*T2*T1*T0*T1 T2*T1*T0*T0*T1*T2*T0*T1 "
                 "T0*T1*T2*T1*T0*T0*T1*T0*T0 T0*T0*T1*T2*T0*T0*T1*T0*T0 "
                 "T1*T0*T1*T2*T0*T0*T1*T0*T0 T0*T0*T1*T2*T1*T0*T1*T0*T0 "
                 "T1*T0*T1*T2*T1*T0*T1*T0*T0 T1*T0*T0*T1*T2*T0*T1*T0*T0 "
                 "T2*T1*T0*T1*T2*T0*T1*T0*T0 T2*T1*T0*T0*T1*T2*T1*T0*T0 "
                 "T0*T0*T1*T2*T1*T0*T0*T1*T0 T1*T0*T1*T2*T1*T0*T0*T1*T0 "
                 "T1*T0*T0*T1*T2*T0*T0*T1*T0 T2*T1*T0*T1*T2*T0*T0*T1*T0 "
                 "T1*T0*T0*T1*T2*T1*T0*T1*T0 T2*T1*T0*T1*T2*T1*T0*T1*T0 "
                 "T2*T1*T0*T0*T1*T2*T0*T1*T0 T1*T0*T0*T1*T2*T1*T0*T0*T1 "
                 "T2*T1*T0*T1*T2*T1*T0*T0*T1 T2*T1*T0*T0*T1*T2*T0*T0*T1 "
                 "T2*T1*T0*T0*T1*T2*T1*T0*T1 T0*T0*T1*T2*T1*T0*T0*T1*T0*T0 "
                 "T1*T0*T1*T2*T1*T0*T0*T1*T0*T0 T1*T0*T0*T1*T2*T0*T0*T1*T0*T0 "
                 "T2*T1*T0*T1*T2*T0*T0*T1*T0*T0 T1*T0*T0*T1*T2*T1*T0*T1*T0*T0 "
                 "T2*T1*T0*T1*T2*T1*T0*T1*T0*T0 T2*T1*T0*T0*T1*T2*T0*T1*T0*T0 "
                 "T1*T0*T0*T1*T2*T1*T0*T0*T1*T0 T2*T1*T0*T1*T2*T1*T0*T0*T1*T0 "
                 "T2*T1*T0*T0*T1*T2*T0*T0*T1*T0 T2*T1*T0*T0*T1*T2*T1*T0*T1*T0 "
                 "T2*T1*T0*T0*T1*T2*T1*T0*T0*T1 T1*T0*T0*T1*T2*T1*T0*T0*T1*T0*T0 "
                 "T2*T1*T0*T1*T2*T1*T0*T0*T1*T0*T0 T2*T1*T0*T0*T1*T2*T0*T0*T1*T0*T0 "
                 "T2*T1*T0*T0*T1*T2*T1*T0*T1*T0*T0 T2*T1*T0*T0*T1*T2*T1*T0*T0*T1*T0 "
                 "T2*T1*T0*T0*T1*T2*T1*T0*T0*T1*T0*T0",
                 id="e2-s012-n3"),
    pytest.param(("--e", "5", "--s", "0,2", "--n", "3"),
                 "40d75e92d4502838c11d7ddb276fd51f1734d382056ebce4789daf10cf06d422",
                 _WORDS_L2_N3, id="e5-s02-n3"),
    pytest.param(("--e", "4", "--s", "0,1", "--n", "3"),
                 "a77e363a80e22c919ed1a3ee2ddf3d10985938c793cd61cc4ff392151108116c",
                 _WORDS_L2_N3, id="e4-s01-n3"),
]


@pytest.mark.parametrize("argv,digest,words", HECKE_BUILD_PINS)
def test_hecke_build_byte_identity(capsys, argv, digest, words):
    code, out = run(capsys, *argv, "hecke-build")
    assert code == 0
    assert json.loads(out)["words"] == words.split()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# `verify all` stdout pinned byte for byte, as streamed when the fock and
# Hecke suites were still implemented inside the CLI; the descending-order
# case was pinned before the perfect-basis check moved to per-call tables.
VERIFY_ALL_PINS = [
    (("--e", "2", "--s", "0", "--max-rank", "5", "--n", "2"),
     "aedfbabc37becfd284fd1adbca3eda1183f4e500bbed00526255abd5ab55a1e8"),
    (("--e", "3", "--s", "0,1", "--max-rank", "6", "--n", "2"),
     "9b253297d18a94c1e9f3a11abb703c6b462eb250b5c00b04c89a9e6671932673"),
    (("--e", "3", "--s", "0,1,2", "--max-rank", "4", "--n", "2"),
     "3d03000f45a1e06cc212d2a7d8837fc90785dd5622062855375bde965c897cba"),
    (("--e", "2", "--s", "0,1", "--max-rank", "4", "--n", "3"),
     "ee8e45bfa36df3738217b092d86f16bb30746396b743fd6127551e172abac54c"),
    (("--e", "3", "--s", "0,1", "--max-rank", "6", "--n", "2", "--order", "desc"),
     "c6f1cca3c31979228a8d09e3e14751422e4f24e67eb2cd0e8ee18ab3c9e6ed82"),
    # the perfbench verify-all workload, one pin per multicharge shift
    (("--e", "3", "--s", "0,1", "--max-rank", "8", "--n", "2"),
     "77ebfc4c56b165b3cd714c718f2be7831c25e6c597e7971e5a5d6dd3d98525da"),
    (("--e", "3", "--s", "1,2", "--max-rank", "8", "--n", "2"),
     "abe323cdfddc0560be72cdb779e7e5c722e87cc5eba48b1f12356ed5566a749a"),
    (("--e", "3", "--s", "2,0", "--max-rank", "8", "--n", "2"),
     "c9bb31375c2bfc5471b44d734ea2b89e822240ed3ebe02ba7636b089a1111112"),
]


@pytest.mark.parametrize("argv,digest", VERIFY_ALL_PINS)
def test_verify_all_byte_identity(capsys, argv, digest):
    code, out = run(capsys, "verify", "all", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# `verify hecke` stdout pinned byte for byte; e = 4 and 5 invert
# non-monomial pivots by the Galois norm.
VERIFY_HECKE_PINS = [
    ("--e", "2", "--s", "0,1,1", "--n", "3"),
    ("--e", "4", "--s", "0,1", "--n", "3"),
    ("--e", "5", "--s", "0,2", "--n", "2"),
]


@pytest.mark.parametrize("argv", VERIFY_HECKE_PINS)
def test_verify_hecke_byte_identity(capsys, argv):
    # every report passes, so the three streams are the same bytes
    code, out = run(capsys, "verify", "hecke", *argv)
    assert code == 0
    digest = "706aa1d98335a06e5555e37c09acbe61ff8caf3b3760710b3a90d0ae63e586ce"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_components_byte_identity(capsys):
    # pinned before the slice kernels moved to sparse int rows
    code, out = run(capsys, "verify", "components", "--e", "3", "--s", "0,1",
                    "--max-rank", "10")
    assert code == 0
    digest = "f1d6bfdddd67d58f2a973938fa7395d96327c59783366bb676eb01c065efc94f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_holds_no_linear_algebra():
    # checks belong in the library; the CLI parses and streams their reports
    source = Path(__file__).parents[1] / "src" / "focklab" / "cli.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.rpartition(".")[2] for a in node.names)
    assert not imported & {"_linalg", "cyclotomic"}


def test_closed_pipe_exits_quietly():
    # about 477 KB of JSON, far more than a pipe buffers, so the writer meets
    # the closed end; exit 141 as for SIGPIPE, with nothing on stderr
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "focklab", "hecke-build", "--e", "2", "--s", "0,1,2", "--n", "3"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(100).startswith(b'{"e":2,')
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""
