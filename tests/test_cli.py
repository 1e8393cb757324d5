from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
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


_WT_E2 = '{"lambda":[-1,2],"delta":-1}\n'
_WT_E3 = '{"lambda":[-1,1,1],"delta":-1}\n'
_WT_TEXT = "wt([[1]]) = (-1,2;-1)\n"


@pytest.mark.parametrize("before, after, expected", [
    ((), (), _WT_E2),  # neither: the defaults e = 2 and json
    (("--e", "3"), (), _WT_E3),
    ((), ("--e", "3"), _WT_E3),
    (("--e", "3"), ("--e", "2"), _WT_E2),  # both: the flag after the subcommand wins
    (("--e", "2"), ("--e", "3"), _WT_E3),
    (("--format", "text"), (), _WT_TEXT),
    ((), ("--format", "text"), _WT_TEXT),
    (("--format", "text"), ("--format", "json"), _WT_E2),
    (("--format", "json"), ("--format", "text"), _WT_TEXT),
])
def test_flag_after_subcommand_overrides_the_one_before(capsys, before, after, expected):
    code, out = run(capsys, *before, "--s", "0", "wt", *after, "[[1]]")
    assert code == 0 and out == expected


@pytest.mark.parametrize("argv, expected", [
    ("wt [[10000000000]]", '{"lambda":[1,0],"delta":-5000000000}\n'),
    ("apply h 0 [[10000000000]]", '[{"coeff":"1","mp":[[10000000000]]}]\n'),
])
def test_wide_row_is_weighed_without_a_walk(capsys, argv, expected):
    # a row takes its whole turns through the e residues at once
    start = time.perf_counter()
    code, out = run(capsys, "--e", "2", "--s", "0", *argv.split())
    assert code == 0 and out == expected
    assert time.perf_counter() - start < 0.5


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


# the first exact count over the budget: 68 150 shapes of rank 23 at level 2,
# 64 960 of rank 13 at level 4; blocks' own top rank is checked as a whole
_OVER = "resource bound exceeded: {} or more shapes of rank {} > 50000"
_FACTORIAL = "dimension overflow: l^n*n! >= {}! exceeds bound {}"


@pytest.mark.parametrize("env, argv, err", [
    (None, "--e 2 --s 0,1 --max-rank 4000 crystal-graph", _OVER.format(68150, 4001)),
    (None, "--e 2 --s 0,1 --max-rank 8000 crystal-graph", _OVER.format(68150, 8001)),
    (None, "--e 2 --s 0,1,2,3 --max-rank 4000 crystal-graph", _OVER.format(64960, 4001)),
    (None, "--e 2 --s 0,1 --max-rank 1000000000 verify crystal",
     _OVER.format(68150, 1000000001)),
    (None, "--e 3 --s 0,1 --max-rank 1000000000 verify all", _OVER.format(68150, 1000000002)),
    (None, "--e 2 --s 0 blocks 42", "resource bound exceeded: 53174 shapes > 50000"),
    (None, "--e 2 --s 0,1 blocks 8000", _OVER.format(68150, 8000)),
    (None, "--e 2 --s 0,1 blocks 1000000000", _OVER.format(68150, 1000000000)),
    (None, "--e 2 --s 0 --n 6 hecke-build", _FACTORIAL.format(6, 200)),
    (None, "--e 2 --s 0 --n 20000 hecke-build", _FACTORIAL.format(20000, 200)),
    (None, "--e 3 --s 0,1 --n 20000 verify all", _FACTORIAL.format(20000, 200)),
    (None, "--e 2 --s 0 --n 1000000000 hecke-build", _FACTORIAL.format(1000000000, 200)),
    ("1000000", "--e 2 --s 0 --n 10 hecke-build", _FACTORIAL.format(10, 1000000)),
    ("1000000", "--e 3 --s 0,1 --n 1000000000 verify all",
     _FACTORIAL.format(1000000000, 1000000)),
])
def test_refusal_forms_no_big_count(capsys, monkeypatch, env, argv, err):
    # past the first rank whose shape count alone, or the n where n! alone,
    # exceeds the bound, the refusal is decided from that count, whatever the size
    if env is None:
        monkeypatch.delenv("FOCK_MAX_DIM", raising=False)
    else:
        monkeypatch.setenv("FOCK_MAX_DIM", env)
    for owner, name in [(cli, "enumerate_multipartitions"), (cli, "build_graph"),
                        (cli.hecke_desk, "_saturate"),
                        (structure_analysis, "check_fock_relations")]:
        monkeypatch.setattr(owner, name, _refuse)
    start = time.perf_counter()
    code = main(argv.split())
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == f"error: {err}\n"
    assert elapsed < 0.5


@pytest.mark.parametrize("argv, rank", [("--max-rank 40 crystal-graph", 41), ("blocks 40", 40)])
def test_long_multicharge_is_refused_from_the_level_bound(capsys, monkeypatch, argv, rank):
    # at l = 10 000 there are 10 000 shapes of rank 1 and 50 015 000 of rank 2:
    # refused there, with no count formed past that rank
    for name in ("enumerate_multipartitions", "build_graph"):
        monkeypatch.setattr(cli, name, _refuse)
    start = time.perf_counter()
    code = main(["--e", "3", "--s", ",".join(["0"] * 10_000), *argv.split()])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: resource bound exceeded: 50015000 or more shapes "
                            f"of rank {rank} > 50000\n")
    assert elapsed < 0.5


def test_shape_counts_match_enumeration():
    for level, top in ((1, 10), (2, 10), (3, 10), (4, 8)):
        counted = [len(enumerate_multipartitions(r, level)) for r in range(top + 1)]
        assert cli._shape_counts(level, top) == counted


def _lower_bound_shape_counts(level, max_rank):
    # the earlier predictor: Euler's pentagonal recurrence for p(r), refusing
    # once p(r) or C(level + r - 1, r) is over budget, then a level-fold
    # convolution of the partition numbers
    single = [1]
    for r in range(1, max_rank + 1):
        p, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= r:
            p -= (-1) ** k * (single[r - g] + (single[r - g - k] if g + k <= r else 0))
            k += 1
        cli._check_budget(max(p, math.comb(level + r - 1, r)), "shapes")
        single.append(p)
    counts = [1] + [0] * max_rank
    for _ in range(level):
        counts = [sum(counts[k] * single[t - k] for k in range(t + 1))
                  for t in range(max_rank + 1)]
    return counts


def _accepts(shape_counts, level, max_rank, nodes):
    try:
        counts = shape_counts(level, max_rank)
        cli._check_budget(sum(counts) if nodes else counts[-1], "shapes")
    except ValueError:
        return False
    return True


def test_exact_counts_refuse_what_the_lower_bounds_refused():
    # node-sum mode (crystal-graph, verify) and top-rank mode (blocks)
    for level in (*range(1, 8), 50, 300, 1000, 10_000):
        for max_rank in (*range(70), 4000, 10**9):
            for nodes in (True, False):
                assert (_accepts(cli._shape_counts, level, max_rank, nodes)
                        == _accepts(_lower_bound_shape_counts, level, max_rank, nodes))


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


def test_verify_fock_budget_counts_the_serre_reach(capsys, monkeypatch):
    # 38 045 shapes of rank <= 18 at level 2, but at e = 3 the Serre sums ask
    # images up to rank 20: 80 377 shapes, refused before the sweep
    monkeypatch.setattr(structure_analysis, "check_fock_relations", _refuse)
    for suite in ("fock", "all"):
        code = main(["--e", "3", "--s", "0,1", "verify", suite, "--max-rank", "18"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: resource bound exceeded: 80377 nodes > 50000\n"
    assert sum(cli._shape_counts(2, 18)) == 38045


def test_graph_budget_counts_the_boundary_targets(capsys, monkeypatch):
    # 38 045 shapes of rank <= 18 at level 2, but the boundary edges (and
    # perfect's f-targets) reach rank 19: 55 535 shapes, refused before any work
    monkeypatch.setattr(cli, "build_graph", _refuse)
    monkeypatch.setattr(structure_analysis, "check_perfect_basis", _refuse)
    for command in (["crystal-graph"], ["verify", "crystal"], ["verify", "components"],
                    ["verify", "perfect"]):
        code = main(["--e", "3", "--s", "0,1", "--max-rank", "18", *command])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: resource bound exceeded: 55535 nodes > 50000\n"
    assert sum(cli._shape_counts(2, 19)) == 55535


def test_graph_budget_reaches_the_highest_rank_built(capsys, monkeypatch):
    # the predictor counts shapes up to the rank of the highest target built
    shape_counts, predicted = cli._shape_counts, []

    def recording_shape_counts(level, max_rank):
        predicted.append(max_rank)
        return shape_counts(level, max_rank)

    monkeypatch.setattr(cli, "_shape_counts", recording_shape_counts)
    code, out = run(capsys, "--e", "3", "--s", "0,1", "--max-rank", "4", "crystal-graph")
    built = max(sum(map(sum, arrow["to"])) for arrow in json.loads(out)["boundary"])
    assert code == 0 and predicted == [built] == [5]


@pytest.mark.parametrize("e", [2, 3])
def test_fock_budget_reaches_the_highest_rank_the_sweep_asks(capsys, monkeypatch, e):
    # the predictor counts shapes up to the rank of the last apply_f the
    # Serre sums ask: max_rank + 1 - min a_ij, 3 ranks up at e = 2, 2 at e = 3
    apply_f, shape_counts, asked, predicted = (
        structure_analysis.apply_f, cli._shape_counts, [], [])

    def recording_apply_f(i, v, charge):
        asked.extend(mp.rank for mp in v.terms)
        return apply_f(i, v, charge)

    def recording_shape_counts(level, max_rank):
        predicted.append(max_rank)
        return shape_counts(level, max_rank)

    monkeypatch.setattr(structure_analysis, "apply_f", recording_apply_f)
    monkeypatch.setattr(cli, "_shape_counts", recording_shape_counts)
    code, _ = run(capsys, "verify", "fock", "--e", str(e), "--s", "0", "--max-rank", "3")
    assert code == 0 and predicted == [max(asked)] == [3 + {2: 3, 3: 2}[e]]


def test_verify_hecke(capsys):
    code, out = run(capsys, "verify", "hecke", "--e", "2", "--s", "0,1",
                    "--n", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    by_axiom = {doc["axiom"]: doc for doc in lines}
    assert by_axiom["hecke.relations"]["status"] == "pass"
    assert by_axiom["hecke.block_weights"]["status"] == "pass"


def test_verify_hecke_streams_each_report_as_its_check_returns(capsys, monkeypatch):
    def broken(rep):
        raise RuntimeError("check_jm broke")

    monkeypatch.setattr(cli.hecke_desk, "check_jm", broken)
    with pytest.raises(RuntimeError, match="check_jm broke"):
        main(["verify", "hecke", "--e", "2", "--s", "0,1", "--n", "2"])
    printed = [json.loads(line)["axiom"] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["hecke.dimension", "hecke.relations"]


def test_verify_suites_come_from_one_list(capsys):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == [*cli.SUITES, "all"]
    code, out = run(capsys, "verify", "all", "--e", "2", "--s", "0", "--max-rank", "2")
    ran = [json.loads(line)["axiom"].partition(".")[0] for line in out.splitlines()]
    assert code == 0 and list(dict.fromkeys(ran)) == list(cli.SUITES)


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


# the text output of every command that writes one
TEXT_PINS = [
    (("--e", "2", "--s", "0", "wt", "[[1]]"), "wt([[1]]) = (-1,2;-1)\n"),
    (("--e", "2", "--s", "0", "apply", "f", "1", "[[1]]"), "1*[[1,1]] + 1*[[2]]\n"),
    (("--e", "2", "--s", "0", "--max-rank", "2", "crystal-graph"),
     "nodes=4 edges=2 boundary=3\n[[]] --0--> [[1]]\n[[1]] --1--> [[2]]\n"),
    (("--e", "2", "--s", "0", "blocks", "3"),
     "wt=(-1,2;-2): [[1,1,1]] [[3]]\nwt=(3,-2;-1): [[2,1]]\n"),
    (("--e", "2", "--s", "0,1", "--n", "1", "hecke-build"),
     "dimension=2 words=['Id', 'T0']\n"),
]


@pytest.mark.parametrize("argv, expected", TEXT_PINS,
                         ids=["wt", "apply", "crystal-graph", "blocks", "hecke-build"])
def test_text_output(capsys, argv, expected):
    code, out = run(capsys, "--format", "text", *argv)
    assert code == 0 and out == expected


_COMMANDS = {
    "wt": ("wt", "[[1]]"),
    "apply": ("apply", "f", "1", "[[1]]"),
    "blocks": ("blocks", "3"),
    "hecke-build": ("hecke-build",),
    "verify": ("verify", "all"),
}


@pytest.mark.parametrize("command, fmt", [
    ("wt", "dot"), ("apply", "dot"), ("blocks", "dot"), ("hecke-build", "dot"),
    ("verify", "text"), ("verify", "dot"),
])
def test_unwritten_format_is_refused_before_any_work(capsys, monkeypatch, command, fmt):
    # refused before the charge is parsed and before any library call
    for owner, name in [
        (cli, "_charge"), (cli, "wt"), (cli, "parse_multipartition"),
        (cli, "enumerate_multipartitions"), (cli, "build_graph"),
        (cli.fock_space, "parse_vector"), (cli.hecke_desk, "build_algebra"),
        (cli.hecke_desk, "checked_dimension"),
        (structure_analysis, "check_fock_relations"),
    ]:
        monkeypatch.setattr(owner, name, _refuse)
    code = main(["--format", fmt, *_COMMANDS[command]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {command} writes no {fmt} output\n"


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
