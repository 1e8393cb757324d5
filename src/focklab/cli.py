"""Command-line surface: weights, operator application, crystal graphs,
blocks, the Hecke workbench, and the verification suites.

The module parses arguments and streams results.  Every check that `verify`
runs lives in the library (`structure_analysis`, `hecke_desk`) and returns
`AxiomReport`s; the CLI prefixes each axiom with its suite name and prints
one JSON line per report.  `verify` builds the crystal graph once per run
and hands it to `check_crystal_axioms` and `compare_components`.  The one
check of its own is `crystal.graph_determinism`, which builds a second
graph and compares the serialized JSON.

Output is deterministic byte-for-byte for identical invocations: fixed term
and node orders, no timestamps.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 141 (as for SIGPIPE) when the reader closes stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fock_space, hecke_desk, structure_analysis
from .crystal import BoxOrder, build_graph
from .multipartition import (
    Multicharge,
    enumerate_multipartitions,
    parse_multipartition,
)
from .structure_analysis import AxiomReport
from .weight_lattice import wt

MAX_GRAPH_NODES = 50_000


class UsageError(Exception):
    pass


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--e", type=int, default=2 if d is None else d,
                        help="quantum characteristic, at least 2")
    parser.add_argument("--s", type=str, default="0" if d is None else d,
                        help="multicharge as comma-separated integers")
    parser.add_argument("--max-rank", type=int, default=5 if d is None else d,
                        help="rank bound for graphs and sweeps")
    parser.add_argument("--order", choices=["asc", "desc"],
                        default="asc" if d is None else d,
                        help="signature box order")
    parser.add_argument("--format", choices=["json", "dot", "text"],
                        default="json" if d is None else d,
                        help="output format")
    parser.add_argument("--n", type=int, default=2 if d is None else d,
                        help="number of Hecke strands")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Exact combinatorics of level-l Fock spaces, their "
        "crystals, and desk-scale cyclotomic Hecke algebras.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_wt = sub.add_parser("wt", help="weight of a multipartition")
    _add_common(p_wt, suppress=True)
    p_wt.add_argument("multipartition", help="JSON like [[2,1],[1]]")

    p_apply = sub.add_parser("apply", help="apply a Chevalley operator")
    _add_common(p_apply, suppress=True)
    p_apply.add_argument("op", choices=["e", "f", "h"])
    p_apply.add_argument("i", type=int, help="residue index in 0..e-1")
    p_apply.add_argument("vector",
                         help="multipartition JSON or Fock vector JSON")

    p_graph = sub.add_parser("crystal-graph", help="build the crystal graph")
    _add_common(p_graph, suppress=True)

    p_blocks = sub.add_parser("blocks", help="group rank-n shapes by weight")
    _add_common(p_blocks, suppress=True)
    p_blocks.add_argument("rank", type=int)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify, suppress=True)
    p_verify.add_argument(
        "suite",
        choices=["fock", "crystal", "perfect", "components", "hecke", "all"],
    )

    p_hecke = sub.add_parser("hecke-build",
                             help="build the Hecke regular representation")
    _add_common(p_hecke, suppress=True)

    return parser


def _charge(args) -> Multicharge:
    try:
        s = tuple(int(v) for v in str(args.s).split(","))
    except ValueError as exc:
        raise UsageError(f"bad multicharge {args.s!r}: {exc}") from exc
    try:
        return Multicharge(args.e, s)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_wt(args) -> int:
    charge = _charge(args)
    mp = parse_multipartition(args.multipartition, level=charge.level)
    weight = wt(mp, charge)
    if args.format == "text":
        print(f"wt({mp}) = {weight}")
    else:
        print(_dump(weight.to_json()))
    return 0


def cmd_apply(args) -> int:
    charge = _charge(args)
    if not 0 <= args.i < charge.e:
        raise UsageError(f"residue {args.i} out of 0..{charge.e - 1}")
    vector = fock_space.parse_vector(args.vector, level=charge.level)
    op = {"e": fock_space.apply_e,
          "f": fock_space.apply_f,
          "h": fock_space.apply_h}[args.op]
    result = op(args.i, vector, charge)
    if args.format == "text":
        print(result)
    else:
        print(_dump(result.to_json()))
    return 0


def _shape_counts(level: int, max_rank: int) -> list[int]:
    """The number of level-`level` multipartitions of each rank 0..max_rank."""
    single = [1] + [0] * max_rank
    for part in range(1, max_rank + 1):
        for total in range(part, max_rank + 1):
            single[total] += single[total - part]
    counts = [1] + [0] * max_rank
    for _ in range(level):
        counts = [sum(counts[k] * single[t - k] for k in range(t + 1))
                  for t in range(max_rank + 1)]
    return counts


def _check_budget(predicted: int, unit: str) -> None:
    if predicted > MAX_GRAPH_NODES:
        raise UsageError(f"resource bound exceeded: {predicted} {unit} > {MAX_GRAPH_NODES}")


def _check_node_budget(charge: Multicharge, max_rank: int) -> None:
    """Refuse, before any work, a negative rank bound or one whose predicted
    graph node count exceeds MAX_GRAPH_NODES."""
    if max_rank < 0:
        raise UsageError("max_rank must be nonnegative")
    _check_budget(sum(_shape_counts(charge.level, max_rank)), "nodes")


def cmd_crystal_graph(args) -> int:
    charge = _charge(args)
    _check_node_budget(charge, args.max_rank)
    graph = build_graph(charge, args.max_rank, BoxOrder(args.order))
    if args.format == "dot":
        sys.stdout.write(graph.to_dot())
    elif args.format == "text":
        print(f"nodes={len(graph.nodes)} edges={len(graph.edges)} "
              f"boundary={len(graph.boundary)}")
        for a, i, b in graph.edges:
            print(f"{a} --{i}--> {b}")
    else:
        print(_dump(graph.to_json()))
    return 0


def cmd_blocks(args) -> int:
    charge = _charge(args)
    if args.rank < 0:
        raise UsageError("rank must be nonnegative")
    _check_budget(_shape_counts(charge.level, args.rank)[-1], "shapes")
    groups: dict = {}
    for mp in enumerate_multipartitions(args.rank, charge.level):
        groups.setdefault(wt(mp, charge), []).append(mp)
    ordered = sorted(groups.items(), key=lambda kv: (kv[0].lam, kv[0].delta))
    if args.format == "text":
        for weight, members in ordered:
            names = " ".join(str(mp) for mp in members)
            print(f"wt={weight}: {names}")
    else:
        doc = {
            "n": args.rank,
            "blocks": [
                {"wt": weight.to_json(),
                 "multipartitions": [mp.to_lists() for mp in members]}
                for weight, members in ordered
            ],
        }
        print(_dump(doc))
    return 0


def cmd_hecke_build(args) -> int:
    charge = _charge(args)
    rep = hecke_desk.build_algebra(charge.level, args.n, charge)
    if args.format == "text":
        print(f"dimension={rep.dimension} words={rep.word_labels()}")
    else:
        rep.write_json(sys.stdout)
    return 0


def _emit(suite: str, reports, failures: list) -> None:
    for report in reports:
        doc = report.to_json()
        doc["axiom"] = f"{suite}.{doc['axiom']}"
        if report.status == "fail" and not report.informational:
            failures.append(doc["axiom"])
        print(_dump(doc))


def _suite_crystal(graph, failures) -> None:
    same = graph == build_graph(graph.charge, graph.max_rank, graph.order)
    witnesses = () if same else ({"rebuilt_equal": False},)
    _emit("crystal", [AxiomReport("graph_determinism", witnesses)], failures)
    _emit("crystal", structure_analysis.check_crystal_axioms(graph), failures)


def _suite_hecke(charge, n, failures) -> None:
    rep = hecke_desk.build_algebra(charge.level, n, charge)
    _emit("hecke", [AxiomReport("dimension", ())], failures)
    _emit("hecke", hecke_desk.check_relations(rep), failures)
    _emit("hecke", hecke_desk.check_jm(rep), failures)
    spectrum = hecke_desk.central_characters(rep, n, charge)
    _emit("hecke", spectrum.reports, failures)
    _emit("hecke", hecke_desk.check_block_weights(spectrum, n, charge), failures)


def cmd_verify(args) -> int:
    charge = _charge(args)
    order = BoxOrder(args.order)
    failures: list[str] = []
    suite = args.suite
    if suite != "hecke":
        _check_node_budget(charge, args.max_rank)
    if suite == "all":  # the Hecke arguments are refused before the other suites run
        hecke_desk.checked_dimension(charge.level, args.n, charge)
    if suite in ("fock", "all"):
        _emit(
            "fock",
            structure_analysis.check_fock_relations(charge, args.max_rank),
            failures,
        )
    if suite in ("crystal", "components", "all"):  # not held through the fock sweep
        graph = build_graph(charge, args.max_rank, order)
    if suite in ("crystal", "all"):
        _suite_crystal(graph, failures)
    if suite in ("perfect", "all"):
        _emit(
            "perfect",
            structure_analysis.check_perfect_basis(charge, args.max_rank, order),
            failures,
        )
    if suite in ("components", "all"):
        _emit("components", structure_analysis.compare_components(graph), failures)
    if suite in ("hecke", "all"):
        _suite_hecke(charge, args.n, failures)
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "wt": cmd_wt,
        "apply": cmd_apply,
        "crystal-graph": cmd_crystal_graph,
        "blocks": cmd_blocks,
        "verify": cmd_verify,
        "hecke-build": cmd_hecke_build,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left: exit as SIGPIPE would, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
