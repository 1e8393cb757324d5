"""Command-line surface: weights, operator application, crystal graphs,
blocks, the Hecke workbench, and the verification suites.

The module parses arguments and streams results.  Every check that `verify`
runs lives in the library (`structure_analysis`, `hecke_desk`) and returns
`AxiomReport`s; one loop over `SUITES`, the one suite list, prefixes each
axiom with its suite name and prints one JSON line per report.  The crystal
graph is built at most once per run, for `check_crystal_axioms` and
`compare_components`; `crystal.graph_determinism` builds a second graph and
compares the two by value.  Each subcommand declares the formats it writes;
any other `--format` is refused before the charge is parsed.

Output is deterministic byte-for-byte for identical invocations: fixed term
and node orders, no timestamps.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 141 (as for SIGPIPE) when the reader closes stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from math import comb

from . import fock_space, hecke_desk, structure_analysis
from .crystal import BoxOrder, build_graph
from .multipartition import (
    Multicharge,
    enumerate_multipartitions,
    parse_multipartition,
)
from .structure_analysis import AxiomReport
from .weight_lattice import cartan_entry, wt

MAX_GRAPH_NODES = 50_000
SUITES = ("fock", "crystal", "perfect", "components", "hecke")


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _add_common(parser: argparse.ArgumentParser) -> None:
    d = argparse.SUPPRESS  # unset unless given: a flag after the subcommand wins
    parser.add_argument("--e", type=int, default=d, help="quantum characteristic, at least 2")
    parser.add_argument("--s", type=str, default=d,
                        help="multicharge as comma-separated integers")
    parser.add_argument("--max-rank", type=int, default=d, help="rank bound for graphs and sweeps")
    parser.add_argument("--order", choices=["asc", "desc"], default=d, help="signature box order")
    parser.add_argument("--format", choices=["json", "dot", "text"], default=d,
                        help="output format")
    parser.add_argument("--n", type=int, default=d, help="number of Hecke strands")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Exact combinatorics of level-l Fock spaces, their "
        "crystals, and desk-scale cyclotomic Hecke algebras.",
    )
    _add_common(parser)
    parser.set_defaults(e=2, s="0", max_rank=5, order="asc", format="json", n=2)
    sub = parser.add_subparsers(dest="command", required=True)

    p_wt = sub.add_parser("wt", help="weight of a multipartition")
    _add_common(p_wt)
    p_wt.add_argument("multipartition", help="JSON like [[2,1],[1]]")
    p_wt.set_defaults(run=cmd_wt, formats=("json", "text"))

    p_apply = sub.add_parser("apply", help="apply a Chevalley operator")
    _add_common(p_apply)
    p_apply.add_argument("op", choices=["e", "f", "h"])
    p_apply.add_argument("i", type=int, help="residue index in 0..e-1")
    p_apply.add_argument("vector",
                         help="multipartition JSON or Fock vector JSON")
    p_apply.set_defaults(run=cmd_apply, formats=("json", "text"))

    p_graph = sub.add_parser("crystal-graph", help="build the crystal graph")
    _add_common(p_graph)
    p_graph.set_defaults(run=cmd_crystal_graph, formats=("json", "dot", "text"))

    p_blocks = sub.add_parser("blocks", help="group rank-n shapes by weight")
    _add_common(p_blocks)
    p_blocks.add_argument("rank", type=int)
    p_blocks.set_defaults(run=cmd_blocks, formats=("json", "text"))

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("suite", choices=[*SUITES, "all"])
    p_verify.set_defaults(run=cmd_verify, formats=("json",))

    p_hecke = sub.add_parser("hecke-build",
                             help="build the Hecke regular representation")
    _add_common(p_hecke)
    p_hecke.set_defaults(run=cmd_hecke_build, formats=("json", "text"))

    return parser


def _charge(args) -> Multicharge:
    try:
        s = tuple(int(v) for v in str(args.s).split(","))
    except ValueError as exc:
        raise ValueError(f"bad multicharge {args.s!r}: {exc}") from exc
    return Multicharge(args.e, s)


def cmd_wt(args, charge: Multicharge) -> int:
    mp = parse_multipartition(args.multipartition, level=charge.level)
    weight = wt(mp, charge)
    if args.format == "text":
        print(f"wt({mp}) = {weight}")
    else:
        print(_dump(weight.to_json()))
    return 0


def cmd_apply(args, charge: Multicharge) -> int:
    if not 0 <= args.i < charge.e:
        raise ValueError(f"residue {args.i} out of 0..{charge.e - 1}")
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
    """The number of level-`level` multipartitions of each rank 0..max_rank;
    refused uncounted once a lower bound at some rank r <= max_rank is over
    budget: p(r), or C(level + r - 1, r), the shapes whose parts are rows."""
    single = [1]  # the partition numbers p(r), by Euler's pentagonal recurrence
    for r in range(1, max_rank + 1):
        p, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= r:
            p -= (-1) ** k * (single[r - g] + (single[r - g - k] if g + k <= r else 0))
            k += 1
        _check_budget(max(p, comb(level + r - 1, r)), f"or more shapes of rank {max_rank}")
        single.append(p)
    counts = [1] + [0] * max_rank
    for _ in range(level):
        counts = [sum(counts[k] * single[t - k] for k in range(t + 1))
                  for t in range(max_rank + 1)]
    return counts


def _check_budget(predicted: int, unit: str) -> None:
    if predicted > MAX_GRAPH_NODES:
        raise ValueError(f"resource bound exceeded: {predicted} {unit} > {MAX_GRAPH_NODES}")


def _check_node_budget(charge: Multicharge, max_rank: int, reach: int) -> None:
    """Refuse, before any work, a negative rank bound or one whose predicted
    node count, the shapes of rank up to max_rank + reach, exceeds
    MAX_GRAPH_NODES."""
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    _check_budget(sum(_shape_counts(charge.level, max_rank + reach)), "nodes")


def cmd_crystal_graph(args, charge: Multicharge) -> int:
    _check_node_budget(charge, args.max_rank, 1)
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


def cmd_blocks(args, charge: Multicharge) -> int:
    if args.rank < 0:
        raise ValueError("rank must be nonnegative")
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


def cmd_hecke_build(args, charge: Multicharge) -> int:
    rep = hecke_desk.build_algebra(charge.level, args.n, charge)
    if args.format == "text":
        print(f"dimension={rep.dimension} words={rep.word_labels()}")
    else:
        rep.write_json(sys.stdout)
    return 0


def _reports(suite: str, args, charge: Multicharge, graph):
    """Yield one suite's reports, each as soon as its check returns; `graph()`
    is the run's crystal graph, built at its first call."""
    order = BoxOrder(args.order)
    if suite == "fock":
        yield from structure_analysis.check_fock_relations(charge, args.max_rank)
    elif suite == "crystal":
        same = graph() == build_graph(charge, args.max_rank, order)
        yield AxiomReport("graph_determinism", () if same else ({"rebuilt_equal": False},))
        yield from structure_analysis.check_crystal_axioms(graph())
    elif suite == "perfect":
        yield from structure_analysis.check_perfect_basis(charge, args.max_rank, order)
    elif suite == "components":
        yield from structure_analysis.compare_components(graph())
    else:  # hecke
        rep = hecke_desk.build_algebra(charge.level, args.n, charge)
        yield AxiomReport("dimension", ())
        yield from hecke_desk.check_relations(rep)
        yield from hecke_desk.check_jm(rep)
        spectrum = hecke_desk.central_characters(rep, args.n, charge)
        yield from spectrum.reports
        yield from hecke_desk.check_block_weights(spectrum, args.n, charge)


def cmd_verify(args, charge: Multicharge) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    if suites != ("hecke",):  # crystal moves reach one rank up, the Serre sums 1 - a_ij
        _check_node_budget(charge, args.max_rank,
                           1 - cartan_entry(0, 1, charge.e) if "fock" in suites else 1)
    if "hecke" in suites:  # the Hecke arguments are refused before any suite runs
        hecke_desk.checked_dimension(charge.level, args.n, charge)
    # not held through the fock sweep: built by the first suite that needs it
    graph = cache(lambda: build_graph(charge, args.max_rank, BoxOrder(args.order)))
    failed = False
    for suite in suites:
        for report in _reports(suite, args, charge, graph):
            doc = report.to_json()
            doc["axiom"] = f"{suite}.{doc['axiom']}"
            failed |= report.status == "fail" and not report.informational
            print(_dump(doc))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.format not in args.formats:
            raise ValueError(f"{args.command} writes no {args.format} output")
        code = args.run(args, _charge(args))
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left: exit as SIGPIPE would, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
