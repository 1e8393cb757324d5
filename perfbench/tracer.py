"""Per-layer spans for the traced benchmark run, recorded from outside focklab.

Every name a caller looks up is rebound to a timing wrapper at runtime: the
defining module's attribute, each copy made by `from .x import y` in other
focklab modules or the package, and methods on their class.  Nothing under
src/ changes, and untraced runs never import this file.

A span is named after its module.  Its self time is its duration minus the
durations of the spans it directly encloses.  Hot leaf calls (`leaf=True`)
only add to their name's totals; every other call also keeps one span record
(id, parent id, name, start, end) for the trace file.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

perf = time.perf_counter


def _cells(result, rows, ncols, *_):
    return {"cells": len(rows) * ncols}


def _mults(result, a, b, *_):
    return {"mults": len(a) * len(b) * (len(b[0]) if b else 0)}


def _operator_cells(result, i, charge, domain, codomain, *_, **__):
    return {"cells": len(domain) * len(codomain)}


def _candidates(result, rep, n, charge):
    hecke = sys.modules["focklab.hecke_desk"]
    shapes = inspect.unwrap(hecke.enumerate_multipartitions)(n, rep.l)
    return {"candidates": len({hecke.a_poly(mp, charge) for mp in shapes})}


# (module, attribute, span name, leaf, counters(result, *args, **kwargs))
TARGETS = (
    ("multipartition", "enumerate_multipartitions", "multipartition.enumerate", True, None),
    ("weight_lattice", "wt", "weight_lattice.wt", True, None),
    ("fock_space", "apply_e", "fock_space.apply", True, None),
    ("fock_space", "apply_f", "fock_space.apply", True, None),
    ("fock_space", "operator_matrix", "fock_space.operator_matrix", False, _operator_cells),
    ("crystal", "signature", "crystal.signature", True, None),
    ("crystal", "build_graph", "crystal.build_graph", False,
     lambda result, *_, **__: {"nodes": len(result.nodes)}),
    ("structure_analysis", "kernel_dimension_by_weight", "structure_analysis.kernel_dims", False,
     lambda result, *_: {"slices": len(result)}),
    ("structure_analysis", "check_crystal_axioms", "structure_analysis.checks", False, None),
    ("structure_analysis", "check_perfect_basis", "structure_analysis.checks", False, None),
    ("structure_analysis", "compare_components", "structure_analysis.checks", False, None),
    ("_linalg", "rref", "linalg.rref", False, _cells),
    ("_linalg", "mat_mul", "linalg.mat_mul", False, _mults),
    ("_linalg", "SpanTracker.insert", "linalg.span.insert", False,
     lambda result, *_: {"accepted": int(result)}),
    ("_linalg", "SpanTracker.express", "linalg.span.express", False, None),
    ("cyclotomic", "mat_mul_cyc", "cyclotomic.mat_mul_cyc", False, _mults),
    ("cyclotomic", "matrix_rank_cyc", "cyclotomic.rank_cyc", False, None),
    ("hecke_desk", "build_algebra", "hecke_desk.build_algebra", False,
     lambda result, *_, **__: {"dim": result.dimension}),
    ("hecke_desk", "check_relations", "hecke_desk.check_relations", False, None),
    ("hecke_desk", "jm_elements", "hecke_desk.jm", False, None),
    ("hecke_desk", "symmetric_jm", "hecke_desk.jm", False, None),
    ("hecke_desk", "central_characters", "hecke_desk.central_characters", False, _candidates),
    ("cli", "main", "cli.main", False, None),
)


class Tracer:
    """Installs the wrappers on construction; read the totals with `layers`."""

    def __init__(self, focklab):
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.spans: list[tuple] = []
        self.sites: dict[str, int] = {}
        self._stack: list[list] = []  # [span id or None, start, enclosed seconds]
        self._top_s = 0.0
        self._enumerate = focklab.multipartition.enumerate_multipartitions
        modules = [focklab] + [
            m for k, m in sys.modules.items() if k.startswith("focklab.")
        ]
        for module, attr, name, leaf, counters in TARGETS:
            owner = getattr(focklab, module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, leaf, counters))
                self.sites[f"{module}.{cls_name}.{attr}"] = 1
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, leaf, counters)
            sites = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        sites += 1
            self.sites[f"{module}.{attr}"] = sites

    def _wrap(self, fn, name, leaf, counters):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = None
            if not leaf:
                span_id = len(spans)
                spans.append(None)
            frame = [span_id, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - frame[1]
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                else:
                    self._top_s += elapsed
                if span_id is not None:
                    parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                    spans[span_id] = (span_id, parent, name, frame[1], end)
            if counters is not None:
                for key, value in counters(result, *args, **kwargs).items():
                    stats[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def layers(self, wall_s: float, stdout_bytes: int) -> dict[str, dict[str, float]]:
        """Totals per span name, plus the derived ratios and trace residue."""
        out = {name: dict(values) for name, values in self.stats.items()}
        info = self._enumerate.cache_info()
        looked_up = info.hits + info.misses
        out["multipartition.enumerate"]["cache_hit_ratio"] = (
            info.hits / looked_up if looked_up else 0.0
        )
        insert = out["linalg.span.insert"]
        out["linalg.span"] = {
            "accept_ratio": insert["accepted"] / insert["calls"] if insert.get("calls") else 0.0
        }
        out["cli"] = {"stdout_bytes": stdout_bytes}
        out["trace"] = {"unattributed_s": wall_s - self._top_s}
        return out
