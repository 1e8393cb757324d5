"""The benchmark's tracer looks focklab names up by string, and only in its
traced runs; the end-to-end runs never do.  This keeps those names alive."""

from __future__ import annotations

import ast
from pathlib import Path

import focklab
import focklab.cli

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of `TARGETS`, read from the source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS":
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("no TARGETS in perfbench/tracer.py")


def test_tracer_targets_resolve():
    targets = _targets()
    assert len(targets) > 20
    for module, attr in targets:
        owner = getattr(focklab, module)
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module, attr)


def test_rat_binding_resolves():
    # the benchmark records the rational type as type(focklab._rat.RAT(0))
    assert focklab._rat.RAT(1, 2) * 2 == 1
