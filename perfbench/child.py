"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <setup|pass|trace>

`setup` times `import focklab` plus building the workload's inputs and
stops.  `pass` also runs every operation of the workload once, cold, and
checks its output.  `trace` does the same with per-layer spans recorded
(see tracer.py).  The result is one JSON object on stdout; the program's
own stdout is captured and digested, never printed.

Every timing is also given at reference host speed (`*_ref_s`), from the
host speed sampled throughout the child (see HostSpeed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (l, n, e) of the library pipeline build_algebra -> check_relations ->
# central_characters, with the block dimensions recorded at the seed commit.
SPECTRUM_CONFIGS = {
    (2, 3, 2): [24, 24],
    (3, 2, 3): [6, 6, 6],
    (2, 2, 3): [1, 6, 1],
}

# CLI workloads: (e, base multicharge, argv with "{s}" for the multicharge).
CLI_WORKLOADS = {
    "saturation": (2, (0, 1, 2), "--e 2 --s {s} --n 3 hecke-build"),
    "kernels": (3, (0, 1), "verify components --e 3 --s {s} --max-rank 10"),
    "verify-all": (3, (0, 1), "verify all --e 3 --s {s} --max-rank 8 --n 2"),
}

WORKLOADS = ("spectrum", *CLI_WORKLOADS)

# Median seconds of one speed probe on the 2-vCPU KVM host where the
# benchmark was defined; `*_ref_s` timings are in seconds of that host.
REF_PROBE_S = 0.00027
PROBE_INTERVAL_S = 0.01


class HostSpeed:
    """Samples the host's speed every PROBE_INTERVAL_S while a child runs.

    The shared host's CPU speed switches between levels about 1.5x apart in
    phases of seconds, on each vCPU separately, so a pass of several seconds
    takes 1.0x to 1.5x its work depending on the phases it meets.  A SIGALRM
    handler times a fixed sum of Fractions, exact arithmetic like focklab's
    but none of its code, so that no program change moves it.  Of the probes
    tried (integer loop, pointer chase, dict of tuples, Fractions), its time
    tracked the pass time of verify-all and kernels best (correlation 0.87
    and 0.91 over 26 passes each).  An interval's time at reference speed is
    its own time, less the probes', divided by the mean probe time over
    REF_PROBE_S.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, seconds)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        a, total = Fraction(3, 7), Fraction(0)
        for i in range(1, 40):
            total += a * Fraction(i, i + 2)
        self.probes.append((t0, time.perf_counter() - t0))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def at_ref(self, start: float, end: float) -> float:
        """Seconds the work between `start` and `end` takes at reference speed."""
        inside = [d for t, d in self.probes if start <= t < end]
        if not inside:
            raise RuntimeError("no speed probe fell inside a timed interval")
        return (end - start - sum(inside)) * len(inside) * REF_PROBE_S / sum(inside)


def shifted(s: tuple[int, ...], e: int, seed: int) -> tuple[int, ...]:
    """The seed's multicharge: s + c with c = seed mod e.

    A constant shift relabels residues, so the problem sizes stay fixed
    while the concrete inputs and Hecke parameters change.
    """
    return tuple(v + seed % e for v in s)


def build_ops(focklab, workload: str, seed: int) -> list[tuple[str, tuple]]:
    """The workload's operations as (name, inputs); names key the reference."""
    if workload == "spectrum":
        return [
            (f"spectrum-{l}-{n}-{e}-c{seed % e}",
             (l, n, focklab.Multicharge(e, shifted(tuple(range(l)), e, seed))))
            for l, n, e in SPECTRUM_CONFIGS
        ]
    e, s, template = CLI_WORKLOADS[workload]
    argv = template.format(s=",".join(map(str, shifted(s, e, seed)))).split()
    return [(f"{workload}-c{seed % e}", tuple(argv))]


def run_op(focklab, inputs: tuple):
    """Run one operation through the public entry points; no checking here."""
    if isinstance(inputs[0], str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = focklab.cli.main(list(inputs))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()
    l, n, charge = inputs
    rep = focklab.build_algebra(l, n, charge)
    relations = focklab.check_relations(rep)
    return relations, focklab.central_characters(rep, n, charge)


def specht_dim(mp) -> int:
    """dim S^lambda = n!/prod |lambda^(j)|! * prod f^(lambda^(j)), by hooks."""
    out = factorial(mp.rank)
    for comp in mp.components:
        size = sum(comp)
        conj = [sum(1 for p in comp if p > c) for c in range(comp[0])] if comp else []
        hooks = prod(
            comp[r] - c + conj[c] - r - 1
            for r in range(len(comp))
            for c in range(comp[r])
        )
        out = out // factorial(size) * (factorial(size) // hooks)
    return out


def check_op(focklab, inputs: tuple, output) -> tuple[str, list[str]]:
    """Digest of the operation's output and the list of problems found."""
    problems = []
    if isinstance(inputs[0], str):
        code, text = output
        if code != 0:
            problems.append(f"exit code {code}")
        return hashlib.sha256(text.encode()).hexdigest(), problems

    l, n, charge = inputs
    relations, spectrum = output
    if not focklab.reports_ok(list(relations) + list(spectrum.reports)):
        problems.append("relation or spectrum report failed")
    dims = [block.dimension for block in spectrum.attained]
    if dims != SPECTRUM_CONFIGS[(l, n, charge.e)]:
        problems.append(f"block dimensions {dims}")
    for block in spectrum.attained:
        cellular = sum(specht_dim(mp) ** 2 for mp in block.members)
        if block.dimension != cellular:
            problems.append(f"block of dim {block.dimension} != cellular {cellular}")
    doc = {
        "charge": charge.to_json(),
        "n": n,
        "blocks": [
            [block.character.to_json(), block.dimension,
             [mp.to_lists() for mp in block.members]]
            for block in spectrum.attained
        ],
        "reports": [r.to_json() for r in list(relations) + list(spectrum.reports)],
    }
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), problems


def main(workload: str, seed: int, mode: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    speed = HostSpeed()
    t0 = time.perf_counter()
    import focklab
    import focklab.cli

    ops = build_ops(focklab, workload, seed)
    t1 = time.perf_counter()
    rat = type(focklab._rat.RAT(0))
    result = {
        "setup_s": t1 - t0,
        "setup_ref_s": speed.at_ref(t0, t1),
        "rat": f"{rat.__module__}.{rat.__qualname__}",
    }
    if mode == "setup":
        speed.stop()
        return result

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(focklab)

    outputs = []
    start = time.perf_counter()
    for _, inputs in ops:
        try:
            outputs.append((run_op(focklab, inputs), None))
        except Exception:
            outputs.append((None, traceback.format_exc(limit=3)))
    end = time.perf_counter()
    speed.stop()
    wall_s = end - start
    result["wall_s"] = wall_s
    result["wall_ref_s"] = speed.at_ref(start, end)
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result["ops"] = []
    for (name, inputs), (output, error) in zip(ops, outputs):
        digest, problems = (None, [error]) if error else check_op(focklab, inputs, output)
        result["ops"].append({"name": name, "digest": digest, "problems": problems})

    if tracer is not None:
        stdout_bytes = sum(
            len(out[1].encode()) for out, _ in outputs
            if out is not None and isinstance(out[1], str)
        )
        result["layers"] = tracer.layers(wall_s, stdout_bytes)
        result["spans"] = tracer.spans
        result["sites"] = tracer.sites
    return result


if __name__ == "__main__":
    name, seed_arg, mode_arg = sys.argv[1:4]
    if name not in WORKLOADS or mode_arg not in ("setup", "pass", "trace"):
        sys.exit(f"usage: child.py {{{','.join(WORKLOADS)}}} SEED setup|pass|trace")
    print(json.dumps(main(name, int(seed_arg), mode_arg)))
