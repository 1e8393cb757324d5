"""focklab benchmark: closed loop, one operation in flight, one child at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a focklab checkout.  Every workload, end to end:

    for w in spectrum saturation kernels verify-all; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Every pass runs in a fresh child interpreter (child.py), so it starts cold,
as a CLI user does: enumeration caches empty, Hecke algebra rebuilt.  The run
makes passes until another one would overrun S seconds (at least one pass;
with --trace 1 at least one traced and one untraced), with set-up-only
children before each pass and at the end.

Pass k runs seed + k (with --trace 1, traced and untraced passes go in pairs
on the same seed), so the multicharge shift c = seed + k mod e rotates over
the passes and every run covers the shifts, which need not cost the same:
run interleaved, kernels took 4.6, 5.2 and 4.9 s at c = 0, 1 and 2.

wall_s, setup_s and peak_rss_mib are medians over the run's samples.  wall_s
and setup_s are given at reference host speed: each child rescales its own
timings by the host speed it samples while they run (child.HostSpeed),
because this shared host's CPU speed switches between levels 1.5x apart in
phases of seconds, which moved the raw medians of 30-second runs by more
than any bound could absorb.  The speed probes take about 3% of a pass; they
are left out of the rescaled timings but not of the raw wall-clock medians,
which are printed beside them and kept in the run record.

Every operation's output is checked: exit code, a reference digest per
multicharge shift (reference.json), and for the spectrum the cellular
dimension oracle.  With --trace 1 the traced output digests must equal the
untraced ones.

The last stdout line is the JSON result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1, each named and with its unit as in
BENCHMARK.json.  Lines before it repeat the metrics for people, with the
sample counts, fail_ratio and the environment fingerprint.  Each run is also
appended to perfbench/results/runs.jsonl (with every sample, so a claim can
be rechecked per seed) and its trace spans written beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 150


def child(workload: str, seed: int, mode: str) -> dict:
    """Run one child interpreter to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), mode],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {workload} {seed} {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; otherwise None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "focklab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric(names: list[dict], values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "focklab" / "__init__.py").is_file():
        print(f"error: no focklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    # Closed loop: the next child starts when the previous one has exited.
    # Set-up samples are taken around every pass, so that they spread over
    # the run like the passes do instead of sharing one moment's CPU speed.
    start = time.perf_counter()
    setups: list[dict] = []
    passes: list[tuple[str, dict]] = []
    durations: list[float] = []
    while True:
        modes = [mode for mode, _ in passes]
        if passes:
            enough = not args.trace or ("trace" in modes and "pass" in modes)
            projected = time.perf_counter() - start + statistics.median(durations)
            if enough and projected > args.seconds:
                break
        mode = "trace" if args.trace and modes.count("trace") <= modes.count("pass") else "pass"
        seed = args.seed + (len(passes) // 2 if args.trace else len(passes))
        began = time.perf_counter()
        setups += [child(args.workload, args.seed, "setup") for _ in range(SETUP_PER_PASS)]
        passes.append((mode, child(args.workload, seed, mode)))
        durations.append(time.perf_counter() - began)
    setups += [child(args.workload, args.seed, "setup") for _ in range(SETUP_PER_PASS)]

    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, set] = {}
    for mode, p in passes:
        for op in p["ops"]:
            digests.setdefault(op["name"], set()).add(op["digest"])
    for mode, p in passes:
        for op in p["ops"]:
            attempted += 1
            bad = list(op["problems"])
            if op["digest"] != reference.get(op["name"]):
                bad.append(f"digest {op['digest']} != reference")
            if len(digests[op["name"]]) > 1:
                bad.append("output differs between passes")
            if bad:
                failed += 1
                problems += [f"{mode} {op['name']}: {b}" for b in bad]

    plain = [p for mode, p in passes if mode == "pass"]
    traced = [p for mode, p in passes if mode == "trace"]
    fingerprint = {
        "python": platform.python_version(),
        "rat": setups[0]["rat"],
        "nproc": os.cpu_count(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fingerprint,
        "commit": commit(), "source": source_digest(),
        "setup_s": [s["setup_s"] for s in setups + [p for _, p in passes]],
        "setup_ref_s": [s["setup_ref_s"] for s in setups + [p for _, p in passes]],
        "wall_s": [p["wall_s"] for p in plain],
        "wall_ref_s": [p["wall_ref_s"] for p in plain],
        "rss_kib": [p["rss_kib"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "traced_wall_ref_s": [p["wall_ref_s"] for p in traced],
        "attempted": attempted, "failed": failed, "problems": problems,
    }

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"fingerprint={json.dumps(fingerprint)} commit={record['commit']}")
    if args.trace:
        layers = [p["layers"] for p in traced]
        values = {}
        for m in spec["per_layer"]:
            span, _, field = m["name"].rpartition(".")
            values[m["name"]] = statistics.median(
                layer.get(span, {}).get(field, 0.0) for layer in layers
            )
        values["trace.overhead_s"] = (
            statistics.median(record["traced_wall_ref_s"])
            - statistics.median(record["wall_ref_s"])
        )
        metrics = metric(spec["per_layer"], values)
        record["sites"] = traced[0]["sites"]
        record["layers"] = values
        for p in passes:
            print(f"  {'traced' if p[0] == 'trace' else 'untraced'} pass: {p[1]['wall_s']:.3f} s")
    else:
        values = {
            "wall_s": statistics.median(record["wall_ref_s"]),
            "setup_s": statistics.median(record["setup_ref_s"]),
            "peak_rss_mib": statistics.median(record["rss_kib"]) / 1024,
        }
        metrics = metric(spec["end_to_end"], values)
        samples = {"wall_s": len(plain), "setup_s": len(record["setup_s"]),
                   "peak_rss_mib": len(plain)}
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']} (median of {samples[name]})")
        for name in ("wall_s", "setup_s"):
            print(f"  {name} wall clock = {statistics.median(record[name]):.6g} s "
                  f"(median of {samples[name]}, not rescaled)")
    print(f"  fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for line in problems:
        print(f"  FAILED {line}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        with open(results / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for k, p in enumerate(traced):
                for span in p["spans"]:
                    fh.write(json.dumps([k, *span]) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
