"""Compare two sets of untraced benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records as appended by run.py to
perfbench/results/runs.jsonl.  Refuses (exit 2) when any two records carry
different environment fingerprints (Python version, rational type, core
count): such numbers are not comparable.  For every workload and end-to-end
metric it prints each side's median and quartiles over its runs, and a
verdict against the metric's bound in BENCHMARK.json:

  regressed   the change's median is worse than the base's by more than the bound
  unresolved  the base's own spread (quartile distance / median) exceeds the bound
              and not every change run beats every base run
  ok          otherwise

Exit 1 when anything regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def per_run(record: dict) -> dict[str, float]:
    return {
        "wall_s": statistics.median(record["wall_ref_s"]),
        "setup_s": statistics.median(record["setup_ref_s"]),
        "peak_rss_mib": statistics.median(record["rss_kib"]) / 1024,
    }


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [r for r in map(json.loads, fh) if not r["trace"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(base_path: str, change_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(base_path), load(change_path)
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + change}
    if len(prints) != 1:
        print("refused: environment fingerprints differ:", *sorted(prints), sep="\n  ")
        return 2
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        old = [per_run(r) for r in base if r["workload"] == workload]
        new = [per_run(r) for r in change if r["workload"] == workload]
        if not old or not new:
            continue
        for m in spec["end_to_end"]:
            name, sign = m["name"], 1 if m["better"] == "lower" else -1
            a = [r[name] for r in old]
            b = [r[name] for r in new]
            qa, qb = quartiles(a), quartiles(b)
            worse = sign * (qb[1] - qa[1]) / qa[1]
            spread = (qa[2] - qa[0]) / qa[1]
            all_better = max(sign * x for x in b) < min(sign * x for x in a)
            if worse > m["bound"]:
                verdict, regressed = "regressed", True
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:12} {name:13} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}"
                  f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}"
                  f"  {(qb[1] - qa[1]) / qa[1]:+.1%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.splitlines()[2].strip())
    sys.exit(main(sys.argv[1], sys.argv[2]))
