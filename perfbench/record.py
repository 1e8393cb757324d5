"""Rewrite perfbench/reference.json from the current focklab sources.

    python3 perfbench/record.py

Runs one untraced pass of every workload for seeds 0, 1 and 2, which cover
every multicharge shift c mod e for e in {2, 3}, and stores each operation's
output digest.  Refuses to record an operation that reported a problem.
Only rerun it for a deliberate, documented change of program output.
"""

from __future__ import annotations

import json
import sys

from child import WORKLOADS
from run import HERE, child


def main() -> int:
    digests: dict[str, str] = {}
    for workload in WORKLOADS:
        for seed in range(3):
            for op in child(workload, seed, "pass")["ops"]:
                if op["problems"]:
                    print(f"{op['name']}: {op['problems']}", file=sys.stderr)
                    return 1
                if digests.setdefault(op["name"], op["digest"]) != op["digest"]:
                    print(f"{op['name']}: output differs between runs", file=sys.stderr)
                    return 1
    (HERE / "reference.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
