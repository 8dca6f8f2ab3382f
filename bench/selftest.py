"""Self-test of the benchmark's exactness gate, at tiny sizes (a few seconds).

    python3 bench/selftest.py

1. Each workload at tiny scale, seed 0, runs one untraced and one traced
   pass; every request must pass the independent checks, match its
   golden entry, and give the same record (transcript digest included)
   traced and untraced.
2. The same lp_ladder run against a golden file with one tau entry
   changed must count exactly that request as failed, on both passes.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402


def run_tiny(workload: str, golden: dict | None) -> tuple[list, harness.Gate, list]:
    requests = workloads.build(workload, 0, ROOT, tiny=True)
    gate = harness.Gate(golden)
    _, traced = harness.run_passes(requests, gate, 0.0, trace=True)
    return requests, gate, traced


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        golden = harness.load_golden(workload, 0, tiny=True)
        if golden is None:
            problems.append(f"{workload}: golden.json has no tiny entries")
            continue
        requests, gate, traced = run_tiny(workload, golden)
        if gate.failed or len(gate.golden_matched) != len(requests):
            problems.append(f"{workload}: {gate.failures}")
        if not traced[0].tracer.spans:
            problems.append(f"{workload}: the traced pass recorded no spans")
        print(f"{workload}: {gate.attempted} requests, {gate.failed} failed, "
              f"{len(traced[0].tracer.spans)} spans", file=sys.stderr)

    golden = copy.deepcopy(harness.load_golden("lp_ladder", 0, tiny=True) or {})
    tampered = next((rid for rid, entry in golden.items() if "tau" in entry), None)
    if tampered is None:
        problems.append("lp_ladder: no golden entry with tau to tamper with")
    else:
        golden[tampered]["tau"][0] += 1
        _, gate, _ = run_tiny("lp_ladder", golden)
        failed = [rid for rid, _ in gate.failures]
        if failed != [tampered, tampered]:
            problems.append(f"tampered {tampered}, but the failures were {failed}")
        print(f"tampered golden {tampered}: failures {failed}", file=sys.stderr)

    for p in problems:
        print("FAIL", p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
