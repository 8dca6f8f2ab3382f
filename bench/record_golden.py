"""Record golden.json: the exact results of every request for a set of seeds.

    python3 bench/record_golden.py

Runs one untraced pass of each workload for seeds 0-15 and the held-out
seed (and the tiny scale at seed 0, which the self-test uses), requires
every independent check to pass, and stores one entry per request:
capacity as "p/q", tau, L, the virtual-server count, the field q, the
audit's passed / checked_subsets / sampled, and the transcript digest.
Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402
from execute import golden_entry  # noqa: E402

SEEDS = (*range(16), workloads.HELD_OUT_SEED)


def record(workload: str, seed: int, tiny: bool) -> dict:
    requests = workloads.build(workload, seed, ROOT, tiny)
    gate = harness.Gate(None)
    harness.run_pass(requests, gate, traced=False)
    if gate.failed:
        raise SystemExit(f"{workload} seed {seed}: {gate.failures}")
    return {req.rid: golden_entry(gate.reference[req.rid]) for req in requests}


def main() -> int:
    entries = {}
    for workload in workloads.WORKLOADS:
        entries[harness.golden_key(workload, 0, True)] = record(workload, 0, True)
        for seed in SEEDS:
            entries[harness.golden_key(workload, seed, False)] = record(workload, seed, False)
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    (BENCH / "golden.json").write_text(json.dumps({"entries": entries}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
