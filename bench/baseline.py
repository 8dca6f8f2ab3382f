"""Record the baseline: run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py

For every workload, runs ``run.py`` once per seed 0-9 for the
``run_seconds`` of ``BENCHMARK.json`` (one run after another, never in
parallel) and reports, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  It also collects the
per-layer metrics from ``--trace 1`` runs on seeds 0-2.  The summary is
written to ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SEEDS = list(range(10))
TRACE_SEEDS = list(range(3))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}")
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
                     "values": values}
    return out


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {"seeds": SEEDS, "trace_seeds": TRACE_SEEDS, "seconds": seconds,
               "workloads": {}}
    for workload in workloads.WORKLOADS:
        entry = {"attempted": 0, "failed": 0}
        for trace, seeds in ((0, SEEDS), (1, TRACE_SEEDS)):
            runs = [run_once(workload, seed, seconds, trace) for seed in seeds]
            entry["per_layer" if trace else "end_to_end"] = summarise(runs)
            entry["attempted"] += sum(r["attempted"] for r in runs)
            entry["failed"] += sum(r["failed"] for r in runs)
        summary["workloads"][workload] = entry
        for section in ("end_to_end", "per_layer"):
            for name, s in entry[section].items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"{workload:14} {name:28} median {s['median']:<12.6g} {s['unit']:6} "
                      f"spread {spread}", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
