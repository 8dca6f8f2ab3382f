"""gxstplc benchmark: one workload, one seed, a closed loop of exact requests.

    python3 bench/run.py --workload lp_ladder --seed 0 --seconds 30 --trace 0

A single process and a single thread issue the workload's request list
in order, each request only after the previous one returned, and repeat
the list (one "pass") until ``--seconds`` is used up.  Every result is
gated for exactness (see ``execute.py``) and, where ``golden.json`` has
an entry for this workload and seed, compared with it; any failure makes
``correct`` false and the exit code 1.

``--trace 0`` reports the end-to-end metrics from untraced passes, with
one set-up probe (a fresh interpreter) after each pass; ``wall_s`` is
the pass time at the reference speed (``harness.calibrated_pass``): each
request's time over the time of a fixed reference kernel around it
(``calibrate.py``), median over the passes, summed, times
``calibrate.REFERENCE_S``.
``--trace 1`` alternates untraced passes with passes that have spans
around every layer call (see ``tracing.py``), and reports the per-layer
metrics; the traced transcripts must equal the untraced ones.
The last line of stdout is one JSON object; the lines before it are a
readable report, and ``bench/out/`` receives the per-request sizes and,
when traced, the spans.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# each probe is a fresh interpreter: import the package, generate the inputs
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import gxstplc, workloads
from pathlib import Path
workloads.build({workload!r}, {seed!r}, Path({root!r}))
print(time.perf_counter() - t0)
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import gxstplc and build the inputs."""
    code = _SETUP_PROBE.format(src=str(ROOT / "src"), bench=str(BENCH), workload=workload,
                               seed=seed, root=str(ROOT))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "gxstplc" / "__init__.py").is_file() \
            or not (ROOT / "demos" / "patterns").is_dir():
        print(f"error: {ROOT} is not a gxstplc checkout (src/gxstplc, demos/patterns)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness
    import workloads
    from calibrate import REFERENCE_S

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_probe(args.workload, args.seed)  # only warms the bytecode cache
    requests = workloads.build(args.workload, args.seed, ROOT)
    golden = harness.load_golden(args.workload, args.seed)
    gate = harness.Gate(golden)
    # spread over the run, the probes sample the same host phases as the passes
    setup_times: list[float] = []
    plain, traced = harness.run_passes(
        requests, gate, args.seconds, bool(args.trace),
        between=None if args.trace else lambda: setup_times.append(
            setup_probe(args.workload, args.seed)))

    wall_s = harness.calibrated_pass(plain)
    raw_wall_s = statistics.median(p.wall for p in plain)
    reference_s = statistics.median(r for p in plain for r in p.refs)
    if args.trace:
        layers = harness.layer_metrics(traced)
        layers.update({f"{k}_s": harness.calibrated_pass(plain, k) for k in workloads.KINDS})
        layers["fail_ratio"] = gate.failed / gate.attempted
        layers["trace.overhead_s"] = harness.calibrated_pass(traced) - wall_s
        layers["wall_raw_s"] = raw_wall_s
        layers["host.reference_s"] = reference_s
        layers["cli.stdout_bytes"] = sum(r.get("stdout_bytes", 0)
                                         for r in gate.reference.values())
        metrics = {k: {"value": v, "unit": harness.unit_of(k)} for k, v in layers.items()}
    else:
        setup_s = statistics.median(setup_times)
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": plain[0].rss_mb, "unit": "MB"}}

    print(f"workload {args.workload}  seed {args.seed}  {len(requests)} requests per pass  "
          f"{len(plain)} untraced passes, {len(traced)} traced")
    print(f"  {'request':30} {'kind':8} " + " ".join(f"{c:>7}" for c in harness.SIZE_COLUMNS)
          + "  median_s")
    for req in requests:
        sizes = gate.examiner.sizes.get(req.rid, {})
        med = statistics.median(dt for p in plain for rid, _, dt in p.times if rid == req.rid)
        print(f"  {req.rid:30} {req.kind:8} "
              + " ".join(f"{sizes.get(c, '-'):>7}" for c in harness.SIZE_COLUMNS)
              + f"  {med:.4f}")
    print(f"  wall_s       {wall_s:.4f} s at the reference speed ({REFERENCE_S * 1e3:g} ms "
          f"reference kernel; this run's median {reference_s * 1e3:.3f} ms)")
    print(f"  raw passes   median {raw_wall_s:.4f} s, fastest {min(p.wall for p in plain):.4f} s, "
          f"slowest {max(p.wall for p in plain):.4f} s (wall clock, uncalibrated)")
    if setup_times:
        print(f"  setup_s      {statistics.median(setup_times):.4f} s (median of "
              f"{len(setup_times)} fresh interpreters, one after each pass)")
    print(f"  peak_rss_mb  {plain[0].rss_mb:.1f} MB")
    print(f"  fail_ratio   {gate.failed}/{gate.attempted}")
    for kind in workloads.KINDS:
        print(f"  {kind + '_s':12} {harness.kind_summary(plain, kind)}")
    if golden is None:
        print("  golden: no entries recorded for this seed; independent checks only")
    else:
        print(f"  golden: {len(gate.golden_matched)}/{len(requests)} requests match")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:28} {m['value']:.6g} {m['unit']}")
    for rid, problems in gate.failures[:20]:
        print(f"  FAILED {rid}: {'; '.join(problems)}")

    harness.write_run_file(
        BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        args, requests, gate, plain, traced)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
