"""Passes, the exactness gate and the per-layer metrics of a benchmark run."""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import time
from pathlib import Path

from calibrate import REFERENCE_S, reference_time
from execute import Examiner, golden_entry, issue
from tracing import Tracer, count_totals, self_times

BENCH = Path(__file__).resolve().parent
SIZE_COLUMNS = ("N", "M", "rows", "L", "q", "subsets", "cells")


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100 * k // n, sorted(samples)[k - 1]


def calibrated_pass(passes: list["Pass"], kind: str | None = None) -> float:
    """Seconds one pass takes at the reference speed; with ``kind``, that kind's requests only.

    Each request's time is divided by the reference kernel's time around
    it (the mean of the samples just before and just after the request),
    each request's median ratio over the passes is taken, and the medians
    are summed and scaled by ``REFERENCE_S``.  The host this was tuned on
    switches between a fast and a slow speed for seconds to minutes at a
    time; the ratio follows the program, not the host's phase.
    """
    ratios: dict[str, list[float]] = {}
    for p in passes:
        for i, (rid, k, dt) in enumerate(p.times):
            if kind is None or k == kind:
                ratios.setdefault(rid, []).append(2 * dt / (p.refs[i] + p.refs[i + 1]))
    return REFERENCE_S * sum(statistics.median(r) for r in ratios.values())


def kind_summary(passes: list["Pass"], kind: str) -> str:
    """Per-pass sum and per-request latency (median and tail) of one request kind."""
    per_request = [dt for p in passes for _, k, dt in p.times if k == kind]
    if not per_request:
        return "not issued by this workload"
    line = (f"{calibrated_pass(passes, kind):.4f} s per pass (calibrated); per request "
            f"n={len(per_request)} median {statistics.median(per_request):.4f} s")
    top = tail(per_request)
    return line + (f" p{top[0]} {top[1]:.4f} s" if top else " (too few samples for a tail)")


class Pass:
    def __init__(self, times: list[tuple[str, str, float]], refs: list[float], tracer,
                 rss_mb: float):
        self.times = times          # (rid, kind, seconds) per request
        self.refs = refs            # reference_time() before each request and after the last
        self.wall = sum(dt for _, _, dt in times)
        self.tracer = tracer
        self.rss_mb = rss_mb        # process high-water mark when the pass ended


def run_pass(requests, gate, traced: bool) -> Pass:
    """Issue the request list once, then judge every result.

    The reference kernel is timed before each request and after the last
    one, outside the requests' timed regions.
    """
    tracer = Tracer() if traced else None
    outputs = []
    refs = []
    with tracer.installed() if traced else contextlib.nullcontext():
        for req in requests:
            refs.append(reference_time())
            s = time.perf_counter()
            try:
                with (tracer.span("request." + req.kind, req.rid) if traced
                      else contextlib.nullcontext()):
                    out = issue(req)
            except Exception as exc:  # a request that raises is a failed request
                out = exc
            outputs.append((req, out, time.perf_counter() - s))
        refs.append(reference_time())
    # read before judging: the checks (the vertex oracle) are not the product's memory
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for req, out, _ in outputs:
        gate.judge(req, out, traced)
    return Pass([(r.rid, r.kind, dt) for r, _, dt in outputs], refs, tracer, rss_mb)


def run_passes(requests, gate, budget: float, trace: bool,
               between=None) -> tuple[list[Pass], list[Pass]]:
    """Repeat rounds until the next one would overrun the budget.

    A round is one untraced pass, then (with ``trace``) one traced pass,
    then ``between()`` if given; alternating keeps both kinds of pass in
    the same phases of a host whose speed drifts.  Returns the untraced
    and the traced passes.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        plain.append(run_pass(requests, gate, traced=False))
        if trace:
            traced.append(run_pass(requests, gate, traced=True))
        if between is not None:
            between()
        now = time.perf_counter()
        if now - start + (now - r0) > budget:
            return plain, traced


class Gate:
    """Counts attempted and failed requests; a request fails on any problem."""

    def __init__(self, golden: dict | None):
        self.examiner = Examiner()
        self.golden = golden
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.golden_matched: set[str] = set()

    def judge(self, req, out, traced: bool) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        else:
            try:
                record, problems = self.examiner.examine(req, out)
            except Exception as exc:  # a result the checks cannot read is wrong
                record, problems = None, [f"unreadable result: {exc!r}"]
            if record is not None:
                reference = self.reference.setdefault(req.rid, record)
                if record != reference:
                    problems.append(("traced" if traced else "repeated")
                                    + " pass differs from the first pass")
                if self.golden is not None:
                    expected = self.golden.get(req.rid)
                    if expected is None:
                        problems.append("no golden entry")
                    elif golden_entry(record) != expected:
                        problems.append(f"golden mismatch: {golden_entry(record)} != {expected}")
                    else:
                        self.golden_matched.add(req.rid)
        if problems:
            self.failures.append((req.rid, problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def golden_key(workload: str, seed: int, tiny: bool) -> str:
    return f"{workload}/{'tiny' if tiny else 'full'}/{seed}"


def load_golden(workload: str, seed: int, tiny: bool = False) -> dict | None:
    path = BENCH / "golden.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["entries"].get(golden_key(workload, seed, tiny))


def layer_metrics(passes: list[Pass]) -> dict[str, float]:
    """Per-layer metrics of each traced pass; the run reports their medians."""
    out = []
    for p in passes:
        spans = p.tracer.spans
        own = self_times(spans)
        counts = count_totals(spans)

        def c(name, key):
            return counts.get(name, {}).get(key, 0)

        merged_audits = c("audit.merged_scheme_audit", "calls")
        out.append({
            "capacity.build_lp_s": own.get("capacity.build_capacity_lp", 0.0),
            "capacity.lp_rows": c("capacity.build_capacity_lp", "lp_rows"),
            "capacity.lp_vars": c("capacity.build_capacity_lp", "lp_vars"),
            "capacity.self_s": own.get("capacity.asymptotic_capacity", 0.0),
            "exactlp.simplex_s": own.get("exactlp.simplex_min", 0.0),
            "exactlp.simplex_share": own.get("exactlp.simplex_min", 0.0) / p.wall,
            "augment.s": own.get("augment.generate_augmented_system", 0.0),
            "augment.virtual_servers": c("augment.generate_augmented_system", "virtual_servers"),
            "augment.l_value": c("augment.generate_augmented_system", "l_value"),
            "augment.sum_tau": c("augment.generate_augmented_system", "sum_tau"),
            "scheme.setup_s": own.get("scheme.setup", 0.0),
            "scheme.banks_s": own.get("scheme.bank_random", 0.0),
            "scheme.encode_s": own.get("scheme.encode_storage", 0.0),
            "scheme.query_s": own.get("scheme.generate_queries", 0.0),
            "scheme.answer_s": own.get("scheme.collect_answers", 0.0),
            "scheme.reconstruct_s": own.get("scheme.reconstruct", 0.0),
            "scheme.expected_s": own.get("scheme.expected_combination", 0.0),
            "scheme.glue_s": sum(own.get(n, 0.0) for n in (
                "scheme.simulate_merged", "scheme.simulate", "scheme.run_protocol")),
            "scheme.field_q": max((s.counts["field_q"] for s in spans
                                   if s.name == "scheme.setup"), default=0),
            "scheme.symbols_stored": c("scheme.encode_storage", "symbols_stored"),
            "scheme.symbols_downloaded": c("scheme.collect_answers", "symbols_downloaded"),
            "audit.asymm_s": own.get("audit.asymm_scheme_audit", 0.0),
            "audit.merged_s": own.get("audit.merged_scheme_audit", 0.0),
            "audit.exhaustive_s": own.get("audit.exhaustive_independence_audit", 0.0),
            "audit.subsets_checked": sum(c(n, "subsets_checked") for n in (
                "audit.asymm_scheme_audit", "audit.merged_scheme_audit",
                "audit.exhaustive_independence_audit")),
            "audit.sampled_share": (c("audit.merged_scheme_audit", "sampled") / merged_audits
                                    if merged_audits else 0.0),
            "audit.exhaustive_cells": c("audit.exhaustive_independence_audit",
                                        "exhaustive_cells"),
            "pattern.load_s": own.get("pattern.load_pattern", 0.0),
            "cli.main_s": own.get("cli.main", 0.0),
            "request.self_s": sum(v for k, v in own.items() if k.startswith("request.")),
        })
    return {k: statistics.median(m[k] for m in out) for k in out[0]}


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def write_run_file(path: Path, args, requests, gate: Gate, plain: list[Pass],
                   traced: list[Pass]) -> None:
    """Per-request sizes and records, and every span, written once at the end."""
    rows = []
    for req in requests:
        rows.append({
            "rid": req.rid, "kind": req.kind, "sizes": gate.examiner.sizes.get(req.rid, {}),
            "record": gate.reference.get(req.rid),
            "seconds": [dt for p in plain for rid, _, dt in p.times if rid == req.rid],
        })
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "walls": [p.wall for p in plain], "traced_walls": [p.wall for p in traced],
        "reference_times": [p.refs for p in plain],
        "traced_reference_times": [p.refs for p in traced],
        "failures": gate.failures, "requests": rows,
        "spans": [[s.as_dict() for s in p.tracer.spans] for p in traced],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
