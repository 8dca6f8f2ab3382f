"""Issue one request and gate its result for exactness.

``issue`` makes the call and nothing else, so it is all the timed region
holds.  Every call goes through a module attribute looked up at call
time (``gxstplc.scheme.simulate``, not a captured reference), so the
tracer can wrap the same entry points the product itself calls.

``examine`` turns a result into a record (what the golden file pins)
and a list of problems, and notes the request's sizes.  Its checks are independent
of the golden values:

* the capacity vertex is feasible: for each set m, the rho_m - x - t
  smallest D_n over R_m sum to at least 1;
* capacity == L / sum(tau), and a merged run's rate equals the capacity;
* the decoded symbols equal ``expected_combination`` of the plaintext;
* audits pass and check exactly the number of subsets their definition
  implies; the exhaustive audit enumerates exactly q**(variables) cells;
* the six-server capacity (GRAPH_SIX) agrees with the brute-force vertex
  oracle, and its simplex vertex is one of the oracle's vertices.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import gxstplc.audit
import gxstplc.augment
import gxstplc.capacity
import gxstplc.cli
import gxstplc.scheme
from gxstplc.demos import GRAPH_SIX
from gxstplc.exactlp import enumerate_vertices_oracle
from gxstplc.pattern import StoragePattern, load_pattern
from gxstplc.scheme import AsymmConfig, expected_combination

from workloads import Request

_SAMPLE_SIZE = 500          # subsets a sampled merged audit checks per side
_SUBSET_CAP = 5000          # above this many original subsets the audit samples
_CELLS = re.compile(r"enumerated (\d+) joint realizations")


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str


def issue(req: Request):
    """Call the product for one request; returns whatever the entry point returns."""
    if req.op == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gxstplc.cli.main(list(req.argv))
        return CliOutput(code, buf.getvalue())
    if req.op == "capacity":
        return gxstplc.capacity.asymptotic_capacity(req.pattern, req.x, req.t)
    if req.op == "simulate_merged":
        return gxstplc.scheme.simulate_merged(req.pattern, req.x, req.t, req.seed)
    if req.op == "simulate":
        return gxstplc.scheme.simulate(req.config, req.seed)
    if req.op == "merged_audit":
        # what `gxstplc audit` does: capacity, augment, setup, merged audit
        cap = gxstplc.capacity.asymptotic_capacity(req.pattern, req.x, req.t)
        aug = gxstplc.augment.generate_augmented_system(req.pattern, req.x, req.t, cap)
        virtual = AsymmConfig(aug.virtual_pattern(), aug.x_bar, aug.t_bar, aug.l_value)
        params = gxstplc.scheme.setup(virtual)
        return cap, aug, params, gxstplc.audit.merged_scheme_audit(aug, params, req.x, req.t)
    if req.op == "asymm_audit":
        params = gxstplc.scheme.setup(req.config)
        return params, gxstplc.audit.asymm_scheme_audit(req.config, params)
    if req.op == "exhaustive_audit":
        params = gxstplc.scheme.setup(req.config, req.field)
        return params, gxstplc.audit.exhaustive_independence_audit(req.config, params,
                                                                   req.subset)
    raise ValueError(f"unknown op {req.op!r}")


def digest(answers, decoded) -> str:
    """SHA-256 of the transcript residues: the answers and the decoded symbols."""
    blob = json.dumps({"answers": [int(a) for a in answers],
                       "decoded": [int(d) for d in decoded]}, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _residues(elements) -> list[int]:
    return [e.value for e in elements]


class Examiner:
    """Checks results; caches per-request sizes and the oracle's six-server optimum."""

    def __init__(self):
        self.sizes: dict[str, dict] = {}    # rid -> N, M, rows, L, q, subsets, cells
        self._oracle: dict[tuple, tuple[Fraction, set]] = {}

    def examine(self, req: Request, out) -> tuple[dict, list[str]]:
        """The request's record and the problems found; sizes are kept in ``sizes``."""
        problems: list[str] = []
        record = getattr(self, "_" + req.op)(req, out, problems)
        if req.rid not in self.sizes:
            self.sizes[req.rid] = self._measure(req, record)
        return record, problems

    # -- sizes ---------------------------------------------------------------

    def _measure(self, req: Request, record: dict) -> dict:
        pattern, x, t = self._lp_input(req)
        sizes: dict = {}
        if req.config is not None:
            pattern = req.config.pattern
        if pattern is not None:
            sizes["N"] = pattern.n_servers
            sizes["M"] = pattern.m_count
        if x is not None:
            sizes["rows"] = len(gxstplc.capacity.build_capacity_lp(pattern, x, t).rows)
        for key, name in (("L", "L"), ("q", "q"), ("checked_subsets", "subsets"),
                          ("cells", "cells"), ("virtual_servers", "virtual_servers")):
            if record.get(key) is not None:
                sizes[name] = record[key]
        return sizes

    @staticmethod
    def _lp_input(req: Request) -> tuple[StoragePattern | None, int | None, int | None]:
        """The pattern and thresholds of the request's capacity LP, if it solves one."""
        if req.op in ("capacity", "simulate_merged", "merged_audit"):
            return req.pattern, req.x, req.t
        if req.op == "cli" and "--x" in req.argv:
            argv = list(req.argv)
            pattern = load_pattern(argv[argv.index("--pattern") + 1])
            return pattern, int(argv[argv.index("--x") + 1]), int(argv[argv.index("--t") + 1])
        if req.op == "cli":
            argv = list(req.argv)
            return load_pattern(argv[argv.index("--pattern") + 1]), None, None
        return None, None, None

    # -- shared checks -------------------------------------------------------

    def _check_capacity(self, pattern: StoragePattern, x: int, t: int, capacity: Fraction,
                        vertex, l_value: int, tau, problems: list[str]) -> None:
        if capacity <= 0:
            problems.append(f"capacity {capacity} is not positive")
            return
        if capacity != Fraction(l_value, sum(tau)):
            problems.append(f"capacity {capacity} != L/sum(tau) = {l_value}/{sum(tau)}")
        if vertex is not None:
            if any(not 0 <= d <= 1 for d in vertex):
                problems.append("vertex leaves the unit box")
            if any(d * l_value != tn for d, tn in zip(vertex, tau)):
                problems.append("tau != L * vertex")
            for m in range(1, pattern.m_count + 1):
                group = pattern.servers_of(m)
                smallest = sorted(vertex[n - 1] for n in group)[: len(group) - x - t]
                if sum(smallest) < 1:
                    problems.append(f"vertex does not cover set {m}")
        if pattern == GRAPH_SIX:
            optimum, vertices = self._oracle_optimum(pattern, x, t)
            if Fraction(1) / capacity != optimum:
                problems.append(f"oracle optimum {optimum} != 1/capacity")
            if vertex is not None and tuple(vertex) not in vertices:
                problems.append("simplex vertex is not an oracle vertex")

    def _oracle_optimum(self, pattern: StoragePattern, x: int, t: int):
        key = (pattern, x, t)
        if key not in self._oracle:
            vertices = enumerate_vertices_oracle(gxstplc.capacity.build_capacity_lp(pattern, x, t))
            optimum = min(sum(v, Fraction(0)) for v in vertices)
            self._oracle[key] = optimum, set(vertices)
        return self._oracle[key]

    @staticmethod
    def _check_decode(decoded, expected, problems: list[str]) -> None:
        if list(decoded) != list(expected):
            problems.append("decoded symbols differ from the expected combination")

    @staticmethod
    def _check_audit(report, expected_checked: int, problems: list[str]) -> None:
        if not report.passed:
            problems.append(f"audit failed with {len(report.violations)} violations")
        if report.checked_subsets != expected_checked:
            problems.append(f"audit checked {report.checked_subsets} subsets, "
                            f"expected {expected_checked}")

    # -- per entry point -----------------------------------------------------

    def _capacity(self, req: Request, cap, problems: list[str]) -> dict:
        self._check_capacity(req.pattern, req.x, req.t, cap.capacity, cap.vertex,
                             cap.l_value, cap.tau, problems)
        return {"capacity": str(cap.capacity), "tau": list(cap.tau), "L": cap.l_value}

    def _simulate_merged(self, req: Request, sim, problems: list[str]) -> dict:
        cap, run = sim.capacity, sim.run
        self._check_capacity(req.pattern, req.x, req.t, cap.capacity, cap.vertex,
                             cap.l_value, cap.tau, problems)
        if sim.rate != cap.capacity:
            problems.append(f"rate {sim.rate} != capacity {cap.capacity}")
        self._check_decode(run.transcript.decoded,
                           expected_combination(run.config, run.messages, run.coeffs), problems)
        return {"capacity": str(cap.capacity), "tau": list(cap.tau), "L": cap.l_value,
                "virtual_servers": sim.augmented.n_virtual, "q": run.params.field.q,
                "digest": digest(_residues(run.transcript.answers),
                                 _residues(run.transcript.decoded))}

    def _simulate(self, req: Request, sim, problems: list[str]) -> dict:
        self._check_decode(sim.transcript.decoded,
                           expected_combination(sim.config, sim.messages, sim.coeffs), problems)
        if sim.rate != Fraction(sim.params.l_value, sim.config.n_servers):
            problems.append(f"rate {sim.rate} != L/N")
        return {"L": sim.params.l_value, "q": sim.params.field.q,
                "digest": digest(_residues(sim.transcript.answers),
                                 _residues(sim.transcript.decoded))}

    def _merged_audit(self, req: Request, out, problems: list[str]) -> dict:
        cap, aug, params, report = out
        self._check_capacity(req.pattern, req.x, req.t, cap.capacity, cap.vertex,
                             cap.l_value, cap.tau, problems)
        self._check_audit(report, _merged_subsets(req.pattern.n_servers, req.x, req.t),
                          problems)
        return {"capacity": str(cap.capacity), "tau": list(cap.tau), "L": cap.l_value,
                "virtual_servers": aug.n_virtual, "q": params.field.q,
                "passed": report.passed, "checked_subsets": report.checked_subsets,
                "sampled": report.sampled}

    def _asymm_audit(self, req: Request, out, problems: list[str]) -> dict:
        params, report = out
        cfg = req.config
        expected = sum(
            sum(comb(len(params.group_of(m)), s) for s in range(1, cfg.x_vec[m - 1] + 1))
            + sum(comb(len(params.group_of(m)), s) for s in range(1, cfg.t_vec[m - 1] + 1))
            for m in range(1, cfg.m_count + 1)
        )
        self._check_audit(report, expected, problems)
        return {"L": params.l_value, "q": params.field.q, "passed": report.passed,
                "checked_subsets": report.checked_subsets, "sampled": report.sampled}

    def _exhaustive_audit(self, req: Request, out, problems: list[str]) -> dict:
        params, report = out
        cfg = req.config
        self._check_audit(report, 1, problems)
        cells = exhaustive_cells(report)
        secrets = sum(cfg.counts) * params.l_value
        expected = sum(params.field.q ** (secrets + sum(
            d * k * params.l_value for d, k in zip(depths, cfg.counts)))
            for depths in (cfg.x_vec, cfg.t_vec))
        if cells != expected:
            problems.append(f"exhaustive audit enumerated {cells} cells, expected {expected}")
        return {"L": params.l_value, "q": params.field.q, "passed": report.passed,
                "checked_subsets": report.checked_subsets, "cells": cells}

    def _cli(self, req: Request, out: CliOutput, problems: list[str]) -> dict:
        if out.code != 0:
            problems.append(f"CLI exited {out.code}")
            return {"exit": out.code}
        payload = json.loads(out.stdout)
        command = req.argv[0]
        pattern, x, t = self._lp_input(req)
        record: dict = {}
        if "capacity" in payload:
            record["capacity"] = payload["capacity"]
        if command == "capacity":
            vertex = [Fraction(d) for d in payload["vertex"]]
            self._check_capacity(pattern, x, t, Fraction(payload["capacity"]), vertex,
                                 payload["L"], payload["tau"], problems)
            record.update(tau=payload["tau"], L=payload["L"])
        elif command == "simulate":
            if not payload["match"]:
                problems.append("CLI reports a decode mismatch")
            self._check_decode(payload["decoded"], payload["expected"], problems)
            if payload["mode"] == "merged":
                capacity = Fraction(payload["capacity"])
                if Fraction(payload["rate"]) != capacity:
                    problems.append("rate != capacity")
                if capacity != Fraction(payload["L"], payload["virtual_servers"]):
                    problems.append("capacity != L / virtual servers")
                if sum(payload["downloads"]) != payload["virtual_servers"]:
                    problems.append("downloads do not sum to the virtual server count")
                record["virtual_servers"] = payload["virtual_servers"]
            elif Fraction(payload["rate"]) != Fraction(payload["L"], pattern.n_servers):
                problems.append("rate != L/N")
            record.update(L=payload["L"], q=payload["field"],
                          digest=digest(payload["answers"], payload["decoded"]))
        elif command == "audit":
            cert = payload["certificates"]
            if not cert["passed"]:
                problems.append("CLI audit failed")
            if cert["checked_subsets"] != _merged_subsets(pattern.n_servers, x, t):
                problems.append("CLI audit checked an unexpected number of subsets")
            if pattern == GRAPH_SIX:
                optimum, _ = self._oracle_optimum(pattern, x, t)
                if Fraction(1) / Fraction(payload["capacity"]) != optimum:
                    problems.append("oracle optimum != 1/capacity")
            record.update(virtual_servers=payload["virtual_servers"], passed=cert["passed"],
                          checked_subsets=cert["checked_subsets"], sampled=cert["sampled"])
        record["stdout_bytes"] = len(out.stdout.encode())
        return record


def exhaustive_cells(report) -> int:
    """Joint realizations an exhaustive audit enumerated, as its notes state them."""
    return sum(int(c) for note in report.notes for c in _CELLS.findall(note))


def _merged_subsets(n: int, x: int, t: int) -> int:
    """Original subsets a merged audit checks: all of size <= x and <= t, or a sample."""
    total = sum(comb(n, s) for s in range(1, x + 1)) + sum(comb(n, s) for s in range(1, t + 1))
    if total <= _SUBSET_CAP:
        return total
    return _SAMPLE_SIZE * ((x > 0) + (t > 0))


#: record keys the golden file pins; the rest (sizes, byte counts) are reported only
GOLDEN_KEYS = ("capacity", "tau", "L", "virtual_servers", "q", "passed",
               "checked_subsets", "sampled", "digest")


def golden_entry(record: dict) -> dict:
    return {k: record[k] for k in GOLDEN_KEYS if k in record}
