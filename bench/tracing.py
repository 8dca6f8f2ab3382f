"""In-memory spans around the public calls the product's entry points make.

While a ``Tracer`` is installed, each (module, attribute) site listed in
``SITES`` holds a wrapper that records a span: name, start, end, parent
span and request id, plus counters read from the call's arguments and
result.  The wrapped names are looked up at call time by the product
itself (``simulate_merged`` calls the module-level ``simulate``, which
calls ``setup`` and ``run_protocol``, and so on), so the traced pass
runs exactly the code the untraced pass runs.  Nothing is written until
the run ends.

Spans cover layer boundaries only.  The finite-field module ``ff`` has
no public boundary on the user path, so its cost shows inside the
``scheme.*`` and ``audit.*`` spans.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import gxstplc.audit
import gxstplc.augment
import gxstplc.capacity
import gxstplc.cli
import gxstplc.scheme

from execute import exhaustive_cells

# the original, never the wrapper: counting stored symbols is not a call to trace
_STORED_SYMBOLS = gxstplc.scheme.stored_symbols


def _lp_counts(args, lp):
    return {"lp_rows": len(lp.rows), "lp_vars": lp.n_vars}


def _augment_counts(args, aug):
    return {"virtual_servers": aug.n_virtual, "l_value": aug.l_value, "sum_tau": sum(aug.tau)}


def _setup_counts(args, params):
    return {"field_q": params.field.q}


def _encode_counts(args, shares):
    return {"symbols_stored": sum(_STORED_SYMBOLS(args[0]))}


def _answer_counts(args, answers):
    return {"symbols_downloaded": len(answers)}


def _audit_counts(args, report):
    return {"subsets_checked": report.checked_subsets, "sampled": int(report.sampled),
            "exhaustive_cells": exhaustive_cells(report)}


#: span name -> (probe or None, [(module, attribute), ...]) for every call site
SITES = {
    "cli.main": (None, [(gxstplc.cli, "main")]),
    "pattern.load_pattern": (None, [(gxstplc.cli, "load_pattern")]),
    "capacity.asymptotic_capacity": (None, [(gxstplc.capacity, "asymptotic_capacity"),
                                            (gxstplc.scheme, "asymptotic_capacity")]),
    "capacity.build_capacity_lp": (_lp_counts, [(gxstplc.capacity, "build_capacity_lp")]),
    "exactlp.simplex_min": (None, [(gxstplc.capacity, "simplex_min")]),
    "augment.generate_augmented_system": (
        _augment_counts, [(gxstplc.augment, "generate_augmented_system"),
                          (gxstplc.scheme, "generate_augmented_system")]),
    "scheme.simulate_merged": (None, [(gxstplc.scheme, "simulate_merged")]),
    "scheme.simulate": (None, [(gxstplc.scheme, "simulate")]),
    "scheme.setup": (_setup_counts, [(gxstplc.scheme, "setup")]),
    "scheme.run_protocol": (None, [(gxstplc.scheme, "run_protocol")]),
    "scheme.encode_storage": (_encode_counts, [(gxstplc.scheme, "encode_storage")]),
    "scheme.generate_queries": (None, [(gxstplc.scheme, "generate_queries")]),
    "scheme.collect_answers": (_answer_counts, [(gxstplc.scheme, "collect_answers")]),
    "scheme.reconstruct": (None, [(gxstplc.scheme, "reconstruct")]),
    "scheme.expected_combination": (None, [(gxstplc.scheme, "expected_combination")]),
    "audit.asymm_scheme_audit": (_audit_counts, [(gxstplc.audit, "asymm_scheme_audit")]),
    "audit.merged_scheme_audit": (_audit_counts, [(gxstplc.audit, "merged_scheme_audit")]),
    "audit.exhaustive_independence_audit": (
        _audit_counts, [(gxstplc.audit, "exhaustive_independence_audit")]),
}
#: MessageBank.random and CoefficientBank.random (inherited) are one classmethod
BANK_SPAN = "scheme.bank_random"


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    request: str | None
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "request": self.request, "start_ns": self.start_ns,
                "end_ns": self.end_ns, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request: str | None = None

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Open a span; a span given a request id starts that request's tree."""
        if request is not None:
            self._request = request
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), name, parent, self._request, time.perf_counter_ns())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if probe is not None:
                s.counts = probe(args, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore the originals."""
        saved = []
        try:
            for name, (probe, sites) in SITES.items():
                for module, attr in sites:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, probe))
            bank = gxstplc.scheme.MessageBank.__dict__["random"]
            saved.append((gxstplc.scheme.MessageBank, "random", bank))
            gxstplc.scheme.MessageBank.random = classmethod(
                self._wrap(BANK_SPAN, bank.__func__, None))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its direct children's."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end_ns - s.start_ns)
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end_ns - s.start_ns) - child_ns.get(s.sid, 0)
        out[s.name] = out.get(s.name, 0.0) + own / 1e9
    return out


def count_totals(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Per span name, the sum of each counter and the number of calls."""
    out: dict[str, dict[str, int]] = {}
    for s in spans:
        totals = out.setdefault(s.name, {"calls": 0})
        totals["calls"] += 1
        for k, v in s.counts.items():
            totals[k] = totals.get(k, 0) + v
    return out
