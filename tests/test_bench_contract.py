"""The names the benchmark harness calls in the package.

bench/tracing.py wraps every (module, attribute) site it lists, and
MessageBank.random as a classmethod, so a rename of a traced entry point
must fail here rather than only in a traced benchmark run.  This test
only imports bench/; it changes nothing there.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing"), importlib.import_module("execute")


def test_every_traced_site_resolves(monkeypatch):
    tracing, execute = bench_modules(monkeypatch)
    assert callable(execute.issue)
    missing = [(name, module.__name__, attr)
               for name, (_, sites) in tracing.SITES.items()
               for module, attr in sites if not callable(getattr(module, attr, None))]
    assert missing == []


def test_bank_random_is_a_classmethod(monkeypatch):
    tracing, _ = bench_modules(monkeypatch)
    bank = tracing.gxstplc.scheme.MessageBank.__dict__["random"]
    assert isinstance(bank, classmethod)
