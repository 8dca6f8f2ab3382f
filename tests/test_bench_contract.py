"""The names the benchmark harness calls in the package.

bench/tracing.py wraps every (module, attribute) site it lists, and
MessageBank.random as a classmethod, so a rename of a traced entry point
must fail here rather than only in a traced benchmark run.  The
benchmark's self-test runs here too.  These tests import and run
bench/; they change nothing there.
"""

import importlib
import subprocess
import sys
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


def test_benchmark_selftest_passes():
    # the tiny workloads against their golden entries: a package change that
    # moves a pinned figure fails here, not only in a benchmark run
    run = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
