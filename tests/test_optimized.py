"""Behaviour under ``python -O``, which strips every ``assert``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_optimized(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", *args], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=600,
    )


def test_demo_scripts_run_optimized():
    scripts = sorted((ROOT / "demos").glob("0*.py"))
    assert len(scripts) == 5
    failures = {}
    for script in scripts:
        result = run_optimized(str(script))
        if result.returncode != 0:
            failures[script.name] = result.stderr[-2000:]
    assert failures == {}


def test_mixed_fields_raise_under_optimization():
    code = (
        "import sys\n"
        "from gxstplc.errors import FieldMismatch\n"
        "from gxstplc.ff import PrimeField\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    PrimeField(5)(3) + PrimeField(7)(3)\n"
        "except FieldMismatch:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    result = run_optimized("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1"]


def test_negative_power_raises_under_optimization():
    code = (
        "from gxstplc.ff import PrimeField\n"
        "try:\n"
        "    print(PrimeField(7)(3) ** -1)\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    result = run_optimized("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised"]
