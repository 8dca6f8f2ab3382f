"""Behaviour under ``python -O``, which strips every ``assert``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TRIANGLES
from gxstplc.pattern import save_pattern

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str, optimize: bool = True, text: bool = True):
    """Run python (with -O unless ``optimize`` is false) on ``args`` from the repo root."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), *args], cwd=ROOT,
        capture_output=True, text=text, env=dict(os.environ, PYTHONPATH=path), timeout=600,
    )


def assert_same_stdout_under_optimization(argv: list[str]) -> None:
    plain = run_python(*argv, optimize=False, text=False)
    optimized = run_python(*argv, text=False)
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert plain.stdout and optimized.stdout == plain.stdout


def test_demo_scripts_run_optimized():
    scripts = sorted((ROOT / "demos").glob("0*.py"))
    assert len(scripts) == 5
    failures = {}
    for script in scripts:
        result = run_python(str(script))
        if result.returncode != 0:
            failures[script.name] = result.stderr[-2000:]
    assert failures == {}


def test_lemma_checks_reject_a_composite_modulus_under_optimization():
    # check_modulus is a plain if: under -O both lemma checks still refuse q = 12
    code = (
        "import sys\n"
        "from gxstplc.scheme import cauchy_vandermonde_check, dual_grs_weights\n"
        "assert False, 'asserts are live'\n"
        "for check, args in ((dual_grs_weights, ([1, 2, 3],)),\n"
        "                    (cauchy_vandermonde_check, ([1, 2, 3], [4, 5]))):\n"
        "    try:\n"
        "        check(*args, 12)\n"
        "    except ValueError:\n"
        "        print('raised', sys.flags.optimize)\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1", "raised", "1"]


# "triangles" (TRIANGLES) is a forced capacity program at x = t = 1: no simplex runs;
# "plan" reads the flat-id table through merged_query_plan
@pytest.mark.parametrize("pattern", ["six_server", "fourteen_server", "triangles"])
@pytest.mark.parametrize("command", [["capacity"], ["simulate", "--seed", "0"], ["audit"],
                                     ["plan"]])
def test_cli_stdout_is_the_same_under_optimization(pattern, command, tmp_path):
    path = ROOT / "demos" / "patterns" / f"{pattern}.json"
    if pattern == "triangles":
        path = tmp_path / "triangles.json"
        save_pattern(TRIANGLES, path)
    argv = ["-m", "gxstplc", command[0], "--pattern", str(path), "--x", "1", "--t", "1",
            *command[1:]]
    assert_same_stdout_under_optimization(argv)


@pytest.mark.parametrize("argv", [
    ["simulate", "--pattern", str(ROOT / "demos" / "patterns" / "uneven_nine.json"),
     "--x-vec", "1,2", "--t-vec", "1,2", "--seed", "0"],
    ["demo", "ex-4.1.2", "--seed", "0"],
    ["demo", "ex-4.2-1", "--seed", "0"],
])
def test_report_stdout_is_the_same_under_optimization(argv):
    # the other branches of the two report builders: a direct simulate, and a
    # direct and a merged demo
    assert_same_stdout_under_optimization(["-m", "gxstplc", *argv])


def test_int64_guard_promotes_under_optimization():
    # the guard is a plain if: with its limit forced to 1 the tableau still turns into
    # Python ints under -O (the tableau's dtype kind when simplex_min returns), same result
    code = (
        "import sys\n"
        "from gxstplc import exactlp\n"
        "from gxstplc.capacity import build_capacity_lp\n"
        "from gxstplc.demos import GRAPH_FOURTEEN\n"
        "kinds = []\n"
        "def spy(frame, event, arg):\n"
        "    if event == 'return' and frame.f_code is exactlp.simplex_min.__code__:\n"
        "        kinds.append(frame.f_locals['tableau'].dtype.kind)\n"
        "lp = build_capacity_lp(GRAPH_FOURTEEN, 1, 1)\n"
        "sys.setprofile(spy)\n"
        "plain = exactlp.simplex_min(lp)\n"
        "exactlp._INT64_LIMIT = 1\n"
        "forced = exactlp.simplex_min(lp)\n"
        "sys.setprofile(None)\n"
        "print(sys.flags.optimize, *kinds, plain.pivots > 0, forced == plain)\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "i", "O", "True", "True"]


def test_colliding_points_fail_the_sweep_under_optimization():
    # the closed-form group check is a plain if: under -O colliding points
    # still fail the sweep, with the same violations as without it
    code = (
        "import dataclasses, sys\n"
        "from gxstplc.audit import asymm_scheme_audit\n"
        "from gxstplc.demos import UNEVEN_NINE\n"
        "from gxstplc.scheme import AsymmConfig, setup\n"
        "config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))\n"
        "params = setup(config)\n"
        "alpha = params.alpha.copy()\n"
        "alpha[3] = alpha[4]\n"
        "report = asymm_scheme_audit(config, dataclasses.replace(params, alpha=alpha))\n"
        "print(sys.flags.optimize, report.passed, len(report.violations))\n"
        "print(report.violations)\n"
    )
    plain = run_python("-c", code, optimize=False)
    optimized = run_python("-c", code)
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    head, violations = optimized.stdout.split("\n", 1)
    assert head.split() == ["1", "False", "2"]
    assert plain.stdout == f"0 False 2\n{violations}"


def test_mixed_thresholds_decode_under_optimization():
    # zero thresholds on one side of a set next to nonzero ones: under -O the
    # closed-form decoder still matches the plaintext combination, and a short
    # answer tuple still raises
    code = (
        "import sys\n"
        "from gxstplc.errors import DimensionMismatch\n"
        "from gxstplc.pattern import MessageSet, StoragePattern\n"
        "from gxstplc.scheme import AsymmConfig, expected_combination, reconstruct, simulate\n"
        "pattern = StoragePattern(6, (MessageSet((1, 2, 3, 4, 5), count=2),\n"
        "                             MessageSet((2, 3, 4, 5, 6)),\n"
        "                             MessageSet((1, 3, 4, 6), count=3)))\n"
        "run = simulate(AsymmConfig(pattern, (0, 2, 1), (2, 0, 1)), 11)\n"
        "decoded = reconstruct(run.transcript.answers, run.params)\n"
        "print(sys.flags.optimize, run.params.l_value,\n"
        "      decoded == expected_combination(run.config, run.messages, run.coeffs))\n"
        "try:\n"
        "    reconstruct(run.transcript.answers[:-1], run.params)\n"
        "except DimensionMismatch:\n"
        "    print('raised')\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "2", "True", "raised"]
