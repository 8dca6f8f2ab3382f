"""Source mutations that the product's own checks must reject.

Each mutant is an exact (file, old text, new text) edit of the package,
and its old text must occur exactly once, so a refactor that moves the
text fails here instead of silently dropping the mutant.  The test
applies the edit to a temporary copy of the package and runs one CLI
command on it in a subprocess, on a pattern that no test pins when the
command reads one: the run must exit 1 from the check the entry names,
a false or failed payload entry, or a failed proof (``error:`` on
stderr and nothing on stdout).  A changed digest or a wrong number in
the output does not count; the product has to notice by itself.  The
same command on an unmutated copy exits 0 with a payload, so the
failure is the mutant's; that clean run is made once per distinct
command and pattern, and shared by the mutants that use it.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from conftest import NEAR_MISS
from gxstplc.pattern import MessageSet, StoragePattern, save_pattern

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gxstplc"
TRIANGLE = StoragePattern(3, (MessageSet((1, 2, 3)),))
WIDE = StoragePattern(102, (MessageSet((1, 2, 3)),))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                # relative to the package
    old: str
    new: str
    argv: tuple[str, ...]    # the CLI subcommand and its options, --pattern <file>
                             # appended unless the command is PATTERNLESS
    check: str | None        # the payload entry whose failure kills the mutant;
                             # None: a failed proof, with no payload at all
    pattern: StoragePattern = TRIANGLE    # saved as the --pattern file


MUTANTS = (
    # every storage noise term at a^0: the servers of a set share one mask
    Mutant("constant-storage-points", "scheme.py",
           "block += _mask(params.alpha[rows],",
           "block += _mask(np.ones_like(params.alpha[rows]),",
           ("audit", "--x", "2", "--t", "0", "--exhaustive"), "exhaustive"),
    # the query-side twin: every query noise term at (a - f_l) a^0
    Mutant("constant-query-points", "scheme.py",
           "block = _mask(params.alpha[rows],",
           "block = _mask(np.ones_like(params.alpha[rows]),",
           ("audit", "--x", "0", "--t", "2", "--exhaustive"), "exhaustive"),
    # a constant top noise term: each share or query carries one noise
    # variable fewer plus an offset that a probe without the zero run
    # would read as the missing noise coefficient
    Mutant("constant-top-mask-term", "scheme.py",
           "acc[:] = noise[..., -1, None, :, :] if noise.shape[-3] else 0",
           "acc[:] = 1",
           ("audit", "--x", "2", "--t", "0", "--exhaustive"), "exhaustive"),
    # queries without the (a - f_l) factor: the answers no longer decode
    Mutant("no-query-noise-factor", "scheme.py",
           "        block *= params.diff[rows][:, None, :]\n",
           "",
           ("simulate", "--x", "0", "--t", "1"), "match"),
    # a reduction kernel that subtracts a // q copies of q - 1, not of q:
    # every residue array is off, and the decoded symbols with it
    Mutant("reduce-by-wrong-multiple", "ff.py",
           "    r *= q\n",
           "    r *= q - 1\n",
           ("simulate", "--x", "0", "--t", "1"), "match"),
    # the int64 limit the reduction bounds are checked against, raised out
    # of reach: no intermediate is reduced, and near q = 2^31 products wrap
    Mutant("unreachable-int64-limit", "ff.py",
           "_INT64_MAX = 2**63 - 1",
           "_INT64_MAX = 2**200",
           ("simulate", "--x", "0", "--t", "1", "--field", "2147483647"), "match"),
    # L twice the lcm of the vertex denominators: tau doubles with it, so
    # the rate is unchanged, and only the lowest-terms proof notices
    Mutant("doubled-l-value", "capacity.py",
           "    l_value = lcm_of_denominators(vertex)\n",
           "    l_value = 2 * lcm_of_denominators(vertex)\n",
           ("capacity", "--x", "1", "--t", "0"), None),
    # the forced-program rule off by one: a set with exactly its slack of
    # servers outside F counts as covered, and only the feasibility check of
    # the forced vertex notices the row that misses F
    Mutant("forced-rule-off-by-one", "capacity.py",
           "if sum(n not in forced for n in g) >= len(g) - x - t:",
           "if sum(n not in forced for n in g) > len(g) - x - t:",
           ("capacity", "--x", "1", "--t", "0"), None, NEAR_MISS),
    # server 3's point moved onto server 2's: the rank certificates of plain
    # audit see the two colluders span one noise dimension, not two
    Mutant("colliding-points", "scheme.py",
           "alpha=_frozen(np.arange(1, n + 1, dtype=np.int64)),",
           "alpha=_frozen(np.minimum(np.arange(1, n + 1, dtype=np.int64), n - 1)),",
           ("audit", "--x", "2", "--t", "0"), "certificates"),
    # storage thresholds inflated to x * gamma_m - 1: two of the three
    # holders of a set on a 102-server pattern break it, and the merged
    # audit must find them past its 5000-subset count cap
    Mutant("under-inflated-x-bar", "augment.py",
           "x_bar=tuple(x * g for g in gamma)",
           "x_bar=tuple(x * g - 1 for g in gamma)",
           ("audit", "--x", "2", "--t", "0"), "certificates", WIDE),
    # the alignment identity's right side without its minus sign: the lemma
    # checks fail, the Cauchy-Vandermonde factorization with them
    Mutant("alignment-sign", "scheme.py",
           "-pow(f_l, i - 1, q) % q",
           "pow(f_l, i - 1, q) % q",
           ("lemmas", "--trials", "3"), "all_passed"),
)

# commands that read no pattern, so run_cli passes them no --pattern
PATTERNLESS = {"lemmas"}


def run_cli(package: Path, mutant: Mutant) -> subprocess.CompletedProcess:
    argv = mutant.argv
    pattern = package.parent / "pattern.json"
    save_pattern(mutant.pattern, pattern)
    if argv[0] not in PATTERNLESS:
        argv = (*argv, "--pattern", str(pattern))
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    return subprocess.run(
        [sys.executable, "-m", "gxstplc", *argv],
        capture_output=True, text=True, env=env, cwd=package.parent, timeout=60,
    )


def failed(entry) -> bool:
    """A boolean check is false, an audit entry failed, or a list of audit
    entries holds one that failed."""
    if isinstance(entry, bool):
        return not entry
    if isinstance(entry, dict):
        return not entry["passed"]
    return any(not e["passed"] for e in entry)


def copy_package(root: Path) -> Path:
    copy = root / "gxstplc"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """The run of a mutant's command and pattern on an unmutated copy, made
    once per distinct (argv, pattern) in this module."""
    runs = {}

    def run(mutant: Mutant) -> subprocess.CompletedProcess:
        key = (mutant.argv, mutant.pattern)
        if key not in runs:
            runs[key] = run_cli(copy_package(tmp_path_factory.mktemp("clean")), mutant)
        return runs[key]
    return run


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_product_rejects_mutant(mutant, tmp_path, clean_run):
    source = (PACKAGE / mutant.path).read_text()
    assert source.count(mutant.old) == 1, f"{mutant.name}: mutation site moved"

    clean = clean_run(mutant)
    assert clean.returncode == 0, clean.stderr
    payload = json.loads(clean.stdout)
    if mutant.check is not None:
        assert not failed(payload[mutant.check])

    copy = copy_package(tmp_path)
    (copy / mutant.path).write_text(source.replace(mutant.old, mutant.new))
    run = run_cli(copy, mutant)
    assert run.returncode == 1, run.stderr
    if mutant.check is None:
        assert run.stdout == ""
        assert run.stderr.startswith("error:"), run.stderr
    else:
        assert failed(json.loads(run.stdout)[mutant.check])
