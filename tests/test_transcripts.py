"""Pinned transcripts: a seed must keep giving the same answers and decoded
symbols, whatever the protocol code's internal representation.

The digests are SHA-256 of the compact JSON {"answers": [...],
"decoded": [...]} of residues, for the four built-in demos at seeds 0-2
and for UNEVEN_NINE over the field of 2**31 - 1.  The audit command's
whole stdout is pinned the same way, whatever the audits' kernels, and
so is the lemmas command's, whatever the lemma checks' arithmetic.  So
are the whole stdouts of a direct and a merged ``simulate`` and of a
direct and a merged ``demo``, whatever builds their reports, of ``plan``
on three patterns at x = t = 1, whatever tables the augmented system
keeps, and of each script under demos/, run as a user runs it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TRIANGLES
from gxstplc.cli import main
from gxstplc.demos import GRAPH_FOURTEEN, GRAPH_SIX, UNEVEN_NINE, UNEVEN_SEVEN
from gxstplc.pattern import MessageSet, StoragePattern, save_pattern
from gxstplc.scheme import AsymmConfig, simulate, simulate_merged

ROOT = Path(__file__).resolve().parents[1]
PATTERNS = ROOT / "demos" / "patterns"

RUNS = {
    "ex-4.1.1": lambda s: simulate(AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2)), s),
    "ex-4.1.2": lambda s: simulate(AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2)), s),
    "ex-4.2-1": lambda s: simulate_merged(GRAPH_SIX, 1, 1, s).run,
    "ex-4.2-2": lambda s: simulate_merged(GRAPH_FOURTEEN, 1, 1, s).run,
    "nine-q2^31-1": lambda s: simulate(AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2)), s,
                                       2147483647),
}

PINNED = {
    ("ex-4.1.1", 0): "c9d561111bdc2ba0ac0ba4b44269568c0e702c4ad930aafb8df7457efd399e79",
    ("ex-4.1.1", 1): "8bb1a1128f859dfb8680df42f76df444e9a266db9329386d5cc1cc736da5e92d",
    ("ex-4.1.1", 2): "ad593bb41ec3ba2a5adcb6a8df5256adeb0bc10e05f0c7dee06a88a1ba75d7c2",
    ("ex-4.1.2", 0): "04bf0a3ca9968e6f5f87da6e78739d08cc8baf8244e13f30ff9215aafeddebb6",
    ("ex-4.1.2", 1): "37b0bcb183d5995982c59af30d002463dfdecd6b51ba409a1ffbfee22ba3c9d4",
    ("ex-4.1.2", 2): "fa1f21d1574d595764f5bf4bc89fa407c848db69531861ca9092b6924de5de56",
    # the six-server merged system is UNEVEN_NINE with its thresholds, so
    # its transcripts equal ex-4.1.2's
    ("ex-4.2-1", 0): "04bf0a3ca9968e6f5f87da6e78739d08cc8baf8244e13f30ff9215aafeddebb6",
    ("ex-4.2-1", 1): "37b0bcb183d5995982c59af30d002463dfdecd6b51ba409a1ffbfee22ba3c9d4",
    ("ex-4.2-1", 2): "fa1f21d1574d595764f5bf4bc89fa407c848db69531861ca9092b6924de5de56",
    ("ex-4.2-2", 0): "f8413f24bfcc2b985a9b23f22fb9ef398800e6507305e2868452f4d5582e690f",
    ("ex-4.2-2", 1): "fe26d0650937172bbc6ff9380ddfee8d5911766a65149eb2e53923920a4e9a14",
    ("ex-4.2-2", 2): "275e834eefee9ddac3808934c6fb49b3b13f2d928468442a543de86723080c06",
    ("nine-q2^31-1", 0): "5c6a8a47a6911ed8c43c0c3c844b89e7c8063c3ca7fa37f634c1357a1f3e2eae",
    ("nine-q2^31-1", 1): "c67f21c508b58e15a899246fcfdde315224cffd7214a20b9652fa8226451709d",
    ("nine-q2^31-1", 2): "0c87a88030bca4a5071f17fe02538a5796515782ed98cf4bb1f59a92b663ae9c",
}


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_transcript_digest(name, seed):
    run = RUNS[name](seed)
    assert run.match
    blob = json.dumps({"answers": [a.value for a in run.transcript.answers],
                       "decoded": [d.value for d in run.transcript.decoded]},
                      separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED[(name, seed)]


AUDITS = {
    "six": (GRAPH_SIX, ["--x", "1", "--t", "1"]),
    "fourteen": (GRAPH_FOURTEEN, ["--x", "1", "--t", "1"]),
    "pair-exhaustive": (StoragePattern(2, (MessageSet((1, 2)),)),
                        ["--x", "1", "--t", "0", "--exhaustive"]),
}

PINNED_AUDITS = {
    "six": "3b80a5e4c36b0cba9e0ed42e433335707bf9c8f814de2da634d4a1b696725ba8",
    "fourteen": "b8cdc99154128714e156d745d066695b0c79478c6625e49803e5a09d1b41206d",
    "pair-exhaustive": "bb6688003260e4a36fe083b6644484c8bc42ce6000218cdef576db5bce6049ac",
}


@pytest.mark.parametrize("name", sorted(PINNED_AUDITS))
def test_audit_stdout_digest(name, tmp_path, capsys):
    pattern, args = AUDITS[name]
    path = tmp_path / "pattern.json"
    save_pattern(pattern, path)
    assert main(["audit", "--pattern", str(path), *args]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_AUDITS[name]


# SHA-256 of the stdout of `gxstplc lemmas --seed 0 --trials 100`
PINNED_LEMMAS = "0058fa5cb5ee4836b491017eb9567701236abdaa9bb081aeed09e5d93cc18778"


def test_lemmas_stdout_digest(capsys):
    assert main(["lemmas", "--seed", "0", "--trials", "100"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_LEMMAS


REPORTS = {
    "simulate-direct": ["simulate", "--pattern", str(PATTERNS / "uneven_nine.json"),
                        "--x-vec", "1,2", "--t-vec", "1,2", "--seed", "0"],
    "simulate-merged": ["simulate", "--pattern", str(PATTERNS / "six_server.json"),
                        "--x", "1", "--t", "1", "--seed", "0"],
    "demo-direct": ["demo", "ex-4.1.1", "--seed", "0"],
    "demo-merged": ["demo", "ex-4.2-1", "--seed", "0"],
}

PINNED_REPORTS = {
    "simulate-direct": "506bd46789172446e6bf6160948b9688dfa3e1f7974f75749d3e6f4bcc81319e",
    "simulate-merged": "02aecc9a48b6320b510a6229d79b768acfc27be1d2d8a84b855a460e3438fa7c",
    "demo-direct": "491903dbc92b1487064540a8cec907d98db2d23a8a8669821b589dea6169d892",
    "demo-merged": "e49440773e3fcb2e89891972f3edd62c471a9d4322d7b1ecc3eb23325875a560",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_stdout_digest(name, capsys):
    assert main(REPORTS[name]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_REPORTS[name]


PINNED_PLANS = {
    "six_server": "4cc7d155fe024de7eb2ff2d40814ee4ce9dae92149ed5a39663e02d9fe848ec0",
    "fourteen_server": "15668bffc200908feed03b51a2dfbf815b6faaa3b991ba689932af976fb54e5f",
    "triangles": "131e601d9f45b74ab686a4640874fb220a7560d1e6b0534113181c13b6b720e8",
}


@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_plan_stdout_digest(name, tmp_path, capsys):
    path = PATTERNS / f"{name}.json"
    if name == "triangles":
        path = tmp_path / "triangles.json"
        save_pattern(TRIANGLES, path)
    assert main(["plan", "--pattern", str(path), "--x", "1", "--t", "1"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_PLANS[name]


PINNED_DEMO_SCRIPTS = {
    "01_capacity_program.py": "5662ab6f5f4c511cb2b43585a3a20065b7462a8cdf54b6930475c3241aa9d1da",
    "02_protocol_round.py": "0c7029bb843b6de0284b8fda2d42f235afa328a1b8a658285d8aa2689dcc9122",
    "03_augment_and_merge.py": "b034049c7e6677fba46400f05042c2ee2f651d87afbc1220c3419ca488dd0b81",
    "04_security_audit.py": "312cb4f7ba6ba597b71cc67f22b4d6953860f256b4ce19c312c56ef28a8c42ab",
    "05_matrix_identities.py": "1da9d4e6b0e92adb66d04406219fb067f1a9f987ee9cee2b34bf71e881b3fb01",
}


def test_every_demo_script_is_pinned():
    assert sorted(path.name for path in (ROOT / "demos").glob("0*.py")) == sorted(
        PINNED_DEMO_SCRIPTS)


@pytest.mark.parametrize("script", sorted(PINNED_DEMO_SCRIPTS))
def test_demo_script_stdout_digest(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                            capture_output=True, env=dict(os.environ, PYTHONPATH=path),
                            timeout=120)
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    assert hashlib.sha256(result.stdout).hexdigest() == PINNED_DEMO_SCRIPTS[script]
