"""End-to-end command-line behavior: payload shapes and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gxstplc import capacity
from gxstplc.cli import main
from gxstplc.demos import GRAPH_FOURTEEN, GRAPH_SIX, UNEVEN_NINE, demo_names
from gxstplc.errors import MalformedPattern
from gxstplc.pattern import MessageSet, StoragePattern, pattern_from_dict, save_pattern


@pytest.fixture
def six_json(tmp_path):
    path = tmp_path / "six.json"
    save_pattern(GRAPH_SIX, path)
    return str(path)


@pytest.fixture
def fourteen_json(tmp_path):
    path = tmp_path / "fourteen.json"
    save_pattern(GRAPH_FOURTEEN, path)
    return str(path)


@pytest.fixture
def nine_json(tmp_path):
    path = tmp_path / "nine.json"
    save_pattern(UNEVEN_NINE, path)
    return str(path)


@pytest.fixture
def pair_json(tmp_path):
    path = tmp_path / "pair.json"
    save_pattern(StoragePattern(2, (MessageSet((1, 2)),)), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacity:
    def test_six_server(self, capsys, six_json):
        code, out, _ = run_cli(
            capsys, "capacity", "--pattern", six_json, "--x", "1", "--t", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["capacity"] == "2/9"
        assert payload["L"] == 2
        assert payload["tau"] == [1, 1, 2, 2, 1, 2]
        assert payload["vertex"] == ["1/2", "1/2", "1", "1", "1/2", "1"]
        assert payload["degenerate"] is False

    def test_degenerate_reports_zero(self, capsys, six_json):
        code, out, _ = run_cli(
            capsys, "capacity", "--pattern", six_json, "--x", "2", "--t", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["capacity"] == "0"
        assert payload["degenerate"] is True
        assert payload["tau"] is None
        assert payload["vertex"] is None

    def test_failed_proof_exits_one(self, capsys, monkeypatch, fourteen_json):
        # twice the lcm keeps L / sum(tau) at the capacity; only the
        # lowest-terms check fails, and a failed check is exit 1, not 2
        lcm = capacity.lcm_of_denominators
        monkeypatch.setattr(capacity, "lcm_of_denominators", lambda vertex: 2 * lcm(vertex))
        code, out, err = run_cli(
            capsys, "capacity", "--pattern", fourteen_json, "--x", "1", "--t", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "lowest terms" in err


class TestPlan:
    def test_six_server(self, capsys, six_json):
        code, out, _ = run_cli(
            capsys, "plan", "--pattern", six_json, "--x", "1", "--t", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["virtual_servers"] == 9
        assert [s["gamma"] for s in payload["sets"]] == [1, 2]
        assert [s["x_bar"] for s in payload["sets"]] == [1, 2]
        server3 = payload["servers"][2]
        assert server3["downloads"] == 2
        assert server3["virtual_ids"] == [3, 4]
        assert server3["sets_per_copy"] == [[1, 2], [2]]

    def test_degenerate_refused(self, capsys, six_json):
        code, _, err = run_cli(
            capsys, "plan", "--pattern", six_json, "--x", "2", "--t", "2"
        )
        assert code == 2
        assert "error:" in err


class TestSimulate:
    def test_merged_pipeline(self, capsys, six_json):
        code, out, _ = run_cli(
            capsys, "simulate", "--pattern", six_json,
            "--x", "1", "--t", "1", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "merged"
        assert payload["rate"] == "2/9"
        assert payload["capacity"] == "2/9"
        assert payload["downloads"] == [1, 1, 2, 2, 1, 2]
        assert payload["match"] is True
        assert payload["decoded"] == payload["expected"]

    def test_direct_mode(self, capsys, nine_json):
        code, out, _ = run_cli(
            capsys, "simulate", "--pattern", nine_json,
            "--x-vec", "1,2", "--t-vec", "1,2", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "direct"
        assert payload["match"] is True
        assert payload["downloads"] == [1] * 9
        assert len(payload["answers"]) == 9

    def test_field_override(self, capsys, nine_json):
        code, out, _ = run_cli(
            capsys, "simulate", "--pattern", nine_json,
            "--x-vec", "1,2", "--t-vec", "1,2", "--field", "101",
        )
        assert code == 0
        assert json.loads(out)["field"] == 101

    def test_half_vector_rejected(self, capsys, nine_json):
        code, _, err = run_cli(
            capsys, "simulate", "--pattern", nine_json, "--x-vec", "1,2"
        )
        assert code == 2
        assert "error:" in err

    def test_mixed_threshold_modes_rejected(self, capsys, six_json):
        # the scalar thresholds used to be dropped in favour of the vectors
        code, out, err = run_cli(
            capsys, "simulate", "--pattern", six_json, "--x", "1", "--t", "1",
            "--x-vec", "1,1", "--t-vec", "0,0",
        )
        assert code == 2
        assert out == ""
        assert "--x and --t" in err and "--x-vec and --t-vec" in err

    def test_no_thresholds_rejected(self, capsys, nine_json):
        code, _, err = run_cli(capsys, "simulate", "--pattern", nine_json)
        assert code == 2
        assert "error:" in err

    def test_degenerate_refused(self, capsys, six_json):
        code, _, err = run_cli(
            capsys, "simulate", "--pattern", six_json, "--x", "2", "--t", "2"
        )
        assert code == 2
        assert "error:" in err

    def test_field_too_small(self, capsys, six_json):
        code, _, err = run_cli(
            capsys, "simulate", "--pattern", six_json,
            "--x", "1", "--t", "1", "--field", "7",
        )
        assert code == 2
        assert "error:" in err


class TestAudit:
    def test_six_server_certificates(self, capsys, six_json):
        code, out, _ = run_cli(
            capsys, "audit", "--pattern", six_json, "--x", "1", "--t", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["capacity"] == "2/9"
        assert payload["virtual_servers"] == 9
        certs = payload["certificates"]
        assert certs["passed"] is True
        assert certs["checked_subsets"] == 12
        assert certs["violations"] == []
        assert "exhaustive" not in payload

    def test_exhaustive_on_tiny_pattern(self, capsys, pair_json):
        code, out, _ = run_cli(
            capsys, "audit", "--pattern", pair_json,
            "--x", "1", "--t", "0", "--exhaustive",
        )
        assert code == 0
        payload = json.loads(out)
        entries = payload["exhaustive"]
        assert len(entries) == 2
        assert all(e["side"] == "storage" for e in entries)
        assert all(e["passed"] for e in entries)

    def test_exhaustive_scale_guard(self, capsys, fourteen_json):
        code, _, err = run_cli(
            capsys, "audit", "--pattern", fourteen_json,
            "--x", "1", "--t", "1", "--exhaustive",
        )
        assert code == 2
        assert "error:" in err


class TestLemmas:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--seed", "4", "--trials", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 25
        assert payload["dual_grs_pass"] == 25
        assert payload["cauchy_vandermonde_pass"] == 25
        assert payload["alignment_pass"] == payload["alignment_checked"]
        assert payload["all_passed"] is True

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "lemmas", "--seed", "9", "--trials", "10")
        _, second, _ = run_cli(capsys, "lemmas", "--seed", "9", "--trials", "10")
        assert first == second

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "lemmas", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "--trials must be at least 1" in err


class TestDemo:
    @pytest.mark.parametrize("name", demo_names())
    def test_each_demo_passes(self, capsys, name):
        code, out, _ = run_cli(capsys, "demo", name, "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["decode_match"] is True
        assert payload["audit_pass"] is True

    def test_expected_rates(self, capsys):
        expected = {
            "ex-4.1.1": "2/7",
            "ex-4.1.2": "2/9",
            "ex-4.2-1": "2/9",
            "ex-4.2-2": "5/22",
        }
        for name, rate in expected.items():
            _, out, _ = run_cli(capsys, "demo", name)
            assert json.loads(out)["rate"] == rate

    def test_byte_identical_reruns(self, capsys, six_json):
        _, first, _ = run_cli(capsys, "demo", "ex-4.2-1", "--seed", "5")
        _, second, _ = run_cli(capsys, "demo", "ex-4.2-1", "--seed", "5")
        assert first == second
        _, merged, _ = run_cli(
            capsys, "simulate", "--pattern", six_json,
            "--x", "1", "--t", "1", "--seed", "5",
        )
        _, merged2, _ = run_cli(
            capsys, "simulate", "--pattern", six_json,
            "--x", "1", "--t", "1", "--seed", "5",
        )
        assert merged == merged2

    def test_seed_changes_transcript(self, capsys):
        _, a, _ = run_cli(capsys, "demo", "ex-4.1.2", "--seed", "0")
        _, b, _ = run_cli(capsys, "demo", "ex-4.1.2", "--seed", "1")
        assert a != b

    def test_negative_seed_named(self, capsys, monkeypatch, six_json):
        # refused before the capacity program is solved: the spy sees no call
        calls = []
        solve = capacity.simplex_min
        monkeypatch.setattr(capacity, "simplex_min", lambda lp: calls.append(lp) or solve(lp))
        for argv in (("demo", "ex-4.1.1"), ("demo", "ex-4.2-1"),
                     ("simulate", "--pattern", six_json, "--x", "1", "--t", "1")):
            code, out, err = run_cli(capsys, *argv, "--seed", "-5")
            assert (code, out) == (2, "")
            assert err == "error: seed must be a non-negative integer, got seed=-5\n"
        assert calls == []
        assert run_cli(capsys, "demo", "ex-4.2-1", "--seed", "0")[0] == 0
        assert len(calls) == 1

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "demo", "nonexistent")
        assert code == 2
        assert "error:" in err


class TestBadInput:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "capacity", "--pattern", "/nonexistent.json",
            "--x", "1", "--t", "1",
        )
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys, "capacity", "--pattern", str(bad), "--x", "1", "--t", "1"
        )
        assert code == 2
        assert "error:" in err

    def test_wrong_schema(self, capsys, tmp_path):
        bad = tmp_path / "incomplete.json"
        bad.write_text('{"servers": 3}')
        code, _, err = run_cli(
            capsys, "capacity", "--pattern", str(bad), "--x", "1", "--t", "1"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"servers": 4.9, "message_sets": [{"servers": [1, 2]}]},
            {"servers": 4, "message_sets": [{"servers": [1, 2.7]}]},
            {"servers": 4, "message_sets": [{"servers": "123"}]},
            {"servers": 4, "message_sets": [{"servers": [1, 2], "count": True}]},
        ],
        ids=["float-server-count", "float-server-id", "string-server-list", "bool-count"],
    )
    def test_non_integer_pattern_rejected(self, capsys, tmp_path, doc):
        bad = tmp_path / "coerced.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "capacity", "--pattern", str(bad), "--x", "1", "--t", "0"
        )
        assert code == 2
        assert out == ""
        assert "error:" in err
        with pytest.raises(MalformedPattern):
            pattern_from_dict(doc)

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_usage_error_leaves_the_shared_parser_clean(self, capsys, six_json):
        argv = ["simulate", "--pattern", six_json, "--x", "1", "--t", "1", "--seed", "3"]
        assert run_cli(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--pattern", six_json, "--x", "one"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, *argv)
        src = str(Path(__file__).resolve().parents[1] / "src")
        fresh = subprocess.run(
            [sys.executable, "-m", "gxstplc", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)
