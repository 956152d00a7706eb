"""Command-line contract: parameters, documents, determinism, exit codes."""

import hashlib
import json
import math
import re
import subprocess
import sys
import time

import pytest

from cfoptics import NestedConfig, analysis, cli, protocols, run_protocol
from cfoptics.analysis import balanced_theta2
from cfoptics.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSimulate:
    def test_balanced_document(self, capsys):
        doc = run_json(capsys, "simulate", "--theta1", "0.25", "--balanced", "--bit", "1")
        assert doc["command"] == "simulate"
        assert doc["spec"]["balanced"] is True
        assert doc["spec"]["theta2"] == pytest.approx(0.717315239296132, abs=1e-9)
        assert doc["results"]["p_d1"] == pytest.approx(0.533113967523193, abs=1e-9)
        assert doc["results"]["leg_probabilities"]["charlie_to_alice"] < 1e-24
        assert doc["results"]["total_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_inert_network(self, capsys):
        doc = run_json(capsys, "simulate", "--theta1", "0", "--theta2", "0", "--bit", "0")
        assert doc["results"]["p_d1"] == 1.0
        assert doc["results"]["p_d2"] == 0.0
        assert doc["results"]["absorbed"]["bob"] == 0.0

    def test_invalid_bit_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--theta1", "0.25", "--balanced", "--bit", "2")
        assert code != 0
        assert "bit" in err

    def test_theta2_and_balanced_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--theta1", "0.25", "--theta2", "0.4", "--balanced", "--bit", "0"
        )
        assert code != 0
        assert "mutually exclusive" in err

    def test_missing_theta2_rule(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--theta1", "0.25", "--bit", "0")
        assert code != 0


class TestConfigDocument:
    def test_config_supplies_parameters(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta1": 0.25, "balanced": True, "bit": 1}))
        doc = run_json(capsys, "simulate", "--config", str(config))
        assert doc["results"]["p_d1"] == pytest.approx(0.533113967523193, abs=1e-9)

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta1": 0.9, "balanced": True, "bit": 1}))
        doc = run_json(capsys, "simulate", "--config", str(config), "--theta1", "0.25")
        assert doc["spec"]["theta1"] == 0.25

    @pytest.mark.parametrize(
        "command, key",
        [
            ("simulate", "steps"),
            ("sweep", "bit"),
            ("optimize", "theta1"),
            ("capacity", "bits"),
            ("classical", "outer"),
            ("chain", "tol"),
        ],
    )
    def test_unknown_config_key_rejected(self, capsys, tmp_path, command, key):
        """A key that names another command's flag is unknown here."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: 1, "spin": 3}))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"error: unknown config keys: {', '.join(sorted((key, 'spin')))}" in err

    @pytest.mark.parametrize(
        "content",
        [
            b'{"bits": "01\xff"}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"bits": "01"}'.ljust((1 << 20) + 1),
        ],
        ids=["not-utf8", "deep-nesting", "one-mebibyte-and-one-byte"],
    )
    def test_config_that_cannot_be_decoded_is_a_usage_error(self, capsys, tmp_path, content):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        code, out, err = run_cli(capsys, "classical", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "error: config file" in err

    def test_config_can_set_format(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"bits": "01", "format": "csv"}))
        code, out, _ = run_cli(capsys, "classical", "--config", str(config))
        assert code == 0
        assert out.startswith("key,value")


class TestSweep:
    def test_balanced_rule_rows(self, capsys):
        doc = run_json(
            capsys, "sweep", "--theta1", "0.05:1.0", "--balanced", "--steps", "20"
        )
        rows = doc["results"]["rows"]
        assert len(rows) == 20
        columns = doc["results"]["columns"]
        p00_index, p11_index = columns.index("p00"), columns.index("p11")
        for row in rows:
            assert abs(row[p00_index] - row[p11_index]) < 1e-9

    def test_two_steps_hit_the_endpoints(self, capsys):
        doc = run_json(capsys, "sweep", "--theta1", "0.1:0.9", "--theta2", "0.5", "--steps", "2")
        rows = doc["results"]["rows"]
        assert len(rows) == 2
        assert rows[0][0] == pytest.approx(0.1, abs=1e-12)
        assert rows[1][0] == pytest.approx(0.9, abs=1e-12)

    def test_fixed_rule_matches_direct_runs(self, capsys):
        doc = run_json(
            capsys, "sweep", "--theta1", "0.2:0.8", "--theta2", str(math.pi / 4), "--steps", "4"
        )
        for row in doc["results"]["rows"]:
            theta1 = row[0]
            config = NestedConfig(theta1, math.pi / 4)
            assert row[2] == pytest.approx(run_protocol(config, 0).p_d2, abs=1e-12)
            assert row[3] == pytest.approx(run_protocol(config, 1).p_d1, abs=1e-12)

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--theta1", "0.5:0.5", "--balanced")
        assert code != 0
        assert "empty" in err

    def test_single_step_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--theta1", "0.1:0.9", "--balanced", "--steps", "1")
        assert code != 0

    def test_over_budget_sweep_fails_before_any_evaluation(self, capsys, monkeypatch):
        def no_evaluations(*args):
            raise AssertionError("a channel was evaluated before the budget check")

        monkeypatch.setattr(cli, "channel_from_protocol", no_evaluations)
        for steps in (str(cli.MAX_SWEEP_STEPS + 1), "100000000", "1e300"):
            code, out, err = run_cli(
                capsys, "sweep", "--theta1", "0.1:0.2", "--balanced", "--steps", steps
            )
            assert (code, out) == (2, ""), steps
            assert f"budget of {cli.MAX_SWEEP_STEPS}" in err


class TestOptimize:
    def test_over_budget_search_fails_before_any_evaluation(self, capsys, monkeypatch):
        def no_evaluations(*args):
            raise AssertionError("a channel was evaluated before the budget check")

        monkeypatch.setattr(analysis, "channel_from_protocol", no_evaluations)
        for grid, refine in (("100000", "0"), ("8", "1e300")):
            argv = ("optimize", "--objective", "min-success", "--grid", grid, "--refine", refine)
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (grid, refine)
            assert f"budget of {analysis.MAX_OPTIMIZE_EVALUATIONS}" in err


class TestChain:
    def test_single_cycle_matches_simulate(self, capsys):
        chain_doc = run_json(capsys, "chain", "--outer", "1", "--inner", "1")
        quarter = math.pi / 4
        for bit in (0, 1):
            sim_doc = run_json(
                capsys,
                "simulate",
                "--theta1",
                repr(quarter),
                "--theta2",
                repr(quarter),
                "--bit",
                str(bit),
            )
            row = [r for r in chain_doc["results"]["rows"] if r[2] == bit][0]
            assert row[3] == pytest.approx(sim_doc["results"]["p_d1"], abs=1e-12)
            assert row[4] == pytest.approx(sim_doc["results"]["p_d2"], abs=1e-12)

    def test_grid_row_count(self, capsys):
        doc = run_json(capsys, "chain", "--outer", "1,2", "--inner", "1,4")
        assert len(doc["results"]["rows"]) == 8  # 2 x 2 grid, both bits

    def test_bad_list_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "chain", "--outer", "1,x", "--inner", "1")
        assert code != 0

    def test_over_budget_table_fails_fast(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "chain", "--outer", "100000", "--inner", "100000")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert "budget of 500000" in err

    def test_budget_checked_before_any_run(self, capsys, monkeypatch):
        def no_runs(*args):
            raise AssertionError("a chain ran before every pair was checked")

        monkeypatch.setattr(cli, "run_chain", no_runs)
        code, _, err = run_cli(capsys, "chain", "--outer", "2,100000", "--inner", "4")
        assert code == 2
        assert "budget" in err

    def test_table_budget_counts_every_pair(self, capsys, monkeypatch):
        """Each 50 x 2000 pair fits the budget (400,251 elements), the table
        of two does not, and it fails before any run."""
        def no_runs(*args):
            raise AssertionError("a chain ran before the table was checked")

        monkeypatch.setattr(cli, "run_chain", no_runs)
        code, out, err = run_cli(capsys, "chain", "--outer", "50,50", "--inner", "2000")
        assert code == 2
        assert out == ""
        assert f"budget of {protocols.MAX_CHAIN_ELEMENTS}" in err


class TestClassicalAndCapacity:
    def test_classical_document(self, capsys):
        doc = run_json(capsys, "classical", "--bits", "0110")
        assert doc["results"]["billiard"]["decoded"] == "0110"
        assert doc["results"]["billiard"]["audit"] is True
        assert doc["results"]["pulse_relay"]["decoded"] == "0110"
        assert doc["results"]["pulse_relay"]["audit"] is True

    def test_classical_rejects_non_bits(self, capsys):
        code, _, _ = run_cli(capsys, "classical", "--bits", "01x0")
        assert code != 0

    def test_over_budget_bits_fail_before_any_relay(self, capsys, monkeypatch):
        def no_relays(*args):
            raise AssertionError("a relay ran before the bit string was checked")

        monkeypatch.setattr(cli, "run_billiard", no_relays)
        monkeypatch.setattr(cli, "run_pulse_relay", no_relays)
        code, out, err = run_cli(capsys, "classical", "--bits", "01" * (cli.MAX_CLASSICAL_BITS // 2) + "1")
        assert code == 2
        assert out == ""
        assert f"budget of {cli.MAX_CLASSICAL_BITS}" in err

    def test_config_bits_must_be_a_string(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"bits": 101}))
        code, out, err = run_cli(capsys, "classical", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "bits must be a non-empty string" in err

    def test_capacity_dominates_uniform(self, capsys):
        doc = run_json(capsys, "capacity", "--theta1", "0.25", "--balanced")
        results = doc["results"]
        assert results["capacity_bits"] >= results["mi_uniform"] - 1e-10
        assert sum(results["channel"]["b0"]) == pytest.approx(1.0, abs=1e-12)


    def test_tol_flag_and_config_key_agree(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta1": 0.25, "balanced": True, "tol": 1e-4}))
        _, from_flag, _ = run_cli(
            capsys, "capacity", "--theta1", "0.25", "--balanced", "--tol", "1e-4"
        )
        _, from_config, _ = run_cli(capsys, "capacity", "--config", str(config))
        assert from_flag == from_config
        assert json.loads(from_flag)["spec"]["tol"] == 1e-4

    def test_tol_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta1": 0.25, "balanced": True, "tol": 1e-4}))
        doc = run_json(capsys, "capacity", "--config", str(config), "--tol", "1e-3")
        assert doc["spec"]["tol"] == 1e-3

    def test_bad_tol_rejected(self, capsys):
        for tol in ("0", "-1e-3", "nan"):
            code, _, err = run_cli(
                capsys, "capacity", "--theta1", "0.25", "--balanced", f"--tol={tol}"
            )
            assert code == 2
            assert "tol" in err


class TestRendering:
    def test_csv_sweep_is_tabular(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--theta1", "0.1:0.5", "--balanced", "--steps", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta1,theta2,p00,p11,loss,mi_uniform"
        assert len(lines) == 4

    def test_csv_simulate_is_key_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--theta1", "0.25", "--balanced", "--bit", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert "results.p_d1" in keys
        assert "spec.theta1" in keys

    def test_out_writes_identical_bytes(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second):
            code, _, _ = run_cli(
                capsys, "simulate", "--theta1", "0.25", "--balanced", "--bit", "0",
                "--out", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_out_that_cannot_be_written_is_a_usage_error(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "a.json" if where == "missing directory" else tmp_path
        code, out, err = run_cli(
            capsys, "simulate", "--theta1", "0.25", "--balanced", "--bit", "0", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("cfoptics simulate: error: cannot write output file: ")
        assert not (tmp_path / "missing").exists()

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--theta1", "0.25", "--balanced", "--bit", "1")
        assert code == 0
        assert '"p_d1": 0.533113967523' in out


class TestIntegerParameters:
    """An integer flag and its config key accept and reject the same values:
    a flag's text counts as the JSON number it spells."""

    CASES = {
        "bit": (("simulate", "--theta1", "0.25", "--balanced"), {"theta1": 0.25, "balanced": True}),
        "steps": (("sweep", "--theta1", "0.1:0.5", "--balanced"), {"theta1": "0.1:0.5", "balanced": True}),
        "grid": (("optimize", "--objective", "min-success", "--refine", "2"),
                 {"objective": "min-success", "refine": 2}),
        "refine": (("optimize", "--objective", "min-success", "--grid", "8"),
                   {"objective": "min-success", "grid": 8}),
    }
    VALUES = {
        "bit": ("1", "1.0", "1e0", "0.0", "1.5", "2", "true", "1e400"),
        "steps": ("3", "3.0", "3e0", "2.5", "1", "false", "NaN", "1e300"),
        "grid": ("8", "8.0", "0.8e1", "8.5", "7", "true", "1e5"),
        "refine": ("2", "2.0", "2e0", "0", "2.5", "-1", "true", "1e300"),
    }

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_flag_and_config_key_agree(self, key, capsys, tmp_path):
        argv, base = self.CASES[key]
        config = tmp_path / "run.json"
        accepted = {}  # value -> document; 2, 2.0 and 2e0 share a key
        for text in self.VALUES[key]:
            value = json.loads(text)
            config.write_text(json.dumps(dict(base, **{key: value})))
            flag_code, flag_out, flag_err = run_cli(capsys, *argv, f"--{key}", text)
            config_code, config_out, config_err = run_cli(capsys, argv[0], "--config", str(config))
            assert (flag_code, flag_out) == (config_code, config_out), text
            if flag_code == 0:
                assert accepted.setdefault(value, flag_out) == flag_out, text
            else:
                assert flag_code == 2
                assert key in flag_err and key in config_err
        assert 0 < len(accepted) < len(self.VALUES[key])


class TestRealParameters:
    """A real flag and its config key accept and reject the same values: a
    flag's text counts as the JSON value it spells, and a JSON boolean is
    not a number.  A theta1 range flag ``START:STOP`` is the config list
    ``[START, STOP]``."""

    CASES = {
        "theta1": (("simulate", "--balanced", "--bit", "1"), {"balanced": True, "bit": 1}),
        "theta2": (("simulate", "--theta1", "0.25", "--bit", "1"), {"theta1": 0.25, "bit": 1}),
        "tol": (("capacity", "--theta1", "0.25", "--balanced"), {"theta1": 0.25, "balanced": True}),
        "theta1-range": (("sweep", "--balanced", "--steps", "3"), {"balanced": True, "steps": 3}),
    }
    VALUES = {
        "theta1": ("0.25", "2.5e-1", "1", "true", "false", "NaN", "1e400"),
        "theta2": ("0.3", "3e-1", "0", "true", "false", "-Infinity"),
        "tol": ("1e-3", "0.001", "1", "true", "false", "0", "NaN"),
        "theta1-range": ("0.1:0.5", "1e-1:5e-1", "true:0.5", "0.1:true", "0.1:false", "0.5:0.1", "NaN:0.5"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flag_and_config_key_agree(self, case, capsys, tmp_path):
        argv, base = self.CASES[case]
        key = case.split("-")[0]
        config = tmp_path / "run.json"
        accepted = {}  # value -> document; 0.25 and 2.5e-1 share a key
        for text in self.VALUES[case]:
            if case == "theta1-range":
                value = [json.loads(part) for part in text.split(":")]
            else:
                value = json.loads(text)
            config.write_text(json.dumps(dict(base, **{key: value})))
            flag_code, flag_out, flag_err = run_cli(capsys, *argv, f"--{key}={text}")
            config_code, config_out, config_err = run_cli(capsys, argv[0], "--config", str(config))
            assert (flag_code, flag_out) == (config_code, config_out), text
            if flag_code == 0:
                assert accepted.setdefault(json.dumps(value), flag_out) == flag_out, text
            else:
                assert flag_code == 2
                assert key in flag_err and key in config_err
        assert 0 < len(accepted) < len(self.VALUES[case])


class TestSwitchParameters:
    """The config key ``balanced`` is the ``--balanced`` flag when JSON
    true, its absence when false or null, and any other value exits 2."""

    COMMANDS = {
        "simulate": (("--theta1", "0.25", "--bit", "1"), {"theta1": 0.25, "bit": 1}),
        "sweep": (("--theta1", "0.1:0.5", "--steps", "3"), {"theta1": "0.1:0.5", "steps": 3}),
        "capacity": (("--theta1", "0.25"), {"theta1": 0.25}),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_and_config_key_agree(self, command, capsys, tmp_path):
        argv, base = self.COMMANDS[command]
        config = tmp_path / "run.json"
        succeeded = 0
        for fixed in ((), ("--theta2", "0.3")):
            for value in (True, False, None, "false", "true", 0, 1):
                document = dict(base, balanced=value, **({"theta2": 0.3} if fixed else {}))
                config.write_text(json.dumps(document))
                code, out, err = run_cli(capsys, command, "--config", str(config))
                if value is None or isinstance(value, bool):
                    switch = ("--balanced",) if value else ()
                    assert (code, out) == run_cli(capsys, command, *argv, *fixed, *switch)[:2]
                    succeeded += code == 0
                else:
                    assert code == 2 and "balanced" in err, value
        assert succeeded == 3  # balanced without theta2, and theta2 not balanced (false, null)


# SHA-256 of the document each README command-line example writes, as
# released.  Any changed byte, including a last digit, fails the test.
README_DOCUMENTS = {
    "simulate": (
        ("simulate", "--theta1", "0.25", "--balanced", "--bit", "1"),
        "05fbf6ef1eb2b5ab7d8ac679e0cda1c87c4eaf3ddfe36415ef72d7b0e27cda5f",
    ),
    "sweep": (
        ("sweep", "--theta1", "0.05:1.0", "--balanced", "--steps", "20", "--format", "csv"),
        "a00b1a3b6d3645caaa4a505bf8c3f38b5bbe9ffcaff944cf4f82318b1ca84e7f",
    ),
    "optimize": (
        ("optimize", "--objective", "min-success", "--grid", "24", "--refine", "200"),
        "9dc53f4941d527896c7e464705ee40c6174efafce4cef3c2fa0d8bcd45a3ecc7",
    ),
    "capacity": (
        ("capacity", "--theta1", "0.25", "--balanced"),
        "60ae3d74feffd2333c4af6398ffbd93775084e959c8058344ce61c0b2a48824e",
    ),
    "classical": (
        ("classical", "--bits", "0110"),
        "715e1578137d4bd6cccbdd6e21a4b8283c4b6a02f3a5cbbaf4f7632f2b9172fc",
    ),
    "chain": (
        ("chain", "--outer", "2,5,10", "--inner", "4,25,100"),
        "5275038e5de164f61564aac598cd239f0b68a05a359538e6fe66034478b65d61",
    ),
}


class TestReadmeDocuments:
    @pytest.mark.parametrize("name", sorted(README_DOCUMENTS))
    def test_document_matches_release_digest(self, name, capsys, tmp_path):
        argv, digest = README_DOCUMENTS[name]
        path = tmp_path / f"{name}.out"
        code, _, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0, err
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSubprocessContract:
    def test_module_invocation_and_exit_codes(self):
        completed = subprocess.run(
            [sys.executable, "-m", "cfoptics", "classical", "--bits", "10"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        doc = json.loads(completed.stdout)
        assert doc["results"]["pulse_relay"]["decoded"] == "10"

    def test_repeated_in_process_calls_match_a_fresh_process(self, capsys, monkeypatch):
        """``main`` reuses one parser; every call, including those after a
        diagnostic and an argparse exit, writes what a fresh process does."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to this width
        calls = [
            ("simulate", "--theta1", "0.25", "--balanced", "--bit", "1"),
            ("simulate", "--theta1", "0.25", "--balanced", "--bit", "7"),
            ("simulate", "--theta1", "0.25", "--frobnicate"),
            ("simulate", "--format", "xml"),
            ("sweep", "--theta1", "0.1:0.5", "--balanced", "--steps", "3", "--format", "csv"),
            ("chain",),
            ("simulate", "--theta1", "0.25", "--balanced", "--bit", "1"),
        ]

        def timing_masked(text):
            return re.sub(r" in [0-9.]+s$", " in <t>s", text, flags=re.MULTILINE)

        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "cfoptics", *argv], capture_output=True, text=True
            )
            for _ in range(2):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                assert code == fresh.returncode, argv
                assert captured.out == fresh.stdout, argv
                assert timing_masked(captured.err) == timing_masked(fresh.stderr), argv

    def test_usage_error_exit_code(self):
        completed = subprocess.run(
            [sys.executable, "-m", "cfoptics", "simulate", "--theta1", "0.25",
             "--balanced", "--bit", "7"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 2
        assert completed.stderr.strip() != ""
