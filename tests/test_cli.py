"""Command-line contract: parameters, documents, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cfoptics import NestedConfig, analysis, cli, core, protocols, run_protocol
from cfoptics.analysis import balanced_theta2
from cfoptics.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def timing_masked(text):
    """``text`` with the run time of a success line replaced by ``<t>``."""
    return re.sub(r" in [0-9.]+s$", " in <t>s", text, flags=re.MULTILINE)


def run_flag_and_config(capsys, tmp_path, argv, config_text):
    """(exit code, stdout, timing-masked stderr) of ``argv`` and of its
    command with the JSON ``config_text`` as ``--config``.  An argparse
    exit counts as its exit code."""
    config = tmp_path / "run.json"
    config.write_text(config_text)
    results = []
    for call in (argv, (argv[0], "--config", str(config))):
        try:
            code = main(list(call))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, timing_masked(captured.err)))
    return results


def with_json_text(document, key, text):
    """``document`` as JSON with ``key`` set to the JSON ``text``, which
    ``json.dumps`` cannot write for an integer of over 4,300 digits."""
    return json.dumps(dict(document, **{key: "<text>"})).replace('"<text>"', text)


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

    @pytest.mark.parametrize("out", [None, True, 5, 1.5, [], {}, ["a.json"]])
    def test_config_out_must_be_a_string_or_null(self, out, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta1": 0.25, "balanced": True, "bit": 0, "out": out}))
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(config))
        if out is None:  # null is no file: the document goes to stdout
            assert code == 0
            assert json.loads(stdout)["command"] == "simulate"
        else:
            assert code == 2
            assert stdout == ""
            assert err == "cfoptics simulate: error: out must be a path string\n"
        assert [path.name for path in tmp_path.iterdir()] == ["run.json"]

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--theta1", "0.25", "--balanced", "--bit", "1")
        assert code == 0
        assert '"p_d1": 0.533113967523' in out


class TestIntegerParameters:
    """An integer flag and its config key accept and reject the same values
    with the same diagnostic.  A flag's text is read by ``int`` where it has
    the form of an integer and else by ``float``, as a config string is; so
    beside the JSON numbers it also reads ``+1``, ``1_000`` and non-ASCII
    decimal digits."""

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
        accepted = {}  # value -> document; 2, 2.0 and 2e0 share a key
        for text in self.VALUES[key]:
            value = json.loads(text)
            from_flag, from_config = run_flag_and_config(
                capsys, tmp_path, (*argv, f"--{key}", text), json.dumps(dict(base, **{key: value})))
            assert from_flag == from_config, text
            code, out, err = from_flag
            if code == 0:
                assert accepted.setdefault(value, out) == out, text
            else:
                assert code == 2 and key in err, text
        assert 0 < len(accepted) < len(self.VALUES[key])

    @pytest.mark.parametrize("key", ["outer", "inner"])
    def test_bare_config_number_reads_as_a_chain_list_of_one(self, key, capsys, tmp_path):
        """``--outer 10`` is the list [10], and so is ``{"outer": 10}``: a
        bare JSON scalar for a ``chain`` list reads as its flag text does."""
        other = "inner" if key == "outer" else "outer"
        accepted = {}
        for text in ("3", "3.0", "3e0", "2.5", "0", "-1", "true", "false"):
            from_flag, from_config = run_flag_and_config(
                capsys, tmp_path, ("chain", f"--{other}", "4", f"--{key}", text),
                json.dumps({other: 4, key: json.loads(text)}))
            assert from_flag == from_config, text
            code, out, err = from_flag
            if code == 0:
                assert accepted.setdefault(json.loads(text), out) == out, text
            else:
                assert code == 2 and key in err, text
        assert list(accepted) == [3]
        assert json.loads(accepted[3])["spec"] == {other: [4], key: [3]}

    @pytest.mark.parametrize("text", ["1" + "0" * 5000, " -" + "9_" * 4300 + "9 "],
                             ids=["5,001 digits", "4,301 digits, signed and grouped"])
    @pytest.mark.parametrize("key", [*sorted(CASES), "outer", "inner"])
    def test_flag_with_too_many_digits_is_refused_unechoed(self, key, text, capsys, tmp_path):
        """``int`` refuses text over Python's 4,300-digit limit; such a
        flag, and a config integer of the same digits, alone or in a list,
        is called too long, not a non-integer, and is not echoed."""
        digits = text.replace("_", "").strip()  # the JSON integer
        if key in ("outer", "inner"):
            other = "inner" if key == "outer" else "outer"
            argv = ("chain", f"--{other}", "2", f"--{key}", "3," + text)
            config = with_json_text({other: [2]}, key, f"[3, {digits}]")
        else:
            argv = (*self.CASES[key][0], f"--{key}", text)
            config = with_json_text(self.CASES[key][1], key, digits)
        for code, out, err in run_flag_and_config(capsys, tmp_path, argv, config):
            assert code == 2
            assert out == ""
            assert err == f"cfoptics {argv[0]}: error: {key} has too many digits to read as an integer\n"

    def test_integer_text_agrees_with_int_at_every_code_point(self):
        """A flag is read by ``int`` where ``_INTEGER_TEXT`` matches it, so
        the form must take the whitespace that ``int`` strips and no more:
        ``\\s`` also matches U+001C to U+001F, which ``int`` refuses."""
        mismatches = []
        for point in range(sys.maxunicode + 1):
            text = chr(point) + "1" + chr(point)
            try:
                int(text)
                readable = True
            except ValueError:
                readable = False
            if readable != bool(cli._INTEGER_TEXT.fullmatch(text)):
                mismatches.append(hex(point))
        assert mismatches == []


class TestRealParameters:
    """A real flag and its config key accept and reject the same values
    with the same diagnostic.  A flag's text is read by ``float``, as a
    config string is; so beside the JSON numbers it also reads ``.25``,
    ``+1``, ``1_000`` and non-ASCII decimal digits.  A JSON boolean
    is not a number.  A theta1 range flag ``START:STOP`` is the config list
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
        accepted = {}  # value -> document; 0.25 and 2.5e-1 share a key
        for text in self.VALUES[case]:
            if case == "theta1-range":
                value = [json.loads(part) for part in text.split(":")]
            else:
                value = json.loads(text)
            from_flag, from_config = run_flag_and_config(
                capsys, tmp_path, (*argv, f"--{key}={text}"), json.dumps(dict(base, **{key: value})))
            assert from_flag == from_config, text
            code, out, err = from_flag
            if code == 0:
                assert accepted.setdefault(json.dumps(value), out) == out, text
            else:
                assert code == 2 and key in err, text
        assert 0 < len(accepted) < len(self.VALUES[case])


class TestValuesWithALeadingDash:
    """A value that begins with one dash is read alike after ``--flag``,
    after ``--flag=`` and as a config string, whether it is accepted or
    refused; argparse alone would take ``-1:1``, ``-1e-3`` and ``-inf`` as
    options.  A flag followed by another still lacks its value."""

    # case -> (the rest of its command, the same as config keys, the values accepted)
    CASES = {
        "theta1": (("simulate", "--theta2", "0.3", "--bit", "0"), {"theta2": 0.3, "bit": 0},
                   {"-1e-3", "-.5"}),
        "theta2": (("simulate", "--theta1", "0.25", "--bit", "0"), {"theta1": 0.25, "bit": 0},
                   {"-1e-3", "-.5"}),
        "theta1-range": (("sweep", "--theta2", "0.1", "--steps", "3"), {"theta2": 0.1, "steps": 3},
                         {"-1:1"}),
        "steps": (("sweep", "--theta1", "0.1:0.5", "--balanced"),
                  {"theta1": "0.1:0.5", "balanced": True}, set()),
        "tol": (("capacity", "--theta1", "0.25", "--balanced"), {"theta1": 0.25, "balanced": True}, set()),
        "bits": (("classical",), {}, set()),
        "outer": (("chain", "--inner", "2"), {"inner": "2"}, set()),
    }
    VALUES = ("-1:1", "-1e-3", "-.5", "-inf")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_space_equals_and_config_forms_agree(self, case, capsys, tmp_path):
        argv, base, accepted = self.CASES[case]
        key = case.split("-")[0]
        config = tmp_path / "run.json"
        for text in self.VALUES:
            config.write_text(json.dumps(dict(base, **{key: text})))
            results = []
            for call in ((*argv, f"--{key}", text), (*argv, f"--{key}={text}"),
                         (argv[0], "--config", str(config))):
                code, out, err = run_cli(capsys, *call)
                results.append((code, out, timing_masked(err)))
            assert results[0] == results[1] == results[2], text
            code, out, err = results[0]
            if text in accepted:
                assert code == 0 and out, text
            else:
                assert code == 2 and out == "" and key in err, text

    @pytest.mark.parametrize("argv", [
        ("simulate", "--theta1", "--theta2", "0.3", "--bit", "0"),
        ("sweep", "--theta1", "--steps", "3"),
    ])
    def test_a_flag_before_another_lacks_its_value(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "argument --theta1: expected one argument" in capsys.readouterr().err


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
        succeeded = 0
        for fixed in ((), ("--theta2", "0.3")):
            for value in (True, False, None, "false", "true", 0, 1):
                document = json.dumps(dict(base, balanced=value, **({"theta2": 0.3} if fixed else {})))
                if value is None or isinstance(value, bool):
                    switch = ("--balanced",) if value else ()
                    from_flag, from_config = run_flag_and_config(
                        capsys, tmp_path, (command, *argv, *fixed, *switch), document)
                    assert from_config == from_flag, value
                    succeeded += from_config[0] == 0
                else:
                    (tmp_path / "run.json").write_text(document)
                    code, out, err = run_cli(capsys, command, "--config", str(tmp_path / "run.json"))
                    assert (code, out) == (2, ""), value
                    assert err == f"cfoptics {command}: error: balanced must be true or false\n", value
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


class TestRefusals:
    """Each refusal exits 2 with its own diagnostic and writes no document.
    ``config`` is written to a file and passed as ``--config``; a
    directory is passed as it is."""

    CASES = {
        "config-not-an-object": (("simulate",), [1, 2], "config document must be a JSON object"),
        "config-is-a-directory": (("simulate",), "directory", "cannot read config file"),
        "range-without-colon": (("sweep", "--theta1", "0.1", "--balanced"), None,
                                "theta1 range must be START:STOP or a 2-element list"),
        "range-list-of-one": (("sweep",), {"theta1": [0.1], "balanced": True},
                              "theta1 range must be START:STOP or a 2-element list"),
        "empty-cycle-list": (("chain", "--outer", ",", "--inner", "4"), None,
                             "outer must be non-empty"),
        # A bare number reads as a list of one; an object is no list.
        "cycle-list-not-a-list": (("chain",), {"outer": {"cycles": 5}, "inner": "4"},
                                  "outer must be a comma-separated list of integers"),
        "unknown-format": (("classical", "--bits", "01"), {"format": "xml"},
                           "format must be json or csv"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_with_its_diagnostic(self, case, capsys, tmp_path):
        argv, config, message = self.CASES[case]
        if config == "directory":
            argv += ("--config", str(tmp_path))
        elif config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv += ("--config", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"cfoptics {argv[0]}: error: {message}")

    @pytest.mark.parametrize("value", ["xml", ""])
    def test_format_flag_and_config_key_agree(self, value, capsys, tmp_path):
        """``format`` is checked once, after flags and config merge, so a
        refused flag reads as the refused key does."""
        from_flag, from_config = run_flag_and_config(
            capsys, tmp_path, ("classical", "--bits", "01", "--format", value),
            json.dumps({"bits": "01", "format": value}))
        assert from_flag == from_config
        assert from_flag == (2, "", "cfoptics classical: error: format must be json or csv\n")

    @pytest.mark.parametrize("value", ["", False, 0, [], {}])
    def test_a_false_format_is_refused(self, value, capsys, tmp_path):
        """Only an absent or null ``format`` means json."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"bits": "01", "format": value}))
        code, out, err = run_cli(capsys, "classical", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "cfoptics classical: error: format must be json or csv\n"

    # case -> (command and flags without it, config without it).  The key is
    # the case name up to any "-".
    UNECHOED = {
        "theta1": (("simulate", "--balanced", "--bit", "1"), {"balanced": True, "bit": 1}),
        "theta2": (("simulate", "--theta1", "0.25", "--bit", "1"), {"theta1": 0.25, "bit": 1}),
        "balanced": (("simulate", "--theta1", "0.25", "--bit", "1"), {"theta1": 0.25, "bit": 1}),
        "bit": (("simulate", "--theta1", "0.25", "--balanced"), {"theta1": 0.25, "balanced": True}),
        "tol": (("capacity", "--theta1", "0.25", "--balanced"), {"theta1": 0.25, "balanced": True}),
        "theta1-range": (("sweep", "--balanced"), {"balanced": True}),
        "theta1-range-endpoint": (("sweep", "--balanced"), {"balanced": True}),
        "steps": (("sweep", "--theta1", "0.1:0.5", "--balanced"), {"theta1": "0.1:0.5", "balanced": True}),
        "objective": (("optimize", "--grid", "8", "--refine", "2"), {"grid": 8, "refine": 2}),
        "grid": (("optimize", "--objective", "min-success"), {"objective": "min-success"}),
        "refine": (("optimize", "--objective", "min-success"), {"objective": "min-success"}),
        "bits": (("classical",), {}),
        "format": (("classical", "--bits", "01"), {"bits": "01"}),
        "out": (("classical", "--bits", "01"), {"bits": "01"}),
        "outer": (("chain", "--inner", "4"), {"inner": [4]}),
        "inner": (("chain", "--outer", "2"), {"outer": [2]}),
    }

    @pytest.mark.parametrize("case", sorted(UNECHOED))
    def test_refusal_does_not_repeat_a_5000_character_value(self, case, capsys, tmp_path):
        """Each value check refuses a 5,000-character flag or config value
        with one line of at most 200 bytes, which names the parameter and so
        cannot repeat the value."""
        argv, base = self.UNECHOED[case]
        key = case.split("-")[0]
        texts = ["9" * 5000, "x" * 5000]
        if case == "theta1-range-endpoint":
            texts = [text + ":0.5" for text in texts]
        documents = [with_json_text(base, key, "9" * 5000)]
        results = []
        if key != "out":  # a string out is a path, whose OS error names it
            documents += [json.dumps(dict(base, **{key: text})) for text in texts]
            if key != "balanced":  # a switch takes no value
                results += [run_cli(capsys, *argv, f"--{key}={text}") for text in texts]
        config = tmp_path / "run.json"
        for document in documents:
            config.write_text(document)
            results.append(run_cli(capsys, argv[0], "--config", str(config)))
        for code, out, err in results:
            assert (code, out) == (2, "")
            assert err.startswith(f"cfoptics {argv[0]}: error: ") and err.count("\n") == 1, err[:200]
            assert key in err and len(err.encode()) <= 200, err[:200]

    @pytest.mark.parametrize("argv", [
        ("chain", "--inner", "1", "--outer"),
        ("sweep", "--theta1", "0.1:0.5", "--balanced", "--steps"),
        ("optimize", "--objective", "min-success", "--refine", "2", "--grid"),
    ], ids=["chain-outer", "sweep-steps", "optimize-grid"])
    def test_a_budget_message_states_a_4001_digit_count_briefly(self, argv, capsys):
        """A budget message states the refused count, as its bit length
        where the count has over 100 bits."""
        code, out, err = run_cli(capsys, *argv, "1" + "0" * 4000)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "budget" in err and "-bit integer>" in err, err[:200]
        assert len(err.encode()) <= 200, err[:200]

    def test_config_cycle_lists_write_the_flags_bytes(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"outer": [2, 3], "inner": [4]}))
        code, from_config, _ = run_cli(capsys, "chain", "--config", str(config))
        assert code == 0
        assert from_config == run_cli(capsys, "chain", "--outer", "2,3", "--inner", "4")[1]


class TestBalancedAtTanTwo:
    """theta1 is within 5e-9 of atan(2), where the balanced root crosses 0
    (it is 1.123e-8 here) and cos(theta2)^2 is 1 to within rounding."""

    THETA1 = "1.1071487133020903"

    @pytest.mark.parametrize("argv", [
        ("simulate", "--theta1", THETA1, "--balanced", "--bit", "1"),
        ("capacity", "--theta1", THETA1, "--balanced"),
        ("sweep", "--theta1", f"{THETA1}:1.2", "--balanced", "--steps", "2"),
    ], ids=["simulate", "capacity", "sweep"])
    def test_balanced_commands_run(self, argv, capsys):
        doc = run_json(capsys, *argv)
        theta2 = doc["spec"]["theta2"] if argv[0] != "sweep" else doc["results"]["rows"][0][1]
        assert theta2 == pytest.approx(1.123e-8, rel=1e-3)


class TestReadmeDocuments:
    @pytest.mark.parametrize("name", sorted(README_DOCUMENTS))
    def test_document_matches_release_digest(self, name, capsys, tmp_path):
        argv, digest = README_DOCUMENTS[name]
        path = tmp_path / f"{name}.out"
        code, _, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0, err
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(set(README_DOCUMENTS) - {"classical"}))
    def test_no_command_reads_a_snapshot_matrix_or_a_state_array(self, name, capsys, monkeypatch):
        """The protocol commands read detectors, ledgers and legs from the
        kernel's lists: neither a snapshot matrix nor a final state's
        amplitude vector is built."""
        def refuse(instance):
            raise AssertionError(f"{type(instance).__name__} array built on a run path")

        monkeypatch.setattr(core.Snapshots, "matrix", property(refuse))
        monkeypatch.setattr(core.ModeState, "amplitudes", property(refuse))
        argv, digest = README_DOCUMENTS[name]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestNoNumpyOnTheRunPath:
    def test_no_readme_command_loads_numpy(self):
        """numpy is imported only where an array is built, and the records
        need neither ``dataclasses`` nor the ``inspect`` it imports: in a
        fresh interpreter, importing the package and running each README
        command through ``main`` loads none of the three.  Only modules that
        the package adds count, so a site hook that loads one does not."""
        script = (
            "import contextlib, io, json, sys\n"
            "before = set(sys.modules)\n"
            "import cfoptics\n"
            "from cfoptics import cli\n"
            "def added():\n"
            "    return sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
            "report = [['import', 0, added()]]\n"
            "for name, argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    report.append([name, code, added()])\n"
            "print(json.dumps(report))\n"
        )
        commands = [[name, list(argv)] for name, (argv, _) in sorted(README_DOCUMENTS.items())]
        completed = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                                   capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == [
            ["import", 0, []], *([name, 0, []] for name, _ in commands)]


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


# ---------------------------------------------------------------------------
# properties over drawn command lines

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Edge strings for flag values: numbers in every form a flag reads or
# refuses (signs, underscores, exponents out of range, nan and the
# infinities, whitespace, non-ASCII digits), ranges, lists, switches' words,
# bit strings and the names a parameter takes: 44 of the kinds ROADMAP's
# flag/config fuzzer drew from, and a 5,001-digit integer.
EDGE_VALUES = (
    "0", "1", "2", "-1", "0.25", "-0.0", ".5", "+1", "1.0", "1e0", "2.5", "8",
    "1e400", "-1e400", "1e-400", "1_0", "1__0", "nan", "-inf", "Infinity",
    "", " ", " 1 ", "\t0.3\n", "١", "٠.٢٥", "１", "\u00a01", "\x1c1",
    "-1:1", "0.1:0.5", "0.5:0.1", "1:2:3", ":", "0,1", "2,5", ",", "4,,2",
    "true", "false", "null", "0110", "min-success", "csv",
    "1" + "0" * 5000,
)
# --grid and --steps take no value above 24, README's largest, so that
# every drawn command line runs in milliseconds; a value that a budget or
# the number rule refuses stays in.
CAPPED_KEYS = ("grid", "steps")


def reads_above_24(text):
    try:
        return math.isfinite(number := float(text)) and number > 24
    except ValueError:
        return False


CAPPED_VALUES = tuple(text for text in EDGE_VALUES if not reads_above_24(text))

# Each command's parameters, as the full parse names them, with the values
# of its README example; --out, a path, and --config are not drawn.
README_VALUES = {
    argv[0]: {key: value for key, value in vars(cli.build_parser().parse_args(argv)).items()
              if key not in ("command", "out", "config")}
    for argv, _ in README_DOCUMENTS.values()
}


@st.composite
def command_lines(draw):
    """``(command, {key: text})``: a command and a subset of its parameters
    in drawn order, each at its README value or at an edge value (``True``
    for the switch), or absent."""
    command = draw(st.sampled_from(sorted(README_VALUES)))
    values = {}
    for key, readme in draw(st.permutations(list(README_VALUES[command].items()))):
        source = draw(st.sampled_from(("readme", "edge", "absent")))
        if source == "edge" and key == "balanced":
            values[key] = True
        elif source == "edge":
            values[key] = draw(st.sampled_from(CAPPED_VALUES if key in CAPPED_KEYS else EDGE_VALUES))
        elif source == "readme" and readme is not None:
            values[key] = readme
    return command, values


def flag_argv(command, values, joined=()):
    """The argv of ``command_lines``' draw; keys in ``joined`` as ``--key=text``."""
    argv = [command]
    for key, value in values.items():
        if value is True:
            argv.append(f"--{key}")
        elif key in joined:
            argv.append(f"--{key}={value}")
        else:
            argv += [f"--{key}", value]
    return argv


@st.composite
def parser_argvs(draw):
    """A known command's drawn flags, or no command, or an unknown one,
    with argparse's own tokens inserted anywhere."""
    command, values = draw(command_lines())
    argv = flag_argv(command, values, {key for key in values if draw(st.booleans())})
    head = draw(st.sampled_from(("known", "known", "none", "unknown")))
    if head == "none":
        argv = argv[1:]
    elif head == "unknown":
        argv[0] = draw(st.sampled_from(("simulat", "Simulate", "bogus", "")))
    for token in draw(st.lists(st.sampled_from(("--version", "-h", "--", "--thet", "--bit=")), max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def parse_outcome(parse, argv):
    """``vars()`` of the namespace as a list of pairs, or (exit code,
    stdout, stderr) of an argparse exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return list(vars(parse(argv)).items())
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestDispatchedParse:
    """``main`` parses a named command with its subparser alone, which must
    read every command line as the full parse does."""

    @settings(PROPERTY, max_examples=500)
    @given(parser_argvs())
    @example(["simulate", "--thet", "0.25"])
    @example(["simulate", "--theta1", "0.25", "--version"])
    @example(["capacity", "--", "--theta1", "0.25"])
    @example(["chain", "--outer", "2", "extra", "--inner", "4", "more"])
    @example(["-h"])
    @example(["--version"])
    @example([])
    def test_dispatch_equals_the_full_parse(self, argv):
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli.build_parser().parse_args, argv)


# A difference between flags and config that README documents: a config
# ``bits`` must be a JSON string, so a number there is refused where its
# flag text may run.
BITS_MUST_BE_A_STRING = "a config `bits` value must be a JSON string"
BITS_REFUSAL = "cfoptics classical: error: bits must be a non-empty string of 0s and 1s\n"
JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")
CALL_SECONDS = 10.0


def config_text(values, numbers):
    """``values`` as a JSON document of strings, or with each value that
    is a JSON number written as one."""
    return "{" + ", ".join(
        f"{json.dumps(key)}: {value}" if numbers and JSON_NUMBER.fullmatch(str(value))
        else f"{json.dumps(key)}: {json.dumps(value, ensure_ascii=False)}"
        for key, value in values.items()) + "}"


def run_main(argv):
    """(exit code, stdout, timing-masked stderr) of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - started < CALL_SECONDS, argv[:8]
    return code, out.getvalue(), timing_masked(err.getvalue())


class TestFlagsAndConfigAgree:
    """A drawn command line and a ``--config`` document with the same
    values, once as JSON strings and once as JSON numbers where a value is
    one, exit alike with the same stdout bytes and error line."""

    def test_the_documented_refusal_is_in_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert BITS_MUST_BE_A_STRING in readme

    @settings(PROPERTY, max_examples=400)
    @given(command_lines())
    @example(("simulate", {"theta1": "0.25", "balanced": True, "bit": "١"}))
    @example(("chain", {"outer": "2,5", "inner": "1_0"}))
    @example(("classical", {"bits": "0110"}))
    @example(("classical", {"bits": "1"}))
    @example(("sweep", {"theta1": "-1:1", "theta2": "0.25", "steps": "8"}))
    @example(("capacity", {"theta1": "0.25", "balanced": True, "tol": "1e-400"}))
    @example(("optimize", {"objective": "min-success", "grid": "8", "refine": "2"}))
    def test_flags_and_config_agree(self, tmp_path_factory, command_line):
        command, values = command_line
        from_flags = run_main(flag_argv(command, values))
        code, out, err = from_flags
        assert code in (0, 2)
        assert (code == 0) == (out != "") == err.startswith(f"cfoptics {command}: wrote stdout in ")
        config = tmp_path_factory.mktemp("config") / "run.json"
        for numbers in (False, True):
            config.write_text(config_text(values, numbers), encoding="utf-8")
            from_config = run_main([command, "--config", str(config)])
            if numbers and from_config != from_flags and JSON_NUMBER.fullmatch(values.get("bits", "")):
                assert from_config == (2, "", BITS_REFUSAL)
            else:
                assert from_config == from_flags, config_text(values, numbers)[:200]
            for line in from_config[2].splitlines():
                assert len(line.encode()) <= 300, line[:200]
