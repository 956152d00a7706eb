"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Each workload runs briefly in a subprocess, exactly as BENCHMARK.json's
command does; the rest runs in process.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture
def package():
    run.load_package()
    return run.fresh_import()


def test_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_brief_run_prints_the_declared_metrics(workload, trace, section):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
    for name in declared:
        printed = next(line for line in done.stdout.splitlines() if line.startswith(name + " "))
        assert printed.split()[-1] == declared[name]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "readme", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wrong_digest_counts_as_failed_op_and_the_run_goes_on(package, monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.README_DIGESTS, "classical", "0" * 64)
    tally = run.Tally()
    ops, _ = run.measure("readme", 1, str(tmp_path), 0.0, tally)
    assert len(ops) == 7
    # warm-up runs classical once, the cycle once; every other op passes
    assert tally.failed == 2
    assert tally.attempted == len(workloads.Readme(1, str(tmp_path)).warmup()) + 7
    assert any("classical" in message for message in tally.messages)


def test_wrong_closed_form_counts_as_failed_op(package, monkeypatch):
    exact = oracles.chain_detectors
    monkeypatch.setattr(oracles, "chain_detectors",
                        lambda *args: tuple(p + 1e-9 for p in exact(*args)))
    tally = run.Tally()
    _, output, counts = run.run_checked(workloads.DeepChain(1, "").cycle()[0], tally)
    assert output is not None and counts is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_traced_counts_equal_program_counts(package, tmp_path):
    cycle = workloads.AngleSearch(2, str(tmp_path)).cycle()
    tally = run.Tally()
    metrics, samples = run.traced_passes(cycle, 0.0, tally)
    assert tally.failed == 0, tally.messages
    assert samples == {"passes": 1, "ops_per_pass": 10}
    assert metrics["core.compiles_per_propagation"] == 1.0
    assert metrics["kernel.elements"] == metrics["protocols.elements_built"]
    assert metrics["kernel.elements"] == 19 * metrics["analysis.channel_evals"]


def test_tracer_restores_every_wrapped_name(package):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracing.HOOKS}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(sys.modules[m], a) is not f for (m, a), f in originals.items())
        sys.modules["cfoptics.analysis"].balance_root_solve(0.25)
    assert tracer.missing == []
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in originals.items())
    names = {span[0] for span in tracer.spans}
    assert {"analysis.balance_root_solve", "core.Network", "kernel.run_plan"} <= names
