"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

The metric test runs every workload once untraced and once traced, so
the file takes about a minute.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_bench(*args, cwd=ROOT, bench=HERE):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def copy_bench(tmp_path):
    """A copy of the benchmark, beside a copy of BENCHMARK.json, that a
    test may edit; run it with ``cwd=ROOT`` to measure this program."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path / "perfbench"


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_seed_determines_inputs(workload):
    make = cases.INPUTS[workload]
    assert make(0) == make(0)
    assert make(7) == make(7)
    assert make(0) != make(1)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted(workload, trace, kind):
    result = result_of(run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace,
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert all(NAME.match(name) for name in metrics)
    assert {n: m["unit"] for n, m in metrics.items()} == declared(kind)


def test_wrong_reference_is_a_failure_not_a_crash(tmp_path):
    bench = copy_bench(tmp_path)
    (bench / "references.json").write_text(json.dumps({"thermal_dfs": "0" * 64}))
    result = result_of(run_bench(
        "--workload", "thermal_dfs", "--seed", "0", "--seconds", "0",
        bench=bench,
    ))
    assert result["failed"] > 0
    assert result["correct"] is False


def test_missing_entry_point_is_a_failure_not_a_zero(tmp_path):
    bench = copy_bench(tmp_path)
    source = (bench / "spans.py").read_text()
    entry = '"repro.policy.builtin:NoManagementPolicy", "react"'
    assert entry in source
    (bench / "spans.py").write_text(
        source.replace(entry, '"repro.policy.builtin:NoManagementPolicy", "gone"')
    )
    proc = run_bench("--workload", "thermal_dfs", "--seed", "3",
                     "--seconds", "0", "--trace", "1", bench=bench)
    result = result_of(proc)
    assert result["failed"] > 0
    assert result["correct"] is False
    assert "spans.entry_point" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bench = copy_bench(tmp_path)
    proc = run_bench("--workload", "thermal_dfs", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     bench=bench)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.add("scenario.runner", 0.0, 10.0)
    tracer.add("thermal.solve", 1.0, 4.0, parent=0)
    tracer.add("thermal.solve", 2.0, 3.0, parent=1)  # nested, same layer
    tracer.add("power.model", 5.0, 6.0, parent=0)
    table = tracer.layer_table()
    assert table["scenario.runner"] == [6.0, 1]
    assert table["thermal.solve"] == [3.0, 1]
    assert table["power.model"] == [1.0, 1]


def test_end_to_end_times_scale_with_the_reference_kernel():
    import run

    sample = {"cpu_s": 3.0, "setup_cpu_s": 1.0, "windows": 100,
              "scenarios": 6, "emulated_cycles": 2e6, "peak_rss_kb": 2048}
    nominal = run.end_to_end([dict(sample, reference_cpu_s=run.REFERENCE_S)])
    assert nominal["norm_cpu_s"] == pytest.approx(3.0)
    assert nominal["setup_s"] == pytest.approx(1.0)
    assert nominal["windows_per_norm_cpu_s"] == pytest.approx(50.0)
    assert nominal["scenarios_per_norm_cpu_s"] == pytest.approx(2.0)
    # A host twice as slow doubles both CPU times and the reference.
    slow = run.end_to_end([dict(sample, cpu_s=6.0, setup_cpu_s=2.0,
                                reference_cpu_s=2 * run.REFERENCE_S)])
    assert slow == pytest.approx(nominal)
