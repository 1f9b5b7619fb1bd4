"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture
def smoke(monkeypatch):
    """Every workload at its shrunk test size."""
    monkeypatch.setattr(workloads, "FULL", workloads.SMOKE)


def bench_in_process(capsys, *args: str):
    status = run.main(["--seconds", "0", *args])
    out, err = capsys.readouterr()
    return status, out, err, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(smoke, capsys, workload, trace):
    status, out, err, result = bench_in_process(capsys, "--workload", workload, "--seed", "5",
                                                "--trace", str(trace))
    assert status == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        # every layer is touched on every workload, so no time reads zero
        times = [name for name, unit in expected.items() if unit in ("s", "ms")]
        assert all(result["metrics"][name]["value"] > 0 for name in times)
    else:
        printed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
        assert {"raw_setup_s", "raw_wall_s", "raw_cpu_s", "calibration_startup_s", "calibration_s",
                "failed_fraction"} <= printed
        assert ("replicates_per_s" in printed) == workload.startswith("mc_")


def test_a_slow_host_phase_cancels_in_the_scaled_times():
    def rep(slowdown):
        return [run.CallResult("a", setup_s=0.25 * slowdown, wall_s=0.5 * slowdown, cpu_s=0.5 * slowdown,
                               peak_rss_mb=40.0),
                run.CallResult("b", setup_s=0.25 * slowdown, wall_s=1.5 * slowdown, cpu_s=1.0 * slowdown,
                               peak_rss_mb=50.0)]

    # The host runs at half speed for two of three repetitions, and so
    # does the calibration script timed after each of them.
    reps = [rep(1.0), rep(2.0), rep(2.0)]
    startup, whole = run.STARTUP_REFERENCE_S, run.CALIBRATION_REFERENCE_S
    calibration = [(startup, whole), (2 * startup, 2 * whole), (2 * startup, 2 * whole)]
    gated, raw = run.end_to_end(reps, calibration, host_scaled=True)
    assert raw == pytest.approx({"raw_setup_s": 0.5, "raw_wall_s": 4.0, "raw_cpu_s": 3.0,
                                 "calibration_startup_s": 2 * startup, "calibration_s": 2 * whole})
    assert gated == pytest.approx({"setup_s": 0.25, "wall_s": 2.0, "cpu_s": 1.5, "peak_rss_mb": 50.0})
    # Not host-scaled: only set-up times are scaled.
    gated, _ = run.end_to_end(reps, calibration, host_scaled=False)
    assert gated == pytest.approx({"setup_s": 0.25, "wall_s": 4.0, "cpu_s": 3.0, "peak_rss_mb": 50.0})


def test_corrupted_output_counts_as_failed(smoke, capsys, monkeypatch):
    build = workloads.build

    def build_with_a_cut_output(*args, **kwargs):
        first, *rest = build(*args, **kwargs)

        def check(out):  # a writer cut off half-way
            first.check(dataclasses.replace(out, stdout=out.stdout[: len(out.stdout) // 2]))

        return [dataclasses.replace(first, check=check), *rest]

    monkeypatch.setattr(workloads, "build", build_with_a_cut_output)
    status, out, err, result = bench_in_process(capsys, "--workload", "exact_chain", "--seed", "5")
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 4
    assert any(line.split() == ["failed_fraction", "0.25", "1"] for line in out.splitlines())
    assert "output check failed" in err


def test_output_bytes_do_not_depend_on_the_work_directory(tmp_path):
    m, n, kmax, replicates = workloads.SMOKE["spectra"]
    inv = workloads.simulate_call("simulate", m, n, kmax, replicates, 2, 11, files=True)
    env, reference = run.child_env(), workloads.load_reference()
    results = []
    for name in ("w", "a-much-longer-work-directory-name-0123456789"):
        (tmp_path / name).mkdir()
        results.append(run.run_call(inv, tmp_path / name, env, False, reference))
    assert [r.problem for r in results] == [None, None]
    assert results[0].output_bytes == results[1].output_bytes > 0
    assert results[0].digest == results[1].digest


def test_exact_check_rejects_a_changed_rational():
    inv = workloads.moments_call(*workloads.SMOKE["moments"])
    ref = workloads.load_reference()
    good = ref["exact"][" ".join(inv.argv)]
    doc = {"agree": True, **good}
    inv.check(workloads.Output(json.dumps(doc), ROOT, ref))
    num, den = good["falling_sum"].split("/")
    doc["falling_sum"] = f"{int(num) + 1}/{den}"
    with pytest.raises(workloads.CheckError):
        inv.check(workloads.Output(json.dumps(doc), ROOT, ref))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_chain", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_spans_are_exact_under_threads_and_restored():
    import ginprod.cli  # noqa: F401  (loads every traced module)
    from ginprod import montecarlo

    original = montecarlo.sample_product
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert montecarlo.sample_product is not original
        spec = montecarlo.GinibreSpec(n=3, m=2, field="complex")
        config = montecarlo.RunConfig(replicates=400, master_seed=7, workers=8)
        spectra = montecarlo.collect_spectra(spec, config)
    finally:
        sys.setswitchinterval(interval)
        restore()
    assert spans.wrapped_bindings() == []
    assert montecarlo.sample_product is original
    assert threading.active_count() == 1
    summary = recorder.summary()
    for name in ("montecarlo.replicate_rng", "montecarlo.sample_product", "montecarlo.draw_factors"):
        assert summary["calls"][name] == 400
        assert 0 <= summary["self_s"][name] <= summary["total_s"][name]
    assert summary["calls"]["montecarlo.collect_spectra"] == 1
    assert len(summary["sample_product_ms"]) == 400
    assert summary["counters"]["montecarlo.draw_factors.bytes"] == 400 * 2 * 9 * 16
    # draw_factors runs inside sample_product, so it is not sample_product's self time
    sp = summary["total_s"]["montecarlo.sample_product"] - summary["self_s"]["montecarlo.sample_product"]
    assert sp == pytest.approx(summary["total_s"]["montecarlo.draw_factors"], rel=1e-9)
    assert spectra.shape == (400, 3)
