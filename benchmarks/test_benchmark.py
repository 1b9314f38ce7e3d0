"""Tests of the benchmark itself, at smoke-test sizes.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path first)
import tracing  # noqa: E402
import workloads  # noqa: E402
from kerrdeco import cli, evolution, measures  # noqa: E402

# The layer functions the benchmark promises to trace, by module.
LAYERS = {
    "evolution": ["propagate", "trajectory", "closed_form_rho", "integrate_master_grid"],
    "states": ["DensityMatrix2Q", "initial_density", "random_density_matrix"],
    "measures": ["concurrence", "negativity", "eof", "log_negativity"],
    "linalg": ["nonneg_spectrum_of_product", "hermitian_eigenvalues",
               "partial_transpose_first", "trace_distance"],
    "analytics": ["numeric_envelope", "check_ordering_inequalities"],
    "cli": ["run_figure", "run_simulate", "run_sweep", "load_scenario"],
    "verify": ["run_checks"],
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SEED = 5


def _expected_layer_units() -> dict:
    units = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            units.update({f"{mod}.{fn}.calls": "count", f"{mod}.{fn}.total_s": "s",
                          f"{mod}.{fn}.self_s": "s"})
    units.update({"evolution.rj_factor.calls": "count", "states.validations_per_point": "ratio",
                  "cli.csv_bytes": "bytes", "trace.overhead_s": "s"})
    return units


def _measure(workload: str, trace: int, seed: int = SEED) -> dict:
    args = run._parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                            "--trace", str(trace), "--tiny"])
    return run.measure(args)


@pytest.fixture(scope="module", autouse=True)
def one_setup_probe():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_PROBES", 1)
        yield


@pytest.fixture(scope="module")
def traced():
    return {w: _measure(w, 1) for w in workloads.WORKLOADS}


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_json_lists_every_metric_with_its_unit():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == _expected_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record = _measure(workload, 0)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and record["fail_frac"] == 0
    assert _units(result) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_layer_metric(traced):
    for record in traced.values():
        assert record["result"]["correct"]
        assert _units(record["result"]) == _expected_layer_units()


def test_every_layer_function_is_reached_by_some_workload(traced):
    for mod, fns in LAYERS.items():
        for fn in fns:
            name = f"{mod}.{fn}.calls"
            assert any(r["result"]["metrics"][name]["value"] > 0 for r in traced.values()), name


def test_trace_separates_the_evolution_routes(traced):
    figures = traced["figures"]["result"]["metrics"]
    thermal = traced["thermal"]["result"]["metrics"]
    assert figures["evolution.integrate_master_grid.calls"]["value"] == 0
    assert figures["evolution.propagate.calls"]["value"] > 0
    assert thermal["evolution.propagate.calls"]["value"] == 0
    assert thermal["evolution.rj_factor.calls"]["value"] == 0
    assert thermal["evolution.integrate_master_grid.calls"]["value"] > 0


def test_traced_call_counts_repeat_exactly(traced):
    for workload in ("figures", "scenarios"):
        again = _measure(workload, 1)["result"]["metrics"]
        first = traced[workload]["result"]["metrics"]
        calls = [name for name in first if name.endswith(".calls")]
        assert {n: first[n]["value"] for n in calls} == {n: again[n]["value"] for n in calls}


def test_self_time_never_exceeds_total_time(traced):
    for record in traced.values():
        metrics = record["result"]["metrics"]
        for mod, fns in LAYERS.items():
            for fn in fns:
                total = metrics[f"{mod}.{fn}.total_s"]["value"]
                assert 0.0 <= metrics[f"{mod}.{fn}.self_s"]["value"] <= total + 1e-12


def test_tracing_restores_every_binding():
    propagate = evolution.propagate
    post_init = evolution.DensityMatrix2Q.__post_init__
    tracer = tracing.Tracer()
    mark = tracer.mark()
    with tracing.installed(tracer):
        assert cli.propagate is evolution.propagate is not propagate
        cli.propagate(evolution.initial_density(evolution.BellLike()), evolution.CavityParams(), 0.1)
    assert cli.propagate is evolution.propagate is propagate
    assert evolution.DensityMatrix2Q.__post_init__ is post_init
    counts = tracer.summary(mark)
    assert counts["evolution.propagate.calls"] == 1
    assert counts["evolution.rj_factor.calls"] > 0


def test_wrong_program_output_is_counted_in_fail_frac(monkeypatch):
    true_concurrence = measures.concurrence
    monkeypatch.setattr(measures, "concurrence", lambda rho: true_concurrence(rho) * (1 + 1e-6))
    record = _measure("figures", 0)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] > 0 and record["fail_frac"] > 0


def test_corrupted_output_file_is_counted_in_fail_frac(monkeypatch):
    real_run_job = run.run_job

    def run_and_corrupt(job):
        err = real_run_job(job)
        lines = job.out.read_bytes().splitlines(keepends=True)
        job.out.write_bytes(b"".join(lines[:-1] + lines[1:2]))  # last row replaced by the first
        return err

    monkeypatch.setattr(run, "run_job", run_and_corrupt)
    record = _measure("scenarios", 0)
    assert record["result"]["failed"] == record["result"]["attempted"]
    assert record["fail_frac"] == 1.0


def test_reference_hash_catches_a_change_the_value_checks_allow():
    workdir = run.WORK_ROOT / "test-reference"
    fig1 = [job for job in workloads.build("figures", SEED, workdir, tiny=True) if job.label == "fig1"]
    assert run.run_job(fig1[0]) is None
    data = fig1[0].out.read_bytes()
    shutil.rmtree(workdir)
    reference = workloads.load_reference(SEED)
    assert workloads.evaluate("figures", fig1, {"fig1": data}, reference) == {"fig1": []}
    unix = data.replace(b"\r\n", b"\n")
    problems = workloads.evaluate("figures", fig1, {"fig1": unix}, reference)
    assert problems["fig1"] == ["CSV bytes differ from the recorded reference"]


@pytest.mark.parametrize("tiny", (False, True))
def test_every_seed_has_a_reference_for_every_fingerprinted_job(tiny):
    workdir = run.WORK_ROOT / "test-coverage"
    try:
        for seed in (0, 7, 15, 16, 101, 210, 10**6 + 3):
            reference = workloads.load_reference(seed)
            for workload in workloads.WORKLOADS:
                for job in workloads.build(workload, seed, workdir, tiny):
                    if job.fingerprint:
                        assert f"{workload}/{job.label}" in reference, (seed, job.label)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_seeds_with_the_same_input_seed_run_the_same_jobs():
    workdir = run.WORK_ROOT / "test-input-seed"
    try:
        for workload in workloads.WORKLOADS:
            argvs = []
            for seed in (3, 3 + workloads.REFERENCE_SEEDS, 3 + 7 * workloads.REFERENCE_SEEDS):
                jobs = workloads.build(workload, seed, workdir / str(seed))
                argvs.append([[a.replace(f"/{seed}/", "/") for a in job.argv] + [job.env]
                              for job in jobs])
                files = sorted((workdir / str(seed)).glob("*.json"))
                argvs[-1].append([f.read_text() for f in files])
            assert argvs[0] == argvs[1] == argvs[2], workload
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_missing_reference_is_a_failure():
    workdir = run.WORK_ROOT / "test-missing-reference"
    fig1 = [job for job in workloads.build("figures", SEED, workdir, tiny=True) if job.label == "fig1"]
    assert run.run_job(fig1[0]) is None
    data = fig1[0].out.read_bytes()
    shutil.rmtree(workdir)
    problems = workloads.evaluate("figures", fig1, {"fig1": data}, {})
    assert problems["fig1"] == ["no recorded reference for figures/fig1"]


def test_thermal_values_are_compared_within_tolerance():
    ref = workloads.load_reference(0)["thermal/fock4"]
    rows = [[f"{v:.12g}" for v in row] for row in ref]
    header = "t," + ",".join(workloads.MEASURES)

    def csv_bytes(values):
        body = []
        for i in range(len(values) * workloads.THERMAL_SAMPLE_EVERY):
            row = values[i // workloads.THERMAL_SAMPLE_EVERY]
            body.append(",".join(row))
        return ("\r\n".join([header] + body) + "\r\n").encode()

    near = [[r[0]] + [f"{float(v) + 0.5 * workloads.THERMAL_TOL:.12g}" for v in r[1:]] for r in rows]
    far = [[r[0]] + [f"{float(v) + 2 * workloads.THERMAL_TOL:.12g}" for v in r[1:]] for r in rows]
    assert workloads._fingerprint_problems("values", csv_bytes(near), ref) == []
    assert workloads._fingerprint_problems("values", csv_bytes(far), ref) != []


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "figures", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
