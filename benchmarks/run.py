"""kerrdeco benchmark: seeded workloads run through the CLI entry point, timed and checked.

    python3 benchmarks/run.py --workload figures --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 20 --trace 1

One client runs the workload's jobs one after another (a closed loop) until
``--seconds`` have passed, after a warm-up pass at smoke-test size. Every
output is checked. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate run that alternates untraced and traced
passes. The last line of standard output is one JSON object; the line before
it holds the run's metadata. The exit code is 1 if any output check failed.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_work"

# One BLAS thread: the client is single-threaded and the thread count stays
# below the core count, which keeps runs on a shared machine steady. This has
# to happen before numpy is first imported.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    import numpy as np
    import kerrdeco
    from kerrdeco import cli
    import tracing
    import workloads
except ImportError as exc:
    sys.exit(f"run.py: cannot import kerrdeco from {ROOT / 'src'}: {exc}")
if not Path(kerrdeco.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"run.py: kerrdeco was imported from {kerrdeco.__file__}, not from {ROOT / 'src'}")

SETUP_PROBES = 7
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

def per_layer_units() -> dict:
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in tracing.COUNT_NAMES:
        units[f"{name}.calls"] = "count"
    units["states.validations_per_point"] = "ratio"
    units["cli.csv_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Running jobs.


def run_job(job: workloads.Job) -> str | None:
    """Run one job through the CLI entry point; return None or why it failed."""
    job.out.unlink(missing_ok=True)
    saved = {k: os.environ.get(k) for k in job.env}
    os.environ.update(job.env)
    try:
        rc = cli.main(job.argv)
    except Exception:  # a job that raises is counted as failed, and the run goes on
        return "raised:\n" + traceback.format_exc()
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    if rc != 0:
        return f"exit code {rc}"
    if not job.out.exists():
        return "wrote no output"
    return None


def run_pass(workload: str, jobs: list, reference, tracer=None) -> dict:
    """Run every job once, then check every output; traced if a tracer is given.

    The result keeps the output bytes by job label under "outputs".
    ``reference=None`` checks the outputs without comparing them with
    recorded ones (see workloads.evaluate).
    """
    t0 = time.perf_counter()
    errors = {}
    if tracer is not None:
        mark = tracer.mark()
        with tracing.installed(tracer):
            for job in jobs:
                with tracer.span(f"job:{workload}/{job.label}"):
                    errors[job.label] = run_job(job)
    else:
        for job in jobs:
            errors[job.label] = run_job(job)
    raw = {job.label: job.out.read_bytes() for job in jobs if errors[job.label] is None}
    problems = workloads.evaluate(workload, jobs, raw, reference)
    wall = time.perf_counter() - t0
    for label, err in errors.items():
        if err is not None:
            problems[label] = [err]
    failed = {label: p for label, p in problems.items() if p}
    result = {
        "wall_s": wall,
        "points": sum(job.points for job in jobs),
        "csv_bytes": sum(len(raw[job.label]) for job in jobs
                         if job.label in raw and job.out.suffix == ".csv"),
        "jobs": len(jobs),
        "failed": failed,
        "outputs": raw,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(mark)
    return result


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh processes.


def setup_inputs(workload: str, seed: int, tiny: bool, workdir: Path) -> tuple:
    """Everything a run needs before its first job: inputs, scenario files, references."""
    jobs = workloads.build(workload, seed, workdir, tiny)
    warmup = workloads.build(workload, seed, workdir / "warmup", tiny=True)
    return jobs, warmup, workloads.load_reference(seed)


def time_setup(workload: str, seed: int, tiny: bool) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def setup_probe(args) -> int:
    workdir = WORK_ROOT / f"probe-{os.getpid()}"
    try:
        setup_inputs(args.workload, args.seed, args.tiny, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# Metadata.


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision():
    """HEAD of the checkout's git repository, read from .git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, passes: int, untraced: int, traced: int, points_per_pass: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed,
        "input_seed": workloads.input_seed(args.seed), "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "passes": passes, "untraced_passes": untraced, "traced_passes": traced,
        "warmup_passes": 1, "setup_probes": SETUP_PROBES, "points_per_pass": points_per_pass,
        "load": "closed loop, one client, jobs run one after another",
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {var: os.environ.get(var) for var in _BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "platform": platform.platform(), "git_revision": _git_revision(),
    }


# ---------------------------------------------------------------------------
# One workload.


def measure(args) -> dict:
    """Run one workload; return {"metadata", "result", "fail_frac", "passes", ...}."""
    setup = [time_setup(args.workload, args.seed, args.tiny) for _ in range(SETUP_PROBES)]
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    try:
        jobs, warmup, reference = setup_inputs(args.workload, args.seed, args.tiny, workdir)
        passes = [run_pass(args.workload, warmup, reference)]
        tracer = tracing.Tracer() if args.trace else None
        timed, traced = [], []
        t0 = time.perf_counter()
        # With tracing on, untraced and traced passes alternate, so both see
        # the same machine state and their difference is the tracing overhead.
        while (time.perf_counter() - t0 < args.seconds or not timed
               or (tracer is not None and not traced)):
            trace_this = tracer is not None and len(timed) > len(traced)
            p = run_pass(args.workload, jobs, reference, tracer if trace_this else None)
            del p["outputs"]  # kept for every pass, they would grow the peak memory
            (traced if trace_this else timed).append(p)
            passes.append(p)
        if tracer is not None:
            WORK_ROOT.mkdir(exist_ok=True)
            tracer.save(WORK_ROOT / f"trace-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for i, p in enumerate(passes):
        for label, problems in p["failed"].items():
            print(f"FAILED pass {i} {args.workload}/{label}: " + "; ".join(problems), file=sys.stderr)

    if tracer is None:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        layers = [dict(p["layers"], **{
            "states.validations_per_point": p["layers"]["states.DensityMatrix2Q.calls"] / p["points"],
            "cli.csv_bytes": p["csv_bytes"],
        }) for p in traced]
        units = per_layer_units()
        # median_low keeps call counts whole numbers
        values = {name: statistics.median_low(layer[name] for layer in layers)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in timed))
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return {
        "metadata": metadata(args, len(passes), len(timed), len(traced),
                             sum(job.points for job in jobs)),
        "result": result,
        "fail_frac": failed / attempted,
        "passes": [{"wall_s": p["wall_s"], "points": p["points"], "traced": "layers" in p,
                    "failed": sorted(p["failed"])} for p in passes],
        "setup_s": setup,
    }


def _print_table(workload: str, record: dict) -> None:
    res = record["result"]
    print(f"{workload}: {res['attempted']} jobs, {res['failed']} failed,"
          f" fail_frac {record['fail_frac']:.3g}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)


def _save(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# All workloads, each in its own process.


def run_all(args) -> int:
    records = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"run.py: workload {workload} printed no result (exit code {proc.returncode})",
                  file=sys.stderr)
            return 1
        records[workload] = dict(json.loads(lines[-2]), result=json.loads(lines[-1]))
    result = {
        "correct": all(r["result"]["correct"] for r in records.values()),
        "attempted": sum(r["result"]["attempted"] for r in records.values()),
        "failed": sum(r["result"]["failed"] for r in records.values()),
        "metrics": {f"{w}.{name}": m for w, r in records.items()
                    for name, m in r["result"]["metrics"].items()},
    }
    if args.save:
        _save(args.save, {"workloads": records})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Run and check one kerrdeco benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed passes run, after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes for the benchmark's own tests; not for measurement")
    parser.add_argument("--save", metavar="FILE", help="also write the full record as JSON")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    record = measure(args)
    _print_table(args.workload, record)
    if args.save:
        _save(args.save, record)
    print(json.dumps({key: record[key] for key in ("metadata", "fail_frac")}))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
