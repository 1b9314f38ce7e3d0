"""Seeded workloads of the kerrdeco benchmark: inputs, jobs and output checks.

A workload is a list of jobs. A job is one ``kerrdeco`` command line, run
in-process through ``cli.main`` with ``--out`` pointing into a work
directory, plus the checks its output must pass. Inputs come only from the
seed: a seed always gives the same command lines and scenario files.

Inputs are drawn from the input seed, ``seed % REFERENCE_SEEDS``. Every
input seed has its outputs recorded in reference.json, so whatever seed the
benchmark is given, every output with a fingerprint is compared with a
recorded one.

``tiny`` builds the same kinds of job at smoke-test size. The benchmark runs
one tiny pass as a warm-up, and the benchmark's own tests use it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from kerrdeco import analytics, states

WORKLOADS = ("figures", "thermal", "verify_full", "scenarios")

# the bundled figures damp both modes at gamma = 4 on a 401-point grid over [0, 1]
FIG_GAMMA = 4.0
FIG_POINTS = 401
DEFAULT_POINTS = 401
DEFAULT_T_MAX = 1.0

# measured curves against the analytics closed forms, as in `kerrdeco verify`
CURVE_TOL = 1e-9
# engines against each other: the oracle's documented accuracy (trace distance)
ENGINE_TOL = 1e-8
# thermal outputs against recorded values: ten times the oracle's accuracy, so
# an exact exponentiation of the same generator stays inside it
THERMAL_TOL = 10 * ENGINE_TOL
# recorded thermal values keep every 40th row of each output
THERMAL_SAMPLE_EVERY = 40
# printed CSV carries 12 significant digits
PRINT_TOL = 1e-11

VERIFY_CHECKS = {"full": 42, "fast": 31}

MEASURES = ("concurrence", "negativity", "eof", "log_negativity")
ALL_OUTPUTS = MEASURES + ("matrix_elements",)
_BASIS = ("00", "01", "10", "11")
MATRIX_COLUMNS = tuple(f"{part}_{a}_{b}" for a in _BASIS for b in _BASIS for part in ("re", "im"))

QUBIT_FAMILIES = ("bell_psi", "bell_phi", "bell_like", "plus_plus",
                  "werner_psi", "werner_phi", "werner_like")
BELL_FAMILIES = ("bell_psi", "bell_phi", "bell_like")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# input seeds whose outputs reference.json records
REFERENCE_SEEDS = 16


@dataclass
class Job:
    """One command line and the checks on its output.

    ``check`` receives every output of the pass, so that engines can be
    compared with each other, and returns a list of problems. ``fingerprint``
    names what is compared with the recorded reference: "sha256" of the CSV
    bytes, or "values" sampled from the CSV rows.
    """

    label: str
    argv: list
    out: Path
    points: int
    check: Callable[["Outputs"], list]
    fingerprint: Optional[str] = None
    env: dict = field(default_factory=dict)


class Outputs:
    """Output bytes of one pass by job label, with CSV parsing cached."""

    def __init__(self, raw: dict):
        self.raw = raw
        self._tables: dict = {}

    def table(self, label: str) -> tuple:
        """(header, float array of rows) of a CSV output."""
        if label not in self._tables:
            rows = list(csv.reader(io.StringIO(self.raw[label].decode("utf-8"))))
            self._tables[label] = (rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1))
        return self._tables[label]


# ---------------------------------------------------------------------------
# Checks shared by the workloads.


def _grid_problems(t: np.ndarray, t_max: float, n: int) -> list:
    if len(t) != n:
        return [f"{len(t)} rows, expected {n}"]
    if not np.allclose(t, np.linspace(0.0, t_max, n), rtol=0.0, atol=PRINT_TOL):
        return ["time column is not the expected grid"]
    return []


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 1e-300, 1.0)
    y = np.clip(1.0 - x, 1e-300, 1.0)
    return np.where((x >= 1.0) | (y >= 1.0), 0.0, -x * np.log2(x) - y * np.log2(y))


def _measure_problems(head: list, data: np.ndarray) -> list:
    """Range, derived-measure and ordering checks on the four measure columns."""
    col = {name: data[:, head.index(name)] for name in MEASURES}
    problems = []
    for name, v in col.items():
        if not np.all(np.isfinite(v)) or v.min() < -PRINT_TOL or v.max() > 1.0 + PRINT_TOL:
            problems.append(f"{name} outside [0, 1]")
    c = np.clip(col["concurrence"], 0.0, 1.0)
    n = np.clip(col["negativity"], 0.0, 1.0)
    eof = _binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)
    if np.max(np.abs(eof - col["eof"])) > CURVE_TOL:
        problems.append("eof does not follow from the concurrence")
    if np.max(np.abs(np.log2(1.0 + n) - col["log_negativity"])) > CURVE_TOL:
        problems.append("log_negativity does not follow from the negativity")
    if np.any(n > c + CURVE_TOL):
        problems.append("negativity exceeds concurrence")
    return problems


def _matrices(head: list, data: np.ndarray) -> np.ndarray:
    k = head.index(MATRIX_COLUMNS[0])
    parts = data[:, k:k + len(MATRIX_COLUMNS)].reshape(len(data), 4, 4, 2)
    return parts[..., 0] + 1j * parts[..., 1]


def _state_problems(rho: np.ndarray) -> list:
    problems = []
    if np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))) > PRINT_TOL:
        problems.append("matrices are not hermitian")
    if np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)) > 1e-10:
        problems.append("matrices do not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        problems.append("matrices are not positive semidefinite")
    return problems


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the trace norm of a - b, row by row, for stacks of 4x4 matrices."""
    diff = a - b
    diff = (diff + diff.conj().transpose(0, 2, 1)) / 2.0
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)


def fingerprint(kind: str, data: bytes):
    """What a job's output is compared with in the reference file."""
    if kind == "sha256":
        return hashlib.sha256(data).hexdigest()
    if kind == "values":
        rows = Outputs({"x": data}).table("x")[1]
        return rows[::THERMAL_SAMPLE_EVERY].tolist()
    raise ValueError(f"unknown fingerprint kind {kind!r}")


def _fingerprint_problems(kind: str, data: bytes, want) -> list:
    got = fingerprint(kind, data)
    if kind == "sha256":
        return [] if got == want else ["CSV bytes differ from the recorded reference"]
    got, want = np.array(got), np.array(want)
    if got.shape != want.shape:
        return [f"sampled rows have shape {got.shape}, recorded {want.shape}"]
    gap = float(np.max(np.abs(got - want)))
    if gap > THERMAL_TOL:
        return [f"values differ from the recorded reference by {gap:.2e} (limit {THERMAL_TOL:g})"]
    return []


def input_seed(seed: int) -> int:
    """The seed the inputs are drawn from: one whose outputs are recorded."""
    return seed % REFERENCE_SEEDS


def load_reference(seed: int, path: Path = REFERENCE_PATH) -> dict:
    """Recorded fingerprints by "workload/label" for the inputs of this seed."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc[str(input_seed(seed))]


def evaluate(workload: str, jobs: list, raw: dict, reference: Optional[dict]) -> dict:
    """Problems found in one pass's outputs, by job label (empty list = passed).

    A job with a fingerprint fails if the reference has no entry for it.
    ``reference=None`` skips the comparison; only recording uses it.
    """
    outs = Outputs(raw)
    problems = {}
    for job in jobs:
        if job.label not in raw:
            problems[job.label] = ["no output"]
            continue
        try:
            found = job.check(outs)
        except (KeyError, ValueError, IndexError) as exc:
            found = [f"output could not be checked: {exc!r}"]
        key = f"{workload}/{job.label}"
        if job.fingerprint and reference is not None:
            if key in reference:
                found += _fingerprint_problems(job.fingerprint, raw[job.label], reference[key])
            else:
                found.append(f"no recorded reference for {key}")
        problems[job.label] = found
    return problems


# ---------------------------------------------------------------------------
# Input drawing.


def _weights(rng: np.random.Generator, count: int) -> list:
    return [round(float(rng.uniform(0.4, 1.0)), 3) for _ in range(count)]


def _sign(rng: np.random.Generator) -> str:
    return "+" if rng.random() < 0.5 else "-"


def _family_doc(family: str, rng: np.random.Generator) -> dict:
    doc = {"family": family}
    if family in ("bell_psi", "bell_phi", "werner_psi", "werner_phi"):
        doc["sign"] = _sign(rng)
    if family.startswith("werner"):
        doc["p"] = round(float(rng.uniform(0.3, 1.0)), 3)
    return doc


def _custom_mixed_doc(rng: np.random.Generator) -> dict:
    rho = states.random_density_matrix(rng).matrix
    return {"family": "custom_mixed",
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}


def _write_scenario(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# figures: `kerrdeco figure fig1..fig4`.


def _figure_job(fig: str, weights: list, workdir: Path, label: str) -> Job:
    out = workdir / f"{label}.csv"
    argv = ["figure", fig, "--out", str(out)]
    if weights:
        argv += ["--p", ",".join(repr(p) for p in weights)]
    blocks = weights or [None]
    want_c = fig in ("fig1", "fig3")

    def reference_curves(p, t):
        if p is None:
            a = analytics.bell_psi_curves(FIG_GAMMA, t)
            b = analytics.bell_phi_curves(FIG_GAMMA, t)
        else:
            a = analytics.werner_psi_curves(FIG_GAMMA, p, t)
            b = analytics.werner_phi_curves(FIG_GAMMA, p, t)
        k = 0 if want_c else 1
        return a[k], b[k]

    def check(outs: Outputs) -> list:
        head, data = outs.table(label)
        curves = ["curve_a", "curve_b", "curve_c", "curve_d", "curve_e"]
        want_head = (["p", "t"] if weights else ["t"]) + curves
        if head != want_head:
            return [f"header {head}"]
        if len(data) != len(blocks) * FIG_POINTS:
            return [f"{len(data)} rows, expected {len(blocks) * FIG_POINTS}"]
        problems = []
        if not np.all(np.isfinite(data)):
            problems.append("non-finite values")
        for i, p in enumerate(blocks):
            block = data[i * FIG_POINTS:(i + 1) * FIG_POINTS]
            if p is not None and np.any(block[:, 0] != p):
                problems.append(f"block {i} is not labelled p = {p}")
            t = block[:, head.index("t")]
            problems += _grid_problems(t, 1.0, FIG_POINTS)
            ref_a, ref_b = reference_curves(p, t)
            gap = max(np.max(np.abs(block[:, head.index("curve_a")] - ref_a)),
                      np.max(np.abs(block[:, head.index("curve_b")] - ref_b)))
            if gap > CURVE_TOL:
                problems.append(f"curve_a/curve_b differ from the closed forms by {gap:.2e}"
                                f" at p = {p} (limit {CURVE_TOL:g})")
        return problems

    return Job(label, argv, out, 4 * FIG_POINTS * len(blocks), check, "sha256")


def _figures(seed: int, workdir: Path, tiny: bool) -> list:
    rng = np.random.default_rng(seed)
    w3, w4 = _weights(rng, 3), _weights(rng, 3)
    if tiny:
        return [_figure_job("fig1", [], workdir, "fig1"),
                _figure_job("fig4", w4[:1], workdir, "fig4-tiny")]
    return [_figure_job("fig1", [], workdir, "fig1"),
            _figure_job("fig2", [], workdir, "fig2"),
            _figure_job("fig3", w3, workdir, "fig3"),
            _figure_job("fig4", w4, workdir, "fig4")]


# ---------------------------------------------------------------------------
# thermal: `kerrdeco simulate` through the oracle with warm reservoirs.


def _thermal_job(doc: dict, workdir: Path, label: str) -> Job:
    path = _write_scenario(workdir, label, doc)
    out = workdir / f"{label}.csv"
    n = doc.get("n_points", DEFAULT_POINTS)
    t_max = doc.get("t_max", DEFAULT_T_MAX)

    def check(outs: Outputs) -> list:
        head, data = outs.table(label)
        if head != ["t", *MEASURES]:
            return [f"header {head}"]
        problems = _grid_problems(data[:, 0], t_max, n) + _measure_problems(head, data)
        # every Bell family starts maximally entangled
        if problems == [] and np.max(np.abs(data[0, 1:3] - 1.0)) > CURVE_TOL:
            problems.append("concurrence and negativity at t = 0 are not 1")
        return problems

    return Job(label, ["simulate", "--scenario", str(path), "--out", str(out)], out, n, check,
               "values")


def _thermal(seed: int, workdir: Path, tiny: bool) -> list:
    rng = np.random.default_rng(seed)
    docs = {fock_dim: {
        "initial": _family_doc(BELL_FAMILIES[rng.integers(len(BELL_FAMILIES))], rng),
        "params": {"nbar1": round(float(rng.uniform(0.1, 0.5)), 4),
                   "nbar2": round(float(rng.uniform(0.1, 0.5)), 4)},
        "engine": "oracle",
        "fock_dim": fock_dim,
    } for fock_dim in (4, 5)}
    if tiny:
        return [_thermal_job(dict(docs[4], t_max=0.1, n_points=11), workdir, "fock4-tiny")]
    return [_thermal_job(doc, workdir, f"fock{fock_dim}") for fock_dim, doc in docs.items()]


# ---------------------------------------------------------------------------
# verify_full: `kerrdeco verify full` on the input seed's random corpus.


def _verify(seed: int, workdir: Path, tiny: bool) -> list:
    level = "fast" if tiny else "full"
    out = workdir / f"verify-{level}.json"

    def check(outs: Outputs) -> list:
        doc = json.loads(outs.raw[level])
        problems = [f"check {c['name']} failed: {c['detail']}" for c in doc["checks"] if not c["passed"]]
        if len(doc["checks"]) != VERIFY_CHECKS[level]:
            problems.append(f"{len(doc['checks'])} checks ran, expected {VERIFY_CHECKS[level]}")
        if doc["level"] != level or not doc["ok"]:
            problems.append("verdict is not ok")
        return problems

    return [Job(level, ["verify", level, "--json", "--out", str(out)], out,
                VERIFY_CHECKS[level], check, env={"KERRDECO_SEED": str(seed)})]


# ---------------------------------------------------------------------------
# scenarios: `simulate` per engine on seed-drawn families, and one `sweep`.


def _simulate_job(doc: dict, workdir: Path, label: str, agree_with: Optional[str]) -> Job:
    path = _write_scenario(workdir, label, doc)
    out = workdir / f"{label}.csv"
    n = doc.get("n_points", DEFAULT_POINTS)
    t_max = doc.get("t_max", DEFAULT_T_MAX)

    def check(outs: Outputs) -> list:
        head, data = outs.table(label)
        if head != ["t", *MEASURES, *MATRIX_COLUMNS]:
            return [f"header {head}"]
        problems = _grid_problems(data[:, 0], t_max, n) + _measure_problems(head, data)
        rho = _matrices(head, data)
        problems += _state_problems(rho)
        if agree_with is not None:
            gap = float(trace_distances(rho, _matrices(*outs.table(agree_with))).max())
            if gap > ENGINE_TOL:
                problems.append(f"trace distance {gap:.2e} to the {agree_with} output"
                                f" (limit {ENGINE_TOL:g})")
        return problems

    return Job(label, ["simulate", "--scenario", str(path), "--out", str(out)], out, n, check,
               "sha256")


def _sweep_job(doc: dict, values: list, workdir: Path, label: str) -> Job:
    path = _write_scenario(workdir, label, doc)
    out = workdir / f"{label}.csv"
    n = doc.get("n_points", DEFAULT_POINTS)
    t_max = doc.get("t_max", DEFAULT_T_MAX)
    curves = (analytics.werner_psi_curves if doc["initial"]["family"] == "werner_psi"
              else analytics.werner_phi_curves)
    argv = ["sweep", "--scenario", str(path), "--sweep", "p",
            "--values", ",".join(repr(v) for v in values), "--out", str(out)]

    def check(outs: Outputs) -> list:
        head, data = outs.table(label)
        if head != ["p", "t", *MEASURES, *MATRIX_COLUMNS]:
            return [f"header {head}"]
        if len(data) != len(values) * n:
            return [f"{len(data)} rows, expected {len(values) * n}"]
        problems = _measure_problems(head, data) + _state_problems(_matrices(head, data))
        for i, p in enumerate(values):
            block = data[i * n:(i + 1) * n]
            if np.any(block[:, 0] != p):
                problems.append(f"block {i} is not labelled p = {p}")
            problems += _grid_problems(block[:, 1], t_max, n)
            c_ref, n_ref = curves(FIG_GAMMA, p, block[:, 1])
            gap = max(np.max(np.abs(block[:, 2] - c_ref)), np.max(np.abs(block[:, 3] - n_ref)))
            if gap > CURVE_TOL:
                problems.append(f"measures differ from the closed forms by {gap:.2e} at p = {p}")
        return problems

    return Job(label, argv, out, n * len(values), check, "sha256")


def _scenarios(seed: int, workdir: Path, tiny: bool) -> list:
    # Every family runs in every pass and the seed draws their signs, weights
    # and custom states. A seed-drawn subset of families would make the cost
    # of a pass depend on the seed, since CSV formatting is cheaper for zeros.
    rng = np.random.default_rng(seed)
    grid = {"t_max": 0.1, "n_points": 11} if tiny else {}
    suffix = "-tiny" if tiny else ""
    cases = [(family, _family_doc(family, rng), ("analytic", "oracle", "closed_form"))
             for family in QUBIT_FAMILIES]
    pure = states.random_pure_state(rng)
    cases.append(("custom_pure", {"family": "custom_pure", "amplitudes": [
        [float(z.real), float(z.imag)] for z in pure.amplitudes()]}, ("analytic", "oracle")))
    cases.append(("custom_mixed", _custom_mixed_doc(rng), ("analytic", "oracle")))
    werner = _family_doc(("werner_psi", "werner_phi")[rng.integers(2)], rng)
    sweep_values = [round(float(rng.uniform(0.3, 1.0)), 3) for _ in range(3)]

    def scenario(initial, engine):
        extra = {"fock_dim": 2} if engine == "oracle" else {}
        return {"initial": initial, "engine": engine, "outputs": list(ALL_OUTPUTS), **grid, **extra}

    jobs = []
    for family, initial, engines in cases:
        analytic = f"{family}-analytic{suffix}"
        for engine in engines:
            label = f"{family}-{engine}{suffix}"
            jobs.append(_simulate_job(scenario(initial, engine), workdir, label,
                                      None if label == analytic else analytic))
    jobs.append(_sweep_job(scenario(werner, "analytic"), sweep_values, workdir, f"sweep{suffix}"))
    return jobs


_BUILDERS = {"figures": _figures, "thermal": _thermal, "verify_full": _verify, "scenarios": _scenarios}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list:
    """Draw the workload's inputs from the input seed, write its scenario files, return its jobs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](input_seed(seed), workdir, tiny)
