"""Command line: simulate scenarios, reproduce figure data, sweep parameters, verify.

All numeric CSV output carries 12 significant digits and is byte-for-byte
reproducible for a given scenario. Exit codes: 0 success, 1 usage or
configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from . import analytics, measures, verify
# propagate is unused here but stays reachable as cli.propagate, which the
# benchmark's tracing test rebinds
from .evolution import CavityParams, propagate, trajectory, validate_run  # noqa: F401
from .states import (
    BellLike, BellPhi, BellPsi, InitialState, WernerLike, WernerPhi, WernerPsi,
    _read, initial_label, parse_initial,
)

__all__ = ["Scenario", "parse_scenario", "load_scenario", "run_simulate",
           "run_figure", "run_sweep", "run_verify", "main"]

_MEASURE_OUTPUTS = ("concurrence", "negativity", "eof", "log_negativity")
_OUTPUTS = _MEASURE_OUTPUTS + ("matrix_elements",)
_FIGURES = ("fig1", "fig2", "fig3", "fig4")
_SWEEPABLE = ("gamma", "chi12", "p")
_DEFAULT_PANEL_WEIGHTS = (0.4, 0.6, 0.8, 1.0)

_BASIS = ("00", "01", "10", "11")
_MATRIX_COLUMNS = tuple(
    f"{part}_{a}_{b}" for a in _BASIS for b in _BASIS for part in ("re", "im")
)


@dataclass(frozen=True)
class Scenario:
    """One simulation request: initial state, cavity parameters, grid, engine, outputs.

    Everything except ``outputs`` is checked by ``evolution.validate_run``,
    the same rules ``trajectory`` applies.
    """

    initial: InitialState
    params: CavityParams = CavityParams()
    t_max: float = 1.0
    n_points: int = 401
    engine: str = "analytic"
    outputs: tuple = _MEASURE_OUTPUTS
    fock_dim: int = 2
    step: Optional[float] = None

    def __post_init__(self):
        validate_run(self.initial, self.params, self.t_max, self.n_points,
                     self.engine, self.fock_dim, self.step)
        outs = tuple(self.outputs)
        if not outs:
            raise ValueError("outputs must name at least one column set")
        for o in outs:
            if o not in _OUTPUTS:
                raise ValueError(f"unknown output {o!r}, expected names from {_OUTPUTS}")
        object.__setattr__(self, "outputs", outs)


def _parse_params(obj: dict) -> CavityParams:
    if not isinstance(obj, dict):
        raise ValueError(f"params must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {f.name for f in fields(CavityParams)}
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    # a bare "gamma" would be ambiguous; both rates are always explicit
    return CavityParams(**{k: _read(v, k) for k, v in obj.items()})


def parse_scenario(doc: dict) -> Scenario:
    """Build a validated Scenario from its JSON document form."""
    if not isinstance(doc, dict):
        raise ValueError(f"scenario must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(Scenario)}
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    if "initial" not in doc:
        raise ValueError("scenario needs an 'initial' object")
    kwargs = {"initial": parse_initial(doc["initial"])}
    if "params" in doc:
        kwargs["params"] = _parse_params(doc["params"])
    # t_max, n_points and fock_dim are read as the type of their default
    for f in fields(Scenario):
        if f.name in doc and type(f.default) in (int, float):
            kwargs[f.name] = _read(doc[f.name], f.name, type(f.default))
    if doc.get("step") is not None:
        kwargs["step"] = _read(doc["step"], "step")
    if "engine" in doc:
        kwargs["engine"] = str(doc["engine"])
    if "outputs" in doc:
        outs = doc["outputs"]
        if not isinstance(outs, (list, tuple)):
            raise ValueError("outputs must be a list of column-set names")
        kwargs["outputs"] = tuple(str(o) for o in outs)
    return Scenario(**kwargs)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)


# ---------------------------------------------------------------------------
# CSV emission. 12 significant digits, RFC-4180 dialect.


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _output_header(wanted: Sequence[str]) -> list:
    head = []
    for name in wanted:
        if name == "matrix_elements":
            head.extend(_MATRIX_COLUMNS)
        else:
            head.append(name)
    return head


def _rows(scenario: Scenario, lead: Sequence[str] = ()) -> Iterator[list]:
    """Evolve and measure the scenario now, then format its CSV rows lazily, each prefixed by ``lead``."""
    traj = trajectory(scenario.initial, scenario.params, scenario.t_max,
                      scenario.n_points, scenario.engine, scenario.fock_dim,
                      scenario.step)
    cols = [traj.times]
    c = n = None
    for name in scenario.outputs:
        if name in ("concurrence", "eof"):
            c = measures.concurrence(traj.states) if c is None else c
            cols.append(c if name == "concurrence" else [measures.eof(x) for x in c])
        elif name in ("negativity", "log_negativity"):
            n = measures.negativity(traj.states) if n is None else n
            cols.append(n if name == "negativity" else [measures.log_negativity(x) for x in n])
        else:
            # (t, i, j, re/im) flattened in the order of _MATRIX_COLUMNS
            m = traj.states
            cols.extend(np.stack([m.real, m.imag], axis=-1).reshape(len(m), -1).T)
    return ([*lead, *map(_fmt, row)] for row in zip(*cols))


def run_simulate(scenario: Scenario, stream: TextIO) -> None:
    """Evolve the scenario and stream one CSV row per grid time."""
    rows = _rows(scenario)
    w = csv.writer(stream)
    w.writerow(["t"] + _output_header(scenario.outputs))
    w.writerows(rows)


# ---------------------------------------------------------------------------
# Figure reproduction.

_FIG_T_MAX = 1.0
_FIG_POINTS = 401
_FIG_GRID = np.linspace(0.0, _FIG_T_MAX, _FIG_POINTS)
_FIG_GAMMA = 4.0
_FIG_CHI12 = 20.0


def _measured_curve(initial, params: CavityParams, measure_fn) -> np.ndarray:
    return measure_fn(trajectory(initial, params, _FIG_T_MAX, _FIG_POINTS).states)


def _envelope(fig_id: str, p: Optional[float], curve_c: np.ndarray) -> np.ndarray:
    if fig_id == "fig1":
        return analytics.concurrence_envelope(_FIG_GAMMA, _FIG_GRID)
    if fig_id == "fig2":
        return analytics.negativity_envelope(_FIG_GAMMA, _FIG_GRID)
    if fig_id == "fig3":
        return analytics.werner_concurrence_envelope(_FIG_GAMMA, p, _FIG_GRID)
    peaks = analytics.numeric_envelope(list(zip(_FIG_GRID, curve_c)))
    return np.interp(_FIG_GRID, [q.t for q in peaks], [q.value for q in peaks])


def run_figure(fig_id: str, p_values: Optional[Sequence[float]] = None,
               stream: TextIO = sys.stdout) -> None:
    """Reproduce the data behind one of the four bundled figures as CSV.

    fig1/fig2: concurrence/negativity of the Bell and Bell-like families,
    columns (t, curve_a..curve_e). Curves a, b are the damped Bell pairs,
    c the coupled Bell-like state, d the uncoupled one, e the envelope.
    fig3/fig4: the Werner counterparts, one block per mixing weight p with
    a leading p column. The negativity envelope of the Werner family has
    no closed form here, so fig4's curve_e interpolates the numeric
    envelope of curve_c.
    """
    if fig_id not in _FIGURES:
        raise ValueError(f"unknown figure {fig_id!r}, expected one of {_FIGURES}")
    werner = fig_id in ("fig3", "fig4")
    if p_values and not werner:
        raise ValueError(f"{fig_id} does not take mixing weights")
    # the tags validate every weight before the first byte is written
    if werner:
        panels = [(p, WernerPsi(p, +1), WernerPhi(p, +1), WernerLike(p))
                  for p in (p_values or _DEFAULT_PANEL_WEIGHTS)]
    else:
        panels = [(None, BellPsi(+1), BellPhi(+1), BellLike())]
    measure_fn = measures.concurrence if fig_id in ("fig1", "fig3") else measures.negativity
    coupled = CavityParams(gamma1=_FIG_GAMMA, gamma2=_FIG_GAMMA, chi11=0.0, chi22=0.0,
                           chi12=_FIG_CHI12)
    uncoupled = dataclasses.replace(coupled, chi12=0.0)
    w = csv.writer(stream)
    w.writerow((["p"] if werner else [])
               + ["t", "curve_a", "curve_b", "curve_c", "curve_d", "curve_e"])
    for p, psi, phi, like in panels:
        curve_a = _measured_curve(psi, uncoupled, measure_fn)
        curve_b = _measured_curve(phi, uncoupled, measure_fn)
        curve_c = _measured_curve(like, coupled, measure_fn)
        curve_d = _measured_curve(like, uncoupled, measure_fn)
        curve_e = _envelope(fig_id, p, curve_c)
        lead = [] if p is None else [_fmt(p)]
        for row in zip(_FIG_GRID, curve_a, curve_b, curve_c, curve_d, curve_e):
            w.writerow(lead + [_fmt(x) for x in row])


# ---------------------------------------------------------------------------
# Parameter sweeps.


def _override(base: Scenario, vary: str, value: float) -> Scenario:
    if vary == "gamma":
        params = dataclasses.replace(base.params, gamma1=value, gamma2=value)
        return dataclasses.replace(base, params=params)
    if vary == "chi12":
        params = dataclasses.replace(base.params, chi12=value)
        return dataclasses.replace(base, params=params)
    if vary == "p":
        if not hasattr(base.initial, "p"):
            raise ValueError(
                f"cannot sweep p: initial family {initial_label(base.initial)} has no mixing weight")
        return dataclasses.replace(base, initial=dataclasses.replace(base.initial, p=value))
    raise ValueError(f"unknown sweep parameter {vary!r}, expected one of {_SWEEPABLE}")


def run_sweep(base: Scenario, vary: str, values: Sequence[float], stream: TextIO) -> None:
    """Rerun the base scenario once per value, emitting long-format CSV.

    An empty value list yields just the header row. All overrides are
    validated before the first byte is written.
    """
    if vary not in _SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {vary!r}, expected one of {_SWEEPABLE}")
    scenarios = [(float(v), _override(base, vary, float(v))) for v in values]
    w = csv.writer(stream)
    w.writerow([vary, "t"] + _output_header(base.outputs))
    for value, scenario in scenarios:
        w.writerows(_rows(scenario, [_fmt(value)]))


# ---------------------------------------------------------------------------
# Verification.


def run_verify(level: str, as_json: bool, stream: TextIO) -> int:
    """Run the self-check battery; return the process exit code."""
    results = verify.run_checks(level)
    ok = all(r.passed for r in results)
    if as_json:
        doc = {
            "level": level,
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
            "ok": ok,
        }
        json.dump(doc, stream, indent=2)
        stream.write("\n")
    else:
        for r in results:
            stream.write(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}\n")
        stream.write(f"{'ok' if ok else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks passed\n")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# Argument handling.


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this tool reserves 2 for
    # verification failures, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kerrdeco",
                     description="Two damped Kerr-coupled cavity qubits: simulate, reproduce figures, sweep, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evolve a JSON scenario and emit CSV")
    sim.add_argument("--scenario", required=True, metavar="FILE", help="scenario JSON file")
    sim.add_argument("--out", metavar="FILE", help="output CSV path (default: stdout)")

    fig = sub.add_parser("figure", help="emit the data behind one bundled figure")
    fig.add_argument("figure_id", nargs="?", choices=_FIGURES, help="figure name")
    fig.add_argument("--figure", dest="figure_flag", choices=_FIGURES, help="figure name (flag form)")
    fig.add_argument("--p", metavar="LIST", help="comma-separated mixing weights for fig3/fig4")
    fig.add_argument("--out", metavar="FILE", help="output CSV path (default: stdout)")

    swp = sub.add_parser("sweep", help="rerun a scenario over a list of parameter values")
    swp.add_argument("--scenario", required=True, metavar="FILE", help="base scenario JSON file")
    swp.add_argument("--sweep", required=True, choices=_SWEEPABLE, metavar="PARAM",
                     help="which parameter to vary: gamma, chi12 or p")
    swp.add_argument("--values", required=True, metavar="LIST", help="comma-separated values")
    swp.add_argument("--out", metavar="FILE", help="output CSV path (default: stdout)")

    ver = sub.add_parser("verify", help="run the self-check battery")
    ver.add_argument("level", nargs="?", choices=("fast", "full"), help="check depth")
    ver.add_argument("--verify", dest="level_flag", choices=("fast", "full"),
                     help="check depth (flag form)")
    ver.add_argument("--json", action="store_true", help="emit a JSON verdict")
    ver.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    return parser


def _parse_values(text: str) -> list:
    items = [s.strip() for s in text.split(",") if s.strip()]
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise ValueError(f"cannot parse values list {text!r}: {exc}") from exc


def _open_out(path: Optional[str]):
    """A file opened with CSV-safe newlines, or stdout when no path is given."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _dispatch(args) -> int:
    if args.command == "simulate":
        scenario = load_scenario(args.scenario)
        with _open_out(args.out) as stream:
            run_simulate(scenario, stream)
        return 0
    if args.command == "figure":
        fig_id = args.figure_flag or args.figure_id
        if fig_id is None:
            raise ValueError("figure needs an id: positional or --figure")
        p_values = _parse_values(args.p) if args.p else None
        with _open_out(args.out) as stream:
            run_figure(fig_id, p_values, stream)
        return 0
    if args.command == "sweep":
        scenario = load_scenario(args.scenario)
        values = _parse_values(args.values)
        with _open_out(args.out) as stream:
            run_sweep(scenario, args.sweep, values, stream)
        return 0
    if args.command == "verify":
        level = args.level_flag or args.level or "fast"
        with _open_out(args.out) as stream:
            return run_verify(level, args.json, stream)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"kerrdeco: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
