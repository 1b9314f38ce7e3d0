"""Command line: simulate scenarios, reproduce figure data, sweep parameters, verify.

Each CSV command computes its whole float table before it writes: so a run
that fails leaves ``--out`` as it was. No table is longer than
``evolution._MAX_POINTS`` rows, the grid cap of one run: a sweep's
``--values`` or a figure's ``--p`` that asks for more is rejected before the
first run. The header line comes first, then blocks of at most 256 rows, one
write each, every value ``%.12g`` with CRLF line ends: the bytes
``np.savetxt`` would write, byte-for-byte reproducible.
Exit codes: 0 success, 1 usage or configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import types
from dataclasses import dataclass, fields
from typing import Optional, Sequence, TextIO

import numpy as np

from . import analytics, measures, verify
from .evolution import _MAX_POINTS, CavityParams, propagate, trajectory, validate_run
from .states import (
    BellLike, BellPhi, BellPsi, InitialState, WernerLike, WernerPhi, WernerPsi,
    _read, initial_densities, initial_label, parse_initial,
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
    the same rules ``trajectory`` applies, so every request admitted runs.
    """

    initial: InitialState
    params: CavityParams = CavityParams()
    t_max: float = 1.0
    n_points: int = 401
    engine: str = "analytic"
    outputs: tuple = _MEASURE_OUTPUTS
    fock_dim: int = 2

    def __post_init__(self):
        validate_run(self.initial, self.params, self.t_max, self.n_points,
                     self.engine, self.fock_dim)
        outs = tuple(self.outputs)
        if not outs:
            raise ValueError("outputs must name at least one column set")
        for i, o in enumerate(outs):
            if o not in _OUTPUTS:
                raise ValueError(f"unknown output {o!r}, expected names from {_OUTPUTS}")
            if o in outs[:i]:
                raise ValueError(f"output {o!r} is listed twice")
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
# CSV emission: one float table per command, written after it is whole.

# Rows per write: blocks bound the writer at about 0.5 MiB, where one string for
# a (20000, 37) table held 40 MiB of Python floats and text.
_BLOCK_ROWS = 256


def _write_table(stream: TextIO, header: Sequence[str], table: np.ndarray) -> None:
    """``np.savetxt``'s bytes: its ``fmt % tuple(row)``, on Python floats equal to its ``np.float64`` values."""
    stream.write(",".join(header) + "\r\n")
    row = ",".join(["%.12g"] * table.shape[1]) + "\r\n"
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        stream.write((row * len(block)) % tuple(block.ravel().tolist()))


def _check_rows(flag: str, count: int, points: int) -> None:
    """The one row rule of a CSV command whose ``count`` entries of ``flag`` each make ``points`` rows."""
    rows = count * points
    if rows > _MAX_POINTS:
        raise ValueError(f"{flag} gives {count} entries of {points} rows each, {rows} rows, "
                         f"above the cap of {_MAX_POINTS}")


def _output_header(wanted: Sequence[str]) -> list:
    return [col for name in wanted for col in (_MATRIX_COLUMNS if name == "matrix_elements" else (name,))]


def _table(scenario: Scenario) -> np.ndarray:
    """Evolve and measure the scenario: one row per grid time, the time column first."""
    traj = trajectory(scenario.initial, scenario.params, scenario.t_max,
                      scenario.n_points, scenario.engine, scenario.fock_dim)
    cols = [traj.times]
    c = n = None
    for name in scenario.outputs:
        if name in ("concurrence", "eof"):
            c = measures.concurrence(traj.states) if c is None else c
            cols.append(c if name == "concurrence" else measures.eof(c))
        elif name in ("negativity", "log_negativity"):
            n = measures.negativity(traj.states) if n is None else n
            cols.append(n if name == "negativity" else measures.log_negativity(n))
        else:
            # (i, j, re/im) per row, the order of _MATRIX_COLUMNS
            cols.append(traj.states.matrix.view(float).reshape(len(traj.times), -1))
    return np.column_stack(cols)


def run_simulate(scenario: Scenario, stream: TextIO) -> None:
    """Evolve the scenario and write one CSV row per grid time."""
    _write_table(stream, ["t"] + _output_header(scenario.outputs), _table(scenario))


# ---------------------------------------------------------------------------
# Figure reproduction.

_FIG_POINTS = 401
_FIG_GRID = np.linspace(0.0, 1.0, _FIG_POINTS)
_FIG_GAMMA = 4.0
_FIG_CHI12 = 20.0


def _envelope(fig_id: str, p: Optional[float], curve_c: np.ndarray) -> np.ndarray:
    if fig_id == "fig1":
        return analytics.concurrence_envelope(_FIG_GAMMA, _FIG_GRID)
    if fig_id == "fig2":
        return analytics.negativity_envelope(_FIG_GAMMA, _FIG_GRID)
    if fig_id == "fig3":
        return analytics.werner_concurrence_envelope(_FIG_GAMMA, p, _FIG_GRID)
    peaks = analytics.numeric_envelope(np.column_stack((_FIG_GRID, curve_c)))
    return np.interp(_FIG_GRID, *np.transpose(peaks))


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

    The curves that share parameters share one ``propagate`` call and one
    measure call: the coupled curve_c of every panel, then each panel's
    uncoupled curves a, b and d. ``p_values=None`` draws the default panels
    0.4, 0.6, 0.8 and 1; an empty list, or more weights than ``_check_rows``
    admits (249), raises ValueError.
    """
    if fig_id not in _FIGURES:
        raise ValueError(f"unknown figure {fig_id!r}, expected one of {_FIGURES}")
    werner = fig_id in ("fig3", "fig4")
    if p_values is not None and not werner:
        raise ValueError(f"{fig_id} does not take mixing weights (--p)")
    if p_values is not None and len(p_values) == 0:
        raise ValueError("--p names no mixing weight; leave it out for the default panels")
    if p_values is not None:
        _check_rows("--p", len(p_values), _FIG_POINTS)
    # the tags validate every weight before the first byte is written
    if werner:
        panels = [(p, WernerPsi(p, +1), WernerPhi(p, +1), WernerLike(p))
                  for p in (_DEFAULT_PANEL_WEIGHTS if p_values is None else p_values)]
    else:
        panels = [(None, BellPsi(+1), BellPhi(+1), BellLike())]
    measure_fn = measures.concurrence if fig_id in ("fig1", "fig3") else measures.negativity
    coupled = CavityParams(gamma1=_FIG_GAMMA, gamma2=_FIG_GAMMA, chi11=0.0, chi22=0.0,
                           chi12=_FIG_CHI12)
    uncoupled = dataclasses.replace(coupled, chi12=0.0)
    coupled_curves = measure_fn(propagate(initial_densities([like for *_, like in panels]),
                                          coupled, _FIG_GRID))
    blocks = []
    for (p, psi, phi, like), curve_c in zip(panels, coupled_curves):
        stack = initial_densities([psi, phi, like])
        curve_a, curve_b, curve_d = measure_fn(propagate(stack, uncoupled, _FIG_GRID))
        curve_e = _envelope(fig_id, p, curve_c)
        lead = [] if p is None else [np.full(_FIG_POINTS, p)]
        blocks.append(np.column_stack(lead + [_FIG_GRID, curve_a, curve_b, curve_c, curve_d, curve_e]))
    header = (["p"] if werner else []) + ["t", "curve_a", "curve_b", "curve_c", "curve_d", "curve_e"]
    _write_table(stream, header, np.concatenate(blocks))


# ---------------------------------------------------------------------------
# Parameter sweeps.


def _override(base: Scenario, vary: str, value: float) -> Scenario:
    if vary == "p":
        if not hasattr(base.initial, "p"):
            raise ValueError(f"cannot sweep p: initial family {initial_label(base.initial)} has no mixing weight")
        return dataclasses.replace(base, initial=dataclasses.replace(base.initial, p=value))
    # gamma or chi12, the other names run_sweep lets through
    rates = {"gamma1": value, "gamma2": value} if vary == "gamma" else {"chi12": value}
    return dataclasses.replace(base, params=dataclasses.replace(base.params, **rates))


def run_sweep(base: Scenario, vary: str, values: Sequence[float], stream: TextIO) -> None:
    """Rerun the base scenario once per value, writing long-format CSV.

    An empty value list yields just the header row. Every run is computed
    before the first byte is written, and ``_check_rows`` bounds the table
    before the first run.
    """
    if vary not in _SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {vary!r}, expected one of {_SWEEPABLE}")
    _check_rows("--values", len(values), base.n_points)
    scenarios = []
    for i, value in enumerate(map(float, values), 1):
        try:
            scenarios.append((value, _override(base, vary, value)))
        except ValueError as exc:
            raise ValueError(f"sweep value {i}, {vary} = {value!r}: {exc}") from None
    header = [vary, "t"] + _output_header(base.outputs)
    blocks = [np.column_stack([np.full(s.n_points, value), _table(s)]) for value, s in scenarios]
    _write_table(stream, header, np.reshape(blocks, (-1, len(header))))


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
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse keeps no state between ``parse_args`` calls."""
    parser = _Parser(prog="kerrdeco",
                     description="Two damped Kerr-coupled cavity qubits: simulate, reproduce figures, sweep, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evolve a JSON scenario and emit CSV")
    sim.add_argument("--scenario", required=True, metavar="FILE", help="scenario JSON file")
    sim.add_argument("--out", metavar="FILE", help="output CSV path (default: stdout)")

    fig = sub.add_parser("figure", help="emit the data behind one bundled figure")
    fig.add_argument("figure_id", choices=_FIGURES, help="figure name")
    fig.add_argument("--p", metavar="LIST", help="comma-separated mixing weights for fig3/fig4")
    fig.add_argument("--out", metavar="FILE", help="output CSV path (default: stdout)")

    swp = sub.add_parser("sweep", help="rerun a scenario over a list of parameter values")
    swp.add_argument("--scenario", required=True, metavar="FILE", help="base scenario JSON file")
    swp.add_argument("--sweep", required=True, choices=_SWEEPABLE, metavar="PARAM",
                     help="which parameter to vary: gamma, chi12 or p")
    swp.add_argument("--values", required=True, metavar="LIST", help="comma-separated values")
    swp.add_argument("--out", metavar="FILE", help="output CSV path (default: stdout)")

    ver = sub.add_parser("verify", help="run the self-check battery")
    ver.add_argument("level", nargs="?", default="fast", choices=("fast", "full"), help="check depth (default: fast)")
    ver.add_argument("--json", action="store_true", help="emit a JSON verdict")
    ver.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    return parser


def _parse_values(text: str) -> list:
    items = [s.strip() for s in text.split(",") if s.strip()]
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise ValueError(f"cannot parse values list {text!r}: {exc}") from exc


@contextlib.contextmanager
def _open_out(path: Optional[str]):
    """Stdout, or a file with CSV-safe newlines that is opened at the first write.

    Each command computes its whole output before it writes, so a failed
    run leaves an existing file as it was.
    """
    if path is None:
        yield sys.stdout
        return
    with contextlib.ExitStack() as stack:
        opened = []

        def write(text: str) -> int:
            if not opened:
                opened.append(stack.enter_context(open(path, "w", encoding="utf-8", newline="")))
            return opened[0].write(text)
        yield types.SimpleNamespace(write=write)


def _dispatch(args) -> int:
    if args.command == "simulate":
        scenario = load_scenario(args.scenario)
        with _open_out(args.out) as stream:
            run_simulate(scenario, stream)
        return 0
    if args.command == "figure":
        p_values = None if args.p is None else _parse_values(args.p)
        with _open_out(args.out) as stream:
            run_figure(args.figure_id, p_values, stream)
        return 0
    if args.command == "sweep":
        scenario = load_scenario(args.scenario)
        values = _parse_values(args.values)
        with _open_out(args.out) as stream:
            run_sweep(scenario, args.sweep, values, stream)
        return 0
    if args.command == "verify":
        with _open_out(args.out) as stream:
            return run_verify(args.level, args.json, stream)
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
