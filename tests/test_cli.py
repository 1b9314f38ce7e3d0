import collections
import dataclasses
import importlib.util
import io
import json
import math
import re
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrdeco import cli, measures, states, verify
from kerrdeco.cli import Scenario, main, parse_scenario, run_figure, run_simulate, run_sweep
from kerrdeco.evolution import CavityParams, propagate, trajectory
from kerrdeco.states import _FAMILIES, BellPsi, WernerLike, parse_initial

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import workloads  # noqa: E402  (the benchmark's seeded jobs and output checks)

BELL_DOC = {
    "initial": {"family": "bell_psi", "sign": "+"},
    "params": {"gamma1": 4.0, "gamma2": 4.0, "chi12": 20.0},
    "t_max": 0.5,
    "n_points": 11,
}


README = ROOT / "README.md"


def write_scenario(tmp_path, doc, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def trajectory_args(doc):
    """The arguments ``trajectory`` would get for a scenario document."""
    return dict(initial=parse_initial(doc["initial"]),
                params=CavityParams(**doc.get("params", {})),
                t_max=doc.get("t_max", 1.0), n_points=doc.get("n_points", 401),
                engine=doc.get("engine", "analytic"),
                fock_dim=doc.get("fock_dim", 2))


# the checks each verify level runs, each of which must pass: fast's 31, and full's 42 add five oracle
# comparisons, four envelope checks and three revival comparisons
VERIFY_FAST = [
    *(f"oracle_equivalence/{family}" for family in ("bell_psi_plus", "bell_phi_plus", "bell_like", "plus_plus",
                                                     "werner_psi_minus", "werner_phi_plus", "werner_like")),
    *(f"closed_form/{family}" for family in ("bell_psi_minus", "bell_phi_plus", "bell_like", "plus_plus",
                                              "werner_psi_plus", "werner_phi_minus", "werner_like")),
    *(f"decay_curves/{family}" for family in (
        "bell_psi", "bell_phi", "bell_like_uncoupled", "werner_psi", "werner_phi", "werner_like_lossless")),
    "werner/initial_value",
    "measures/negativity_below_concurrence", "measures/pure_state_coincidence", "measures/local_unitary_invariance",
    "ordering/concurrence_chain", "ordering/negativity_chain", "ordering/measure_relativity",
    "propagator/semigroup", "propagator/vacuum_limit", "propagator/lossless_purity",
    "estimator/cross_coupling",
]
VERIFY_FULL = VERIFY_FAST + [
    *(f"oracle_equivalence/{name}" for name in ("separable", "custom_pure", "custom_mixed", "parameter_sweep")),
    "envelope/concurrence_peaks", "envelope/negativity_peaks", "envelope/simple_form_less_accurate",
    "envelope/werner_concurrence_peaks",
    *(f"ordering/revival_comparisons_p{p}" for p in ("0.6", "0.8", "1")),
]


# one bad field per request, and a word the error message must contain; each
# case keeps its number as its id (6 to 9 were the cases of the removed step key; 27 and 28, quiet oracle runs at
# fock_dim 16, are admitted since quiet runs keep to the qubit levels)
BAD_REQUESTS = [
    (0, {"engine": "exact"}, "unknown engine"),
    (1, {"t_max": 0.0}, "t_max"),
    (2, {"t_max": -1.0}, "t_max"),
    (3, {"t_max": math.nan}, "t_max"),
    (4, {"t_max": math.inf}, "t_max"),
    (5, {"n_points": 1}, "n_points"),
    (10, {"params": {"nbar1": 0.2}}, "quiet"),
    (11, {"params": {"nbar1": 0.2}, "engine": "oracle"}, "fock_dim"),
    (12, {"engine": "oracle", "fock_dim": 1}, "fock_dim"),
    (13, {"params": {"nbar2": 0.1}, "engine": "closed_form"}, "quiet"),
    (14, {"params": {"gamma1": 1.0, "gamma2": 2.0}, "engine": "closed_form"}, "damping"),
    (15, {"initial": {"family": "separable", "d": [1, 0, 1, 0]}, "engine": "closed_form"},
     "no closed form"),
    (16, {"initial": {"family": "plus_plus"}, "params": {"chi11": 1.0}, "engine": "closed_form"},
     "self-Kerr"),
    (17, {"engine": "oracle", "fock_dim": 17}, "fock_dim"),
    (18, {"fock_dim": 0}, "fock_dim"),
    (19, {"engine": "closed_form", "fock_dim": 1}, "fock_dim"),
    (20, {"n_points": 3.5}, "n_points"),
    (21, {"fock_dim": 2.5}, "fock_dim"),
    # past the warm oracle's cap: its trace used to drift past the 1e-9 check inside the run
    (22, {"params": {"nbar1": 1e8}, "engine": "oracle", "fock_dim": 4}, "nbar1"),
    (23, {"params": {"nbar1": 1e300}, "engine": "oracle", "fock_dim": 4}, "nbar1"),
    # past the analytic routes' cap: each overflowed inside the route, and failed naming no rate
    (24, {"params": {"chi12": 1e308}}, "chi12"),
    (25, {"params": {"chi12": -1e308}, "engine": "closed_form"}, "chi12"),
    # past the grid cap: it used to die in numpy asking for 11.2 GiB
    (26, {"n_points": 100_000_000}, "n_points"),
    # a subnormal t_max: np.linspace(0.0, 5e-324, 401) repeats times, and trajectory failed naming no field
    (29, {"t_max": 5e-324}, "t_max"),
]


class _Reached(Exception):
    """Raised in place of the first step that computes: the request passed every rule before it."""


def stop_before_running(monkeypatch):
    """Make every route's first computing step raise ``_Reached``: both oracle kernels, ``propagate`` and
    ``closed_form_rho``."""
    from kerrdeco import evolution

    def reached(*args, **kwargs):
        raise _Reached
    for module, name in ((evolution, "_evolve_kept"), (evolution, "_evolve_sectors"), (evolution, "propagate"),
                         (evolution, "closed_form_rho"), (cli, "propagate")):
        monkeypatch.setattr(module, name, reached)


class TestParseScenario:
    def test_defaults(self):
        s = parse_scenario({"initial": {"family": "bell_like"}})
        assert s.t_max == 1.0 and s.n_points == 401
        assert s.engine == "analytic" and s.fock_dim == 2
        assert s.outputs == ("concurrence", "negativity", "eof", "log_negativity")
        assert s.params == CavityParams()

    def test_full_document(self):
        s = parse_scenario({
            "initial": {"family": "werner_psi", "p": 0.8, "sign": "-"},
            "params": {"gamma1": 1.0, "gamma2": 2.0, "chi11": 3.0, "chi22": 4.0, "chi12": 5.0},
            "t_max": 2.0, "n_points": 7, "engine": "oracle",
            "outputs": ["concurrence", "matrix_elements"],
            "fock_dim": 3,
        })
        assert s.initial.p == 0.8 and s.initial.sign == -1
        assert s.params.chi12 == 5.0 and s.engine == "oracle"
        assert s.outputs == ("concurrence", "matrix_elements")
        assert s.fock_dim == 3

    @pytest.mark.parametrize("step", [0.001, None])
    def test_step_is_not_a_scenario_key(self, step):
        with pytest.raises(ValueError, match=r"^unknown scenario keys: \['step'\]$"):
            parse_scenario({"initial": {"family": "bell_like"}, "engine": "oracle", "step": step})

    @pytest.mark.parametrize("bad, field", [
        ({"t_max": True}, "t_max"),
        ({"n_points": True}, "n_points"),
        ({"fock_dim": True}, "fock_dim"),
        ({"params": {"gamma1": True}}, "gamma1"),
        ({"params": {"chi12": False}}, "chi12"),
        ({"initial": {"family": "werner_like", "p": True}}, "p"),
        ({"initial": {"family": "separable", "d": [True, 0, 1, 0]}}, r"d\[0\]"),
        ({"initial": {"family": "custom_pure", "amplitudes": [[1, False], 0, 0, 0]}}, r"amplitudes\[0\]"),
    ])
    def test_rejects_json_booleans_naming_the_field(self, bad, field):
        with pytest.raises(ValueError, match=rf"^{field} must be a (whole |complex )?number"):
            parse_scenario({"initial": {"family": "bell_like"}, **bad})

    def test_rejects_unknown_scenario_key(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            parse_scenario({"initial": {"family": "bell_like"}, "tmax": 1.0})

    def test_rejects_unknown_param_key(self):
        with pytest.raises(ValueError, match="unknown parameter keys"):
            parse_scenario({"initial": {"family": "bell_like"}, "params": {"gamma": 4.0}})

    def test_rejects_missing_initial(self):
        with pytest.raises(ValueError, match="initial"):
            parse_scenario({"t_max": 1.0})

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            parse_scenario({"initial": {"family": "bell_like"}, "engine": "exact"})

    def test_rejects_thermal_analytic(self):
        doc = {"initial": {"family": "bell_like"}, "params": {"nbar1": 0.2}}
        with pytest.raises(ValueError, match="oracle"):
            parse_scenario(doc)

    def test_thermal_oracle_needs_room(self):
        doc = {"initial": {"family": "bell_like"}, "params": {"nbar1": 0.2},
               "engine": "oracle"}
        with pytest.raises(ValueError, match="fock_dim"):
            parse_scenario(doc)
        doc["fock_dim"] = 4
        assert parse_scenario(doc).fock_dim == 4

    def test_rejects_closed_form_without_one(self):
        doc = {"initial": {"family": "separable", "d": [1, 0, 1, 0]},
               "engine": "closed_form"}
        with pytest.raises(ValueError, match="family"):
            parse_scenario(doc)
        doc = {"initial": {"family": "bell_like"}, "engine": "closed_form",
               "params": {"gamma1": 1.0, "gamma2": 2.0}}
        with pytest.raises(ValueError, match="damping"):
            parse_scenario(doc)

    def test_rejects_bad_outputs(self):
        with pytest.raises(ValueError, match="unknown output"):
            parse_scenario({"initial": {"family": "bell_like"}, "outputs": ["entropy"]})
        with pytest.raises(ValueError, match="outputs"):
            parse_scenario({"initial": {"family": "bell_like"}, "outputs": []})
        with pytest.raises(ValueError, match="outputs"):
            parse_scenario({"initial": {"family": "bell_like"}, "outputs": "concurrence"})
        with pytest.raises(ValueError, match="^output 'concurrence' is listed twice$"):
            parse_scenario({"initial": {"family": "bell_like"},
                            "outputs": ["concurrence", "eof", "concurrence"]})

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="t_max"):
            parse_scenario({"initial": {"family": "bell_like"}, "t_max": 0.0})
        with pytest.raises(ValueError, match="n_points"):
            parse_scenario({"initial": {"family": "bell_like"}, "n_points": 1})

    def test_scenario_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_scenario([1, 2, 3])


class TestSharedValidation:
    @pytest.mark.parametrize("bad, word", [pytest.param(bad, word, id=f"bad{i}-{word}")
                                           for i, bad, word in BAD_REQUESTS])
    def test_scenario_and_trajectory_reject_alike(self, bad, word):
        doc = {"initial": {"family": "bell_like"}, **bad}
        with pytest.raises(ValueError, match=word) as via_scenario:
            parse_scenario(doc)
        with pytest.raises(ValueError) as via_trajectory:
            trajectory(**trajectory_args(doc))
        assert str(via_scenario.value) == str(via_trajectory.value)

    @pytest.mark.parametrize("n_points", [2346, 100_000])
    def test_a_quiet_oracle_run_at_fock_dim_16_reaches_its_kernel(self, monkeypatch, n_points):
        # a quiet run holds its 16 stepped and 16 returned entries per time at every fock_dim: 3.2e6 at
        # the grid cap, under the memory cap
        stop_before_running(monkeypatch)
        doc = {"initial": {"family": "bell_like"}, "params": {"gamma1": 0.0, "gamma2": 0.0, "chi12": 0.0},
               "engine": "oracle", "fock_dim": 16, "n_points": n_points}
        parse_scenario(doc)
        with pytest.raises(_Reached):
            trajectory(**trajectory_args(doc))

    @pytest.mark.parametrize("text, field", [
        ('"t_max": NaN', "t_max"),
        ('"t_max": Infinity', "t_max"),
        ('"step": NaN', "step"),
        ('"n_points": NaN', "n_points"),
        ('"n_points": Infinity', "n_points"),
        ('"fock_dim": "four"', "fock_dim"),
        ('"params": {"gamma1": NaN}', "gamma1"),
        ('"params": {"chi12": -Infinity}', "chi12"),
        ('"params": {"nbar2": "warm"}', "nbar2"),
        # a later "initial" key replaces the bell_like one
        ('"initial": {"family": "werner_psi"}', "p"),
        ('"initial": {"family": "werner_like", "p": null}', "p"),
        ('"params": 5', "params"),
        ('"params": ["gamma1"]', "params"),
        ('"initial": {"family": "custom_mixed", "matrix": [1, 0, 0, 0]}', "matrix"),
        ('"initial": {"family": "custom_mixed", "matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, NaN]]}',
         "matrix[3][3]"),
        ('"initial": {"family": "custom_mixed", "matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], '
         '[0, 0, 0, Infinity]]}', "matrix[3][3]"),
        ('"initial": {"family": "custom_pure", "amplitudes": [[1, null], 0, 0, 0]}',
         "amplitudes"),
        ('"initial": {"family": ["bell_psi"]}', "family"),
        ('"n_points": 3.9', "n_points"),
        ('"fock_dim": 2.5', "fock_dim"),
        ('"n_points": 100000000', "n_points"),
    ])
    def test_non_finite_json_names_the_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "scen.json"
        path.write_text('{"initial": {"family": "bell_like"}, ' + text + "}", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(field)):
            cli.load_scenario(str(path))
        assert main(["simulate", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    def test_a_step_key_fails_simulate_naming_it(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"initial": {"family": "bell_like"}, "engine": "oracle", "step": 0.001})
        assert main(["simulate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown scenario keys: ['step']" in captured.err

    @pytest.mark.parametrize("nbar1", ["1e8", "1e300"])
    def test_a_warm_run_past_its_cap_fails_simulate_naming_nbar1(self, tmp_path, capsys, nbar1):
        path = write_scenario(tmp_path, {"initial": {"family": "bell_like"}, "params": {"nbar1": float(nbar1)},
                                         "engine": "oracle", "fock_dim": 4})
        assert main(["simulate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("kerrdeco: rates too large for the oracle at fock_dim 4")
        assert f"nbar1 = {float(nbar1):g}" in captured.err

    @pytest.mark.parametrize("engine", ["analytic", "closed_form"])
    def test_rates_past_the_analytic_cap_fail_simulate_naming_chi12(self, tmp_path, capsys, engine):
        path = write_scenario(tmp_path, {"initial": {"family": "bell_psi"}, "params": {"chi12": 1e308},
                                         "n_points": 5, "engine": engine})
        assert main(["simulate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("kerrdeco: rates too large for the analytic routes")
        assert "chi12 = 1e+308" in captured.err

    @pytest.mark.parametrize("params", ['"params": {"nbar1": 0.5}, ', ""])
    def test_huge_fock_dim_names_the_field(self, tmp_path, capsys, params):
        path = tmp_path / "scen.json"
        path.write_text('{"initial": {"family": "bell_like"}, "engine": "oracle", ' + params
                        + '"fock_dim": 1' + "0" * 200 + "}", encoding="utf-8")
        assert main(["simulate", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fock_dim must be at most" in captured.err


    # 1e200 squared passes the float range: its sum is inf, not an OverflowError
    @pytest.mark.parametrize("d", ["[NaN, 1, 1, 0]", "[1, 1, 1, 0]", "[1e200, 0, 1, 0]"])
    def test_separable_factors_are_checked_when_parsed(self, tmp_path, capsys, d):
        path = tmp_path / "scen.json"
        path.write_text('{"initial": {"family": "separable", "d": ' + d + "}}", encoding="utf-8")
        with pytest.raises(ValueError, match=r"factor \(d1, d2\) is not normalized"):
            cli.load_scenario(str(path))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(path), "--sweep", "gamma", "--values", "1",
                     "--out", str(out)]) == 1
        assert "factor (d1, d2)" in capsys.readouterr().err
        assert not out.exists()

    def test_a_custom_pure_amplitude_past_the_float_range_sums_to_a_plain_inf(self, tmp_path, capsys):
        # |1e308 + 1e308 i|^2 passes the float range; pyproject makes a numpy RuntimeWarning an error
        path = write_scenario(tmp_path, {"initial": {"family": "custom_pure",
                                                     "amplitudes": [[1e308, 1e308], 0, 0, 1]}})
        assert main(["simulate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == ("kerrdeco: amplitudes (c00, c01, c10, c11) are not normalized: "
                                           "|c|^2 sums to inf\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20,
)
# one document for every family: each family reads its own fields and ignores the rest
ANY_INITIAL = {"sign": "-", "p": 0.5, "d": [1, 0, [0, 1], 0],
               "amplitudes": [0.5, 0.5, 0.5, -0.5],
               "matrix": [[0.25 if i == j else 0 for j in range(4)] for i in range(4)]}
SCENARIO_FIELDS = [f.name for f in dataclasses.fields(Scenario)]


class TestMalformedScenario:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(sorted(_FAMILIES)),
           field=st.sampled_from(SCENARIO_FIELDS + ["family", *ANY_INITIAL]),
           value=JSON_VALUES)
    def test_any_json_value_gives_a_scenario_or_a_value_error(self, family, field, value):
        initial = {"family": family, **ANY_INITIAL}
        doc = {"initial": initial}
        (doc if field in SCENARIO_FIELDS else initial)[field] = value
        try:
            assert isinstance(parse_scenario(doc), Scenario)
        except ValueError:
            pass


class TestSimulate:
    def test_csv_shape_and_values(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BELL_DOC)
        assert main(["simulate", "--scenario", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == ["t", "concurrence", "negativity", "eof", "log_negativity"]
        assert len(lines) == 1 + 11
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-11)
        t, c = (float(x) for x in lines[-1].split(",")[:2])
        assert t == 0.5 and c == pytest.approx(math.exp(-4.0 * 0.5), abs=1e-9)

    def test_matrix_elements_columns(self, tmp_path, capsys):
        doc = dict(BELL_DOC, outputs=["matrix_elements"])
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", "--scenario", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        head = lines[0].split(",")
        assert len(head) == 1 + 32
        assert head[1] == "re_00_00" and head[2] == "im_00_00" and head[-1] == "im_11_11"
        row0 = [float(x) for x in lines[1].split(",")]
        # initial single-excitation Bell state: both middle populations are 1/2
        rho0 = dict(zip(head, row0))
        assert rho0["re_01_01"] == pytest.approx(0.5)
        assert rho0["re_10_10"] == pytest.approx(0.5)
        assert rho0["re_01_10"] == pytest.approx(0.5)
        assert rho0["re_00_00"] == pytest.approx(0.0)

    def test_deterministic_output_files(self, tmp_path):
        path = write_scenario(tmp_path, BELL_DOC)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--scenario", path, "--out", out1]) == 0
        assert main(["simulate", "--scenario", path, "--out", out2]) == 0
        b1 = (tmp_path / "a.csv").read_bytes()
        assert b1 == (tmp_path / "b.csv").read_bytes()
        assert b"\r\n" in b1

    def test_oracle_engine_agrees_with_analytic(self, tmp_path, capsys):
        path_a = write_scenario(tmp_path, BELL_DOC, "a.json")
        path_o = write_scenario(tmp_path, dict(BELL_DOC, engine="oracle"), "o.json")
        assert main(["simulate", "--scenario", path_a]) == 0
        out_a = capsys.readouterr().out
        assert main(["simulate", "--scenario", path_o]) == 0
        out_o = capsys.readouterr().out
        for la, lo in zip(out_a.splitlines()[1:], out_o.splitlines()[1:]):
            for a, o in zip(la.split(","), lo.split(",")):
                assert float(a) == pytest.approx(float(o), abs=1e-7)

    def test_missing_file_exits_one(self, capsys):
        assert main(["simulate", "--scenario", "/nonexistent/path.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kerrdeco:")

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--scenario", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestFigure:
    def test_fig1_reproducible_bytes(self, tmp_path):
        out1, out2 = str(tmp_path / "f1.csv"), str(tmp_path / "f2.csv")
        assert main(["figure", "fig1", "--out", out1]) == 0
        assert main(["figure", "fig1", "--out", out2]) == 0
        assert (tmp_path / "f1.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()

    def test_fig1_structure(self):
        buf = io.StringIO()
        run_figure("fig1", None, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == ["t", "curve_a", "curve_b", "curve_c", "curve_d", "curve_e"]
        assert len(lines) == 1 + 401
        row0 = [float(x) for x in lines[1].split(",")]
        assert row0[0] == 0.0
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in row0[1:])
        # psi decays slower than phi everywhere after t=0
        mid = [float(x) for x in lines[200].split(",")]
        assert mid[1] > mid[2]

    def test_fig2_negativity_ordering(self):
        buf = io.StringIO()
        run_figure("fig2", None, buf)
        mid = [float(x) for x in buf.getvalue().strip().splitlines()[200].split(",")]
        # negativity orders the Bell pair the other way around
        assert mid[1] < mid[2]

    def test_fig3_single_weight(self, capsys):
        assert main(["figure", "fig3", "--p", "0.7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[:2] == ["p", "t"]
        assert len(lines) == 1 + 401
        assert all(line.split(",")[0] == "0.7" for line in lines[1:])

    def test_fig3_default_weights(self, tmp_path):
        out = str(tmp_path / "f3.csv")
        assert main(["figure", "fig3", "--out", out]) == 0
        lines = (tmp_path / "f3.csv").read_text().strip().splitlines()
        weights = sorted({line.split(",")[0] for line in lines[1:]})
        assert weights == ["0.4", "0.6", "0.8", "1"]
        assert len(lines) == 1 + 4 * 401

    def test_fig4_envelope_tracks_coupled_curve(self, tmp_path):
        out = str(tmp_path / "f4.csv")
        assert main(["figure", "fig4", "--p", "0.8", "--out", out]) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in (tmp_path / "f4.csv").read_text().strip().splitlines()[1:]]
        arr = np.array(rows)
        # interpolated envelope stays at or above the oscillating curve
        assert np.all(arr[:, 6] >= arr[:, 4] - 5e-3)

    @pytest.mark.parametrize("weights", [[0.5, 1.5], [0.5, math.nan], [0.5, -0.1]])
    def test_later_bad_weight_writes_nothing(self, weights):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="p must lie"):
            run_figure("fig3", weights, buf)
        assert buf.getvalue() == ""

    def test_fig1_rejects_weights(self, capsys):
        assert main(["figure", "fig1", "--p", "0.5"]) == 1
        assert "mixing weights" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["figure", "fig3", "--p", ","], ["figure", "fig3", "--p", ""],
                                      ["figure", "fig4", "--p", " , "], ["figure", "fig1", "--p", ""]],
                             ids=["fig3-comma", "fig3-empty", "fig4-blank", "fig1-empty"])
    def test_an_empty_weight_list_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--p" in err

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3", "fig4"])
    def test_run_figure_rejects_an_empty_weight_list(self, fig):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="--p"):
            run_figure(fig, [], buf)
        assert buf.getvalue() == ""

    def test_bad_weight_rejected(self, capsys):
        assert main(["figure", "fig3", "--p", "1.5"]) == 1
        assert "p must lie" in capsys.readouterr().err

    def test_unknown_figure_exits_one(self, capsys):
        assert main(["figure", "fig9"]) == 1
        capsys.readouterr()

    def test_figure_needs_an_id(self, capsys):
        assert main(["figure"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: kerrdeco figure")
        assert err.endswith("kerrdeco: the following arguments are required: figure_id\n")


class TestSweep:
    def test_chi12_sweep_halves_revival_period(self, tmp_path, capsys):
        doc = {
            "initial": {"family": "bell_like"},
            "params": {"gamma1": 1.0, "gamma2": 1.0, "chi12": 20.0},
            "t_max": 0.5, "n_points": 201, "outputs": ["concurrence"],
        }
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", "--scenario", path, "--sweep", "chi12",
                     "--values", "10,20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == ["chi12", "t", "concurrence"]
        peaks = {}
        for val in ("10", "20"):
            block = np.array([[float(x) for x in line.split(",")[1:]]
                              for line in lines[1:] if line.split(",")[0] == val])
            assert block.shape == (201, 2)
            c = block[:, 1]
            interior = [k for k in range(1, 200) if c[k] > c[k - 1] and c[k] >= c[k + 1]]
            peaks[val] = block[interior[0], 0]
        # damping drags each revival maximum slightly ahead of n*pi/chi12
        assert peaks["10"] == pytest.approx(math.pi / 10.0, abs=0.02)
        assert peaks["20"] == pytest.approx(math.pi / 20.0, abs=0.01)
        assert peaks["20"] / peaks["10"] == pytest.approx(0.5, abs=0.05)

    def test_p_sweep_scales_initial_entanglement(self, tmp_path, capsys):
        doc = {
            "initial": {"family": "werner_psi", "p": 0.5},
            "params": {"gamma1": 4.0, "gamma2": 4.0, "chi12": 20.0},
            "t_max": 0.2, "n_points": 3, "outputs": ["concurrence"],
        }
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", "--scenario", path, "--sweep", "p",
                     "--values", "0.4,0.8,1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        at_zero = {line.split(",")[0]: float(line.split(",")[2])
                   for line in lines[1:] if float(line.split(",")[1]) == 0.0}
        assert at_zero["0.4"] == pytest.approx(0.1, abs=1e-10)
        assert at_zero["0.8"] == pytest.approx(0.7, abs=1e-10)
        assert at_zero["1"] == pytest.approx(1.0, abs=1e-10)

    def test_p_sweep_on_bell_family_fails_before_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BELL_DOC)
        assert main(["sweep", "--scenario", path, "--sweep", "p",
                     "--values", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no mixing weight" in captured.err

    def test_empty_values_gives_header_only(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BELL_DOC)
        assert main(["sweep", "--scenario", path, "--sweep", "gamma",
                     "--values", ""]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "gamma,t,concurrence,negativity,eof,log_negativity"

    def test_gamma_sweep_sets_both_rates(self, tmp_path):
        base = parse_scenario(BELL_DOC)
        swapped = cli._override(base, "gamma", 7.0)
        assert swapped.params.gamma1 == 7.0 and swapped.params.gamma2 == 7.0

    def test_unparseable_values_exit_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BELL_DOC)
        assert main(["sweep", "--scenario", path, "--sweep", "gamma",
                     "--values", "1,two"]) == 1
        assert "cannot parse values" in capsys.readouterr().err

    @pytest.mark.parametrize("vary, values, word", [
        ("gamma", [4.0, -1.0], "gamma1"),
        ("gamma", [4.0, math.nan], "gamma1"),
        ("chi12", [20.0, math.inf], "chi12"),
    ])
    def test_later_bad_value_writes_nothing(self, vary, values, word):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=word):
            run_sweep(parse_scenario(BELL_DOC), vary, values, buf)
        assert buf.getvalue() == ""

    def test_later_bad_weight_writes_nothing(self):
        base = parse_scenario({**BELL_DOC, "initial": {"family": "werner_like", "p": 0.5}})
        buf = io.StringIO()
        with pytest.raises(ValueError, match="p must lie"):
            run_sweep(base, "p", [0.5, 1.5], buf)
        assert buf.getvalue() == ""

    def test_a_bad_value_is_named_by_parameter_and_entry(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BELL_DOC)
        assert main(["sweep", "--scenario", path, "--sweep", "gamma", "--values", "1,-1"]) == 1
        assert capsys.readouterr().err == (
            "kerrdeco: sweep value 2, gamma = -1.0: gamma1 must be nonnegative, got -1.0\n")

    def test_a_later_failing_run_writes_nothing(self, monkeypatch):
        calls = []
        concurrence = measures.concurrence

        def failing_second_call(rho):
            calls.append(rho)
            if len(calls) == 2:
                raise RuntimeError("the second run failed")
            return concurrence(rho)
        monkeypatch.setattr(measures, "concurrence", failing_second_call)
        buf = io.StringIO()
        with pytest.raises(RuntimeError, match="the second run failed"):
            run_sweep(parse_scenario(BELL_DOC), "gamma", [1.0, 2.0], buf)
        assert buf.getvalue() == ""

    def test_run_sweep_rejects_unknown_parameter(self):
        base = parse_scenario(BELL_DOC)
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            run_sweep(base, "chi11", [1.0], io.StringIO())


class TestVerify:
    def test_fast_passes(self, capsys):
        assert main(["verify", "fast"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        checks, summary = lines[:-1], lines[-1]
        assert len(checks) >= 12
        assert all(line.startswith("PASS  ") for line in checks)
        assert summary.startswith("ok:")

    def test_default_level_is_fast(self, capsys):
        assert main(["verify"]) == 0
        n_default = len(capsys.readouterr().out.strip().splitlines())
        assert main(["verify", "fast"]) == 0
        n_fast = len(capsys.readouterr().out.strip().splitlines())
        assert n_default == n_fast

    def test_json_verdict(self, capsys):
        assert main(["verify", "fast", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["level"] == "fast"
        assert doc["failed"] == 0
        assert doc["passed"] == len(doc["checks"]) >= 12
        names = {c["name"] for c in doc["checks"]}
        assert "oracle_equivalence/bell_psi_plus" in names
        assert "estimator/cross_coupling" in names

    def test_json_to_file(self, tmp_path):
        out = str(tmp_path / "verify.json")
        assert main(["verify", "fast", "--json", "--out", out]) == 0
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["ok"] is True

    def test_bad_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("KERRDECO_SEED", "abc")
        assert main(["verify", "fast"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "KERRDECO_SEED must be a whole number, got 'abc'" in captured.err

    def test_negative_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("KERRDECO_SEED", "-1")
        assert main(["verify", "fast"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "KERRDECO_SEED must be nonnegative, got -1" in captured.err
        monkeypatch.setenv("KERRDECO_SEED", "0")
        assert verify.corpus_seed() == 0

    def test_bad_seed_stops_the_acceptance_tests_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("KERRDECO_SEED", "abc")
        path = Path(__file__).with_name("test_acceptance.py")
        spec = importlib.util.spec_from_file_location("acceptance_with_a_bad_seed", path)
        with pytest.raises(ValueError, match="KERRDECO_SEED must be a whole number, got 'abc'"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_bad_level_exits_one(self, capsys):
        assert main(["verify", "slow"]) == 1
        capsys.readouterr()

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        """The shape of rho0 at each oracle call the battery makes."""
        shapes = []
        oracle = verify.integrate_master_grid

        def counting(rho0, *args, **kwargs):
            shapes.append(np.shape(rho0))
            return oracle(rho0, *args, **kwargs)
        monkeypatch.setattr(verify, "integrate_master_grid", counting)
        return shapes

    def test_full_passes_all_42_checks(self, oracle_calls):
        results = verify.run_checks("full")
        assert sorted(r.name for r in results) == sorted(VERIFY_FULL)
        assert [r.name for r in results if not r.passed] == []
        # one call for every family per parameter set: the base set, then the 11
        # other points of the 12-point sweep, whose (gamma 4, chi 7/7/20) point
        # is the base set itself and reuses its gaps
        assert oracle_calls == [(10, 4, 4)] * 12

    def test_fast_passes_all_31_checks(self):
        results = verify.run_checks("fast")
        assert sorted(r.name for r in results) == sorted(VERIFY_FAST)
        assert [r.name for r in results if not r.passed] == []

    def test_the_propagator_receives_stacks_one_call_per_check(self):
        shapes = []

        def recording(rho0, params, t):
            shapes.append(np.shape(rho0))
            return propagate(rho0, params, t)
        verify.run_checks("full", propagator=recording)
        # 12 oracle comparisons, then closed forms, decay curves, lossless curves,
        # two semigroup legs, vacuum limit, lossless purity and revival peaks
        assert shapes[:12] == [(10, 4, 4)] * 12
        assert shapes[12:] == [(7, 4, 4), (5, 4, 4), (4, 4, 4), (1, 4, 4), (2, 4, 4),
                               (2, 4, 4), (1, 4, 4), (4, 4, 4)]

    def test_fast_makes_one_oracle_call(self, oracle_calls):
        verify.run_checks("fast")
        assert oracle_calls == [(7, 4, 4)]

    def test_battery_catches_a_broken_propagator(self):
        # a wrong sign on the cross-Kerr coupling must not slip through
        def detuned(rho0, params, t):
            return propagate(rho0, dataclasses.replace(params, chi12=-params.chi12), t)

        results = verify.run_checks("fast", propagator=detuned)
        assert any(not r.passed for r in results)

    # A self-Kerr rate off by as much still passes: only oracle_equivalence sees chi11 and chi22, and its
    # limit stays at the RK4 oracle's 1e-8 until quiet runs take the exact kernel.
    @pytest.mark.parametrize("rate", ["gamma1", "gamma2", "chi12"])
    def test_battery_catches_a_rate_off_by_one_part_in_1e10(self, rate):
        def scaled(rho0, params, t):
            return propagate(rho0, dataclasses.replace(params, **{rate: getattr(params, rate) * (1 + 1e-10)}), t)

        results = verify.run_checks("full", propagator=scaled)
        assert any(not r.passed for r in results)


class TestBenchmarkReference:
    """The benchmark's passes, checked as the benchmark checks them."""

    @staticmethod
    def failed_jobs(tmp_path, monkeypatch, workload, seed, tiny):
        jobs = workloads.build(workload, seed, tmp_path, tiny)
        raw = {}
        for job in jobs:
            with monkeypatch.context() as env:
                for name, value in job.env.items():
                    env.setenv(name, value)
                assert main(job.argv) == 0, job.label
            raw[job.label] = job.out.read_bytes()
        problems = workloads.evaluate(workload, jobs, raw, workloads.load_reference(seed))
        return {label: found for label, found in problems.items() if found}

    @pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_seed0_pass_matches_the_reference(self, tmp_path, monkeypatch, workload, tiny):
        assert self.failed_jobs(tmp_path, monkeypatch, workload, 0, tiny) == {}

    # the fixed figures (fig1, fig2) against every recorded seed's entry, and
    # fig3/fig4 at each seed's drawn weights; the other workloads cost more and
    # are left to the benchmark's own seeds
    @pytest.mark.parametrize("seed", range(1, workloads.REFERENCE_SEEDS))
    def test_figures_pass_matches_the_reference_at_every_recorded_seed(self, tmp_path, monkeypatch,
                                                                        seed):
        assert self.failed_jobs(tmp_path, monkeypatch, "figures", seed, False) == {}


class TestOutputFile:
    @pytest.mark.parametrize("argv, message", [
        (["figure", "fig3", "--p", "0.5,1.5"], "mixing weight"),
        (["sweep", "--sweep", "gamma", "--values", "1,-1"], "gamma1 must be nonnegative"),
    ])
    def test_a_rejected_request_keeps_an_existing_file(self, tmp_path, capsys, argv, message):
        out = tmp_path / "kept.csv"
        out.write_bytes(b"t,c\r\n0,1\r\n")
        if argv[0] == "sweep":
            argv = argv + ["--scenario", write_scenario(tmp_path, BELL_DOC)]
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert out.read_bytes() == b"t,c\r\n0,1\r\n"


class TestRowCap:
    """A sweep's ``--values`` and a figure's ``--p`` are held to the grid cap's rows before the first run."""

    @pytest.mark.parametrize("count, admitted", [(249, True), (250, False)])
    def test_figure_weights(self, tmp_path, capsys, monkeypatch, count, admitted):
        stop_before_running(monkeypatch)
        out = tmp_path / "kept.csv"
        out.write_bytes(b"kept")
        argv = ["figure", "fig3", "--p", ",".join(["0.5"] * count), "--out", str(out)]
        if admitted:
            # 249 weights of 401 rows: 99849
            with pytest.raises(_Reached):
                main(argv)
        else:
            assert main(argv) == 1
            assert capsys.readouterr().err == ("kerrdeco: --p gives 250 entries of 401 rows each, 100250 rows, "
                                               "above the cap of 100000\n")
        assert out.read_bytes() == b"kept"

    @pytest.mark.parametrize("count, admitted", [(100, True), (101, False)])
    def test_sweep_values(self, tmp_path, capsys, monkeypatch, count, admitted):
        stop_before_running(monkeypatch)
        out = tmp_path / "kept.csv"
        out.write_bytes(b"kept")
        path = write_scenario(tmp_path, {"initial": {"family": "bell_like"}, "n_points": 1000})
        argv = ["sweep", "--scenario", path, "--sweep", "gamma", "--values", ",".join(["1"] * count), "--out", str(out)]
        if admitted:
            # the cap is inclusive: 100 runs of 1000 points
            with pytest.raises(_Reached):
                main(argv)
        else:
            assert main(argv) == 1
            assert capsys.readouterr().err == ("kerrdeco: --values gives 101 entries of 1000 rows each, 101000 rows, "
                                               "above the cap of 100000\n")
        assert out.read_bytes() == b"kept"

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_every_benchmark_job_at_every_input_seed_passes_every_rule(self, tmp_path, monkeypatch, workload):
        # each job runs up to its first computing step, which stops it
        stop_before_running(monkeypatch)
        for seed in range(workloads.REFERENCE_SEEDS):
            for job in workloads.build(workload, seed, tmp_path / str(seed)):
                with monkeypatch.context() as env:
                    for name, value in job.env.items():
                        env.setenv(name, value)
                    with pytest.raises(_Reached):
                        main(job.argv)
                assert not job.out.exists(), job.label


class TestValidationCount:
    """Each state is checked once: the initial density, then each trajectory's stack."""

    @pytest.fixture
    def checked(self, monkeypatch):
        counts = []
        check = states._check_density

        def counting(m, stack):
            counts.append(len(m))
            check(m, stack)
        monkeypatch.setattr(states, "_check_density", counting)
        return counts

    @pytest.mark.parametrize("fig_id, states_checked", [("fig1", 1608), ("fig3", 6432)])
    def test_figure(self, checked, fig_id, states_checked):
        run_figure(fig_id, stream=io.StringIO())
        assert sum(checked) == states_checked

    @pytest.mark.parametrize("fig_id, panels", [("fig1", 1), ("fig2", 1), ("fig3", 4), ("fig4", 2)])
    def test_figure_propagates_once_per_parameter_set(self, monkeypatch, fig_id, panels):
        calls = []

        def counting(rho0, params, t):
            calls.append((rho0.matrix.shape, params.chi12))
            return propagate(rho0, params, t)
        monkeypatch.setattr(cli, "propagate", counting)
        run_figure(fig_id, [0.5, 0.9] if panels == 2 else None, io.StringIO())
        # the coupled curve_c of every panel, then each panel's three uncoupled curves
        assert calls == [((panels, 4, 4), 20.0)] + [((3, 4, 4), 0.0)] * panels

    @pytest.mark.parametrize("level, states_checked", [("fast", 861), ("full", 6351)])
    def test_verify(self, checked, level, states_checked):
        # each stacked initial state is checked once, with its stack: 898 and
        # 6394 when every one was checked alone and then again in its stack
        verify.run_checks(level)
        assert sum(checked) == states_checked

    @pytest.mark.parametrize("engine", ["analytic", "oracle", "closed_form"])
    def test_simulate(self, checked, engine):
        doc = {"initial": {"family": "bell_like"}, "engine": engine,
               "outputs": ["concurrence", "negativity"]}
        run_simulate(parse_scenario(doc), io.StringIO())
        assert checked == [1, 401]

    @pytest.mark.parametrize("level, n_corpus, n_rotated", [("fast", 200, 50), ("full", 1000, 200)])
    def test_verify_checks_each_corpus_state_once(self, monkeypatch, level, n_corpus, n_rotated):
        seen = collections.Counter()
        check = states._check_density

        def counting(m, stack):
            seen.update(rho.tobytes() for rho in m)
            check(m, stack)
        monkeypatch.setattr(states, "_check_density", counting)
        drawn = []

        def recording(draw):
            def wrapper(*args):
                drawn.append(draw(*args))
                return drawn[-1]
            return wrapper
        for name in ("_random_density", "_random_amplitudes"):
            monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
        verify.run_checks(level)
        # the mixed corpus and the pure corpus's amplitudes, one stack each, then one state per
        # local-unitary pair and the vacuum-limit state
        assert [x.shape for x in drawn] == [(n_corpus, 4, 4), (n_corpus, 4)] + [(4, 4)] * (n_rotated + 1)
        rhos = [*drawn[0], *(np.outer(a, a.conj()) for a in drawn[1]), *drawn[2:]]
        assert [seen[rho.tobytes()] for rho in rhos] == [1] * len(rhos)


class TestUsage:
    @pytest.mark.parametrize("argv, flag", [
        (["figure", "--figure", "fig1"], "--figure"),
        (["figure", "fig1", "--figure", "fig1"], "--figure"),
        (["verify", "--verify", "full"], "--verify"),
        (["verify", "fast", "--verify", "fast"], "--verify"),
    ])
    def test_figure_and_verify_take_their_argument_positionally_only(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: kerrdeco")
        assert f"kerrdeco: unrecognized arguments: {flag}" in err
        assert not out.exists()

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["sweep", "--scenario", "x.json"]) == 1
        capsys.readouterr()

    def test_error_messages_name_the_tool(self, capsys):
        main(["simulate", "--scenario", "/nonexistent/path.json"])
        assert capsys.readouterr().err.startswith("kerrdeco:")


class TestWriteTable:
    """``_write_table`` writes the bytes of ``np.savetxt`` with the CLI's settings."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 0.1 + 0.2, 1 - 1e-13, -0.5, -7.0, 3.0, 401.0]

    @staticmethod
    def both(table, header):
        ours, theirs = io.StringIO(), io.StringIO()
        cli._write_table(ours, header, table)
        np.savetxt(theirs, table, fmt="%.12g", delimiter=",", newline="\r\n", header=",".join(header), comments="")
        return ours.getvalue(), theirs.getvalue()

    def test_edge_values(self):
        table = np.array(self.EDGES).reshape(1, -1)
        ours, theirs = self.both(np.concatenate([table, -table, table[:, ::-1]]),
                                 [f"c{i}" for i in range(table.shape[1])])
        assert ours == theirs
        assert ",4.94065645841e-324," in ours and ",0.3," in ours and "0,-0," in ours

    @pytest.mark.parametrize("shape", [(0, 5), (1, 5), (255, 3), (256, 3), (257, 3), (1203, 38)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(sum(shape))
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        ours, theirs = self.both(table, [f"c{i}" for i in range(shape[1])])
        assert ours == theirs
        assert ours.count("\r\n") == shape[0] + 1

    def test_one_write_per_block_of_256_rows(self):
        writes = []
        cli._write_table(types.SimpleNamespace(write=writes.append), ["a", "b"], np.ones((513, 2)))
        assert [w.count("\r\n") for w in writes] == [1, 256, 256, 1]

    def test_memory_stays_bounded_on_a_large_table(self):
        table = np.random.default_rng(0).random((20000, 37))
        tracemalloc.start()
        try:
            cli._write_table(types.SimpleNamespace(write=len), ["c"] * 37, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 0.5 MiB for a 256-row block; formatting the whole table at once peaked at 40 MiB
        assert peak < 2 * 2 ** 20


class TestCachedParser:
    """The parser is built once per process and carries nothing from one call to the next."""

    def test_one_parser_per_process(self, tmp_path, capsys):
        assert main(["figure", "fig1", "--out", str(tmp_path / "f.csv")]) == 0
        assert main(["transmogrify"]) == 1
        assert main(["figure", "fig2", "--out", str(tmp_path / "f.csv")]) == 0
        info = cli._build_parser.cache_info()
        assert info.misses == 1 and info.hits >= 2
        capsys.readouterr()

    def test_a_later_call_keeps_no_earlier_option(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "fig3", "--p", "0.7", "--out", str(a)]) == 0
        assert main(["figure", "fig3", "--out", str(b)]) == 0
        weights = lambda path: sorted({row.split(",")[0] for row in path.read_text().splitlines()[1:]})
        assert weights(a) == ["0.7"]
        assert weights(b) == ["0.4", "0.6", "0.8", "1"]
        fresh = io.StringIO()
        run_figure("fig3", None, fresh)
        assert b.read_bytes() == fresh.getvalue().encode()

    def test_a_usage_error_between_good_calls(self, tmp_path, capsys):
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        assert main(["figure", "fig2", "--out", str(out1)]) == 0
        assert main(["figure", "fig2", "--bogus"]) == 1
        assert main(["sweep", "--scenario", "x.json"]) == 1
        assert "usage: kerrdeco" in capsys.readouterr().err
        assert main(["figure", "fig2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestDocumentedSchema:
    """The README's scenario section keeps up with the family table and the dataclasses."""

    @staticmethod
    def section():
        text = README.read_text(encoding="utf-8")
        start = text.index("## Scenario files")
        return text[start:text.index("\n## ", start + 1)]

    def test_every_family_and_parameter_is_documented(self):
        section = self.section()
        names = [*_FAMILIES, *(f.name for f in dataclasses.fields(CavityParams))]
        assert [n for n in names if f"`{n}`" not in section and f'"{n}"' not in section] == []

    def test_the_example_has_every_scenario_key(self):
        section = self.section()
        example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        assert {f.name for f in dataclasses.fields(Scenario)} - {"initial"} <= set(example)
        assert isinstance(parse_scenario(example), Scenario)
