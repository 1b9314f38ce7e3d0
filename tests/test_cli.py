import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrdeco import cli, verify
from kerrdeco.cli import Scenario, main, parse_scenario, run_figure, run_sweep
from kerrdeco.evolution import CavityParams, propagate, trajectory
from kerrdeco.states import (
    _FAMILIES, BellPsi, WernerLike, parse_initial, random_density_matrix, random_pure_state,
)

BELL_DOC = {
    "initial": {"family": "bell_psi", "sign": "+"},
    "params": {"gamma1": 4.0, "gamma2": 4.0, "chi12": 20.0},
    "t_max": 0.5,
    "n_points": 11,
}


REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
README = Path(__file__).resolve().parents[1] / "README.md"


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
                fock_dim=doc.get("fock_dim", 2), step=doc.get("step"))


def scenario_initials(seed):
    """The initial states the benchmark's scenarios workload draws from an input seed."""
    rng = np.random.default_rng(seed)
    initials = {}
    for family in ("bell_psi", "bell_phi", "bell_like", "plus_plus",
                   "werner_psi", "werner_phi", "werner_like"):
        doc = initials[family] = {"family": family}
        if family in ("bell_psi", "bell_phi", "werner_psi", "werner_phi"):
            doc["sign"] = "+" if rng.random() < 0.5 else "-"
        if family.startswith("werner"):
            doc["p"] = round(float(rng.uniform(0.3, 1.0)), 3)

    def pairs(entries):
        return [[float(z.real), float(z.imag)] for z in entries]

    initials["custom_pure"] = {"family": "custom_pure",
                               "amplitudes": pairs(random_pure_state(rng).amplitudes())}
    initials["custom_mixed"] = {"family": "custom_mixed",
                                "matrix": [pairs(row) for row in random_density_matrix(rng).matrix]}
    return initials


SEED0_INITIALS = scenario_initials(0)


# one bad field per request, and a word the error message must contain
BAD_REQUESTS = [
    ({"engine": "exact"}, "unknown engine"),
    ({"t_max": 0.0}, "t_max"),
    ({"t_max": -1.0}, "t_max"),
    ({"t_max": math.nan}, "t_max"),
    ({"t_max": math.inf}, "t_max"),
    ({"n_points": 1}, "n_points"),
    ({"step": 0.0, "engine": "oracle"}, "step"),
    ({"step": math.nan, "engine": "oracle"}, "step"),
    ({"step": math.nan}, "step"),
    ({"step": 0.5, "engine": "oracle"}, "step"),
    ({"params": {"nbar1": 0.2}}, "quiet"),
    ({"params": {"nbar1": 0.2}, "engine": "oracle"}, "fock_dim"),
    ({"engine": "oracle", "fock_dim": 1}, "fock_dim"),
    ({"params": {"nbar2": 0.1}, "engine": "closed_form"}, "quiet"),
    ({"params": {"gamma1": 1.0, "gamma2": 2.0}, "engine": "closed_form"}, "damping"),
    ({"initial": {"family": "separable", "d": [1, 0, 1, 0]}, "engine": "closed_form"},
     "no closed form"),
    ({"initial": {"family": "plus_plus"}, "params": {"chi11": 1.0}, "engine": "closed_form"},
     "self-Kerr"),
    ({"engine": "oracle", "fock_dim": 17}, "fock_dim"),
]


class TestParseScenario:
    def test_defaults(self):
        s = parse_scenario({"initial": {"family": "bell_like"}})
        assert s.t_max == 1.0 and s.n_points == 401
        assert s.engine == "analytic" and s.fock_dim == 2 and s.step is None
        assert s.outputs == ("concurrence", "negativity", "eof", "log_negativity")
        assert s.params == CavityParams()

    def test_full_document(self):
        s = parse_scenario({
            "initial": {"family": "werner_psi", "p": 0.8, "sign": "-"},
            "params": {"gamma1": 1.0, "gamma2": 2.0, "chi11": 3.0, "chi22": 4.0, "chi12": 5.0},
            "t_max": 2.0, "n_points": 7, "engine": "oracle",
            "outputs": ["concurrence", "matrix_elements"],
            "fock_dim": 3, "step": 0.001,
        })
        assert s.initial.p == 0.8 and s.initial.sign == -1
        assert s.params.chi12 == 5.0 and s.engine == "oracle"
        assert s.outputs == ("concurrence", "matrix_elements")
        assert s.fock_dim == 3 and s.step == 0.001

    def test_null_step_means_auto(self):
        s = parse_scenario({"initial": {"family": "bell_like"}, "step": None})
        assert s.step is None

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

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="t_max"):
            parse_scenario({"initial": {"family": "bell_like"}, "t_max": 0.0})
        with pytest.raises(ValueError, match="n_points"):
            parse_scenario({"initial": {"family": "bell_like"}, "n_points": 1})

    def test_scenario_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_scenario([1, 2, 3])


class TestSharedValidation:
    @pytest.mark.parametrize("bad, word", BAD_REQUESTS)
    def test_scenario_and_trajectory_reject_alike(self, bad, word):
        doc = {"initial": {"family": "bell_like"}, **bad}
        with pytest.raises(ValueError, match=word) as via_scenario:
            parse_scenario(doc)
        with pytest.raises(ValueError) as via_trajectory:
            trajectory(**trajectory_args(doc))
        assert str(via_scenario.value) == str(via_trajectory.value)

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
        ('"initial": {"family": "custom_pure", "amplitudes": [[1, null], 0, 0, 0]}',
         "amplitudes"),
        ('"initial": {"family": ["bell_psi"]}', "family"),
        ('"n_points": 3.9', "n_points"),
        ('"fock_dim": 2.5', "fock_dim"),
    ])
    def test_non_finite_json_names_the_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "scen.json"
        path.write_text('{"initial": {"family": "bell_like"}, ' + text + "}", encoding="utf-8")
        with pytest.raises(ValueError, match=field):
            cli.load_scenario(str(path))
        assert main(["simulate", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    @pytest.mark.parametrize("step", ['"step": 0.001, ', ""])
    def test_huge_fock_dim_names_the_field(self, tmp_path, capsys, step):
        path = tmp_path / "scen.json"
        path.write_text('{"initial": {"family": "bell_like"}, "engine": "oracle", ' + step
                        + '"fock_dim": 1' + "0" * 200 + "}", encoding="utf-8")
        assert main(["simulate", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fock_dim must be at most" in captured.err


    @pytest.mark.parametrize("d", ["[NaN, 1, 1, 0]", "[1, 1, 1, 0]"])
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
        assert main(["figure", "--figure", "fig1", "--out", out2]) == 0
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

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3", "fig4"])
    def test_bytes_match_the_benchmark_reference(self, tmp_path, fig):
        reference = json.loads(REFERENCE.read_text())
        # the benchmark draws three fig3 and then three fig4 weights from input seed 0
        rng = np.random.default_rng(0)
        drawn = [round(float(rng.uniform(0.4, 1.0)), 3) for _ in range(6)]
        weights = {"fig3": drawn[:3], "fig4": drawn[3:]}.get(fig)
        out = tmp_path / f"{fig}.csv"
        argv = ["figure", fig, "--out", str(out)]
        if weights:
            argv += ["--p", ",".join(repr(p) for p in weights)]
        # fig1/fig2 take no seed-drawn input, so every recorded seed holds the same hash
        want = {reference[seed][f"figures/{fig}"] for seed in (["0"] if weights else reference)}
        assert main(argv) == 0
        assert {hashlib.sha256(out.read_bytes()).hexdigest()} == want

    @pytest.mark.parametrize("family", [*SEED0_INITIALS])
    def test_oracle_bytes_match_the_benchmark_reference(self, tmp_path, family):
        # the benchmark's scenarios workload runs the oracle at fock_dim 2 on these states
        reference = json.loads(REFERENCE.read_text())
        doc = {"initial": SEED0_INITIALS[family], "engine": "oracle", "fock_dim": 2,
               "outputs": ["concurrence", "negativity", "eof", "log_negativity",
                           "matrix_elements"]}
        out = tmp_path / f"{family}.csv"
        assert main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(out)]) == 0
        want = reference["0"][f"scenarios/{family}-oracle"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want

    @pytest.mark.parametrize("weights", [[0.5, 1.5], [0.5, math.nan], [0.5, -0.1]])
    def test_later_bad_weight_writes_nothing(self, weights):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="p must lie"):
            run_figure("fig3", weights, buf)
        assert buf.getvalue() == ""

    def test_fig1_rejects_weights(self, capsys):
        assert main(["figure", "fig1", "--p", "0.5"]) == 1
        assert "mixing weights" in capsys.readouterr().err

    def test_bad_weight_rejected(self, capsys):
        assert main(["figure", "fig3", "--p", "1.5"]) == 1
        assert "p must lie" in capsys.readouterr().err

    def test_unknown_figure_exits_one(self, capsys):
        assert main(["figure", "fig9"]) == 1
        capsys.readouterr()

    def test_figure_needs_an_id(self, capsys):
        assert main(["figure"]) == 1
        assert "figure needs an id" in capsys.readouterr().err


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
        assert main(["verify", "--verify", "fast"]) == 0
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

    def test_bad_seed_stops_the_acceptance_tests_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("KERRDECO_SEED", "abc")
        path = Path(__file__).with_name("test_acceptance.py")
        spec = importlib.util.spec_from_file_location("acceptance_with_a_bad_seed", path)
        with pytest.raises(ValueError, match="KERRDECO_SEED must be a whole number, got 'abc'"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_bad_level_exits_one(self, capsys):
        assert main(["verify", "slow"]) == 1
        capsys.readouterr()

    def test_battery_catches_a_broken_propagator(self):
        # a wrong sign on the oscillator phase must not slip through
        def detuned(rho0, params, t):
            return propagate(rho0, params, t, phase_sign=-1)

        results = verify.run_checks("fast", propagator=detuned)
        assert any(not r.passed for r in results)


class TestUsage:
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
