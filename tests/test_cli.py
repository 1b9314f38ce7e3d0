import collections
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

from kerrdeco import cli, measures, states, verify
from kerrdeco.cli import Scenario, main, parse_scenario, run_figure, run_simulate, run_sweep
from kerrdeco.evolution import CavityParams, propagate, trajectory
from kerrdeco.states import (
    _FAMILIES, BellPsi, PureState2Q, WernerLike, parse_initial, random_density_matrix, random_pure_state,
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
                fock_dim=doc.get("fock_dim", 2))


def scenario_inputs(seed):
    """What the benchmark's scenarios workload draws from an input seed.

    Returns the initial state of each family, then the initial state and
    the values of its p sweep.
    """
    rng = np.random.default_rng(seed)

    def family_doc(family):
        doc = {"family": family}
        if family in ("bell_psi", "bell_phi", "werner_psi", "werner_phi"):
            doc["sign"] = "+" if rng.random() < 0.5 else "-"
        if family.startswith("werner"):
            doc["p"] = round(float(rng.uniform(0.3, 1.0)), 3)
        return doc

    def pairs(entries):
        return [[float(z.real), float(z.imag)] for z in entries]

    initials = {family: family_doc(family)
                for family in ("bell_psi", "bell_phi", "bell_like", "plus_plus",
                               "werner_psi", "werner_phi", "werner_like")}
    initials["custom_pure"] = {"family": "custom_pure",
                               "amplitudes": pairs(random_pure_state(rng).amplitudes())}
    initials["custom_mixed"] = {"family": "custom_mixed",
                                "matrix": [pairs(row) for row in random_density_matrix(rng).matrix]}
    werner = family_doc(("werner_psi", "werner_phi")[rng.integers(2)])
    return initials, werner, [round(float(rng.uniform(0.3, 1.0)), 3) for _ in range(3)]


SEED0_INITIALS, SEED0_SWEEP_INITIAL, SEED0_SWEEP_VALUES = scenario_inputs(0)
# the runs of the seed-0 scenarios workload, named as in benchmarks/reference.json
SEED0_RUNS = [f"{family}-{engine}" for family in SEED0_INITIALS
              for engine in ("analytic", "oracle", "closed_form")
              if not (engine == "closed_form" and family.startswith("custom"))] + ["sweep"]


# one bad field per request, and a word the error message must contain; each
# case keeps its number as its id (6 to 9 were the cases of the removed step key)
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
]


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

    @pytest.mark.parametrize("params", ['"params": {"nbar1": 0.5}, ', ""])
    def test_huge_fock_dim_names_the_field(self, tmp_path, capsys, params):
        path = tmp_path / "scen.json"
        path.write_text('{"initial": {"family": "bell_like"}, "engine": "oracle", ' + params
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

    @pytest.mark.parametrize("run", SEED0_RUNS)
    def test_scenario_bytes_match_the_benchmark_reference(self, tmp_path, run):
        # every column set, and the oracle at fock_dim 2, as the benchmark's scenarios workload runs them
        reference = json.loads(REFERENCE.read_text())
        outputs = ["concurrence", "negativity", "eof", "log_negativity", "matrix_elements"]
        if run == "sweep":
            doc = {"initial": SEED0_SWEEP_INITIAL, "outputs": outputs}
            argv = ["sweep", "--sweep", "p", "--values", ",".join(map(repr, SEED0_SWEEP_VALUES))]
        else:
            family, engine = run.split("-")
            doc = {"initial": SEED0_INITIALS[family], "engine": engine, "outputs": outputs,
                   **({"fock_dim": 2} if engine == "oracle" else {})}
            argv = ["simulate"]
        out = tmp_path / f"{run}.csv"
        assert main(argv + ["--scenario", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
        want = reference["0"][f"scenarios/{run}"]
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
        assert len(results) == 42
        assert [r.name for r in results if not r.passed] == []
        # one call for every family per parameter set: the base set, then the 11
        # other points of the 12-point sweep, whose (gamma 4, chi 7/7/20) point
        # is the base set itself and reuses its gaps
        assert oracle_calls == [(10, 4, 4)] * 12

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
        for name in ("_random_density", "random_pure_state"):
            monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
        verify.run_checks(level)
        # the mixed and local-unitary corpora and the vacuum-limit state, then
        # the pure corpus, drawn after the custom_pure family member
        mixed = [x for x in drawn if not isinstance(x, PureState2Q)]
        pure = [x for x in drawn if isinstance(x, PureState2Q)][1:]
        assert (len(mixed), len(pure)) == (n_corpus + n_rotated + 1, n_corpus)
        rhos = mixed + [np.outer(a, a.conj()) for a in (psi.amplitudes() for psi in pure)]
        assert [seen[rho.tobytes()] for rho in rhos] == [1] * len(rhos)


class TestUsage:
    @pytest.mark.parametrize("argv, named", [
        (["figure", "fig1", "--figure", "fig2"], "'fig1' and --figure 'fig2'"),
        (["verify", "fast", "--verify", "full"], "'fast' and --verify 'full'"),
    ])
    def test_conflicting_positional_and_flag_forms_exit_one(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"kerrdeco: conflicting values {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_matching_positional_and_flag_forms_run(self, tmp_path, capsys):
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        assert main(["figure", "fig2", "--out", str(out1)]) == 0
        assert main(["figure", "fig2", "--figure", "fig2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert main(["verify", "fast", "--verify", "fast", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["level"] == "fast"

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
