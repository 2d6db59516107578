import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from ppmopt import moga
from ppmopt.cli import OPTIMIZER_NOTE, main, parse_design
from ppmopt.errors import ConfigError
from ppmopt.model import Architecture
from ppmopt.performance import EvalContext
from ppmopt.runconfig import default_config_yaml, load_config, parse_config

DESIGN_I_ARG = "d=1,R=1.412,r=0.319,L_b=0.620,r_j=0.026,r_p=0.023"

TINY_CFG = {
    "moga": {"population": 12, "generations": 4, "seed": 11},
    "bounds": {"lower": {"r": 0.1}},
}

#: Settings that are fixed constants of the GA and the l_c search, not
#: config keys; a config that sets one is rejected at that key.
REMOVED_KEYS = [("moga", "p_directional_crossover", 0.5),
                ("moga", "p_selection", 0.05), ("moga", "p_mutation", 0.1),
                ("moga", "dna_mutation_ratio", 0.05), ("moga", "doe", "sobol"),
                ("dexterity", "lc_min", 1e-3), ("dexterity", "lc_max", 10.0)]


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(TINY_CFG), encoding="utf-8")
    return str(path)


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestConfig:
    def test_defaults_parse_cleanly(self):
        cfg = parse_config(yaml.safe_load(default_config_yaml()))
        assert cfg.moga.population == 30
        assert cfg.ctx.stiffness_limits()[0] == pytest.approx(1e6)

    def test_empty_config_equals_defaults(self):
        # the whole resolved config, not just the evaluation context
        assert parse_config({}) == parse_config(
            yaml.safe_load(default_config_yaml()))
        assert EvalContext() == parse_config({}).ctx

    def test_unknown_key_rejected_with_path(self):
        # the out-of-plane torques, the grid phase and the fixed settings,
        # even at their fixed values, are not config keys
        for data, path in [
                ({"moga": {"populaton": 3}}, "moga.populaton"),
                ({"wrench": {"tau_x": 0.0}}, "wrench.tau_x"),
                ({"workspace": {"grid": {"angular_offset": 0.1}}},
                 "workspace.grid.angular_offset"),
                *(({section: {key: value}}, f"{section}.{key}")
                  for section, key, value in REMOVED_KEYS)]:
            with pytest.raises(ConfigError, match="unknown key") as err:
                parse_config(data)
            assert err.value.path == path

    def test_settable_keys_pinned(self):
        # adding or removing a setting must show up here
        def leaves(node, path):
            if not isinstance(node, dict):
                return [path]
            return [leaf for k, v in node.items()
                    for leaf in leaves(v, f"{path}.{k}" if path else k)]

        assert sorted(leaves(yaml.safe_load(default_config_yaml()), "")) == [
            "accuracy.delta_phiz_max_deg", "accuracy.delta_xy_max",
            "accuracy.delta_z_max", "actuator.prismatic", "actuator.revolute",
            "bounds.lower.L_b", "bounds.lower.R", "bounds.lower.r",
            "bounds.lower.r_j", "bounds.lower.r_p", "bounds.upper.L_b",
            "bounds.upper.R", "bounds.upper.r", "bounds.upper.r_j",
            "bounds.upper.r_p", "dexterity.characteristic_length",
            "dexterity.threshold", "material.density", "material.poisson_ratio",
            "material.young_modulus", "mode", "moga.generations",
            "moga.population", "moga.seed", "output_dir", "threads",
            "workspace.bisection_tol", "workspace.center",
            "workspace.delta_phi_deg", "workspace.grid.n_angular",
            "workspace.grid.n_orientation", "workspace.grid.n_radial",
            "wrench.f_x", "wrench.f_y", "wrench.f_z", "wrench.tau_z"]
        # the one key the template names only in a comment
        cfg = parse_config({"material": {"density": 7850.0,
                                         "young_modulus": 2.1e11,
                                         "shear_modulus": 8e10}})
        assert cfg.ctx.material.shear_modulus == 8e10

    def test_partial_material_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("material: {density: 7850}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "material.young_modulus" in str(err.value)

    def test_bad_value_type(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"moga": {"population": "many"}})
        assert "moga.population" in str(err.value)

    def test_poisson_ratio_at_most_minus_one_rejected(self):
        for nu in (-1.0, -1.5):
            with pytest.raises(ConfigError) as err:
                parse_config({"material": {"density": 7850, "young_modulus": 2.1e11,
                                           "poisson_ratio": nu}})
            assert "material" in str(err.value)

    def test_bad_center_element_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"workspace": {"center": [0.0, "zero", 0.0]}})
        assert "workspace.center" in str(err.value)

    @pytest.mark.parametrize("data,path", [
        ({"workspace": {"grid": {"n_radial": 3.7}}}, "workspace.grid.n_radial"),
        ({"moga": {"population": 12.5}}, "moga.population"),
        ({"moga": {"generations": 4.2}}, "moga.generations"),
        ({"moga": {"seed": 11.9}}, "moga.seed"),
        ({"moga": {"seed": float("inf")}}, "moga.seed"),
        ({"threads": 1.5}, "threads")],
        ids=["n-radial", "population", "generations", "seed", "seed-inf",
             "threads"])
    def test_non_integral_count_rejected(self, data, path):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert path in str(err.value)

    @pytest.mark.parametrize("data,path", [
        ({"workspace": {"bisection_tol": 0.0}}, "workspace.bisection_tol"),
        ({"workspace": {"bisection_tol": float("nan")}}, "workspace.bisection_tol"),
        ({"workspace": {"delta_phi_deg": -5.0}}, "workspace.delta_phi_deg"),
        ({"threads": -1}, "threads"),
        ({"dexterity": {"threshold": 0.0}}, "dexterity.threshold"),
        ({"dexterity": {"threshold": -0.1}}, "dexterity.threshold"),
        ({"dexterity": {"characteristic_length": float("inf")}},
         "dexterity.characteristic_length"),
        ({"dexterity": {"characteristic_length": 0.0}},
         "dexterity.characteristic_length"),
        ({"dexterity": {"characteristic_length": -0.5}},
         "dexterity.characteristic_length"),
        ({"dexterity": {"characteristic_length": float("nan")}},
         "dexterity.characteristic_length"),
        ({"dexterity": {"threshold": 2.0}}, "dexterity.threshold"),
        ({"moga": {"population": 1}}, "moga.population"),
        ({"moga": {"seed": -5}}, "moga.seed"),
        ({"moga": {"generations": 0}}, "moga.generations")],
        ids=["tol-zero", "tol-nan", "delta-phi-negative", "threads-negative",
             "threshold-zero", "threshold-negative", "lc-inf", "lc-zero",
             "lc-negative", "lc-nan", "threshold-above-one", "population-one",
             "seed-negative", "generations-zero"])
    def test_out_of_range_value_rejected(self, data, path):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == path

    @pytest.mark.parametrize("data,path", [
        ({"actuator": {"prismatic": 0}}, "actuator.prismatic"),
        ({"actuator": {"revolute": float("nan")}}, "actuator.revolute"),
        ({"actuator": {"prismatic": -1e7}}, "actuator.prismatic"),
        ({"material": {"density": 7850, "young_modulus": float("nan")}},
         "material.young_modulus"),
        ({"material": {"density": 7850, "young_modulus": 2.1e11,
                       "shear_modulus": 0.0}}, "material.shear_modulus"),
        ({"accuracy": {"delta_xy_max": 0}}, "accuracy.delta_xy_max"),
        ({"accuracy": {"delta_z_max": -1e-3}}, "accuracy.delta_z_max"),
        ({"accuracy": {"delta_phiz_max_deg": float("nan")}},
         "accuracy.delta_phiz_max_deg"),
        ({"wrench": {"f_z": float("nan")}}, "wrench.f_z"),
        ({"material": {"density": 7850, "young_modulus": 2.1e11,
                       "poisson_ratio": -1.0}}, "material.poisson_ratio"),
        # G follows from the Poisson ratio: giving both would drop one
        ({"material": {"density": 7850, "young_modulus": 2.1e11,
                       "poisson_ratio": 0.45, "shear_modulus": 5e10}},
         "material.shear_modulus")],
        ids=["actuator-zero", "actuator-nan", "actuator-negative",
             "modulus-nan", "shear-zero", "budget-zero", "budget-negative",
             "budget-nan", "wrench-nan", "poisson-minus-one",
             "poisson-and-shear"])
    def test_invalid_physics_rejected_with_key_path(self, data, path):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == path

    @pytest.mark.parametrize("data,path", [
        ({"mode": ["PLUS", "PLUS"]}, "mode"),
        ({"mode": ["PLUS", "UP", "PLUS"]}, "mode[1]"),
        ({"workspace": {"center": 3}}, "workspace.center"),
        ({"moga": 3}, "moga"),
        ({"wrench": {"f_x": False}}, "wrench.f_x"),
        ({"threads": True}, "threads"),
        ({"moga": {"seed": True}}, "moga.seed"),
        ({"workspace": {"center": [True, 0, 0]}}, "workspace.center"),
        ({"workspace": {"grid": {"n_radial": True}}}, "workspace.grid.n_radial"),
        ({"dexterity": {"characteristic_length": True}},
         "dexterity.characteristic_length"),
        ({"output_dir": None}, "output_dir"),
        ({"output_dir": [1, 2]}, "output_dir"),
        ({"output_dir": 5}, "output_dir")],
        ids=["mode-two-branches", "mode-unknown-branch", "center-scalar",
             "section-scalar", "load-false", "threads-true", "seed-true",
             "center-true", "grid-true", "lc-true", "output-dir-null",
             "output-dir-list", "output-dir-number"])
    def test_malformed_value_rejected_with_path(self, data, path):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == path

    @pytest.mark.parametrize("value", ["abc", True])
    def test_characteristic_length_error_names_its_kind(self, value):
        with pytest.raises(ConfigError) as err:
            parse_config({"dexterity": {"characteristic_length": value}})
        assert str(err.value) == ("dexterity.characteristic_length: cannot "
                                  f"interpret {value!r} as a number or null")

    def test_inverted_bounds_name_the_config_key(self):
        with pytest.raises(ConfigError, match="bounds for L_b invalid") as err:
            parse_config({"bounds": {"lower": {"L_b": 2.0}, "upper": {"L_b": 1.0}}})
        assert err.value.path == "bounds"

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"),
        ("moga: {population: 3\n", "invalid YAML"),
        ("- 1\n- 2\n", "top level must be a mapping")],
        ids=["unreadable", "invalid-yaml", "top-level-list"])
    def test_bad_config_file_rejected_with_its_path(self, tmp_path, text, message):
        path = tmp_path / "run.yaml"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=message) as err:
            load_config(str(path))
        assert err.value.path == str(path)

    def test_empty_config_file_equals_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        assert load_config(str(path)) == parse_config({})

    def test_yaml_no_load_rejected(self, tmp_path):
        # YAML 1.1 reads no / off as false, which float() would take as 0 N
        path = tmp_path / "no.yaml"
        path.write_text("wrench: {f_x: no, f_y: off}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.path == "wrench.f_x"

    def test_nan_modulus_in_yaml_rejected(self, tmp_path):
        path = tmp_path / "nan.yaml"
        path.write_text("material: {density: 7850, young_modulus: .nan}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.path == "material.young_modulus"

    @pytest.mark.parametrize("center", [[float("nan"), 0.0, 0.0],
                                        [float("inf"), 0.0, 0.0],
                                        [0.0, 0.0, float("-inf")]])
    def test_non_finite_center_rejected_with_path(self, center):
        with pytest.raises(ConfigError) as err:
            parse_config({"workspace": {"center": center}})
        assert err.value.path == "workspace.center"

    def test_integral_float_count_accepted(self):
        assert parse_config({"moga": {"population": 12.0}}).moga.population == 12

    def test_design_string_parsing(self):
        d = parse_design(DESIGN_I_ARG)
        assert d.architecture is Architecture.PRR
        assert d.link_length == pytest.approx(0.62)
        with pytest.raises(ConfigError):
            parse_design("d=1,R=1.0")
        with pytest.raises(ConfigError):
            parse_design(DESIGN_I_ARG + ",bogus=1")
        with pytest.raises(ConfigError, match="expected key=value") as err:
            parse_design("d=1,R")
        assert err.value.path == "design"
        with pytest.raises(ConfigError, match="bad number") as err:
            parse_design(DESIGN_I_ARG.replace("R=1.412", "R=x"))
        assert err.value.path == "design.R"

    @pytest.mark.parametrize("code", ["1.7", "inf", "nan", "0", "4"])
    def test_bad_architecture_code_rejected(self, code):
        with pytest.raises(ConfigError) as err:
            parse_design(DESIGN_I_ARG.replace("d=1", f"d={code}"))
        assert err.value.path == "design.d"

    def test_integral_float_architecture_code_accepted(self):
        d = parse_design(DESIGN_I_ARG.replace("d=1", "d=2.0"))
        assert d.architecture is Architecture.RPR

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_design_value_rejected(self, value):
        with pytest.raises(ConfigError, match="finite") as err:
            parse_design(DESIGN_I_ARG.replace("R=1.412", f"R={value}"))
        assert err.value.path == "design.R"

    def test_repeated_design_key_rejected(self):
        with pytest.raises(ConfigError, match="repeated") as err:
            parse_design(DESIGN_I_ARG + ",R=2")
        assert err.value.path == "design.R"


def _run_in_fresh_interpreter(code: str) -> str:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats is only needed for the DOE, and importing it takes most
    # of the start-up time of every command
    out = _run_in_fresh_interpreter(
        "import sys, ppmopt.cli; print('scipy.stats' in sys.modules)")
    assert out == "False"


def test_cli_import_spawns_no_process():
    # an import-time helper such as ctypes.util.find_library runs ldconfig
    # in a child process, which would add tens of ms to every command
    out = _run_in_fresh_interpreter(
        "import subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError(f'process spawned at import: {args!r}')\n"
        "subprocess.Popen = refuse\n"
        "import ppmopt.cli\n"
        "print('ok')\n")
    assert out == "ok"


class TestPrintDefaults:
    def test_round_trips_through_parser(self, capsys):
        assert main(["print-defaults"]) == 0
        out = capsys.readouterr().out
        parse_config(yaml.safe_load(out))


class TestEvaluate:
    @pytest.mark.parametrize("out", ["afile/report.json", "adir"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, out):
        # a regular file where a directory is needed, and a directory
        # where the report file is needed
        (tmp_path / "afile").write_text("", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        code = main(["evaluate", "--design", DESIGN_I_ARG,
                     "--out", str(tmp_path / out)])
        assert code == 2
        assert str(tmp_path / out.split("/")[0]) in capsys.readouterr().err

    def test_feasible_design_report(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["evaluate", "--config", tiny_config,
                     "--design", DESIGN_I_ARG, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mass_kg"] == pytest.approx(44.5, rel=0.03)
        assert doc["feasible"] is True
        assert doc["max_workspace_radius_m"] > 0
        assert doc["characteristic_length_m"] > 0
        assert doc["home"]["constraints"]["overall"] is True
        assert doc["workspace"]["min_inverse_condition"] >= 0.1
        assert doc["working_mode"] == ["PLUS", "PLUS", "PLUS"]

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("material: {density: 7850}\n", encoding="utf-8")
        code = main(["evaluate", "--config", str(bad),
                     "--design", DESIGN_I_ARG, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "material.young_modulus" in capsys.readouterr().err

    def test_poisson_ratio_minus_one_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("material: {density: 7850, young_modulus: 2.1e+11, "
                       "poisson_ratio: -1.0}\n", encoding="utf-8")
        code = main(["evaluate", "--config", str(bad),
                     "--design", DESIGN_I_ARG, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "material" in capsys.readouterr().err

    def test_negative_rotation_band_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("workspace: {delta_phi_deg: -5}\n", encoding="utf-8")
        code = main(["evaluate", "--config", str(bad),
                     "--design", DESIGN_I_ARG, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "workspace.delta_phi_deg" in capsys.readouterr().err

    @pytest.mark.parametrize("center", [".nan", ".inf"])
    def test_non_finite_center_exit_2(self, tmp_path, capsys, center):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"workspace: {{center: [{center}, 0, 0]}}\n",
                       encoding="utf-8")
        code = main(["evaluate", "--config", str(bad),
                     "--design", DESIGN_I_ARG, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "workspace.center" in capsys.readouterr().err

    @pytest.mark.parametrize("design", [
        DESIGN_I_ARG.replace("R=1.412", "R=nan"),
        DESIGN_I_ARG + ",R=2"], ids=["nan", "repeated"])
    def test_bad_design_value_exit_2_without_report(self, tmp_path, capsys,
                                                    design):
        out = tmp_path / "r.json"
        code = main(["evaluate", "--design", design, "--out", str(out)])
        assert code == 2
        assert "design.R" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_architecture_code_exit_2(self, tmp_path, capsys):
        code = main(["evaluate", "--design", DESIGN_I_ARG.replace("d=1", "d=inf"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "design.d" in capsys.readouterr().err

    def test_needle_design_exit_3_with_report(self, tiny_config, tmp_path):
        out = tmp_path / "needle.json"
        needle = DESIGN_I_ARG.replace("r_j=0.026", "r_j=0.0001")
        code = main(["evaluate", "--config", tiny_config,
                     "--design", needle, "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["feasible"] is False
        assert doc["home"]["constraints"]["g4_kxy"] is False

    def test_out_of_bounds_design_exit_3(self, tiny_config, tmp_path):
        out = tmp_path / "oob.json"
        big = DESIGN_I_ARG.replace("R=1.412", "R=9.0")
        code = main(["evaluate", "--config", tiny_config,
                     "--design", big, "--out", str(out)])
        assert code == 3
        assert "outside" in json.loads(out.read_text())["error"]


@pytest.fixture(scope="module")
def opt_run(tmp_path_factory):
    cfg_path = tmp_path_factory.mktemp("cfg") / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(TINY_CFG), encoding="utf-8")
    out = tmp_path_factory.mktemp("out")
    code = main(["optimize", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return str(out), str(cfg_path)


class TestOptimize:
    def test_unwritable_out_exit_2_before_the_ga(self, tiny_config, tmp_path,
                                                 capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        for out in (afile, afile / "sub"):
            code = main(["optimize", "--config", tiny_config, "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert str(out) in err and "generation" not in err

    def test_negative_seed_flag_exit_2(self, tiny_config, tmp_path, capsys):
        code = main(["optimize", "--config", tiny_config, "--seed", "-1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "moga.seed" in err and "generation" not in err

    def test_negative_threads_flag_exit_2(self, tiny_config, tmp_path, capsys):
        code = main(["optimize", "--config", tiny_config, "--threads", "-1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "threads" in capsys.readouterr().err

    def test_outputs_exist(self, opt_run):
        out, _ = opt_run
        for name in ("pareto.csv", "history.csv", "fronts_by_architecture.csv",
                     "run.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_pareto_columns_and_sorting(self, opt_run):
        out, _ = opt_run
        lines = Path(out, "pareto.csv").read_bytes().split(b"\n")
        assert lines[0] == b"d,R,r,L_b,r_j,r_p,mass_kg,R_w_m,L_c_m,seed"
        assert lines[-1] == b""            # single trailing LF, LF endings
        assert all(not line.endswith(b"\r") for line in lines)
        rows = [line.decode().split(",") for line in lines[1:-1] if line]
        radii = [float(r[7]) for r in rows]
        masses = [float(r[6]) for r in rows]
        assert radii == sorted(radii)
        assert masses == sorted(masses)
        assert all(r[9] == "11" for r in rows)

    def test_history_columns(self, opt_run):
        out, _ = opt_run
        lines = Path(out, "history.csv").read_text().splitlines()
        assert lines[0] == "generation,hypervolume,n_feasible"
        assert len(lines) == 1 + 4         # one row per generation

    def test_rerun_byte_identical(self, opt_run, tmp_path):
        out, cfg_path = opt_run
        again = tmp_path / "again"
        assert main(["optimize", "--config", cfg_path, "--out", str(again)]) == 0
        for name in ("pareto.csv", "history.csv", "fronts_by_architecture.csv"):
            assert _sha(os.path.join(out, name)) == _sha(str(again / name))

    def test_exports_pinned(self, opt_run):
        # byte-level golden pins of the three exports of the tiny config
        out, _ = opt_run
        assert {name: _sha(os.path.join(out, name)) for name in
                ("pareto.csv", "history.csv", "fronts_by_architecture.csv")} == {
            "pareto.csv": "70ddba3af811d2c539111bbb73873ac919d6ca2a1617cab790b342be4fa9b0fe",
            "history.csv": "bebaee83fa487f178736787b7473e907db89dd023733be6a44fba3254460c521",
            "fronts_by_architecture.csv":
                "70ab216ebf4b0c98c3c244b91998cb14415ba8c3873a526fa63f6797d498b3e4",
        }

    def test_seed_override_changes_output(self, opt_run, tmp_path):
        out, cfg_path = opt_run
        other = tmp_path / "seeded"
        code = main(["optimize", "--config", cfg_path, "--seed", "12",
                     "--out", str(other)])
        assert code in (0, 4)
        assert _sha(os.path.join(out, "pareto.csv")) != _sha(str(other / "pareto.csv"))

    def test_optimizer_note_states_the_operator_table(self):
        # run.json's note must describe the table every run uses
        numbers = [float(x) for x in re.findall(r"\d+\.\d+", OPTIMIZER_NOTE)]
        assert numbers == pytest.approx(
            [moga.P_DIRECTIONAL_CROSSOVER, moga.P_SELECTION, moga.P_MUTATION,
             moga.P_ONE_POINT_CROSSOVER], abs=1e-12)

    def test_run_manifest(self, opt_run, tmp_path):
        out, _ = opt_run
        doc = json.loads(Path(out, "run.json").read_text())
        assert doc["seed"] == 11
        assert doc["total_evaluations"] == 48
        assert "directional crossover" in doc["optimizer"]
        assert doc["workspace"] == {
            "center": [0.0, 0.0, 0.0], "delta_phi_deg": 20.0,
            "bisection_tol": 1e-3,
            "grid": {"n_radial": 5, "n_angular": 12, "n_orientation": 5}}
        # the configured band, not its round trip through radians
        # (15 degrees came back as 14.999999999999998)
        cfg = tmp_path / "band.yaml"
        cfg.write_text(yaml.safe_dump(
            {"moga": {"population": 4, "generations": 1, "seed": 11},
             "workspace": {"delta_phi_deg": 15}}), encoding="utf-8")
        out = tmp_path / "band"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) in (0, 4)
        doc = json.loads((out / "run.json").read_text())
        assert doc["workspace"]["delta_phi_deg"] == 15.0
        assert load_config(str(cfg)).delta_phi == math.radians(15.0)

    def test_rotated_center_changes_front(self, opt_run, tmp_path):
        # optimize searches the configured cylinder, not the default one
        # (this one still leaves a non-empty archive)
        out, _ = opt_run
        cfg = tmp_path / "rotated.yaml"
        cfg.write_text(yaml.safe_dump(
            {**TINY_CFG, "workspace": {"center": [0.0, 0.0, -0.3]}}),
            encoding="utf-8")
        rotated = tmp_path / "rotated"
        assert main(["optimize", "--config", str(cfg), "--out", str(rotated)]) == 0
        assert _sha(os.path.join(out, "pareto.csv")) != \
            _sha(str(rotated / "pareto.csv"))
        doc = json.loads((rotated / "run.json").read_text())
        assert doc["workspace"]["center"] == [0.0, 0.0, -0.3]

    def test_empty_archive_exit_4(self, tmp_path):
        # a hair-thin section cap makes every design fail the stiffness
        # constraints, so the archive stays empty
        cfg = tmp_path / "hopeless.yaml"
        cfg.write_text(yaml.safe_dump({
            "moga": {"population": 4, "generations": 2, "seed": 1},
            "bounds": {"upper": {"r_j": 1e-5, "r_p": 1e-5}},
        }), encoding="utf-8")
        out = tmp_path / "run"
        code = main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert code == 4
        lines = (out / "pareto.csv").read_text().splitlines()
        assert len(lines) == 1             # header only


@pytest.mark.parametrize("section,key,value", REMOVED_KEYS)
def test_removed_setting_exit_2(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({section: {key: value}}), encoding="utf-8")
    for args in (["evaluate", "--design", DESIGN_I_ARG,
                  "--out", str(tmp_path / "r.json")],
                 ["optimize", "--out", str(tmp_path / "out")]):
        assert main([*args, "--config", str(cfg)]) == 2
        assert f"{section}.{key}: unknown key" in capsys.readouterr().err


class TestSweep:
    def test_prr_front(self, opt_run, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--from", opt_run[0], "--architecture", "PRR",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "R_w_m,R,r,L_b,r_j,r_p"
        assert len(lines[1].split(",")) == 6
        radii = [float(line.split(",")[0]) for line in lines[1:]]
        assert radii == sorted(radii)

    def test_empty_front_exit_5(self, opt_run, tmp_path):
        # the aligned RPR architecture is singular at its workspace center
        code = main(["sweep", "--from", opt_run[0], "--architecture", "RPR",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 5

    def test_architecture_by_number(self, opt_run, tmp_path):
        code = main(["sweep", "--from", opt_run[0], "--architecture", "1",
                     "--out", str(tmp_path / "n.csv")])
        assert code == 0

    @pytest.mark.parametrize("text", ["XYZ", "4"])
    def test_unknown_architecture_exit_2(self, opt_run, tmp_path, capsys, text):
        code = main(["sweep", "--from", opt_run[0], "--architecture", text,
                     "--out", str(tmp_path / "a.csv")])
        assert code == 2
        assert (f"architecture: unknown architecture '{text}'"
                in capsys.readouterr().err)

    def test_sweep_from_bare_csv(self, opt_run, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["sweep", "--from", os.path.join(opt_run[0], "pareto.csv"),
                     "--architecture", "PRR", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "R_w_m,R,r,L_b,r_j,r_p"

    @pytest.mark.parametrize("text", [
        "d,R,r,L_b,r_j,r_p,mass_kg,R_w_m,L_c_m,seed\n1,1.4,0.3,0.6\n",
        "d,R,r,L_b,r_j,r_p\n1,1.4,0.3,0.6,0.03,0.02\n"],
        ids=["truncated-row", "no-radius-column"])
    def test_bad_csv_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "front.csv"
        path.write_text(text, encoding="utf-8")
        code = main(["sweep", "--from", str(path), "--architecture", "PRR",
                     "--out", str(tmp_path / "z.csv")])
        assert code == 2
        assert "not a pareto/front CSV" in capsys.readouterr().err

    def test_missing_archive_exit_2(self, tmp_path):
        code = main(["sweep", "--from", str(tmp_path / "nowhere"),
                     "--architecture", "PRR", "--out", str(tmp_path / "y.csv")])
        assert code == 2
