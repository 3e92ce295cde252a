import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermodual.cli import build_system, main, validate_config
from thermodual.errors import ConfigError

HEISENBERG_CONFIG = {
    "label": "heis-test",
    "model": {"kind": "heisenberg", "geometry": "line", "n": 3, "targets": [1.0, 0.0, 1.0]},
    "solver": {"variant": "second_classical", "epsilon": 0.3, "max_iter": 200},
    "oracle": {"enable": True, "iterations": 600},
    "seed": 21,
}

REPETITION_HQC_CONFIG = {
    "label": "rep3-hqc",
    "model": {
        "kind": "stabilizer",
        "code": "repetition3",
        "charges": [
            {"word": "1", "target": 0.2},
            {"word": "2", "target": 0.0},
            {"word": "3", "target": 0.5},
        ],
    },
    "solver": {"variant": "first_hqc", "epsilon": 0.1, "max_iter": 60, "shots_per_iteration": 4000},
    "oracle": {"enable": True, "iterations": 400},
    "repetitions": 3,
    "seed": 9,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config({**HEISENBERG_CONFIG, "extra": 1})

    def test_unknown_solver_key(self):
        bad = json.loads(json.dumps(HEISENBERG_CONFIG))
        bad["solver"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="solver"):
            validate_config(bad)

    def test_null_keeps_its_meaning(self):
        raw = json.loads(json.dumps(HEISENBERG_CONFIG))
        raw["solver"].update(eta=None, delta=None, temperature=None, nesterov=None)
        solver = validate_config(raw)["solver"]
        assert all(solver[key] is None for key in ("eta", "delta", "temperature", "nesterov"))
        raw["solver"] = {**HEISENBERG_CONFIG["solver"], "warm_start": None}
        with pytest.raises(ConfigError, match="warm_start must be a boolean"):
            validate_config(raw)

    def test_malformed_charge_word(self):
        bad = json.loads(json.dumps(REPETITION_HQC_CONFIG))
        bad["model"]["charges"][0]["word"] = "24"
        with pytest.raises(ConfigError):
            validate_config(bad)

    def test_default_repetitions_by_variant(self):
        assert validate_config(HEISENBERG_CONFIG)["repetitions"] == 1
        assert validate_config(REPETITION_HQC_CONFIG)["repetitions"] == 3

    def test_round_trip_stable(self):
        once = validate_config(HEISENBERG_CONFIG)
        twice = validate_config(json.loads(json.dumps(once)))
        assert once == twice

    @pytest.mark.parametrize("geometry,key,value", [
        ("line", "n", "3"), ("line", "n", 3.0), ("grid", "rows", True), ("grid", "cols", None),
    ])
    def test_model_sizes_must_be_integers(self, geometry, key, value):
        bad = json.loads(json.dumps(HEISENBERG_CONFIG))
        bad["model"].update(geometry=geometry, rows=2, cols=2)
        bad["model"].pop("n")
        bad["model"][key] = value
        with pytest.raises(ConfigError, match=f"model.{key} must be an integer"):
            validate_config(bad)

    def test_budgets_below_two_to_the_63(self):
        raw = json.loads(json.dumps(REPETITION_HQC_CONFIG))
        raw["solver"]["hessian_samples_per_iteration"] = 2**63 - 1
        assert validate_config(raw)["solver"]["hessian_samples_per_iteration"] == 2**63 - 1
        raw["solver"]["hessian_samples_per_iteration"] = 2**63
        with pytest.raises(ConfigError, match="hessian_samples_per_iteration must be an integer"):
            validate_config(raw)

    def test_solver_defaults_are_the_owners(self):
        import inspect

        from thermodual.optimize import OptimizerConfig
        from thermodual.shots import ShotEstimator

        solver = validate_config({**HEISENBERG_CONFIG, "solver": {}})["solver"]
        assert OptimizerConfig(**{k: solver[k] for k in OptimizerConfig.__dataclass_fields__}) == OptimizerConfig()
        defaults = inspect.signature(ShotEstimator).parameters
        assert solver["shots_per_iteration"] == defaults["shots_per_iteration"].default
        assert solver["hessian_samples_per_iteration"] == defaults["hessian_samples_per_iteration"].default
        assert solver["estimator_mode"] == defaults["mode"].default
        assert solver["warm_start"] is False

    def test_readme_configs_validate(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            validate_config(json.loads(block))

    def test_build_system_from_config(self):
        system = build_system(validate_config(REPETITION_HQC_CONFIG)["model"])
        assert system.n_qubits == 3 and system.n_charges == 3


class TestRunCommand:
    def test_artifacts_and_schema(self, tmp_path):
        config = write_config(tmp_path, HEISENBERG_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        runs = (out / "runs.csv").read_text().splitlines()
        assert runs[0] == "run_id,iter,f_estimate,grad_norm,error_metric,mu_0,mu_1,mu_2,shots_used"
        assert len(runs) > 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 2
        assert summary["converged"] is True
        # 3 sqrt(2) - 7: the crossing of the spin-1/2 and spin-3/2 lines
        assert summary["reference_energy"] == pytest.approx(3 * np.sqrt(2) - 7, abs=1e-12)
        assert summary["reference_method"] == "su2"
        assert not (out / "aggregate.csv").exists()  # single repetition

    def test_repeated_runs_write_aggregate(self, tmp_path):
        config = write_config(tmp_path, REPETITION_HQC_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0].startswith("iter,n_runs,f_estimate_mean,f_estimate_std")
        assert len(agg) > 2
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["runs"]) == 3

    def test_config_error_exit_and_no_artifacts(self, tmp_path):
        bad = json.loads(json.dumps(REPETITION_HQC_CONFIG))
        bad["model"]["charges"][0]["word"] = "24"
        config = write_config(tmp_path, bad)
        out = tmp_path / "never"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    def test_strict_flags_non_convergence(self, tmp_path):
        stuck = json.loads(json.dumps(HEISENBERG_CONFIG))
        stuck["model"]["targets"] = [2.9, 0.0, 0.0]  # feasible, but near |q| = n
        stuck["solver"] = {"variant": "first_classical", "epsilon": 0.3, "max_iter": 20}
        stuck["oracle"] = {"enable": False}
        config = write_config(tmp_path, stuck)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--strict"]) == 4
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    def test_exact_heisenberg_run_never_assembles_rho(self, tmp_path, monkeypatch):
        from thermodual.gibbs import ThermalState

        def refuse(state):
            raise AssertionError("an exact Heisenberg run reads the block means only")

        monkeypatch.setattr(ThermalState, "rho", property(refuse))
        monkeypatch.setattr(ThermalState, "eigenvectors", property(refuse))
        payload = {
            "model": {
                "kind": "heisenberg", "geometry": "line", "n": 6, "nnn": True,
                "targets": [0.8, -0.3, 0.5],
            },
            "solver": {"variant": "first_classical", "epsilon": 0.1, "max_iter": 40},
        }
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["runs"][0]["iterations"] == 41

    def test_sampled_heisenberg_run_never_assembles_rho(self, tmp_path, monkeypatch):
        from thermodual.gibbs import ThermalState

        def refuse(state):
            raise AssertionError("a first-order sampled run reads the term means of the blocks")

        monkeypatch.setattr(ThermalState, "rho", property(refuse))
        monkeypatch.setattr(ThermalState, "eigenvectors", property(refuse))
        payload = {
            "model": {
                "kind": "heisenberg", "geometry": "line", "n": 6, "nnn": True,
                "targets": [0.8, -0.3, 0.5],
            },
            "solver": {
                "variant": "first_hqc", "epsilon": 0.1, "max_iter": 30,
                "shots_per_iteration": 10000,
            },
            "repetitions": 2,
        }
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [run["iterations"] for run in summary["runs"]] == [31, 31]

    def test_mean_that_is_not_finite_exits_3(self, tmp_path, monkeypatch, capsys):
        from thermodual.gibbs import ThermalState

        monkeypatch.setattr(
            ThermalState, "term_means", property(lambda state: np.full(5, np.nan))
        )
        config = write_config(tmp_path, REPETITION_HQC_CONFIG)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical integrity error: outcome mean nan")

    def test_worker_counts_agree_bytewise(self, tmp_path):
        config = write_config(tmp_path, REPETITION_HQC_CONFIG)
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        assert main(["run", "--config", str(config), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["run", "--config", str(config), "--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()

    def test_pool_has_no_more_workers_than_repetitions(self, tmp_path, monkeypatch):
        import thermodual.cli as cli

        sizes = []

        class InlinePool:
            """Records its size and runs the tasks in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
        payload = {**REPETITION_HQC_CONFIG, "repetitions": 2}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--workers", "8"]) == 0
        assert sizes == [2]

    def test_seed_override_changes_sampled_runs(self, tmp_path):
        config = write_config(tmp_path, REPETITION_HQC_CONFIG)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["run", "--config", str(config), "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "runs.csv").read_bytes() != (out2 / "runs.csv").read_bytes()

    def test_second_order_sampled_through_cli(self, tmp_path):
        payload = json.loads(json.dumps(REPETITION_HQC_CONFIG))
        payload["solver"] = {
            "variant": "second_hqc", "epsilon": 0.2, "max_iter": 25, "delta": 0.05,
            "shots_per_iteration": 20000, "hessian_samples_per_iteration": 300000,
            "hessian_regularization_floor": 0.1,
        }
        payload["repetitions"] = 2
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variant"] == "second_hqc"
        assert all(r["iterations"] <= 26 for r in summary["runs"])

    def test_grid_nnn_four_qubit_model(self, tmp_path):
        # the alternative 2x2 lattice with targets (1, 0, 1) stays supported
        payload = {
            "model": {
                "kind": "heisenberg", "geometry": "grid", "rows": 2, "cols": 2,
                "nnn": True, "lambda": 0.5, "targets": [1.0, 0.0, 1.0],
            },
            "solver": {"variant": "second_classical", "epsilon": 0.3, "max_iter": 300},
            "oracle": {"enable": True, "iterations": 800},
            "seed": 14,
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["runs"][0]["final_error_metric"] <= 1e-2

    def test_warm_start_config_converges_immediately(self, tmp_path):
        payload = json.loads(json.dumps(REPETITION_HQC_CONFIG))
        payload["solver"] = {
            "variant": "second_classical", "epsilon": 0.1, "max_iter": 30,
            "warm_start": True,
        }
        payload.pop("repetitions")
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["runs"][0]["iterations"] <= 2

    def test_repetitions_share_one_system_and_warm_start(self, tmp_path, monkeypatch):
        import thermodual.encoding as encoding
        import thermodual.models as models

        built = []
        build = models.build_stabilizer_system

        def counted(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(models, "build_stabilizer_system", counted)
        monkeypatch.setattr(encoding, "build_stabilizer_system", counted)
        payload = json.loads(json.dumps(REPETITION_HQC_CONFIG))
        payload["solver"].update(max_iter=5, warm_start=True)
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1  # three repetitions, one system, no warm-start Gibbs state

    @pytest.mark.parametrize("code,charges", [
        ("detect422", [("10", 0.1), ("20", 0.0), ("30", 0.2)]),
        ("repetition3", [("1", 0.2), ("3", 0.5)]),
        ("repetition3", [("1", 0.6), ("2", 0.0), ("3", 0.8)]),
    ], ids=["two-logical-qubits", "two-axes", "pure-target"])
    def test_warm_start_rejected(self, tmp_path, code, charges):
        payload = {
            "model": {"kind": "stabilizer", "code": code,
                      "charges": [{"word": w, "target": t} for w, t in charges]},
            "solver": {"variant": "second_classical", "max_iter": 10, "warm_start": True},
            "oracle": {"enable": False},
        }
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("words", [("1", "2", "3"), ("1", "3")])
    def test_encoded_fidelity_needs_every_axis(self, tmp_path, words):
        targets = {"1": 0.2, "2": -0.1, "3": 0.5}
        payload = {
            "model": {"kind": "stabilizer", "code": "repetition3",
                      "charges": [{"word": w, "target": targets[w]} for w in words]},
            "solver": {"variant": "second_classical", "max_iter": 30},
            "oracle": {"enable": False},
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        fidelity = json.loads((out / "summary.json").read_text())["encoded_state_fidelity"]
        if len(words) == 3:
            assert isinstance(fidelity, float) and 0.0 < fidelity <= 1.0 + 1e-12
        else:
            assert fidelity is None


class TestVerifyCommand:
    def test_codes_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "codes", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        printed = capsys.readouterr().out
        assert "PASS" in printed and "FAIL" not in printed

    def test_formulas_suite_passes(self):
        assert main(["verify", "formulas", "--seed", "2"]) == 0

    def test_gradients_suite_passes(self):
        assert main(["verify", "gradients", "--seed", "2"]) == 0

    def test_references_suite_passes(self, capsys):
        assert main(["verify", "references", "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS [references]") == 5

    def test_references_suite_exits_3_on_mismatch(self, monkeypatch):
        import thermodual.cli as cli
        from thermodual.oracle import ReferenceEnergy

        monkeypatch.setattr(cli, "reference_energy", lambda system: ReferenceEnergy(1.0, "su2"))
        assert main(["verify", "references"]) == 3


class TestSweepCommand:
    def test_temperature_sweep_fidelity_monotone(self, tmp_path):
        payload = {
            "label": "perfect5-sweep",
            "model": {
                "kind": "stabilizer",
                "code": "perfect5",
                "charges": [
                    {"word": "1", "target": 0.2},
                    {"word": "2", "target": 0.0},
                    {"word": "3", "target": 0.5},
                ],
            },
            "solver": {"variant": "second_classical", "epsilon": 0.1, "max_iter": 200},
            "oracle": {"enable": False},
            "seed": 3,
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(config), "--parameter", "T",
            "--values", "1,0.3,0.1,0.03", "--out", str(out),
        ]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        fid_col = header.index("fidelity")
        fidelities = [float(line.split(",")[fid_col]) for line in lines[1:]]
        assert all(a <= b + 1e-12 for a, b in zip(fidelities, fidelities[1:]))

    def test_eta_sweep_rejects_unstable_steps(self, tmp_path):
        config = write_config(tmp_path, {
            "model": {"kind": "heisenberg", "geometry": "line", "n": 3, "targets": [1.0, 0.0, 1.0]},
            "solver": {"variant": "first_classical", "epsilon": 0.1, "max_iter": 2500},
            "oracle": {"enable": False},
            "seed": 4,
        })
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(config), "--parameter", "eta",
            "--values", "0.0005,0.5", "--out", str(out),
        ]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        ok_row = lines[1].split(",")
        rejected_row = lines[2].split(",")
        assert ok_row[3] == "ok"
        assert rejected_row[3] == "rejected" and rejected_row[4] == "False"

    def test_shots_sweep_error_non_increasing_on_average(self, tmp_path):
        payload = json.loads(json.dumps(REPETITION_HQC_CONFIG))
        payload["solver"]["max_iter"] = 120
        payload["repetitions"] = 5
        config = write_config(tmp_path, payload)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(config), "--parameter", "shots",
            "--values", "100,1000,10000", "--out", str(out),
        ]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        val_col = header.index("value")
        err_col = header.index("final_error_metric")
        by_value = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_value.setdefault(float(cells[val_col]), []).append(float(cells[err_col]))
        means = [np.mean(by_value[v]) for v in sorted(by_value)]
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))

    def test_unknown_parameter_rejected(self, tmp_path):
        config = write_config(tmp_path, HEISENBERG_CONFIG)
        result = subprocess.run(
            [sys.executable, "-m", "thermodual.cli", "sweep", "--config", str(config),
             "--parameter", "momentum", "--values", "1", "--out", str(tmp_path / "x")],
            capture_output=True,
        )
        assert result.returncode == 2


def repetition_model(charge):
    """The repetition-code model with `charge` as its one charge entry."""
    return {**REPETITION_HQC_CONFIG["model"], "charges": [charge]}


class TestExitCodes:
    @pytest.mark.parametrize("block,key,value,code", [
        ("model", "n", 11, 5),
        ("model", "n", "3", 2),
        ("model", "n", True, 2),
        ("solver", "temperature", -1, 2),
        ("solver", "delta", -1, 2),
        ("solver", "max_iter", 7.9, 2),
        ("solver", "max_iter", "10", 2),
        ("solver", "max_iter", -3, 2),
        ("solver", "nesterov", "no", 2),
        ("solver", "epsilon", True, 2),
        ("oracle", "iterations", 600.0, 2),
        ("oracle", "enable", 1, 2),
        (None, "seed", "21", 2),
        ("model", "J", "1.5", 2),
        ("model", "lambda", True, 2),
        ("model", "nnn", "no", 2),
        ("model", "targets", ["1", 0, True], 2),
        ("model", "targets", [1.0, 0.0], 2),
        (None, "model", repetition_model({"word": "1", "target": "0.2"}), 2),
        (None, "model", repetition_model({"word": 1, "target": 0.2}), 2),
        (None, "model", repetition_model({"word": "1"}), 2),
        (None, "model", repetition_model(5), 2),
        ("solver", "shots_per_iteration", 0, 2),
        ("solver", "shots_per_iteration", -50, 2),
        ("solver", "hessian_samples_per_iteration", -5, 2),
        # non-object blocks and non-string names
        (None, "model", "abc", 2),
        (None, "oracle", "x", 2),
        (None, "solver", 5, 2),
        ("model", "kind", ["h"], 2),
        (None, "model", {**REPETITION_HQC_CONFIG["model"], "code": ["x"]}, 2),
        (None, "label", ["x"], 2),
        # non-finite numbers and budgets beyond int64
        ("solver", "eta", float("nan"), 2),
        ("model", "J", float("inf"), 2),
        (None, "model", repetition_model({"word": "1", "target": float("nan")}), 2),
        ("model", "targets", [float("nan"), 0, 0], 2),
        ("solver", "temperature", float("nan"), 2),
        ("solver", "epsilon", float("inf"), 2),
        ("solver", "delta", float("nan"), 2),
        ("solver", "shots_per_iteration", 10**30, 2),
        ("solver", "hessian_samples_per_iteration", 2**63, 2),
        # nothing reads a tolerance, so the key is unknown
        ("oracle", "tolerance", 1e-6, 2),
    ])
    def test_one_line_message_and_no_traceback(self, tmp_path, block, key, value, code):
        payload = json.loads(json.dumps(HEISENBERG_CONFIG))
        (payload if block is None else payload[block])[key] = value
        config = write_config(tmp_path, payload)
        result = subprocess.run(
            [sys.executable, "-m", "thermodual.cli", "run", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == code
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("block,key,value", [
        ("solver", "delta", float("nan")),
        ("solver", "epsilon", float("-inf")),
        ("model", "lambda", float("nan")),
        ("solver", "shots_per_iteration", 2**63),
        (None, "oracle", [True]),
        # a whole config: extensive Hessian sampling on a code's multi-site charges
        (None, None, {
            **REPETITION_HQC_CONFIG,
            "model": repetition_model({"word": "1", "target": 0.2}),
            "solver": {"variant": "second_hqc", "estimator_mode": "extensive"},
        }),
    ])
    def test_refused_before_any_solve(self, tmp_path, monkeypatch, block, key, value):
        import thermodual.cli as cli

        def solve(*args, **kwargs):
            raise AssertionError("a solve started on a malformed config")

        monkeypatch.setattr(cli, "_map_repetitions", solve)
        if key is None:
            payload = value
        else:
            payload = json.loads(json.dumps(HEISENBERG_CONFIG))
            (payload if block is None else payload[block])[key] = value
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("parameter,values", [
        ("shots", "inf"),
        ("shots", "nan"),
        ("shots", "1000,1e30"),
        ("shots", "2.5"),
        ("shots", "1000,9223372036854775808"),
        ("T", "inf"),
        ("T", "0.5,nan"),
        ("eta", "0.001,-inf"),
        ("T", "0.5,abc"),
    ])
    def test_sweep_values_checked_before_any_run(self, tmp_path, monkeypatch, capsys, parameter, values):
        import thermodual.cli as cli

        def solve(*args, **kwargs):
            raise AssertionError("a sweep value ran before every value was checked")

        monkeypatch.setattr(cli, "_map_repetitions", solve)
        config = write_config(tmp_path, REPETITION_HQC_CONFIG)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(config), "--parameter", parameter, "--values", values,
            "--out", str(out),
        ]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_sweep_rejects_negative_temperature_per_row(self, tmp_path):
        config = write_config(tmp_path, {**HEISENBERG_CONFIG, "oracle": {"enable": False}})
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(config), "--parameter", "T",
            "--values", "0.5,-1", "--out", str(out),
        ]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[3] for row in rows] == ["ok", "rejected"]
        assert all(len(row) == 11 for row in rows)
        assert rows[1][10] == "temperature must be positive, got -1.0"

    def test_sweep_rejects_zero_shots_per_row(self, tmp_path):
        payload = {**REPETITION_HQC_CONFIG, "oracle": {"enable": False}, "repetitions": 1}
        payload["solver"] = {**payload["solver"], "max_iter": 5}
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(write_config(tmp_path, payload)), "--parameter", "shots",
            "--values", "0,1000", "--out", str(out),
        ]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[3] for row in rows] == ["rejected", "ok"]
        assert rows[0][10] == "shots_per_iteration must be at least 1, got 0"

    def test_first_classical_step_size_gate(self, tmp_path):
        payload = json.loads(json.dumps(HEISENBERG_CONFIG))
        payload["solver"].update(variant="first_classical", eta=100)
        config = write_config(tmp_path, payload)
        result = subprocess.run(
            [sys.executable, "-m", "thermodual.cli", "run", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert "step size 100 is not below 1/L" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_step_size_gate_runs_before_the_oracle(self, tmp_path, monkeypatch):
        import thermodual.cli as cli

        def oracle(*args, **kwargs):
            raise AssertionError("reference work ran before the step-size gate")

        monkeypatch.setattr(cli, "reference_energy", oracle)
        monkeypatch.setattr(cli, "check_feasible", oracle)
        payload = json.loads(json.dumps(HEISENBERG_CONFIG))
        payload["solver"].update(variant="first_classical", eta=100)
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


INFEASIBLE_MODELS = {
    "line3-beyond-n": {"kind": "heisenberg", "geometry": "line", "n": 3, "targets": [5.0, 0.0, 0.0]},
    "repetition3-beyond-bloch": {
        "kind": "stabilizer", "code": "repetition3",
        "charges": [{"word": "1", "target": 0.9}, {"word": "3", "target": 0.9}],
    },
    "detect422-correlations": {
        "kind": "stabilizer", "code": "detect422",
        "charges": [{"word": "10", "target": 0.9}, {"word": "01", "target": 0.9},
                    {"word": "11", "target": -0.9}],
    },
}


class TestInfeasibleTargets:
    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "no-oracle"])
    @pytest.mark.parametrize("name", sorted(INFEASIBLE_MODELS))
    def test_run_exits_2_with_one_line(self, tmp_path, name, oracle):
        payload = {**HEISENBERG_CONFIG, "model": INFEASIBLE_MODELS[name], "oracle": {"enable": oracle}}
        config = write_config(tmp_path, payload)
        result = subprocess.run(
            [sys.executable, "-m", "thermodual.cli", "run", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert "infeasible targets" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(INFEASIBLE_MODELS))
    def test_rejected_before_any_solve(self, tmp_path, monkeypatch, name):
        import thermodual.cli as cli

        def solve(*args, **kwargs):
            raise AssertionError("a solve started on infeasible targets")

        monkeypatch.setattr(cli, "_map_repetitions", solve)
        payload = {**HEISENBERG_CONFIG, "model": INFEASIBLE_MODELS[name]}
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert main([
            "sweep", "--config", str(config), "--parameter", "T", "--values", "0.5,1",
            "--out", str(tmp_path / "sweep"),
        ]) == 2
        assert not (tmp_path / "sweep").exists()

    def test_boundary_target_still_runs(self, tmp_path):
        payload = json.loads(json.dumps(HEISENBERG_CONFIG))
        payload["model"]["targets"] = [0.0, 3.0, 0.0]  # |q| = n: the fully polarized state
        payload["solver"]["max_iter"] = 20
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        # the spin-3/2 multiplet: each of the two bonds contributes J = 1
        assert summary["reference_energy"] == pytest.approx(2.0, abs=1e-12)


SUMMARY_KEYS = {
    "schema_version", "label", "variant", "seed", "repetitions", "temperature", "epsilon",
    "reference_energy", "reference_method", "oracle_low_confidence", "converged",
    "encoded_state_fidelity", "runs",
}


class TestReferenceInSummary:
    @pytest.mark.parametrize("payload,method,energy", [
        (HEISENBERG_CONFIG, "su2", 3 * np.sqrt(2) - 7),
        ({**REPETITION_HQC_CONFIG, "repetitions": 1}, "stabilizer", -2.0),
        ({**HEISENBERG_CONFIG, "oracle": {"enable": False}}, None, None),
    ], ids=["su2", "stabilizer", "disabled"])
    def test_keys_and_method(self, tmp_path, payload, method, energy):
        payload = json.loads(json.dumps(payload))
        payload["solver"]["max_iter"] = 5
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == SUMMARY_KEYS
        assert summary["schema_version"] == 2
        assert summary["reference_method"] == method
        assert summary["oracle_low_confidence"] is (None if method is None else False)
        if energy is None:
            assert summary["reference_energy"] is None
        else:
            assert summary["reference_energy"] == pytest.approx(energy, abs=1e-12)

    def test_run_experiment_never_calls_dual_solve(self, tmp_path, monkeypatch):
        import thermodual.cli as cli
        import thermodual.oracle as oracle

        def dual_solve(*args, **kwargs):
            raise AssertionError("run called the iterative dual solve")

        monkeypatch.setattr(oracle, "dual_eigenvalue_solve", dual_solve)
        assert not hasattr(cli, "dual_eigenvalue_solve")
        for i, payload in enumerate((HEISENBERG_CONFIG, REPETITION_HQC_CONFIG)):
            config = validate_config(payload)
            config["solver"]["max_iter"] = 5
            assert cli.run_experiment(config, tmp_path / str(i)) == 0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        config = write_config(tmp_path, HEISENBERG_CONFIG)
        result = subprocess.run(
            [sys.executable, "-m", "thermodual.cli", "run", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True,
        )
        assert result.returncode == 0

    def test_missing_config_is_config_error(self):
        assert main(["run", "--config", "/nonexistent/config.json"]) == 2

    def test_import_loads_no_scipy(self):
        # run, sweep and verify need NumPy alone; SciPy serves the quadrature references
        probe = (
            "import sys, thermodual, thermodual.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
