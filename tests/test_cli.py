import json
from pathlib import Path

import pytest

from nclyap.cli import ConfigError, ExperimentConfig, main, run


class TestExperimentConfig:
    def test_json_roundtrip_bit_exact(self):
        cfg = ExperimentConfig("simulate", {"kind": "linear", "a": [[-1.0]]},
                               {"t": 1.0, "step": 0.001}, seed=7, out="o")
        text = cfg.to_json()
        back = ExperimentConfig.from_json(text)
        assert back == cfg
        assert back.to_json() == text

    def test_rejects_unknown_task(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("dance", {"kind": "linear", "a": [[-1.0]]})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"task": "simulate", "oops": 1}')

    def test_reproduce_requires_valid_target(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("reproduce", params={"target": "ex99"})


class TestSimulateTask:
    def test_zero_horizon_single_row(self, tmp_path):
        cfg = ExperimentConfig(
            "simulate", {"kind": "linear", "a": [[-1.0]]},
            {"t": 0.0, "x": [1.0]}, seed=0, out=str(tmp_path))
        assert run(cfg) == 0
        rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + single sample
        assert rows[0] == "t,x_1,d"

    def test_escape_writes_witness_and_fails(self, tmp_path):
        cfg = ExperimentConfig(
            "simulate", {"kind": "blowup", "c": 3.0},
            {"t": 10.0, "x": [-2.0, 0.0], "step": 0.01}, seed=0, out=str(tmp_path))
        assert run(cfg) == 1
        witness = json.loads((tmp_path / "escape_witness.json").read_text())
        assert witness["bracket"][0] < witness["bracket"][1]

    def test_manifest_written(self, tmp_path):
        cfg = ExperimentConfig(
            "simulate", {"kind": "linear", "a": [[-1.0]]},
            {"t": 0.5}, seed=3, out=str(tmp_path))
        run(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["task"] == "simulate"
        assert "numpy" in manifest["versions"]


class TestProbeTask:
    def test_rfc_refutation_on_growth_variant(self, tmp_path):
        cfg = ExperimentConfig(
            "probe", {"kind": "scalar_example", "variant": "ii"},
            {"notion": "RFC", "budget": 4, "step": 0.02}, seed=0, out=str(tmp_path))
        assert run(cfg) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "refuted"
        assert report["witnesses"][0]["signal"]

    def test_ugas_consistent_on_stable_linear(self, tmp_path):
        cfg = ExperimentConfig(
            "probe", {"kind": "linear", "a": [[-1.0]]},
            {"notion": "UGAS", "budget": 3, "horizon": 12.0},
            seed=0, out=str(tmp_path))
        assert run(cfg) == 0

    def test_flags_and_config_run_the_same_probe(self, tmp_path):
        # an omitted flag means what an omitted config key means; RFC's
        # report here depends on the budget
        model = {"kind": "scalar_example", "variant": "iii"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(ExperimentConfig("probe", model, {"notion": "RFC"}).to_json())
        runs = [tmp_path / "config", tmp_path / "flags"]
        status = [main(["--config", str(cfg_path), "--out", str(runs[0])]),
                  main(["--out", str(runs[1]), "probe", "--model", json.dumps(model),
                        "--notion", "RFC"])]
        assert status[0] == status[1]
        reports = [(d / "report.json").read_text() for d in runs]
        assert reports[0] == reports[1]
        params = [json.loads((d / "manifest.json").read_text())["config"]["params"] for d in runs]
        assert params[0] == params[1] == {"notion": "RFC"}


class TestConstructTask:
    def test_linear_construction_artifacts(self, tmp_path):
        cfg = ExperimentConfig(
            "construct", {"kind": "linear", "a": [[-1.0]]},
            {"k_max": 2, "budget": 3, "grid_points": 4}, seed=0, out=str(tmp_path))
        assert run(cfg) == 0
        meta = json.loads((tmp_path / "w_metadata.json").read_text())
        assert len(meta["weights"]) == 2
        table = (tmp_path / "w_table.csv").read_text().splitlines()
        assert table[0] == "x_1,W"
        assert len(table) == 5

    def test_aborts_when_ugas_refuted(self, tmp_path):
        cfg = ExperimentConfig(
            "construct", {"kind": "scalar_example", "variant": "ii"},
            {"k_max": 2, "budget": 3, "horizon": 6.0}, seed=0, out=str(tmp_path))
        assert run(cfg) == 1
        assert (tmp_path / "ugas_refutation.json").exists()


class TestVerifyTask:
    def test_blowup_decay_verification(self, tmp_path):
        cfg = ExperimentConfig(
            "verify", {"kind": "blowup", "c": 3.0},
            {"alpha_power": 1.0, "samples": 6, "radius_range": [2.0, 3.5],
             "tol": 5e-3, "step": 1e-6}, seed=0, out=str(tmp_path))
        assert run(cfg) == 0
        report = json.loads((tmp_path / "decay_report.json").read_text())
        assert report["verdict"] == "pass"


class TestReproduceDeterminism:
    def test_switched_target_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(
                "reproduce", params={"target": "switched", "budget": 4},
                seed=11, out=str(tmp_path / sub))
            assert run(cfg) == 0
            outs.append((tmp_path / sub / "switched_bound.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_ex62_small_instance(self, tmp_path):
        cfg = ExperimentConfig(
            "reproduce", params={"target": "ex62", "n": 6, "epsilon": 0.0},
            seed=0, out=str(tmp_path))
        assert run(cfg) == 0
        lam = (tmp_path / "ex62_lambda_min.csv").read_text().strip().splitlines()
        assert lam[0] == "i,lambda_min"
        assert len(lam) == 7


class TestMainEntry:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_verify_without_samples_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "verify", "--model", '{"kind": "l2_block", "n": 3}',
                  "--samples", "0"])
        assert exc.value.code == 2

    def test_verify_without_candidate_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "verify", "--model", '{"kind": "linear", "a": [[-1.0]]}'])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--model", '{"kind": "nope"}'],
        ["--model", '{"kind": "scalar_example"}'],
        ["--model", '{"kind": "linear", "a": [[-1.0]]}', "--x", "1,2"],
        ["--model", '{"kind": "linear", "a": [[-1.0]]}', "--d", "[[0.5, 1]]"],
    ], ids=["unknown-kind", "missing-key", "x-shape", "d-start"])
    def test_bad_simulate_input_is_usage_error(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "simulate", *flags])
        assert exc.value.code == 2

    def test_simulate_subcommand(self, tmp_path):
        status = main([
            "--out", str(tmp_path), "simulate",
            "--model", '{"kind": "linear", "a": [[-1.0]]}',
            "--t", "0.5", "--x", "1.0",
        ])
        assert status == 0
        assert (tmp_path / "trajectory.csv").exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(ExperimentConfig(
            "simulate", {"kind": "linear", "a": [[-2.0]]},
            {"t": 0.25}, seed=5, out="ignored").to_json())
        status = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert status == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 5
