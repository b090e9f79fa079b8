import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import assignlab
import assignlab.cli as cli
import assignlab._seeds as seeds
from assignlab.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    UsageError,
    emit,
    main,
    render_report,
    run,
)


def small_config(experiment, **overrides):
    values = dict(experiment=experiment, seed=7, samples=40)
    values.update(overrides)
    return ExperimentConfig(**values)


def canonical_payload(text):
    """Parsed report with runtime_ms zeroed, for determinism comparisons."""
    data = json.loads(text)
    data["runtime_ms"] = 0.0
    return data


class TestConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="nope")
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="table1", samples=0)
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="table1", dim_s=1)
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="table1", tol=0.0)
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="table1", seed=-1)
        # every construction is checked, a replace too
        config = ExperimentConfig("table1")
        with pytest.raises(UsageError, match="samples must be at least 1"):
            dataclasses.replace(config, samples=0)
        with pytest.raises(UsageError, match="tol must be finite"):
            dataclasses.replace(config, tol=float("inf"))
        assert dataclasses.replace(config, samples=3).samples == 3

    def test_every_experiment_has_a_runner(self):
        assert set(cli._EXPERIMENTS) == set(EXPERIMENTS)
        for experiment, (runner, stacks, dims) in cli._EXPERIMENTS.items():
            assert callable(runner), experiment
            assert isinstance(stacks, int) and stacks >= 1, experiment
            sizes = dims(3, 2)
            assert sizes, experiment
            for terms, s, e in sizes:
                assert terms >= 2 and s >= 2 and e >= 2, experiment


class TestRun:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_all_experiments_pass(self, experiment):
        report = run(small_config(experiment))
        assert report.passed
        assert report.experiment == experiment

    def test_deterministic_reports(self):
        a = run(small_config("theorem1"))
        b = run(small_config("theorem1"))
        assert canonical_payload(render_report(a)) == canonical_payload(render_report(b))

    def test_seed_changes_metrics(self):
        a = run(small_config("compat-domain", samples=200))
        b = run(small_config("compat-domain", samples=200, seed=8))
        fa = [m for m in a.metrics if m["name"] == "fraction"][0]["value"]
        fb = [m for m in b.metrics if m["name"] == "fraction"][0]["value"]
        assert fa != fb

    def test_broadcast_metric(self):
        report = run(small_config("broadcast"))
        value = [m for m in report.metrics if m["name"] == "min_eig_eta5"][0]["value"]
        assert value == pytest.approx(-0.70711, abs=1e-5)

    def test_theorem2_defect_metric(self):
        report = run(small_config("theorem2"))
        value = [m for m in report.metrics if m["name"] == "defect_eta1"][0]["value"]
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_table1_matrix(self):
        report = run(small_config("table1"))
        values = {m["name"]: m["value"] for m in report.metrics}
        assert [values[f"none_{c}"] for c in ("linear", "consistent", "positive")] == [1, 1, 1]
        assert [values[f"classical_{c}"] for c in ("linear", "consistent", "positive")] == [1, 0, 1]
        assert [values[f"quantum_{c}"] for c in ("linear", "consistent", "positive")] == [1, 1, 0]


class TestSerialization:
    def test_schema_keys_and_order(self):
        report = run(small_config("table1"))
        payload = render_report(report)
        data = json.loads(payload)
        assert list(data) == ["experiment", "config", "pass", "metrics", "witnesses", "runtime_ms"]

    def test_floats_round_trip_exactly(self):
        report = run(small_config("theorem3"))
        data = json.loads(render_report(report))
        for emitted, original in zip(data["metrics"], report.metrics):
            assert emitted["value"] == pytest.approx(original["value"], abs=0.0)
        assert data["runtime_ms"] == report.runtime_ms

    def test_emit_to_file(self, tmp_path):
        report = run(small_config("pechukas"))
        out = tmp_path / "report.json"
        emit(report, str(out))
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["experiment"] == "pechukas"

    def test_byte_identical_modulo_runtime(self, tmp_path):
        argv = ["--experiment", "lemma1", "--seed", "3", "--samples", "30"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert canonical_payload(out1.read_text()) == canonical_payload(out2.read_text())

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            cli._json_value(object())
        with pytest.raises(ValueError):
            cli._json_value(float("nan"))


class TestMain:
    def test_pass_exit_zero(self, capsys, tmp_path):
        code = main(["--experiment", "broadcast", "--seed", "1", "--samples", "20"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is True

    def test_fail_exit_one(self, monkeypatch, capsys):
        _, stacks, dims = cli._EXPERIMENTS["table1"]
        monkeypatch.setitem(cli._EXPERIMENTS, "table1",
                            (lambda config, rng: (False, [], []), stacks, dims))
        assert main(["--experiment", "table1"]) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_a_replay_off_by_one_entry_fails(self, monkeypatch, capsys):
        replay = cli.replay_unitary

        def nudged(seed, index, dim):
            u = replay(seed, index, dim).copy()
            u[1, 2] = np.nextafter(u[1, 2].real, np.inf) + 1j * u[1, 2].imag
            return u

        monkeypatch.setattr(cli, "replay_unitary", nudged)
        report = run(small_config("dynamics-cp"))
        assert report.witnesses and report.passed is False
        assert main(["--experiment", "dynamics-cp", "--samples", "40"]) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_a_seeding_fault_fails(self, monkeypatch, capsys):
        """Index 0, the first witness, drawn from its neighbour's stream: the
        search's coupling no longer replays, so the run fails."""
        states = seeds.seed_states

        def shifted(seed, lo, hi):
            out = states(seed, lo, hi)
            if lo == 0:
                out[0] = out[1]
            return out

        monkeypatch.setattr(seeds, "seed_states", shifted)
        report = run(small_config("dynamics-cp"))
        assert report.witnesses[0]["index"] == 0 and report.passed is False
        assert main(["--experiment", "dynamics-cp", "--samples", "40"]) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_import_leaves_numpy_random_unloaded(self):
        src = os.path.dirname(os.path.dirname(assignlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        check = "import sys, assignlab.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", check], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_unknown_experiment_exit_two(self, capsys):
        assert main(["--experiment", "unknown"]) == 2

    def test_missing_experiment_exit_two(self, capsys):
        assert main([]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_invalid_dims_exit_two(self, capsys):
        assert main(["--experiment", "table1", "--dim-s", "1"]) == 2

    def test_malformed_flag_exit_two(self, capsys):
        assert main(["--experiment", "table1", "--samples", "lots"]) == 2

    def test_unwritable_out_exit_two(self, capsys):
        code = main([
            "--experiment", "broadcast", "--samples", "20",
            "--out", "/nonexistent-dir/report.json",
        ])
        assert code == 2

    def test_env_seed_default(self, monkeypatch, capsys):
        monkeypatch.setenv("ASSIGNLAB_SEED", "99")
        assert main(["--experiment", "broadcast", "--samples", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 99

    def test_flag_beats_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("ASSIGNLAB_SEED", "99")
        main(["--experiment", "broadcast", "--samples", "20", "--seed", "5"])
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5

    def test_bad_env_seed_exit_two(self, monkeypatch, capsys):
        monkeypatch.setenv("ASSIGNLAB_SEED", "not-a-number")
        assert main(["--experiment", "broadcast"]) == 2

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "broadcast", "seed": 11, "samples": 20,
            "dim-s": 2, "dim-e": 2, "tol": 1e-10,
        }))
        assert main(["--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 11

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "broadcast", "seed": 11, "samples": 20}))
        assert main(["--config", str(cfg), "--seed", "12"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 12

    def test_unknown_config_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "broadcast", "bogus": 1}))
        assert main(["--config", str(cfg)]) == 2

    def test_missing_config_file_exit_two(self, capsys):
        assert main(["--config", "/does/not/exist.json"]) == 2

    def test_config_file_not_utf8_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"experiment": "broadcast", "seed": "\xff"}')
        assert main(["--config", str(cfg)]) == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"seed": "7"},
        {"samples": 2.5},
        {"dim-s": None},
        {"tol": "x"},
        {"seed": True},
    ], ids=["string-seed", "float-samples", "null-dim", "string-tol", "bool-seed"])
    def test_mistyped_config_value_exit_two(self, bad, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "broadcast", "samples": 20, **bad}))
        assert main(["--config", str(cfg)]) == 2
        key = next(iter(bad))
        assert key in capsys.readouterr().err

    def test_infinite_tol_exit_two(self, capsys):
        assert main(["--experiment", "compat-domain", "--samples", "20", "--tol", "inf"]) == 2
        assert "tol" in capsys.readouterr().err


class TestResourceGuard:
    def test_oversized_flag_experiment_refused_before_running(self, monkeypatch, capsys):
        def must_not_run(config):
            raise AssertionError("an oversized config reached run()")

        monkeypatch.setattr(cli, "run", must_not_run)
        assert main(["--experiment", "compat-domain", "--dim-s", "16"]) == 2
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,largest_ok", [
        ("dynamics-cp", 6), ("compat-domain", 6), ("lemma1", 6), ("theorem2", 21),
        ("theorem3", 21), ("appendix", 11),
    ])
    def test_bound(self, experiment, largest_ok):
        def config(d):
            return ExperimentConfig(experiment=experiment, dim_s=d, dim_e=d)

        config(largest_ok)
        with pytest.raises(UsageError, match="too large"):
            config(largest_ok + 1)


class TestReportShape:
    def test_witness_fields(self):
        report = run(small_config("dynamics-cp", samples=30))
        assert report.witnesses
        w = report.witnesses[0]
        assert "description" in w and "seed" in w and "index" in w

    def test_compat_domain_metrics(self):
        report = run(small_config("compat-domain", samples=150))
        names = {m["name"] for m in report.metrics}
        assert {"fraction", "ci95_low", "ci95_high"} <= names
