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


class TestGates:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (3, 2)])
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_experiment_declares_a_gate(self, experiment, dims):
        """all([]) is True: an experiment without a gate would always pass."""
        config = small_config(experiment, samples=20, dim_s=dims[0], dim_e=dims[1])
        rows, unreported, _ = cli._EXPERIMENTS[experiment][0](
            config, np.random.default_rng(config.seed))
        gated = [row for row in rows if row.op is not None]
        assert gated or unreported
        report = run(config)
        names = [m["name"] for m in report.metrics]
        assert report.gates == (*gated, *unreported)
        assert {gate.name for gate in gated} <= set(names)
        assert not {gate.name for gate in unreported} & set(names)
        assert len({gate.name for gate in report.gates}) == len(report.gates)
        assert all(gate.op in ("<", "<=", "==", ">=", ">") for gate in report.gates)

    # the conditions each experiment's pass stands for at (2,2): (name, op,
    # bound), a bound read from the report given as a function of its metrics
    DECLARED = {
        "pechukas": [("max_residual_all_equal", "<=", 1e-12),
                     ("max_residual_all_equal_z_axis", "<=", 1e-12),
                     ("equivalence_disagreements", "==", 0)],
        "theorem1": [("min_eig_equal_env", ">=", -1e-10), ("min_eig_perturbed_env", "<", -1e-6),
                     ("env_distance_perturbed", ">", 1e-9), ("env_distance_equal", "<=", 1e-9)],
        "theorem2": [("max_formula_gap", "<=", 1e-10), ("max_defect_diagonal", "<=", 1e-12),
                     ("defect_eta1_gap_to_1", "<=", 1e-10)],
        "theorem3": [("min_eig_positive_env", ">=", -1e-10),
                     ("witness_min_eig", "<=", lambda m: m["predicted_bound"] + 1e-9),
                     ("min_env_eig", ">=", -1e-10), ("witness_prediction_gap", "<=", 1e-9)],
        "lemma1": [("converse_env_min_eig", ">=", -1e-12), ("converse_output_min_eig", "<", -1e-6),
                   ("negative_env_shows_in_output", "<", -1e-10),
                   ("negative_env_output_gap", "<=", 1e-10)],
        "appendix": [("max_hermiticity_defect", "<=", 1e-10), ("max_trace_defect", "<=", 1e-10),
                     ("corrupted_hermiticity_gap_to_0.2", "<=", 1e-10),
                     ("corrupted_trace_gap_to_0.1", "<=", 1e-10)],
        "compat-domain": [("fraction", "<", 1.0),
                          ("simplex_agreements", "==", lambda m: m["simplex_probes"]),
                          ("t_star_to_eta5", "<=", 1e-8), ("t_star_to_eta1_gap_to_1", "<=", 1e-8)],
        "broadcast": [("spectrum_gap_vs_analytic", "<=", 1e-9),
                      ("max_marginal_defect_eta5", "<=", 1e-10),
                      ("max_product_case_defect", "<=", 1e-12),
                      ("max_marginal_defect_random", "<=", 1e-10)],
        "dynamics-cp": [("classical_min_choi_eig", ">=", -1e-9), ("noncp_found", "==", True),
                        ("witness_replays", "==", True)],
        "table1": [(f"{family}_{label}", "==", int(expected))
                   for family, row in (("none", (1, 1, 1)), ("classical", (1, 0, 1)),
                                       ("quantum", (1, 1, 0)))
                   for label, expected in zip(("linear", "consistent", "positive"), row)],
    }

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_each_experiment_declares_its_conditions(self, experiment):
        report = run(small_config(experiment))
        values = {m["name"]: m["value"] for m in report.metrics}
        assert [(g.name, g.op, g.bound) for g in report.gates] == [
            (name, op, bound(values) if callable(bound) else bound)
            for name, op, bound in self.DECLARED[experiment]]

    @pytest.mark.parametrize("op,verdicts", [
        ("<", (True, False, False)), ("<=", (True, True, False)),
        ("==", (False, True, False)), (">=", (False, True, True)),
        (">", (False, False, True)),
    ])
    def test_ops_and_nan(self, op, verdicts):
        assert tuple(cli.Gate("g", v, op, 1.0).holds() for v in (0.0, 1.0, 2.0)) == verdicts
        assert not cli.Gate("g", float("nan"), op, 1.0).holds()
        assert not cli.Gate("g", np.nan, op, np.nan).holds()

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_each_gate_fails_alone(self, experiment, monkeypatch, capsys):
        argv = ["--experiment", experiment, "--seed", "7", "--samples", "40"]
        passing = run(small_config(experiment))
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        holds = cli.Gate.holds
        for gate in passing.gates:
            monkeypatch.setattr(cli.Gate, "holds",
                                lambda g, name=gate.name: g.name != name and holds(g))
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err == (f"gate failed: {gate.name} = {gate.value}, "
                                    f"needs {gate.op} {gate.bound}\n")
            data = json.loads(captured.out)
            assert data["pass"] is False
            assert data["metrics"] == json.loads(render_report(passing))["metrics"]

    def test_a_monkeypatched_bound_names_its_gate(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CP_TOL", -1.0)
        assert main(["--experiment", "dynamics-cp", "--samples", "20"]) == 1
        captured = capsys.readouterr()
        value = json.loads(captured.out)["metrics"][1]
        assert value["name"] == "classical_min_choi_eig" and value["value"] < 1.0
        assert captured.err == (f"gate failed: classical_min_choi_eig = {value['value']!r}, "
                                "needs >= 1.0\n")

    def test_the_negative_env_gate_holds_on_the_runners_assignment(self):
        report = run(small_config("lemma1"))
        gate = next(g for g in report.gates if g.name == "negative_env_shows_in_output")
        # the runner's one negative environment operator, diag(1.5, -0.5) on
        # the first basis projector, has output minimum -0.5
        assert gate.holds() and gate.value == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("output", [0.0, np.nan], ids=["non-negative", "nan"])
    def test_the_negative_env_gate_fails_when_the_output_is_not_negative(
            self, output, monkeypatch, capsys):
        measured = cli.env_negativity_report

        def broken(assignment):
            report = measured(assignment)
            out = report.output_min_eigs.copy()
            out[report.env_min_eigs < -1e-10] = output
            return dataclasses.replace(report, output_min_eigs=out)

        monkeypatch.setattr(cli, "env_negativity_report", broken)
        assert main(["--experiment", "lemma1", "--samples", "40"]) == 1
        err = capsys.readouterr().err
        assert f"gate failed: negative_env_shows_in_output = {output}, needs < -1e-10\n" in err
        assert "Traceback" not in err

    def test_every_state_in_the_domain_fails_the_fraction_gate(self, capsys):
        assert main(["--experiment", "compat-domain", "--samples", "100", "--tol", "5"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is False
        assert captured.err.splitlines() == ["gate failed: fraction = 1.0, needs < 1.0",
                                             "gate failed: t_star_to_eta5 = 1.0, needs <= 1e-08"]


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

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("metric,gate_lines", [
        ("spectrum_gap_vs_analytic",
         ["gate failed: spectrum_gap_vs_analytic = nan, needs <= 1e-09"]),
        ("min_eig_eta5", []),
    ], ids=["gated", "ungated"])
    def test_a_nan_metric_writes_no_report_and_fails(self, metric, gate_lines, to_file,
                                                     monkeypatch, capsys, tmp_path):
        runner, stacks, dims = cli._EXPERIMENTS["broadcast"]

        def with_nan(config, rng):
            rows, gates, witnesses = runner(config, rng)
            rows = [row._replace(value=float("nan")) if row.name == metric else row
                    for row in rows]
            return rows, gates, witnesses

        monkeypatch.setitem(cli._EXPERIMENTS, "broadcast", (with_nan, stacks, dims))
        out = tmp_path / "report.json"
        argv = ["--experiment", "broadcast", "--samples", "20"]
        assert main(argv + ["--out", str(out)] if to_file else argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "error: cannot render report: cannot serialize non-finite float nan", *gate_lines]

    def test_fail_exit_one(self, monkeypatch, capsys):
        _, stacks, dims = cli._EXPERIMENTS["table1"]
        failing = cli.Gate("forced", 0, ">", 0)
        monkeypatch.setitem(cli._EXPERIMENTS, "table1",
                            (lambda config, rng: ([], [failing], []), stacks, dims))
        assert main(["--experiment", "table1"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is False
        assert captured.err == "gate failed: forced = 0, needs > 0\n"

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
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is False
        assert captured.err == "gate failed: witness_replays = False, needs == True\n"

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
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is False
        assert captured.err == "gate failed: witness_replays = False, needs == True\n"

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

    @pytest.mark.parametrize("text", [
        "[" * 200000,
        '{"experiment": "table1", "seed": 1' + "0" * 5000 + "}",
    ], ids=["deep-nesting", "5001-digit-seed"])
    def test_config_file_python_cannot_parse_exit_two(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: config file is not valid JSON: ")

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

    @pytest.mark.parametrize("text,flags,message", [
        ('{"out": 5}', ["--experiment", "table1"], "out must be a path, got 5"),
        ("[1]", [], "config file must hold a JSON object"),
    ], ids=["out-not-a-path", "json-array"])
    def test_config_file_refusal_message(self, text, flags, message, tmp_path, capsys):
        # the whole stderr is the message: no traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["--config", str(cfg), *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


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
