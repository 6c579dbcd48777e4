import concurrent.futures
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pancha import cli
from pancha.cli import PARAM_DOMAINS, PARAM_SCHEMAS, main
from pancha.dual import analyser_intensities
from pancha.experiments import RUNNERS
from pancha.phase import _chi_grid, fit_fringe

OCTANT_VERTICES = [[0.0, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 2]]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestRunVerb:
    def test_triangle_json_record(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES, "r": 0.5},
            "format": "json",
        })
        out = tmp_path / "out.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["results"]["invariant"] == pytest.approx(-np.pi / 4)
        assert record["results"]["solid_angle"] == pytest.approx(np.pi / 2)
        assert record["oracle_deltas"]["invariant_vs_half_area"] < 1e-9
        assert record["oracle_deltas"]["mixed_vs_closed_form"] < 1e-9
        assert "pancha" in record["versions"]
        assert "timestamp" not in record

    def test_precession_csv_row(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "experiment": "precession",
            "parameters": {"theta": np.pi / 3, "phi": np.pi / 2,
                           "subdivisions": 4096},
        })
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["closed_form"] == pytest.approx(-0.07095, abs=5e-6)
        assert row["delta_chain_vs_closed"] < 1e-3
        assert row["delta_half_area_vs_closed"] < 1e-4
        assert row["delta_mixed_vs_trace"] < 1e-8

    def test_near_orthogonal_dual_config(self, tmp_path):
        cfg = write_config(tmp_path, "near.json", {
            "experiment": "dual",
            "parameters": {"theta": np.pi / 2, "delta_phi": np.pi - 2e-8},
        })
        out = tmp_path / "near.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["visibility"] == pytest.approx(1e-8, rel=1e-6)
        assert row["delta_fit_vs_closed_visibility"] < 1e-12

    def test_pair_profile_csv(self, tmp_path):
        cfg = write_config(tmp_path, "pair.json", {
            "experiment": "pair",
            "parameters": {"theta_a": 0.0, "phi_a": 0.0,
                           "theta_b": np.pi / 2, "phi_b": np.pi / 2,
                           "samples": 32},
        })
        out = tmp_path / "pair.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["chi", "intensity"]
        assert len(rows) == 32
        row = dict(zip(header, rows[0]))
        assert row["visibility"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert row["delta_fit_vs_overlap_phase"] < 1e-8

    @pytest.mark.parametrize("experiment, parameters", [
        ("pair", {"theta_a": 0.3, "phi_a": 0.0, "theta_b": 1.1, "phi_b": 0.4}),
        ("mixed", {"r": 0.6, "angle": 1.2, "axis": (0.0, 0.6, 0.8)}),
        ("two-photon", {"lam": 0.25, "triangle_a": OCTANT_VERTICES,
                        "triangle_a_prime": [[0.4, 0.2], [1.2, 0.9], [0.8, 2.1]]}),
        ("dual", {"theta": 0.7, "delta_phi": 1.3}),
    ])
    def test_profile_is_the_fringe_the_phase_is_read_from(self, experiment,
                                                            parameters):
        outcome = RUNNERS[experiment](**parameters, samples=24)
        chis, intensities = outcome.profile
        np.testing.assert_array_equal(chis, _chi_grid(24))
        fitted = fit_fringe(chis, intensities)
        assert (fitted.phase, fitted.visibility) == (
            outcome.results["fitted_phase"], outcome.results["fitted_visibility"])
        if experiment == "dual":
            up = analyser_intensities(parameters["theta"], parameters["delta_phi"],
                                      chis)[0]
            assert intensities.tobytes() == up.tobytes()


class TestValidation:
    def test_non_numeric_angle(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "experiment": "precession",
            "parameters": {"theta": "north", "phi": 1.0},
        })
        assert main(["run", "--config", cfg]) == 2

    def test_unknown_parameter(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "experiment": "precession",
            "parameters": {"theta": 1.0, "phi": 1.0, "tilt": 2.0},
        })
        assert main(["run", "--config", cfg]) == 2

    def test_unknown_experiment(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "experiment": "teleportation", "parameters": {},
        })
        assert main(["run", "--config", cfg]) == 2

    def test_unknown_top_level_field(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "experiment": "precession",
            "parameters": {"theta": 1.0, "phi": 1.0},
            "notes": "hello",
        })
        assert main(["run", "--config", cfg]) == 2

    def test_missing_required_parameter(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "experiment": "precession", "parameters": {"theta": 1.0},
        })
        assert main(["run", "--config", cfg]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_nan_number_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"experiment": "pair", "parameters": {"theta_a": NaN, '
                        '"phi_a": 0.0, "theta_b": 1.0, "phi_b": 0.0}}')
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "pair.theta_a" in capsys.readouterr().err

    def test_zero_axis_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "axis.json", {
            "experiment": "mixed",
            "parameters": {"r": 0.5, "angle": 1.0, "axis": [0.0, 0.0, 0.0]},
        })
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "mixed.axis" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, verb, jobs):
        cfg = write_config(tmp_path, "jobs.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES, "r": [0.2, 0.5]},
        })
        assert main([verb, "--config", cfg, "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_domain_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "orth.json", {
            "experiment": "pair",
            "parameters": {"theta_a": 0.0, "phi_a": 0.0,
                           "theta_b": np.pi, "phi_b": 0.0},
        })
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "OrthogonalStatesError" in capsys.readouterr().err


    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("verb, r", [("run", 0.0), ("sweep", [0.5, 0.0])])
    def test_degenerate_radius_exits_3(self, tmp_path, capsys, verb, r, jobs):
        cfg = write_config(tmp_path, "r0.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES, "r": r},
        })
        out = tmp_path / "r0.csv"
        assert main([verb, "--config", cfg, "--out", str(out), "--jobs", jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("DegenerateSpectrumError: weights 0 and 1 "
                                       "coincide; eigenbases not unique")
        assert not out.exists()


class TestSweepVerb:
    def test_radius_sweep_monotone(self, tmp_path):
        values = [round(0.1 * k, 1) for k in range(1, 11)]
        cfg = write_config(tmp_path, "s.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES, "r": values},
        })
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--jobs", "1"]) == 0
        header, rows = read_csv(out)
        col = header.index("mixed_closed_form")
        phases = [row[col] for row in rows]
        assert phases[0] == pytest.approx(-np.arctan(0.1), abs=1e-12)
        assert phases[-1] == pytest.approx(-np.pi / 4, abs=1e-12)
        assert all(a > b for a, b in zip(phases, phases[1:]))

    def test_lambda_sweep_hits_worked_value(self, tmp_path):
        tri_a = [[0.0, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 4]]
        tri_ap = [[0.0, 0.0], [np.pi / 2, 1.0], [np.pi / 2, 1.0 + np.pi / 4]]
        cfg = write_config(tmp_path, "lam.json", {
            "experiment": "two-photon",
            "parameters": {"lam": [0.0, 0.25, 0.5, 0.75, 1.0],
                           "triangle_a": tri_a, "triangle_a_prime": tri_ap},
        })
        out = tmp_path / "lam.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--jobs", "1"]) == 0
        header, rows = read_csv(out)
        assert "phase_unwrapped" in header
        row = dict(zip(header, rows[1]))
        assert row["lam"] == pytest.approx(0.25)
        assert row["phase"] == pytest.approx(0.46365, abs=1e-5)
        assert row["delta_sim_vs_closed_phase"] < 1e-8

    def test_empty_sweep_list(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES, "r": []},
        })
        assert main(["sweep", "--config", cfg]) == 2

    def test_multiple_swept_parameters(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m.json", {
            "experiment": "precession",
            "parameters": {"theta": [0.5, 1.0], "phi": [0.5, 1.0]},
        })
        assert main(["sweep", "--config", cfg]) == 2
        assert "MultipleSweptParameters" in capsys.readouterr().err

    def test_sweep_verb_requires_list(self, tmp_path):
        cfg = write_config(tmp_path, "n.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES, "r": 0.4},
        })
        assert main(["sweep", "--config", cfg]) == 2

    def test_sweep_experiment_alias(self, tmp_path):
        cfg = write_config(tmp_path, "alias.json", {
            "experiment": "sweep",
            "base": "precession",
            "parameters": {"theta": [0.4, 0.9], "phi": 1.2,
                           "subdivisions": 256},
        })
        out = tmp_path / "alias.csv"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--jobs", "1"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The size of every pool a sweep asks for; no process is started."""
        sizes = []

        class RecordingPool:
            """Records the pool size and runs the points here."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_never_exceeds_the_points(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 16)
        cfg = write_config(tmp_path, "clamp.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES, "r": [0.2, 0.5, 0.8]},
        })
        assert main(["sweep", "--config", cfg, "--out",
                     str(tmp_path / "clamp.csv"), "--jobs", "8"]) == 0
        assert pool_sizes == [3]

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (1, [])])
    def test_pool_never_exceeds_the_usable_cpus(self, tmp_path, monkeypatch,
                                                pool_sizes, cpus, sizes):
        # a forked pool would start all 5000 workers at its first submit;
        # one CPU runs the points here, with no pool
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        cfg = write_config(tmp_path, "cpus.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES,
                           "r": [0.1 * k for k in range(1, 7)]},
        })
        out = tmp_path / "cpus.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--jobs", "5000"]) == 0
        assert pool_sizes == sizes
        assert len(read_csv(out)[1]) == 6

    def test_parallel_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, "par.json", {
            "experiment": "precession",
            "parameters": {"theta": [0.3, 0.7, 1.1, 1.5], "phi": 1.0,
                           "subdivisions": 128},
        })
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["sweep", "--config", cfg, "--out", str(serial),
                     "--jobs", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(parallel),
                     "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_identical_runs_byte_identical(self, tmp_path, fmt):
        cfg = write_config(tmp_path, "d.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES,
                           "r": [0.2, 0.5, 0.8]},
            "seed": 11,
            "format": fmt,
        })
        first = tmp_path / f"first.{fmt}"
        second = tmp_path / f"second.{fmt}"
        assert main(["sweep", "--config", cfg, "--out", str(first),
                     "--jobs", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(second),
                     "--jobs", "1"]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_env_fallback(self, tmp_path):
        cfg = write_config(tmp_path, "env.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES},
            "format": "json",
        })
        out = tmp_path / "env.json.out"
        env = dict(os.environ, PANCHA_SEED="41")
        proc = subprocess.run(
            [sys.executable, "-m", "pancha", "run", "--config", cfg,
             "--out", str(out)],
            env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["config"]["seed"] == 41

    def test_cli_seed_beats_config(self, tmp_path):
        cfg = write_config(tmp_path, "seed.json", {
            "experiment": "triangle",
            "parameters": {"vertices": OCTANT_VERTICES},
            "seed": 5,
            "format": "json",
        })
        out = tmp_path / "seed.out"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--seed", "9"]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 9

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("argv, config_seed, env, named", [
        (["--seed", "-3"], None, {}, "--seed"),
        (["--seed", "-3"], 5, {}, "--seed"),
        ([], -7, {}, "config seed"),
        ([], -7, {"PANCHA_SEED": "3"}, "config seed"),
        ([], None, {"PANCHA_SEED": "-1"}, "PANCHA_SEED"),
    ])
    def test_negative_seed_exits_2_naming_its_source(
            self, tmp_path, capsys, monkeypatch, verb, argv, config_seed, env, named):
        # one seed domain across verbs: a recorded seed replays through verify
        monkeypatch.delenv("PANCHA_SEED", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        config = {"experiment": "triangle",
                  "parameters": {"vertices": OCTANT_VERTICES, "r": [0.2, 0.5]}}
        if config_seed is not None:
            config["seed"] = config_seed
        out = tmp_path / "neg.csv"
        assert main([verb, "--config", write_config(tmp_path, "neg.json", config),
                     "--out", str(out), "--jobs", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ConfigError: {named} must be at least 0")
        assert not out.exists()


class TestVerifyVerb:
    def test_geometry_suite_passes(self, capsys):
        assert main(["verify", "geometry"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_broken_tolerance_fails(self, capsys):
        # harness self-test: an impossible tolerance must be reported
        assert main(["verify", "two-photon", "--tol-scale", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])

    @pytest.mark.parametrize("argv, env, named", [
        (["--seed", "-5"], {}, "--seed"),
        (["--seed", "-1"], {"PANCHA_SEED": "3"}, "--seed"),
        ([], {"PANCHA_SEED": "-1"}, "PANCHA_SEED"),
    ])
    def test_negative_seed_exits_2_naming_its_source(self, capsys, monkeypatch,
                                                     argv, env, named):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert main(["verify", "geometry", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ConfigError: {named} must be at least 0")

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_non_finite_or_negative_tol_scale_exits_2(self, capsys, scale):
        assert main(["verify", "geometry", f"--tol-scale={scale}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ConfigError: --tol-scale must be finite")


class TestParameterSchemas:
    @pytest.mark.parametrize("experiment", RUNNERS)
    def test_schema_is_the_runners_signature(self, experiment):
        signature = inspect.signature(RUNNERS[experiment]).parameters
        schema = PARAM_SCHEMAS[experiment]
        assert list(schema) == list(signature)
        for name, (kind, default, bounds) in schema.items():
            assert default is signature[name].default
            assert (kind, bounds) == PARAM_DOMAINS[name]

    def test_every_domain_names_some_runners_parameter(self):
        used = {name for runner in RUNNERS.values()
                for name in inspect.signature(runner).parameters}
        assert set(PARAM_DOMAINS) == used
