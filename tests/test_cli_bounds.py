"""Out-of-range parameters and unwritable outputs exit 2, naming the
parameter or the path, and leave no partial file behind."""

import json

import numpy as np
import pytest

from pancha.cli import (MAX_SAMPLES, MAX_SUBDIVISIONS, ConfigError, _plan,
                        build_parser, main)

OCTANT = [[0.0, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 2]]
BASE = {
    "pair": {"theta_a": 0.3, "phi_a": 0.0, "theta_b": 1.1, "phi_b": 0.4},
    "mixed": {"r": 0.5, "angle": 1.0},
    "triangle": {"vertices": OCTANT},
    "two-photon": {"lam": 0.25, "triangle_a": OCTANT, "triangle_a_prime": OCTANT},
    "precession": {"theta": 0.5, "phi": 1.0, "subdivisions": 64},
    "dual": {"theta": 0.7, "delta_phi": 0.4},
}


def run(tmp_path, experiment, verb="run", extra=(), **params):
    cfg = tmp_path / "cfg.json"
    body = {"experiment": experiment, "parameters": {**BASE[experiment], **params}}
    cfg.write_text(json.dumps(body))
    out = tmp_path / "out.csv"
    return main([verb, "--config", str(cfg), "--out", str(out), "--jobs", "1",
                 *extra]), out


@pytest.mark.parametrize("experiment, name, value", [
    ("pair", "samples", 2),
    ("pair", "samples", 0),
    ("dual", "samples", -1),
    ("mixed", "samples", MAX_SAMPLES + 1),
    ("two-photon", "samples", 10**11),
    ("precession", "subdivisions", 0),
    ("precession", "subdivisions", MAX_SUBDIVISIONS + 1),
    ("mixed", "r", 2.0),
    ("triangle", "r", -1.5),
    ("precession", "r", 1.01),
    ("two-photon", "lam", 2.0),
    ("two-photon", "lam", -0.1),
    ("dual", "delta_phi", 1e16),
    ("dual", "delta_phi", 4.0 * np.pi + 1e-9),
    ("dual", "delta_phi", -4.0 * np.pi - 1e-9),
])
def test_out_of_range_parameter_exits_2(tmp_path, capsys, experiment, name, value):
    code, out = run(tmp_path, experiment, **{name: value})
    assert code == 2
    assert f"{experiment}.{name}" in capsys.readouterr().err
    assert not out.exists()


def test_every_sweep_element_is_bounded(tmp_path, capsys):
    code, out = run(tmp_path, "two-photon", verb="sweep", lam=[0.2, 0.5, 1.5])
    assert code == 2
    assert "two-photon.lam" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [3, MAX_SAMPLES])
def test_bounds_are_inclusive(tmp_path, value):
    code, out = run(tmp_path, "pair", samples=value)
    assert code == 0
    assert len(out.read_text().splitlines()) == value + 1


@pytest.mark.parametrize("delta_phi", [-4.0 * np.pi, 4.0 * np.pi])
def test_dual_field_angle_edges_are_accepted(tmp_path, delta_phi):
    assert run(tmp_path, "dual", delta_phi=delta_phi)[0] == 0


def test_every_dual_sweep_field_angle_is_bounded(tmp_path, capsys):
    code, out = run(tmp_path, "dual", verb="sweep", delta_phi=[0.4, 1e16])
    assert code == 2
    assert "dual.delta_phi" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_lam_edges_are_accepted(tmp_path, lam):
    assert run(tmp_path, "two-photon", lam=lam)[0] == 0


def test_subdivisions_flag_is_bounded_and_applied(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "precession",
                               "parameters": {"theta": 0.5, "phi": 1.0}}))
    outputs = []
    for flag in ([], ["--subdivisions", "16"]):
        out = tmp_path / f"out{len(outputs)}.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), *flag]) == 0
        outputs.append(out.read_text())
    assert outputs[0] != outputs[1]
    bad = tmp_path / "bad.csv"
    assert main(["run", "--config", str(cfg), "--out", str(bad),
                 "--subdivisions", "0"]) == 2
    assert "precession.subdivisions" in capsys.readouterr().err
    assert not bad.exists()


@pytest.mark.parametrize("verb, fmt", [("run", "csv"), ("run", "json"),
                                       ("sweep", "csv")])
def test_missing_output_directory_exits_2(tmp_path, capsys, verb, fmt):
    cfg = tmp_path / "cfg.json"
    params = {**BASE["triangle"], "r": [0.2, 0.5]} if verb == "sweep" else BASE["triangle"]
    cfg.write_text(json.dumps({"experiment": "triangle", "parameters": params}))
    target = tmp_path / "missing" / f"o.{fmt}"
    assert main([verb, "--config", str(cfg), "--out", str(target),
                 "--format", fmt, "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert "OutputError" in err and str(target) in err
    assert not (tmp_path / "missing").exists()


def test_output_is_replaced_whole(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("stale\n")
    code, _ = run(tmp_path, "triangle")
    assert code == 0
    assert out.read_text().startswith("invariant,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out.csv"]


def test_unwritable_target_leaves_no_temporary_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "triangle",
                               "parameters": BASE["triangle"]}))
    target = tmp_path / "a-directory"
    target.mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(target)]) == 2
    assert str(target) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "cfg.json"]
    assert not any(target.iterdir())


@pytest.mark.parametrize("phi", [0.0, -1.0, -2.0 * np.pi])
def test_nonpositive_precession_angle_exits_2(tmp_path, capsys, phi):
    code, out = run(tmp_path, "precession", phi=phi)
    assert code == 2
    assert "precession.phi" in capsys.readouterr().err
    assert not out.exists()


def test_every_precession_sweep_angle_is_positive(tmp_path, capsys):
    code, out = run(tmp_path, "precession", verb="sweep", phi=[0.5, 0.0, 1.0])
    assert code == 2
    assert "precession.phi" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, phi", [("run", 2.0 * np.pi), ("run", 7.0),
                                       ("sweep", [1.0, 7.0])])
def test_multiturn_precession_angle_exits_3(tmp_path, verb, phi):
    code, out = run(tmp_path, "precession", verb=verb, phi=phi)
    assert code == 3
    assert not out.exists()


#: the smallest positive (subnormal) double
TINY = 5e-324


@pytest.mark.parametrize("verb, phi, subdivisions", [
    ("run", 1e-320, 4096),
    ("run", 4095 * TINY, 4096),
    ("sweep", [1.0, 1e-320], 4096),
    ("sweep", 3000 * TINY, [64, 4096]),
])
def test_precession_angle_too_small_for_its_times_exits_2(tmp_path, capsys, verb,
                                                          phi, subdivisions):
    code, out = run(tmp_path, "precession", verb=verb, phi=phi,
                    subdivisions=subdivisions)
    assert code == 2
    assert "precession.phi" in capsys.readouterr().err
    assert not out.exists()


def test_subdivisions_flag_checks_the_sample_times(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "precession",
                               "parameters": {"theta": 0.5, "phi": 4096 * TINY}}))
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    out.unlink()
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--subdivisions", "4097"]) == 2
    assert "precession.phi" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subdivisions", [1, 64, 4096])
def test_smallest_angle_with_increasing_times_is_accepted(tmp_path, subdivisions):
    # n subnormal steps are the least that linspace(0, phi, n + 1) separates
    times = np.linspace(0.0, subdivisions * TINY, subdivisions + 1)
    assert (np.diff(times) > 0.0).all()
    code, out = run(tmp_path, "precession", phi=subdivisions * TINY,
                    subdivisions=subdivisions)
    assert code == 0
    assert out.exists()


def _times_increase(phi, subdivisions) -> bool:
    """The full check: every sample time of the path is above the last."""
    with np.errstate(over="ignore"):
        times = np.linspace(0.0, phi, subdivisions + 1)
    return bool((np.diff(times) > 0.0).all())


NORMAL = np.finfo(float).tiny


@pytest.mark.parametrize("subdivisions", [1, 64, 4096, MAX_SUBDIVISIONS])
def test_time_guard_agrees_with_the_full_check(tmp_path, subdivisions):
    edge = subdivisions * NORMAL  # the step phi / n is normal from here up
    for phi in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf),
                TINY, 2.2e-308, 1.0, 1e308):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "precession", "parameters": {
            "theta": 0.5, "phi": float(phi), "subdivisions": subdivisions}}))
        args = build_parser().parse_args(["run", "--config", str(cfg)])
        try:
            _plan(args)
            accepted = True
        except ConfigError as exc:
            assert "precession.phi" in str(exc)
            accepted = False
        assert accepted == _times_increase(phi, subdivisions), phi


@pytest.mark.parametrize("affinity, cpu_count, jobs", [
    ({0}, 8, 1), ({0, 1, 2}, 8, 3), (None, 5, 5), (None, None, 1)])
def test_jobs_defaults_to_the_usable_cpus(monkeypatch, affinity, cpu_count, jobs):
    if affinity is None:
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: affinity,
                            raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: cpu_count)
    args = build_parser().parse_args(["run", "--config", "cfg.json"])
    assert args.jobs == jobs


#: triangle_a with its last two vertices swapped: the loop areas cancel,
#: so the product-phase tangent and the nonlinearity ratio are undefined
CANCELLING = {"triangle_a": OCTANT,
              "triangle_a_prime": [OCTANT[0], OCTANT[2], OCTANT[1]]}


@pytest.mark.parametrize("verb, fmt", [("run", "csv"), ("run", "json"),
                                       ("sweep", "csv")])
def test_undefined_result_exits_3_and_writes_nothing(tmp_path, capsys, verb, fmt):
    params = {**CANCELLING, "lam": [0.2, 0.3] if verb == "sweep" else 0.3}
    code, out = run(tmp_path, "two-photon", verb=verb, extra=("--format", fmt),
                    **params)
    assert code == 3
    err = capsys.readouterr().err
    assert "nonlinearity_ratio" in err and "nan" in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
