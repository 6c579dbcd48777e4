"""Self-checks of the benchmark: the tracer changes no result, its self
times add up, and BENCHMARK.json names exactly what the benchmark emits.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import inspect
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from tracer import Tracer, layer_functions


@pytest.fixture(scope="module")
def mods():
    return wl.import_pancha()


def traced(mods, call):
    """(result, tracer) of ``call()`` run with every layer function traced."""
    tracer = Tracer(wl.trace_hooks()).install(mods)
    try:
        return call(), tracer
    finally:
        tracer.uninstall()


def battery_sample(mods):
    """Every check but the two slowest, at 20 instances where sized."""
    return [fn(11, n=20) if "n" in inspect.signature(fn).parameters else fn(11)
            for fns in mods["checks"].SUITES.values() for fn in fns
            if fn.__name__ not in ("check_dual_fringe", "check_channel_sum")]


def paths_sample(mods):
    t = mods["transport"]
    spec = t.PrecessionSpec(0.9, 2.1)
    path = t.precession_path(spec, 3000)
    tri = mods["geometry"].SphericalTriangle(
        *(mods["core"].BlochPoint(*v)
          for v in wl.random_vertices(np.random.default_rng(5))))
    return [path, t.chain_phase(path), t.geodesic_closure_solid_angle(path),
            t.dynamical_phase(path), t.make_parallel_lift(path),
            t.sample_triangle_path(tri, 600)]


def cli_sample(mods, tmp_path):
    """Output bytes of every run config and of both sweeps, shrunk."""
    runs, sweeps = wl.write_cli_inputs(3, tmp_path)
    for _, _, _, argv in sweeps:
        cfg = json.loads(Path(argv[2]).read_text())
        for key in ("subdivisions", "samples"):
            if key in cfg["parameters"]:
                cfg["parameters"][key] = 256
        Path(argv[2]).write_text(json.dumps(cfg))
    outputs = []
    for label, _, out, argv in runs + [(*s[:3], s[3] + ["--jobs", "1"]) for s in sweeps]:
        code, _, _ = wl.run_in_process(mods, argv)
        assert code == 0, label
        outputs.append(out.read_bytes())
    return outputs


def test_traced_battery_is_bit_identical(mods):
    plain = battery_sample(mods)
    again, tracer = traced(mods, lambda: battery_sample(mods))
    assert [wl.digest(r) for r in again] == [wl.digest(r) for r in plain]
    assert all(r.passed for r in plain)
    assert tracer.by_name()["core.haar_state"]["calls"] > 0


def test_traced_kernels_are_bit_identical(mods):
    plain = paths_sample(mods)
    again, tracer = traced(mods, lambda: paths_sample(mods))
    assert [wl.digest(r) for r in again] == [wl.digest(r) for r in plain]
    assert tracer.counters["transport.chain_phase.steps"] == 3000
    assert tracer.counters["transport.precession_path.bytes"] == 3001 * 104


def test_traced_cli_output_is_byte_identical(mods, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    plain = cli_sample(mods, tmp_path / "a")
    again, tracer = traced(mods, lambda: cli_sample(mods, tmp_path / "b"))
    assert again == plain
    stats = tracer.by_name()
    assert stats["cli.main"]["calls"] == 14
    assert stats["experiments.run_dual"]["calls"] == 2 + 32


def test_self_times_add_up_to_each_root_span(mods):
    _, tracer = traced(mods, lambda: battery_sample(mods)[:6])
    spans = tracer.arrays()
    parent = spans["parent"]
    root = np.arange(len(parent))
    for i, p in enumerate(parent):
        if p >= 0:
            root[i] = root[p]
    is_root = parent < 0
    assert is_root.sum() >= 6
    per_root = np.zeros(len(parent), dtype=np.int64)
    np.add.at(per_root, root, spans["self"])
    assert (spans["self"] >= 0).all()
    assert np.array_equal(per_root[is_root], spans["duration"][is_root])


def test_uninstall_restores_every_binding(mods):
    before = {name: fn for name, fn in layer_functions(mods).items()}
    suites = {k: v for k, v in mods["checks"].SUITES.items()}
    runners = dict(mods["experiments"].RUNNERS)
    tracer = Tracer().install(mods)
    assert mods["transport"].chain_phase is not before["transport.chain_phase"]
    assert mods["checks"].chain_phase is not before["transport.chain_phase"]
    tracer.uninstall()
    assert layer_functions(mods) == before
    assert mods["checks"].chain_phase is before["transport.chain_phase"]
    assert mods["checks"].SUITES == suites
    assert mods["experiments"].RUNNERS == runners


def test_exceptions_leaving_a_span_are_counted(mods):
    t = mods["transport"]

    def bad():
        with pytest.raises(ValueError):
            t.precession_path(t.PrecessionSpec(0.5, 1.0), 0)

    _, tracer = traced(mods, bad)
    assert tracer.by_name()["transport.precession_path"]["errors"] == 1


def test_output_checks_catch_wrong_results():
    assert wl._within(0.1, 1e-3, "x")(0.1 + 5e-4) is None
    assert wl._within(0.1, 1e-3, "x")(0.1 + 2e-3) is not None
    assert wl._within(0.1, 1e-3, "x")(math.nan) is not None
    assert wl.check_cli_output("csv", b"a,delta_b\n1,0.5\n") is None
    assert wl.check_cli_output("csv", b"a,delta_b\n1,nan\n") is not None
    assert wl.check_cli_output("json", b'{"oracle_deltas": {"d": null}}') is not None
    meter = wl.Meter()
    meter.op("ok", lambda: 1.0, lambda r: None)
    meter.op("wrong", lambda: 2.0, lambda r: "bad value")
    meter.op("raises", lambda: 1 / 0)
    assert (meter.attempted, meter.failed) == (3, 2)


def test_benchmark_json_names_what_the_benchmark_emits():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_latencies_are_scaled_by_the_readings_around_them(monkeypatch):
    import pace

    readings = iter([1.0, 3.0, 2.0, 2.0] + [4.0] * 9)
    monkeypatch.setattr(pace, "chunk_seconds", lambda: next(readings) * pace.REFERENCE_S)
    monkeypatch.setattr(pace, "EVERY_S", 0.0)  # a reading after every op
    meter = wl.Meter(pace.Pace())  # first reading: 1
    meter.op("a", lambda: 1.0)  # then 3: scale 2 / (1 + 3)
    meter.op("b", lambda: 1.0)  # then 2: scale 2 / (3 + 2)
    cpus = os.sched_getaffinity(0)
    meter.op("c", lambda: 1.0, cpus=cpus)  # settles (2), then 4 on each CPU
    raw = {k: v[0] for k, v in meter.latency_ns.items()}
    assert meter.scaled_ns["a"][0] == pytest.approx(raw["a"] * 0.5)
    assert meter.scaled_ns["b"][0] == pytest.approx(raw["b"] * 0.4)
    assert meter.scaled_ns["c"][0] == pytest.approx(raw["c"] * 0.25)
    assert meter.pace.readings[:4] == [r * pace.REFERENCE_S for r in (1, 3, 2, 2)]
