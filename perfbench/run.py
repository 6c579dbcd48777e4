"""pancha benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads: ``battery``, ``paths`` and ``cli`` (see ``workloads.py``), or
``all`` to run each in turn in its own process.  The benchmark imports
pancha from the checkout's ``src`` and refuses to run without it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, their times scaled to a fixed host
speed (see ``pace.py``); with ``--trace 1`` the run measures
the same rounds untraced and then traced, checks that both give
bit-identical results, and reports the per-layer metrics.  The lines
before it name every metric with its unit and record the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads as wl
from pace import REFERENCE_S, Pace, pin, scale
from tracer import LAYERS, Tracer

SETUP_PROBES = 9  # fresh interpreters per setup_s median
IMPORT_PROBES = 5  # fresh interpreters per cli.import_s median
TIME_CAP_S = 150.0  # stop early rather than overrun the run's time limit

#: per-function metrics named by the benchmark, by layer
TRACED_FUNCTIONS = {
    "core": ("matrix_exponential_su2", "tensor", "haar_state",
             "inner_product", "state_to_bloch"),
    "geometry": ("solid_angle", "girard_signed_area", "geodesic_unitary",
                 "loop_holonomy", "bargmann_invariant"),
    "dual": ("dual_coincidence_profile", "apply_arm_fields",
             "prepare_beam_state"),
    "phase": ("fit_fringe", "mixed_interference_profile"),
    "twophoton": ("simulate_loop_pair",),
}
SUITE_NAMES = ("geometry", "mixed", "two-photon", "geometric-phase", "dual")
RUNNER_NAMES = ("pair", "mixed", "triangle", "two-photon", "precession", "dual")

END_TO_END = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MiB", "work_per_s": "1/s",
}
#: what ``work_per_s`` counts in-process, under its own name (``cli``
#: reports sweep points per second and prints ``sweep_s``)
WORK_NAME = {"battery": "instances_per_s", "paths": "steps_per_s"}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower"),
                (f"{layer}.errors", "count", "lower")]
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            out += [(f"{layer}.{name}.calls", "count", "lower"),
                     (f"{layer}.{name}.self_ms", "ms", "lower")]
    for name in wl.TRANSPORT_KERNELS:
        out += [(f"transport.{name}.calls", "count", "lower"),
                (f"transport.{name}.self_ms", "ms", "lower"),
                (f"transport.{name}.ns_per_step", "ns", "lower")]
    out += [(f"transport.{name}.bytes_per_step", "B", "lower")
            for name in ("precession_path", "sample_triangle_path")]
    out += [(f"checks.{suite}.busy_s", "s", "lower") for suite in SUITE_NAMES]
    out += [("checks.instances", "count", "higher"),
            ("checks.sample_yield", "ratio", "higher")]
    out += [(f"experiments.run_{name.replace('-', '_')}.busy_ms", "ms", "lower")
            for name in RUNNER_NAMES]
    out += [("cli.import_s", "s", "lower"), ("cli.main.self_ms", "ms", "lower"),
            ("cli.sweep_jobs1_s", "s", "lower"), ("cli.sweep_jobs2_s", "s", "lower"),
            ("trace.overhead_frac", "ratio", "lower"),
            ("trace.spans", "count", "lower")]
    return out


# ---------------------------------------------------------------------------
# machine record

def machine_record(cpus) -> dict:
    libc = ctypes.CDLL(None)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(cpus),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # glibc sysconf: _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
        "l2_bytes": libc.sysconf(191),
        "l3_bytes": libc.sysconf(194),
        "note": ("L3 as reported is shared across the VM host; path arrays "
                 "cannot be 4x its size, so no bandwidth ratio is claimed and "
                 "bytes_per_step is computed from array sizes"),
    }


# ---------------------------------------------------------------------------
# fresh-interpreter probes

def _launch(argv, cwd) -> tuple[int, subprocess.Popen]:
    start = time.monotonic_ns()
    proc = subprocess.Popen(argv, cwd=cwd, env=wl.child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    return start, proc


def setup_seconds(workload, seed, workdir: Path) -> float:
    """Launch-to-ready time of one fresh interpreter building the inputs."""
    probe_dir = Path(tempfile.mkdtemp(prefix="probe-", dir=workdir))
    start, proc = _launch([sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--seed", str(seed),
                           "--setup-probe", str(probe_dir)], wl.ROOT)
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {err.decode()[-500:]}")
    return (int(out.split()[-1]) - start) / 1e9


def setup_probe(args) -> int:
    mods = wl.import_pancha()
    wl.WORKLOADS[args.workload]().build(mods, args.seed, Path(args.setup_probe))
    print(time.monotonic_ns(), flush=True)
    return 0


def import_seconds(workdir: Path) -> float:
    """Median wall time of a cold ``import pancha.cli``."""
    times = []
    for _ in range(IMPORT_PROBES):
        start, proc = _launch([sys.executable, "-c", "import pancha.cli"], workdir)
        _, err = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {err.decode()[-500:]}")
        times.append((time.monotonic_ns() - start) / 1e9)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# measuring

def measure(workload, meter, seconds, between) -> tuple[int, float]:
    """Run whole rounds until ``seconds`` of rounds have passed and the
    workload's minimum is done, calling ``between()`` (untimed) after each
    round but the last; return (rounds, seconds)."""
    elapsed = 0.0
    done = 0
    while True:
        start = time.perf_counter()
        workload.run_round(meter, done)
        elapsed += time.perf_counter() - start
        done += 1
        if (elapsed >= seconds and done >= workload.min_rounds
                or elapsed >= TIME_CAP_S):
            return done, elapsed
        between()


def type_ms(latency_ns, kinds, average) -> list[float]:
    """``average`` latency of each operation type, in ms."""
    return [average(latency_ns[k]) / 1e6 for k in kinds]


def quantile(values, q) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def end_to_end(args, workdir: Path, cpus) -> tuple[dict, dict, list]:
    mods = wl.import_pancha()
    workload = wl.WORKLOADS[args.workload]()
    workload.sweep_cpus = cpus
    main_dir = workdir / "main"
    main_dir.mkdir()
    workload.build(mods, args.seed, main_dir)
    pace = Pace()
    meter = wl.Meter(pace)
    # Setup probes run one between rounds, the rest at the end, so their
    # median spans the run's changes in host speed like the ops do.
    probes, raw_probes = [], []

    def probe():
        if len(probes) < SETUP_PROBES:
            meter.settle()
            before = pace.last
            raw_probes.append(setup_seconds(args.workload, args.seed, workdir))
            pace.reset()
            probes.append(raw_probes[-1] * scale(before, pace.last))

    rounds, elapsed = measure(workload, meter, args.seconds, probe)
    while len(probes) < SETUP_PROBES:
        probe()
    meter.settle()
    setup = statistics.median(probes)
    # Each round runs every operation type once, so percentiles over the
    # per-type medians describe one round's mix.  Per type rather than
    # pooled: what is left of the host's changes in speed shifts for
    # seconds at a time, and pooled order statistics jump with whichever
    # speed held longest; medians drop the first round's cold calls.
    # Sweeps, three or so per config in a run, take their mean.
    sweeps = [k for k in meter.latency_ns if k.startswith("sweep ")]
    ops = [k for k in meter.latency_ns if k not in sweeps]

    def timings(latency_ns):
        """op p50 and p90 (ms) and work rate (1/s) from the latencies."""
        op_ms = type_ms(latency_ns, ops, statistics.median)
        if args.workload == "cli":
            sweep_s = statistics.median(
                type_ms(latency_ns, sweeps, statistics.fmean)) / 1e3
            rate = wl.SWEEP_POINTS / sweep_s
        else:
            rate = meter.work / (sum(sum(v) for v in latency_ns.values()) / 1e9)
        return quantile(op_ms, 0.5), quantile(op_ms, 0.9), rate

    p50, p90, work_rate = timings(meter.scaled_ns)
    raw_p50, raw_p90, raw_rate = timings(meter.latency_ns)
    if args.workload == "cli":
        rss_kib = meter.rss_kib
        extra = {"sweep_s": (wl.SWEEP_POINTS / work_rate, "s")}
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        extra = {WORK_NAME[args.workload]: (work_rate, "1/s")}
    metrics = {
        "setup_s": setup,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": rss_kib / 1024.0,
        "work_per_s": work_rate,
    }
    report = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
    report["fail_frac"] = (meter.failed / meter.attempted, "ratio")
    report.update(extra)
    # the same timings in wall time, and the host speed they were scaled by
    report["wall.setup_s"] = (statistics.median(raw_probes), "s")
    report["wall.op_p50_ms"] = (raw_p50, "ms")
    report["wall.op_p90_ms"] = (raw_p90, "ms")
    report["wall.work_per_s"] = (raw_rate, "1/s")
    report["pace.reference_ms"] = (REFERENCE_S * 1e3, "ms")
    report["pace.reading_ms_median"] = (statistics.median(pace.readings) * 1e3, "ms")
    report["pace.readings"] = (len(pace.readings), "count")
    report["ops"] = (sum(len(meter.latency_ns[k]) for k in ops), "count")
    report["op_types"] = (len(ops), "count")
    report["rounds"] = (rounds, "count")
    report["measured_s"] = (elapsed, "s")
    result = {"correct": meter.failed == 0, "attempted": meter.attempted,
              "failed": meter.failed,
              "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                          for k, v in metrics.items()}}
    return result, report, meter.problems


def traced(args, workdir: Path, cpus) -> tuple[dict, dict, list]:
    mods = wl.import_pancha()
    workload = wl.WORKLOADS[args.workload]()
    workload.sweep_cpus = cpus
    main_dir = workdir / "main"
    main_dir.mkdir()
    workload.build(mods, args.seed, main_dir)
    if args.workload == "cli":
        workload.in_process = True
    # Each round runs untraced and traced on the same inputs, in
    # alternating order over an even number of rounds, so both sides see
    # the same host speed and memory state and compare bit for bit.
    plain, with_trace = wl.Meter(), wl.Meter()
    tracer = Tracer(wl.trace_hooks())
    seconds = {False: 0.0, True: 0.0}
    rounds = 0
    start = time.perf_counter()
    while (rounds < 2 or rounds % 2
           or time.perf_counter() - start < min(args.seconds, TIME_CAP_S)):
        for traced_side in ((False, True) if rounds % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced_side:
                tracer.install(mods)
            try:
                workload.run_round(with_trace if traced_side else plain, rounds)
            finally:
                tracer.uninstall()
            seconds[traced_side] += time.perf_counter() - t0
        rounds += 1
    plain_s, traced_s = seconds[False], seconds[True]
    problems = plain.problems + with_trace.problems
    mismatched = sum(a != b for a, b in zip(plain.digests, with_trace.digests))
    mismatched += abs(len(plain.digests) - len(with_trace.digests))
    if mismatched:
        problems.append(f"{mismatched} traced results differ from untraced ones")

    outside = {"cli.import_s": import_seconds(workdir)}
    if args.workload == "cli":
        for jobs in (1, 2):
            outside[f"cli.sweep_jobs{jobs}_s"] = outside_sweep_seconds(
                workload, jobs, workdir, problems)
    metrics = layer_metrics(tracer, rounds, traced_s / plain_s - 1.0, outside)
    traces = wl.ROOT / ".perfbench-traces"
    traces.mkdir(exist_ok=True)
    tracer.save(traces / f"{args.workload}-seed{args.seed}.npz")

    units = {name: unit for name, unit, _ in per_layer_metrics()}
    failed = plain.failed + with_trace.failed + (1 if mismatched else 0)
    result = {"correct": failed == 0 and len(problems) == 0,
              "attempted": plain.attempted + with_trace.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    report = {k: (v, units[k]) for k, v in metrics.items()}
    report["rounds"] = (rounds, "count")
    report["untraced_s"] = (plain_s, "s")
    report["traced_s"] = (traced_s, "s")
    return result, report, problems


def outside_sweep_seconds(workload, jobs, workdir, problems) -> float:
    """Mean wall time of one cold ``pancha sweep --jobs N`` per config."""
    times = []
    for label, _, _, argv in workload.sweeps:
        start = time.perf_counter()
        code, _, err = wl.spawn_pancha(argv + ["--jobs", str(jobs)], workdir,
                                       workload.sweep_cpus)
        times.append(time.perf_counter() - start)
        if code != 0:
            problems.append(f"{label} --jobs {jobs}: exit {code}: "
                            f"{err.decode(errors='replace')[-300:]}")
    return statistics.fmean(times)


def layer_metrics(tracer, rounds, overhead, outside) -> dict:
    """Per-layer metrics from the spans, per round where they are totals."""
    stats = tracer.by_name()
    zero = {"calls": 0, "errors": 0, "total_ns": 0, "self_ns": 0}
    get = lambda name: stats.get(name, zero)  # noqa: E731
    count = lambda key: tracer.counters.get(key, 0.0)  # noqa: E731
    per = 1.0 / rounds
    m = {}
    for layer in LAYERS:
        mine = [s for name, s in stats.items() if name.split(".")[0] == layer]
        m[f"{layer}.calls"] = sum(s["calls"] for s in mine) * per
        m[f"{layer}.self_s"] = sum(s["self_ns"] for s in mine) / 1e9 * per
        m[f"{layer}.errors"] = sum(s["errors"] for s in mine) * per
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            s = get(f"{layer}.{name}")
            m[f"{layer}.{name}.calls"] = s["calls"] * per
            m[f"{layer}.{name}.self_ms"] = s["self_ns"] / 1e6 * per
    for name in wl.TRANSPORT_KERNELS:
        key = f"transport.{name}"
        s, steps = get(key), count(f"{key}.steps")
        m[f"{key}.calls"] = s["calls"] * per
        m[f"{key}.self_ms"] = s["self_ns"] / 1e6 * per
        m[f"{key}.ns_per_step"] = s["total_ns"] / steps if steps else 0.0
    for name in ("precession_path", "sample_triangle_path"):
        key = f"transport.{name}"
        steps = count(f"{key}.steps")
        m[f"{key}.bytes_per_step"] = count(f"{key}.bytes") / steps if steps else 0.0
    suites = suite_checks()
    for suite in SUITE_NAMES:
        m[f"checks.{suite}.busy_s"] = sum(
            get(f"checks.{fn}")["total_ns"] for fn in suites[suite]) / 1e9 * per
    m["checks.instances"] = sum(
        get(f"checks.{name}")["calls"] * wl.check_instances(fn)
        for fns in suites.values() for name, fn in fns.items()) * per
    drawn = count("haar.drawn")
    used = drawn - count("haar.in_sampler") + count("haar.sampler_used")
    m["checks.sample_yield"] = used / drawn if drawn else 0.0
    for name in RUNNER_NAMES:
        key = f"experiments.run_{name.replace('-', '_')}"
        m[f"{key}.busy_ms"] = get(key)["total_ns"] / 1e6 * per
    m["cli.import_s"] = outside["cli.import_s"]
    m["cli.main.self_ms"] = get("cli.main")["self_ns"] / 1e6 * per
    m["cli.sweep_jobs1_s"] = outside.get("cli.sweep_jobs1_s", 0.0)
    m["cli.sweep_jobs2_s"] = outside.get("cli.sweep_jobs2_s", 0.0)
    m["trace.overhead_frac"] = overhead
    m["trace.spans"] = len(tracer.start) * per
    return m


def suite_checks() -> dict:
    """Name and function of each check, by suite (call after uninstalling)."""
    checks = sys.modules["pancha.checks"]
    return {suite: {fn.__name__: fn for fn in fns}
            for suite, fns in checks.SUITES.items()}


# ---------------------------------------------------------------------------
# entry point

def print_report(workload, report, problems):
    for name, (value, unit) in report.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"{workload} problem: {problem}")


def run_all(args) -> int:
    """Run each workload in its own process and print every report."""
    results, code = {}, 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=wl.ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        if args.workload == "all":
            return run_all(args)
        wl.import_pancha()  # fail before any measuring without the program
        cpus = pin()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=wl.ROOT) as tmp:
            run = traced if args.trace else end_to_end
            result, report, problems = run(args, Path(tmp), cpus)
    except wl.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print_report(args.workload, report, problems)
    print("machine: " + json.dumps(machine_record(cpus)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
