"""The three benchmark workloads: ``battery``, ``paths`` and ``cli``.

Every workload is a closed loop driven by one client: the next operation
starts only when the previous one has returned.  A workload is a list of
rounds; a round is a fixed sequence of operations, so the mix of
operations in a run does not depend on where the clock stops.  All inputs
are drawn from the benchmark's ``--seed``.

* ``battery``: one round is one pass over all 25 checks of
  ``checks.SUITES`` at their default instance counts, with a new seed per
  pass.  One operation is one check call.  Thousands of tiny 2- and
  4-dimensional problems, so per-call Python and numpy overhead dominates.
* ``paths``: one round runs the transport kernels on precession paths of
  10^4, 10^5 and 10^6 steps (from L2-resident to far beyond L2), plus the
  per-step Python loops (``make_parallel_lift``, ``sample_triangle_path``)
  at 10^4 steps.  One operation is one kernel call.
* ``cli``: one round is ``pancha run`` for each of the six experiments in
  csv and json, each a cold-started subprocess; every third round adds a
  ``pancha sweep --jobs 2`` of each of the two sweep configs.  One
  operation is one invocation; latencies are those of ``run`` alone.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from pace import Pace
from pace import scale as pace_scale
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: input sets built per run; rounds beyond this reuse them cyclically
INPUT_ROUNDS = 64


class MissingProgram(RuntimeError):
    """The checkout holds no pancha sources to benchmark."""


def import_pancha() -> dict:
    """Import pancha from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pancha" / "__init__.py").is_file():
        raise MissingProgram(f"no pancha sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {layer: importlib.import_module(f"pancha.{layer}") for layer in LAYERS}
    origin = Path(mods["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"pancha was imported from {origin}, not {SRC}")
    return mods


def child_env() -> dict:
    """Environment for CLI subprocesses: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


# ---------------------------------------------------------------------------
# measuring operations

def digest(value) -> str:
    """Bit-exact fingerprint of an operation's result."""
    h = hashlib.blake2b(digest_size=16)

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, (list, tuple)):
            for item in v:
                feed(item)
        elif isinstance(v, float):
            h.update(v.hex().encode())
        elif isinstance(v, bytes):
            h.update(v)
        else:
            h.update(repr(v).encode())
        h.update(b"|")

    feed(value)
    return h.hexdigest()


class Meter:
    """Counts, times and checks the operations of one measured segment.

    With a ``Pace``, every latency is also scaled to the reference host
    speed (see ``pace.py``) into ``scaled_ns``: operations in one stretch
    between two readings share the scale of those readings, and an
    operation given ``cpus`` is bracketed by readings over those CPUs.
    """

    def __init__(self, pace: Pace | None = None):
        self.pace = pace
        #: wall-time latencies by operation type (a round runs each type once)
        self.latency_ns: dict[str, list[int]] = {}
        #: the same latencies at the reference host speed
        self.scaled_ns: dict[str, list[float]] = {}
        self._stretch: list[tuple[str, int]] = []
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.rss_kib = 0
        self.digests: list[str] = []
        self.problems: list[str] = []

    def op(self, kind, call, check=None, *, work=0, detail="", cpus=None):
        """Run one operation of type ``kind``; return its result, or None
        if it failed.

        ``check(result)`` returns None when the output is right, else a
        description of what is wrong.  ``cpus`` names the CPUs the
        operation's own processes run on, if not this process's one.
        """
        self.attempted += 1
        before = None
        if self.pace is not None and cpus:
            self.settle()
            before = self.pace.read(cpus)
        start = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a failed op is counted, never fatal
            self._time(kind, time.perf_counter_ns() - start, cpus, before)
            self.fail(f"{kind}{detail}: {type(exc).__name__}: {exc}")
            return None
        self._time(kind, time.perf_counter_ns() - start, cpus, before)
        problem = check(result) if check is not None else None
        if problem:
            self.fail(f"{kind}{detail}: {problem}")
        self.work += work
        self.digests.append(digest(result))
        return result

    def _time(self, kind, elapsed_ns, cpus, before):
        self.latency_ns.setdefault(kind, []).append(elapsed_ns)
        if self.pace is None:
            return
        if before is not None:
            after = self.pace.read(cpus)
            self.scaled_ns.setdefault(kind, []).append(
                elapsed_ns * pace_scale(before, after))
            self.pace.reset()
            return
        self._stretch.append((kind, elapsed_ns))
        if self.pace.due():
            self.settle()

    def settle(self):
        """Scale the operations since the last reading by a new one."""
        if self.pace is None:
            return
        factor = self.pace.step()
        for kind, elapsed_ns in self._stretch:
            self.scaled_ns.setdefault(kind, []).append(elapsed_ns * factor)
        self._stretch.clear()

    def fail(self, problem: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _phase_gap(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    return abs(math.remainder(a - b, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# seeded inputs

def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _angles(v) -> list[float]:
    """[theta, phi] of a unit Bloch vector."""
    return [float(math.acos(v[2])), float(math.atan2(v[1], v[0]))]


def random_vertices(rng) -> list[list[float]]:
    """Three [theta, phi] Bloch points spanning a well-conditioned triangle."""
    while True:
        pts = [_unit(rng) for _ in range(3)]
        sides = [math.acos(np.clip(pts[i] @ pts[(i + 1) % 3], -1.0, 1.0))
                 for i in range(3)]
        if (min(sides) > 0.4 and max(sides) < 2.6
                and abs(np.linalg.det(np.array(pts))) > 0.05):
            return [_angles(p) for p in pts]


def random_precession(rng) -> tuple[float, float]:
    """Tilt and angle whose endpoints stay far from antipodal."""
    return float(rng.uniform(0.2, 1.2)), float(rng.uniform(0.3, 5.5))


# ---------------------------------------------------------------------------
# battery

#: instances per check without an ``n`` argument (grid sizes in checks.py)
GRID_INSTANCES = {
    "check_mixed_nonadditivity": 1,
    "check_precession_three_way": 12,
    "check_chain_convergence": 12,
    "check_mixed_noncyclic": 36,
    "check_dual_fringe": 400,
    "check_duality_identity": 400,
    "check_channel_sum": 49,
}

SAMPLERS = ("checks.random_qubit_tuple", "checks.random_triangle")


def check_instances(fn) -> int:
    """Closed-form-versus-oracle instances one call of a check verifies."""
    n = inspect.signature(fn).parameters.get("n")
    return n.default if n is not None else GRID_INSTANCES[fn.__name__]


class Battery:
    name = "battery"
    min_rounds = 4  # 100 ops

    def build(self, mods, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.mods = mods
        self.seeds = [int(s) for s in rng.integers(0, 2**31, INPUT_ROUNDS)]
        self.instances = {fn.__name__: check_instances(fn)
                          for fns in mods["checks"].SUITES.values() for fn in fns}

    def run_round(self, meter, i):
        seed = self.seeds[i % len(self.seeds)]
        for suite, fns in self.mods["checks"].SUITES.items():
            for fn in fns:
                meter.op(f"{suite}/{fn.__name__}", lambda: fn(seed),
                         _check_verdict, work=self.instances[fn.__name__],
                         detail=f" (seed {seed})")


def _check_verdict(result):
    if not math.isfinite(result.stat):
        return f"non-finite stat {result.stat!r}"
    if not result.passed:
        return f"FAIL {result.line()}"
    return None


# ---------------------------------------------------------------------------
# paths

PATH_SIZES = (10_000, 100_000, 1_000_000)
LOOP_SIZE = 10_000  # the per-step Python loops run at this size only
#: repo budgets at >= 10^4 steps (acceptance criteria 5 and 6)
CHAIN_TOL = 1e-3
AREA_TOL = 1e-4
EXACT_TOL = 1e-10
TRANSPORT_KERNELS = ("precession_path", "chain_phase",
                     "geodesic_closure_solid_angle", "dynamical_phase",
                     "make_parallel_lift", "sample_triangle_path")


def path_steps(path) -> int:
    return path.n_samples - 1


def path_bytes(path) -> int:
    total = path.times.nbytes + path.states.nbytes
    if path.generators is not None:
        total += np.asarray(path.generators).nbytes
    return total


class Paths:
    name = "paths"
    min_rounds = 7  # 105 ops

    def build(self, mods, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.mods = mods
        t, g = mods["transport"], mods["geometry"]
        self.rounds = []
        for _ in range(INPUT_ROUNDS):
            precessions = []
            for n in PATH_SIZES:
                theta, phi = random_precession(rng)
                spec = t.PrecessionSpec(theta, phi)
                precessions.append((n, spec, t.precession_phase_closed_form(spec),
                                    -0.5 * phi * math.cos(theta)))
            tri = g.SphericalTriangle(*(mods["core"].BlochPoint(*v)
                                        for v in random_vertices(rng)))
            self.rounds.append((precessions, tri, -0.5 * g.solid_angle(tri)))

    def run_round(self, meter, i):
        t = self.mods["transport"]
        precessions, tri, tri_phase = self.rounds[i % len(self.rounds)]
        for n, spec, closed, dynamical in precessions:
            path = meter.op(f"precession_path[{n}]",
                            lambda: t.precession_path(spec, n),
                            _path_check(n), work=n)
            if path is None:
                continue
            chain = meter.op(
                f"chain_phase[{n}]", lambda: t.chain_phase(path),
                _within(closed, CHAIN_TOL, "chain phase vs closed form"), work=n)
            meter.op(f"geodesic_closure_solid_angle[{n}]",
                     lambda: -0.5 * t.geodesic_closure_solid_angle(path),
                     _within(closed, AREA_TOL, "-omega/2 vs closed form"), work=n)
            meter.op(f"dynamical_phase[{n}]", lambda: t.dynamical_phase(path),
                     _within(dynamical, EXACT_TOL, "dynamical phase"), work=n)
            if n == LOOP_SIZE and chain is not None:
                meter.op(f"make_parallel_lift[{n}]",
                         lambda: t.make_parallel_lift(path),
                         _lift_check(chain), work=n)
        loop = meter.op(f"sample_triangle_path[{LOOP_SIZE}]",
                        lambda: t.sample_triangle_path(tri, LOOP_SIZE),
                        _path_check(None), work=3 * (LOOP_SIZE // 3))
        if loop is not None:
            meter.op(f"chain_phase[triangle {LOOP_SIZE}]",
                     lambda: t.chain_phase(loop),
                     _within(tri_phase, CHAIN_TOL, "loop phase vs -omega/2"),
                     work=path_steps(loop))


def trace_hooks() -> dict:
    """Counters taken at the traced boundaries, for every workload.

    Transport kernels count the path steps they process and the bytes of
    the paths they return.  Haar draws are counted, and marked wasted
    when a rejection sampler drew them but did not return them.
    """
    def haar(tr, args, kwargs, result):
        tr.count("haar.drawn")
        if tr.inside(SAMPLERS):
            tr.count("haar.in_sampler")

    def used(size):
        def hook(tr, args, kwargs, result):
            if not tr.inside(SAMPLERS):
                tr.count("haar.sampler_used", size(result))
        return hook

    def transport(name, returns_path):
        def count(tr, args, kwargs, result):
            path = result if returns_path else args[0]
            tr.count(f"transport.{name}.steps", path_steps(path))
            if name in ("precession_path", "sample_triangle_path"):
                tr.count(f"transport.{name}.bytes", path_bytes(result))
        return count

    returns = ("precession_path", "make_parallel_lift", "sample_triangle_path")
    hooks = {f"transport.{name}": transport(name, name in returns)
             for name in TRANSPORT_KERNELS}
    hooks.update({"core.haar_state": haar,
                  "checks.random_qubit_tuple": used(len),
                  "checks.random_triangle": used(lambda r: 3)})
    return hooks


def _path_check(n):
    def check(path):
        if n is not None and path_steps(path) != n:
            return f"{path_steps(path)} steps, wanted {n}"
        if not np.isfinite(path.states).all():
            return "non-finite states"
        return None
    return check


def _within(want, tol, what):
    def check(got):
        if not _finite(got):
            return f"{what}: non-finite {got!r}"
        gap = _phase_gap(got, want)
        return None if gap <= tol else f"{what}: off by {gap:.3e} > {tol:g}"
    return check


def _lift_check(chain):
    def check(lifted):
        endpoint = complex(np.vdot(lifted.states[0], lifted.states[-1]))
        gap = _phase_gap(math.atan2(endpoint.imag, endpoint.real), chain)
        if not gap <= EXACT_TOL:
            return f"lift endpoint phase off the chain phase by {gap:.3e}"
        return None
    return check


# ---------------------------------------------------------------------------
# cli

FORMATS = ("csv", "json")
SWEEP_POINTS = 32
SWEEP_EVERY = 3  # rounds between sweep pairs
SWEEP_JOBS = 2  # never more workers than this machine's 2 cores


def cli_configs(seed) -> tuple[dict, dict]:
    """Seeded run configs (one per experiment) and the two sweep configs."""
    rng = np.random.default_rng([seed, 3])
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    while True:  # two pure states with a well-defined relative phase
        va, vb = _unit(rng), _unit(rng)
        if va @ vb > -0.8:
            break
    a, b = _angles(va), _angles(vb)
    theta, phi = random_precession(rng)
    runs = {
        "pair": {"theta_a": a[0], "phi_a": a[1], "theta_b": b[0],
                 "phi_b": b[1], "alpha": u(-3.0, 3.0), "samples": 64},
        "mixed": {"r": u(0.2, 0.9), "angle": u(0.3, 2.8),
                  "axis": [float(x) for x in _unit(rng)], "samples": 64},
        "triangle": {"vertices": random_vertices(rng), "r": u(0.2, 0.9)},
        "two-photon": {"lam": u(0.1, 0.4), "triangle_a": random_vertices(rng),
                       "triangle_a_prime": random_vertices(rng), "samples": 64},
        "precession": {"theta": theta, "phi": phi, "r": u(0.2, 0.9)},
        "dual": {"theta": u(0.2, math.pi - 0.2), "delta_phi": u(-2.8, 2.8),
                 "samples": 64},
    }
    sweeps = {
        "precession": {"theta": u(0.2, 1.2),
                       "phi": np.linspace(0.3, 5.5, SWEEP_POINTS).tolist(),
                       "subdivisions": 100_000},
        "dual": {"theta": np.linspace(0.2, math.pi - 0.2, SWEEP_POINTS).tolist(),
                 "delta_phi": u(-2.8, 2.8), "samples": 1024},
    }
    return ({k: {"experiment": k, "parameters": v} for k, v in runs.items()},
            {k: {"experiment": "sweep", "base": k, "parameters": v}
             for k, v in sweeps.items()})


def write_cli_inputs(seed, workdir: Path) -> tuple[list, list]:
    """Write the configs; return (run, sweep) invocation argument lists."""
    runs, sweeps = cli_configs(seed)
    run_args, sweep_args = [], []
    for name, cfg in runs.items():
        path = workdir / f"run-{name}.json"
        path.write_text(json.dumps(cfg))
        for fmt in FORMATS:
            out = workdir / f"out-{name}.{fmt}"
            run_args.append((f"run {name} {fmt}", fmt, out,
                             ["run", "--config", str(path), "--format", fmt,
                              "--out", str(out), "--jobs", "1"]))
    for name, cfg in sweeps.items():
        path = workdir / f"sweep-{name}.json"
        path.write_text(json.dumps(cfg))
        out = workdir / f"out-sweep-{name}.csv"
        sweep_args.append((f"sweep {name}", "csv", out,
                           ["sweep", "--config", str(path), "--out", str(out)]))
    return run_args, sweep_args


def spawn_pancha(argv, workdir: Path, cpus=None) -> tuple[int, int, bytes]:
    """Run ``python -m pancha argv`` cold, on ``cpus`` if given, else on
    this process's CPUs; return (exit code, max RSS KiB, stderr)."""
    own = os.sched_getaffinity(0)
    with open(workdir / "stderr.txt", "w+b") as err:
        if cpus:
            os.sched_setaffinity(0, cpus)  # the child inherits it
        try:
            proc = subprocess.Popen([sys.executable, "-m", "pancha", *argv],
                                    cwd=workdir, env=child_env(),
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        finally:
            os.sched_setaffinity(0, own)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, usage.ru_maxrss, err.read()


def run_in_process(mods, argv) -> tuple[int, int, bytes]:
    """Call ``pancha.cli.main(argv)`` here, as the traced run does."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = mods["cli"].main(argv)
    return code, 0, sink.getvalue().encode()


def check_cli_output(fmt, text: bytes, rows=None):
    """None if the output parses with finite oracle deltas."""
    if fmt == "json":
        deltas = list(json.loads(text)["oracle_deltas"].values())
    else:
        table = list(csv.reader(io.StringIO(text.decode())))
        header, body = table[0], table[1:]
        if rows is not None and len(body) != rows:
            return f"{len(body)} rows, wanted {rows}"
        cols = [i for i, h in enumerate(header) if h.startswith("delta_")]
        deltas = [float(row[i]) for row in body for i in cols]
    if not deltas:
        return "no oracle deltas"
    if not all(_finite(d) for d in deltas):
        return "non-finite oracle delta"
    return None


class Cli:
    name = "cli"
    min_rounds = 9  # 108 runs and three sweep pairs
    #: call ``pancha.cli.main`` here instead of a subprocess (traced runs)
    in_process = False
    #: CPUs a sweep's worker pool runs on (None: this process's CPUs)
    sweep_cpus = None

    def build(self, mods, seed, workdir):
        self.mods = mods
        self.workdir = workdir
        self.runs, self.sweeps = write_cli_inputs(seed, workdir)
        self.reference: dict[str, bytes] = {}

    def invoke(self, meter, label, fmt, out, argv, rows=None):
        sweep = rows is not None
        if sweep:
            argv = argv + ["--jobs", str(1 if self.in_process else SWEEP_JOBS)]

        def call():
            if out.exists():
                out.unlink()
            if self.in_process:
                code, rss, err = run_in_process(self.mods, argv)
            else:
                code, rss, err = spawn_pancha(
                    argv, self.workdir, self.sweep_cpus if sweep else None)
            meter.rss_kib = max(meter.rss_kib, rss)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.decode(errors='replace')[-300:]}")
            return out.read_bytes()

        def check(text):
            problem = check_cli_output(fmt, text, rows)
            first = self.reference.setdefault(label, text)
            if problem is None and text != first:
                problem = "rerun output differs from the first run's bytes"
            return problem

        meter.op(label, call, check, work=SWEEP_POINTS if sweep else 1,
                 cpus=self.sweep_cpus if sweep else None)

    def run_round(self, meter, i):
        for label, fmt, out, argv in self.runs:
            self.invoke(meter, label, fmt, out, argv)
        if i % SWEEP_EVERY == SWEEP_EVERY - 1 or self.in_process:
            for label, fmt, out, argv in self.sweeps:
                self.invoke(meter, label, fmt, out, argv, rows=SWEEP_POINTS)


WORKLOADS = {w.name: w for w in (Battery, Paths, Cli)}
