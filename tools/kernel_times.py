"""Time the path kernels of two pancha source trees, round by round, and
compare their results bit for bit.

Usage::

    python tools/kernel_times.py PARENT_SRC CHANGE_SRC [--steps 10000,100000,1000000]
                                 [--rounds N]

Each ``*_SRC`` is a directory holding the ``pancha`` package (a
checkout's ``src``).  Each tree runs in one fresh interpreter with the
tree alone on ``PYTHONPATH``; the two are driven alternately, one round
each, the tree that goes first swapping every round.  A round times, at
each step count, ``precession_path`` of one fixed precession and then
``chain_phase``, ``geodesic_closure_solid_angle`` and ``dynamical_phase``
of that path, each called often enough to run for about 10^6 steps; then
``precession_path``, ``chain_phase`` and ``geodesic_closure_solid_angle``
of the worked-example grid's batch at 10^4 steps, a tilt column against
an angle row as the precession checks build it (``grid`` in the label,
ns per step of all its paths); and then each of the 25 checks of
``checks.SUITES`` once at the round's seed.  Both interpreters warm
every kernel up before the first round.

One line is printed per kernel and step count, and per check: the
parent's and the change's median over the rounds (ns/step for a kernel,
ms a call for a check), the change/parent ratio, and in how many rounds
the change was faster.  Three more lines give the sum of the per-check
medians, the in-process cost of one pass of the battery, which the
benchmark's ``battery`` workload turns into ``work_per_s``, and their
p50 and p90, the quantiles that workload takes of its per-check medians
for ``op_p50_ms`` and ``op_p90_ms`` (numpy's linear interpolation); their
win counts compare the sums and quantiles of each round's check times.
Every result of every round is compared between the trees bit for bit
(a path by its times and states, a phase or angle as ``float.hex``, a
check by its stat and verdict); the last line counts the differences,
and the exit code is 1 on any, else 0.  The host fingerprint
(``host_fingerprint.py``) goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from host_fingerprint import report

#: one fixed precession, its endpoints far from antipodal
THETA, PHI = 0.7, 4.0

#: run in each tree's interpreter with the step counts, theta and phi as
#: arguments: reads one round number per line and answers each with one
#: JSON line {"times": {label: ns/step or ms}, "bits": {label: digest}}
PROBE = """
import hashlib, json, sys, time
import numpy as np
from pancha import transport as t
from pancha.checks import PRECESSION_GRID, SUITES

steps = [int(n) for n in sys.argv[1].split(",")]
spec = t.PrecessionSpec(float(sys.argv[2]), float(sys.argv[3]))
checks = [fn for fns in SUITES.values() for fn in fns]
KERNELS = ("chain_phase", "geodesic_closure_solid_angle", "dynamical_phase")
GRID_STEPS = 10_000
tilts, angles = (list(dict.fromkeys(axis)) for axis in zip(*PRECESSION_GRID))
grid = t.PrecessionSpec(np.array(tilts)[:, None], np.array(angles))

def digest(value):
    if isinstance(value, t.DiscretePath):
        raw = value.times.tobytes() + value.states.tobytes()
        return hashlib.sha256(raw).hexdigest()
    if np.ndim(value):
        return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
    return float(value).hex()

def timed(call, reps):
    start = time.perf_counter_ns()
    for _ in range(reps):
        value = call()
    return time.perf_counter_ns() - start, value

for n in steps:  # warm up
    path = t.precession_path(spec, n)
    for name in KERNELS:
        getattr(t, name)(path)
grid_path = t.precession_path(grid, GRID_STEPS)
for name in KERNELS[:2]:
    getattr(t, name)(grid_path)
for fn in checks:
    fn(0)

for line in sys.stdin:
    seed, times, bits = int(line), {}, {}
    for n in steps:
        reps = max(1, 1_000_000 // n)
        elapsed, path = timed(lambda: t.precession_path(spec, n), reps)
        times[f"precession_path[{n}]"] = elapsed / reps / n
        bits[f"precession_path[{n}]"] = digest(path)
        for name in KERNELS:
            kernel = getattr(t, name)
            elapsed, value = timed(lambda: kernel(path), reps)
            times[f"{name}[{n}]"] = elapsed / reps / n
            bits[f"{name}[{n}]"] = digest(value)
    paths = grid_path.states[..., 0, 0].size
    n, label = paths * GRID_STEPS, f"[grid {paths}x{GRID_STEPS}]"
    reps = max(1, 1_000_000 // n)
    elapsed, path = timed(lambda: t.precession_path(grid, GRID_STEPS), reps)
    times["precession_path" + label], bits["precession_path" + label] = (
        elapsed / reps / n, digest(path))
    for name in KERNELS[:2]:
        kernel = getattr(t, name)
        elapsed, value = timed(lambda: kernel(path), reps)
        times[name + label], bits[name + label] = elapsed / reps / n, digest(value)
    for fn in checks:
        elapsed, result = timed(lambda: fn(seed), 1)
        times[fn.__name__] = elapsed / 1e6
        bits[fn.__name__] = [digest(result.stat), result.passed]
    print(json.dumps({"times": times, "bits": bits}), flush=True)
"""


def start(src: Path, steps: list[int]) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PANCHA_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [",".join(map(str, steps)), repr(THETA), repr(PHI)]
    return subprocess.Popen([sys.executable, "-c", PROBE, *argv], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def ask(proc: subprocess.Popen, seed: int) -> dict:
    proc.stdin.write(f"{seed}\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"probe exited with code {proc.wait()}")
    return json.loads(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--steps", default="10000,100000,1000000",
                        help="comma-separated path step counts")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    try:
        steps = [int(n) for n in args.steps.split(",")]
    except ValueError:
        parser.error("--steps takes comma-separated integers")
    if min(steps) < 1 or args.rounds < 1:
        parser.error("--steps and --rounds must be positive")
    report()
    trees = [p.resolve() for p in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "pancha" / "__init__.py").is_file():
            parser.error(f"no pancha package under {tree}")

    procs = [start(tree, steps) for tree in trees]
    rounds = []  # [(parent reply, change reply)] per round
    try:
        for seed in range(args.rounds):
            order = (0, 1) if seed % 2 == 0 else (1, 0)
            replies = {side: ask(procs[side], seed) for side in order}
            rounds.append((replies[0], replies[1]))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()

    def line(label, unit, old, new, mids=None):
        old_mid, new_mid = mids or (statistics.median(old), statistics.median(new))
        wins = sum(n < o for o, n in zip(old, new))
        print(f"{label:44s} {old_mid:10.4g} -> {new_mid:10.4g} {unit:7s} "
              f"x{new_mid / old_mid:.3f}  change faster {wins}/{len(rounds)}")

    for label in rounds[0][0]["times"]:
        old, new = ([r[side]["times"][label] for r in rounds] for side in (0, 1))
        line(label, "ms" if "[" not in label else "ns/step", old, new)
    checks = [label for label in rounds[0][0]["times"] if "[" not in label]
    medians = [[statistics.median(r[side]["times"][c] for r in rounds) for c in checks]
               for side in (0, 1)]
    old, new = ([sum(r[side]["times"][c] for c in checks) for r in rounds] for side in (0, 1))
    line(f"sum of the {len(checks)} per-check medians", "ms", old, new,
         [sum(m) for m in medians])
    for q in (0.5, 0.9):
        old, new = ([float(np.quantile([r[side]["times"][c] for c in checks], q))
                     for r in rounds] for side in (0, 1))
        line(f"p{round(100 * q)} of the {len(checks)} per-check medians", "ms", old, new,
             [float(np.quantile(m, q)) for m in medians])
    compared = differ = 0
    for parent, change in rounds:
        for label, value in parent["bits"].items():
            compared += 1
            if change["bits"].get(label) != value:
                differ += 1
                print(f"DIFF {label}: {value} -> {change['bits'].get(label)}")
    print(f"{compared} kernel results over {len(rounds)} rounds, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
