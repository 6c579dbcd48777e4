"""Compare the CLI of two pancha source trees byte for byte.

Usage::

    python tools/cli_bytes.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory holding the ``pancha`` package (a
checkout's ``src``).  The same invocations run cold against both trees:
``python -m pancha`` in a fresh interpreter, in an empty working
directory, with the tree alone on ``PYTHONPATH`` and ``PANCHA_SEED``
unset.  Their exit codes, stdout, stderr and the bytes of every file they
leave are compared.  The invocations are

* perfbench's ``cli_configs`` at seeds 1-3: every run and both sweeps,
  each in csv and json;
* the acceptance sweep of ``tests/test_acceptance.py``, in csv and json;
* a sweep of each experiment's parameter that those configs do not
  sweep: ``two-photon`` ``lam``, ``triangle`` ``r``, ``pair`` ``alpha``
  and ``mixed`` ``angle``, each in csv and json;
* nineteen rejected configs, flags and seeds, which exit 2 or 3.

One line is printed per invocation, with the parent's exit code and what
differs, then a summary.  The exit code is 1 on any difference, else 0.
The host fingerprint (``host_fingerprint.py``) goes to standard error.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from host_fingerprint import report

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import FORMATS, cli_configs  # noqa: E402

SEEDS = (1, 2, 3)
OCTANT = [[0.0, 0.0], [1.5707963267948966, 0.0], [1.5707963267948966, 1.5]]
ACCEPTANCE_SWEEP = {"experiment": "precession",
                    "parameters": {"theta": [0.4, 0.8, 1.2], "phi": 1.3,
                                   "subdivisions": 512},
                    "seed": 3}
PAIR = {"theta_a": 0.3, "phi_a": 0.0, "theta_b": 1.1, "phi_b": 0.4}
#: name -> sweep config of the sweeps beside perfbench's precession and dual
SWEEPS = {
    name: {"experiment": "sweep", "base": base, "parameters": parameters}
    for name, base, parameters in (
        ("two-photon lam", "two-photon",
         {"lam": [0.0, 0.1, 0.25, 0.4, 0.75, 1.0], "triangle_a": OCTANT,
          "triangle_a_prime": [[0.4, 0.2], [1.2, 0.9], [0.8, 2.1]], "samples": 64}),
        ("triangle r", "triangle", {"vertices": OCTANT, "r": [0.1, 0.2, 0.5, 0.9]}),
        ("pair alpha", "pair", {**PAIR, "alpha": [-3.0, -0.5, 0.0, 1.5, 3.0]}),
        ("mixed angle", "mixed",
         {"r": 0.6, "angle": [0.3, 1.2, 2.8, -1.0], "axis": [0.0, 0.6, 0.8]}),
    )
}
#: name -> (config file text, extra flags) of invocations that must fail
REJECTED = {
    "not json": ("{", []),
    "unknown experiment": ({"experiment": "spin", "parameters": {}}, []),
    "missing parameter": ({"experiment": "pair", "parameters":
                           {"theta_a": 0.3, "phi_a": 0.0, "theta_b": 1.1}}, []),
    "unknown parameter": ({"experiment": "dual", "parameters":
                           {"theta": 0.7, "delta_phi": 0.4, "beta": 1}}, []),
    "nan number": ({"experiment": "pair", "parameters": {**PAIR, "alpha": "nan"}},
                   []),
    "samples below 3": ({"experiment": "pair", "parameters": {**PAIR, "samples": 2}},
                        []),
    "zero axis": ({"experiment": "mixed", "parameters":
                   {"r": 0.5, "angle": 1.0, "axis": [0, 0, 0]}}, []),
    "two sweep lists": ({"experiment": "mixed", "parameters":
                         {"r": [0.1, 0.2], "angle": [1.0, 2.0]}}, []),
    "empty sweep list": ({"experiment": "mixed", "parameters":
                          {"r": [], "angle": 1.0}}, []),
    "sweep without base": ({"experiment": "sweep", "parameters":
                            {"r": [0.1, 0.2], "angle": 1.0}}, []),
    "multi-turn phi": ({"experiment": "precession", "parameters":
                        {"theta": 0.5, "phi": 7.0, "subdivisions": 64}}, []),
    "degenerate triangle": ({"experiment": "triangle", "parameters":
                             {"vertices": [OCTANT[0]] * 3}}, []),
    "triangle r 0": ({"experiment": "triangle", "parameters":
                      {"vertices": OCTANT, "r": 0}}, []),
    "orthogonal triangle vertices": ({"experiment": "triangle", "parameters":
                                      {"vertices": [[0.0, 0.0], [math.pi, 0.0],
                                                    [math.pi / 2, 0.0]]}}, []),
    # the loop areas cancel, so the nonlinearity ratio is undefined
    "two-photon loops cancel": ({"experiment": "two-photon", "parameters":
                                 {"lam": 0.3, "triangle_a": OCTANT,
                                  "triangle_a_prime": [OCTANT[0], OCTANT[2],
                                                       OCTANT[1]]}}, []),
    "jobs 0": ({"experiment": "mixed", "parameters": {"r": [0.1, 0.2],
                                                      "angle": 1.0}},
               ["--jobs", "0"]),
    "subdivisions flag 0": ({"experiment": "precession", "parameters":
                             {"theta": 0.5, "phi": 1.0}}, ["--subdivisions", "0"]),
    "negative config seed": ({"experiment": "dual", "parameters":
                              {"theta": 0.7, "delta_phi": 0.4}, "seed": -7}, []),
    "seed flag -3": ({"experiment": "dual", "parameters":
                      {"theta": 0.7, "delta_phi": 0.4}}, ["--seed", "-3"]),
}


def _text(config) -> str:
    """A config file's text; "nan" strings become JSON's NaN."""
    if isinstance(config, str):
        return config
    return json.dumps(config).replace('"nan"', "NaN")


def invocations():
    """(name, config text, argv) of every compared command."""
    for seed in SEEDS:
        runs, sweeps = cli_configs(seed)
        for verb, configs in (("run", runs), ("sweep", sweeps)):
            for name, config in configs.items():
                for fmt in FORMATS:
                    yield (f"seed {seed} {verb} {name} {fmt}", _text(config),
                           [verb, "--format", fmt, "--out", f"out.{fmt}",
                            "--jobs", "2"])
    for name, config in {"acceptance": ACCEPTANCE_SWEEP, **SWEEPS}.items():
        for fmt in FORMATS:
            yield (f"{name} sweep {fmt}", _text(config),
                   ["sweep", "--format", fmt, "--out", f"out.{fmt}", "--jobs", "2"])
    for name, (config, flags) in REJECTED.items():
        yield f"rejected: {name}", _text(config), ["run", "--out", "out.csv", *flags]


def observe(src: Path, config: str, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, {file: bytes}) of one cold invocation."""
    env = {k: v for k, v in os.environ.items() if k != "PANCHA_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        work = Path(tmp)
        (work / "cfg.json").write_text(config)
        proc = subprocess.run([sys.executable, "-m", "pancha", argv[0], "--config",
                               "cfg.json", *argv[1:]],
                              cwd=work, env=env, capture_output=True, check=False)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())
                 if p.name != "cfg.json"}
    return proc.returncode, proc.stdout, proc.stderr, files


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python tools/cli_bytes.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in sys.argv[1:]]
    for tree in trees:
        if not (tree / "pancha" / "__init__.py").is_file():
            print(f"no pancha package under {tree}", file=sys.stderr)
            return 2
    report()
    fields = ("exit code", "stdout", "stderr", "output files")
    total = differ = 0
    for name, config, command in invocations():
        parent, change = (observe(tree, config, command) for tree in trees)
        total += 1
        diffs = [f for f, a, b in zip(fields, parent, change) if a != b]
        differ += bool(diffs)
        verdict = f"DIFF {', '.join(diffs)}" if diffs else "same"
        print(f"exit {parent[0]}  {name}: {verdict}", flush=True)
    print(f"{total} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
