"""Compare the verification batteries of two pancha source trees, stat by stat.

Usage::

    python tools/check_stats.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory holding the ``pancha`` package (a
checkout's ``src``).  Every check of ``checks.SUITES`` runs at seeds 0
and 20260809, with its default instance counts and tolerances, in one
fresh interpreter per tree with the tree alone on ``PYTHONPATH``.

One line is printed per check and seed: the parent's stat as
``float.hex`` and its verdict, then ``same`` or the change's stat and
verdict.  A check that only one tree has counts as a difference.  The
exit code is 1 on any difference, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (0, 20260809)

#: run in each tree's interpreter: prints [[seed, check, stat hex, passed], ...]
PROBE = """
import json, sys
from pancha.checks import SUITES
print(json.dumps([[seed, fn.__name__, float(result.stat).hex(), result.passed]
                  for seed in map(int, sys.argv[1:])
                  for fns in SUITES.values() for fn in fns
                  for result in [fn(seed)]]))
"""


def observe(src: Path) -> dict[tuple[int, str], tuple[str, bool]]:
    """{(seed, check): (stat as float.hex, passed)} of one tree."""
    env = {k: v for k, v in os.environ.items() if k != "PANCHA_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, SEEDS)],
                          env=env, capture_output=True, text=True, check=True)
    return {(seed, name): (stat, passed)
            for seed, name, stat, passed in json.loads(proc.stdout)}


def _show(row) -> str:
    if row is None:
        return "absent"
    stat, passed = row
    return f"{stat} {'PASS' if passed else 'FAIL'}"


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python tools/check_stats.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in sys.argv[1:]]
    for tree in trees:
        if not (tree / "pancha" / "__init__.py").is_file():
            print(f"no pancha package under {tree}", file=sys.stderr)
            return 2
    parent, change = map(observe, trees)
    differ = 0
    for key in sorted(parent.keys() | change.keys()):
        old, new = parent.get(key), change.get(key)
        differ += old != new
        verdict = "same" if old == new else f"DIFF -> {_show(new)}"
        print(f"seed {key[0]}  {key[1]}: {_show(old)}  {verdict}")
    print(f"{len(parent.keys() | change.keys())} check runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
