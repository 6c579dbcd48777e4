"""Compare the verification batteries of two pancha source trees, stat by stat.

Usage::

    python tools/check_stats.py [--seeds START:STOP] PARENT_SRC CHANGE_SRC
    python tools/check_stats.py [--seeds START:STOP] SRC

Each ``*_SRC`` is a directory holding the ``pancha`` package (a
checkout's ``src``).  Every check of ``checks.SUITES`` runs at seeds 0
and 20260809, or at each seed of ``range(START, STOP)``, with its default
instance counts and tolerances, in one fresh interpreter per tree with
the tree alone on ``PYTHONPATH``.

Given one tree, it prints a JSON list with one entry per check: its mode
and threshold, its worst stat over the seeds (the largest in ``max``
mode, the smallest in ``min`` mode, a NaN before either) with its first
seed,
the median stat, the number of seeds it passed at, the headroom of the
worst stat as ``ratio``, left out unless both sides are positive, and
whether the check is a ``fixture``, one that ignores its seed by design:
a fixture runs at the first seed only.  The exit code is 0.

Given two trees, it compares them, every check at every seed, fixtures
too.  One line is printed per check and seed: the parent's stat as
``float.hex`` and its verdict, then ``same`` or the change's stat and
verdict.  Under each differing line, both stats
are printed in decimal with their headroom: threshold/stat in ``max``
mode, stat/threshold in ``min`` mode, shown only where both sides are
positive.  The last line names the least headroom among the moved checks,
in each tree.  A check that only one tree has counts as a difference.  The
exit code is 1 on any difference, else 0.  Either way the host
fingerprint (``host_fingerprint.py``) goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from host_fingerprint import report

SEEDS = (0, 20260809)

#: run in each tree's interpreter with a flag, 1 to run fixtures at the
#: first seed only, and the seeds: prints {"fixtures": [check, ...],
#: "rows": [[seed, check, stat hex, passed, threshold, mode], ...]}
PROBE = """
import json, sys
from pancha.checks import SUITES
once, *seeds = map(int, sys.argv[1:])
fns = [fn for fns in SUITES.values() for fn in fns]
fixtures = [fn.__name__ for fn in fns if getattr(fn, "fixture", False)]
print(json.dumps({"fixtures": fixtures, "rows": [
    [seed, fn.__name__, float(result.stat).hex(), result.passed, result.threshold,
     result.mode]
    for seed in seeds for fn in fns
    if not (once and fn.__name__ in fixtures and seed != seeds[0])
    for result in [fn(seed)]]}))
"""


def observe(src: Path, seeds=SEEDS, once=False):
    """{(seed, check): (stat as float.hex, passed, threshold, mode)} of one
    tree, in run order, and the names of its fixtures, which run at the
    first seed only when ``once``."""
    env = {k: v for k, v in os.environ.items() if k != "PANCHA_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, str(int(once)), *map(str, seeds)],
                          env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    rows = {(seed, name): tuple(row) for seed, name, *row in report["rows"]}
    return rows, set(report["fixtures"])


def _show(row) -> str:
    if row is None:
        return "absent"
    stat, passed, _, _ = row
    return f"{stat} {'PASS' if passed else 'FAIL'}"


def headroom(row) -> float | None:
    """threshold/stat in max mode, stat/threshold in min mode; None for an
    absent row or unless both sides are positive."""
    if row is None:
        return None
    stat, _, threshold, mode = row
    num, den = ((threshold, float.fromhex(stat)) if mode == "max"
                else (float.fromhex(stat), threshold))
    return num / den if num > 0 and den > 0 else None


def _decimal(row) -> tuple[str, str]:
    """A row's stat in decimal and its headroom, ``-`` where undefined."""
    if row is None:
        return "absent", "-"
    ratio = headroom(row)
    return f"{float.fromhex(row[0]):.4g}", "-" if ratio is None else f"x{ratio:.3g}"


def _least(rows) -> str:
    """The least headroom among {key: row}, with its check and seed."""
    rated = [(ratio, key) for key, row in rows.items()
             if (ratio := headroom(row)) is not None]
    if not rated:
        return "none"
    ratio, (seed, name) = min(rated)
    return f"x{ratio:.3g} ({name}, seed {seed})"


def worst_table(rows, fixtures) -> list[dict]:
    """Per check, in run order: mode, threshold, the worst stat over the
    seeds with its seed, the median, the seeds passed, the worst stat's
    headroom as ``ratio`` where it is defined, and whether it is one of
    ``fixtures``."""
    by_check: dict[str, list] = {}
    for (seed, name), row in rows.items():
        by_check.setdefault(name, []).append((seed, row))
    table = []
    for name, runs in by_check.items():
        _, _, threshold, mode = runs[0][1]
        stats = [(float.fromhex(row[0]), seed) for seed, row in runs]
        worse = max if mode == "max" else min
        nan = [(stat, seed) for stat, seed in stats if math.isnan(stat)]
        stat, seed = nan[0] if nan else worse(stats, key=lambda s: s[0])
        entry = {"check": name, "mode": mode, "threshold": threshold,
                 "worst": stat, "seed": seed,
                 "median": statistics.median(s for s, _ in stats),
                 "passed": sum(row[1] for _, row in runs), "seeds": len(runs)}
        ratio = headroom(dict(runs)[seed])
        if ratio is not None:
            entry["ratio"] = ratio
        entry["fixture"] = name in fixtures
        table.append(entry)
    return table


def seed_range(text: str) -> range:
    start, _, stop = text.partition(":")
    try:
        seeds = range(int(start), int(stop))
    except ValueError:
        raise argparse.ArgumentTypeError("expected START:STOP") from None
    if seeds.start < 0 or not seeds:
        raise argparse.ArgumentTypeError("need 0 <= START < STOP")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="SRC",
                        help="one tree to tabulate, or PARENT_SRC CHANGE_SRC")
    parser.add_argument("--seeds", type=seed_range, default=SEEDS,
                        metavar="START:STOP", help="the seeds range(START, STOP)")
    args = parser.parse_args(argv)
    report()
    if len(args.trees) > 2:
        parser.error("give one tree, or a parent and a change")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "pancha" / "__init__.py").is_file():
            print(f"no pancha package under {tree}", file=sys.stderr)
            return 2
    if len(trees) == 1:
        print(json.dumps(worst_table(*observe(trees[0], args.seeds, once=True)),
                         indent=1))
        return 0
    parent, change = (observe(tree, args.seeds)[0] for tree in trees)
    moved = []
    for key in sorted(parent.keys() | change.keys()):
        old, new = parent.get(key), change.get(key)
        if old == new:
            print(f"seed {key[0]}  {key[1]}: {_show(old)}  same")
            continue
        moved.append(key)
        print(f"seed {key[0]}  {key[1]}: {_show(old)}  DIFF -> {_show(new)}")
        (old_stat, old_room), (new_stat, new_room) = _decimal(old), _decimal(new)
        _, _, threshold, mode = new or old
        print(f"    {old_stat} -> {new_stat}, headroom {old_room} -> {new_room} "
              f"(threshold {threshold:.3g} {mode})")
    print(f"{len(parent.keys() | change.keys())} check runs, {len(moved)} differ")
    if moved:
        print("least headroom among moved checks: "
              f"{_least({k: parent.get(k) for k in moved})} -> "
              f"{_least({k: change.get(k) for k in moved})}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
