"""Fuzz the config domain: ``cli.main`` in-process over every
``PARAM_SCHEMAS`` entry, as a single ``run`` or a 2-point sweep.

Every example either exits 0 with every written value finite, or exits 2
(bad config) or 3 (undefined physics) with exactly one line on stderr and
no output file: never a traceback, another exit code or a NaN that
leaves with exit 0.  Values mix in-range numbers with extreme, signed-zero,
subnormal, multi-turn and non-finite ones; sample and subdivision counts
stay small, so each example takes milliseconds.  The examples are
derandomized, so the test is the same on every run.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pancha.cli import _REQUIRED, PARAM_SCHEMAS, main

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-12, 1.0, -1.0, math.pi,
            -math.pi, 2.0 * math.pi, 4.0 * math.pi, 4.0 * math.pi + 1e-9, 1e8,
            1e16, -1e300, 1.7976931348623157e308]
NUMBERS = st.one_of(st.floats(0.0, 6.5), st.floats(-7.0, 7.0), st.floats(-1.0, 1.0),
                    st.sampled_from(EXTREMES),
                    st.floats(allow_nan=True, allow_infinity=True))
COUNTS = st.one_of(st.integers(3, 40), st.integers(3, 40), st.integers(-2, 40),
                   st.sampled_from([10**9, 2**70, 8.0, True]))
VALUES = {
    "number": NUMBERS,
    "int": COUNTS,
    "axis": st.one_of(st.lists(NUMBERS, min_size=3, max_size=3),
                      st.just([0.0, 0.0, 0.0]), st.just([1.0, 0.0])),
    "vertices": st.one_of(
        st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=3, max_size=3),
        st.just([[0.0, 0.0], [1.0, 0.0]])),
}


@st.composite
def configs(draw):
    """(verb, config): a run of one experiment, or a sweep of two values
    of one of its scalar parameters."""
    base = draw(st.sampled_from(sorted(PARAM_SCHEMAS)))
    params = {}
    for name, (kind, default, _) in PARAM_SCHEMAS[base].items():
        if default is _REQUIRED or draw(st.booleans()):
            params[name] = draw(VALUES[kind])
    scalars = [name for name, (kind, _, _) in PARAM_SCHEMAS[base].items()
               if kind in ("number", "int")]
    config = {"experiment": base, "parameters": params,
              "format": draw(st.sampled_from(["csv", "json"]))}
    if not draw(st.booleans()):
        return "run", config
    name = draw(st.sampled_from(scalars))
    kind = PARAM_SCHEMAS[base][name][0]
    params[name] = [draw(VALUES[kind]), draw(VALUES[kind])]
    if draw(st.booleans()):
        config.update(experiment="sweep", base=base)
    return "sweep", config


def written_values(path: Path, fmt: str) -> list:
    """Every number the output file holds."""
    if fmt == "csv":
        rows = list(csv.reader(path.read_text().splitlines()))
        return [float(x) for row in rows[1:] for x in row]
    record = json.loads(path.read_text())
    values = []

    def walk(node):
        if isinstance(node, dict):
            for item in node.values():
                walk(item)
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, float) or node is None:
            values.append(math.nan if node is None else node)

    walk(record["results"])
    walk(record["oracle_deltas"])
    return values


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(configs())
def test_every_config_exits_cleanly(case):
    verb, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([verb, "--config", str(cfg), "--out", str(out),
                         "--jobs", "1"])
        if code == 0:
            values = written_values(out, config["format"])
            assert values and all(math.isfinite(v) for v in values), config
        else:
            assert code in (2, 3), (code, config)
            assert len(err.getvalue().splitlines()) == 1, (err.getvalue(), config)
            assert not out.exists()
