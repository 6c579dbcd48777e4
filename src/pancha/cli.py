"""Command-line experiment runner.

Verbs:

* ``run``    executes one experiment from a JSON config and writes the
  fringe/phase data (CSV or JSON) plus oracle deltas.
* ``sweep``  executes one experiment across a list-valued parameter,
  one output row per value, with principal and unwrapped phase columns.
* ``verify`` runs the seeded invariant batteries and reports one
  pass/fail line per property.

Exit codes: 0 success, 1 verification failures, 2 config/validation
error, 3 domain error (undefined phase, degenerate geometry, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import PhaseDomainError
from .experiments import RUNNERS, ExperimentOutcome

SEED_ENV_VAR = "PANCHA_SEED"
EXPERIMENTS = tuple(RUNNERS) + ("sweep",)
FORMATS = ("csv", "json")
#: sorted(checks.SUITES), spelled out: only ``verify`` imports the batteries
SUITE_NAMES = ("dual", "geometric-phase", "geometry", "mixed", "two-photon")

#: caps that keep one run's memory and output bounded: a profile writes up
#: to about 250 B of CSV per chi sample (25 MB at the cap), and a
#: precession run peaks near 70 B per step (168 MiB in all at the cap)
MAX_SAMPLES = 100_000
MAX_SUBDIVISIONS = 2_000_000

#: (kind, bounds or None) per parameter name, the same in every experiment;
#: scalar kinds may be swept, structured kinds may not, and bounds hold for
#: every element of a sweep list.  Bounds are inclusive (low, high) pairs; a
#: third entry True leaves the low end open.  The fringe fit needs three
#: samples and a precession a positive angle; spin-1/2 field angles have
#: period 4 pi, and the dual profile adds chi to +-delta_phi/2, so a larger
#: one drowns chi.
PARAM_DOMAINS = {
    "theta_a": ("number", None),
    "phi_a": ("number", None),
    "theta_b": ("number", None),
    "phi_b": ("number", None),
    "alpha": ("number", None),
    "samples": ("int", (3, MAX_SAMPLES)),
    "r": ("number", (-1.0, 1.0)),
    "angle": ("number", None),
    "axis": ("axis", None),
    "vertices": ("vertices", None),
    "lam": ("number", (0.0, 1.0)),
    "triangle_a": ("vertices", None),
    "triangle_a_prime": ("vertices", None),
    "theta": ("number", None),
    "phi": ("number", (0.0, math.inf, True)),
    "subdivisions": ("int", (1, MAX_SUBDIVISIONS)),
    "delta_phi": ("number", (-4.0 * math.pi, 4.0 * math.pi)),
}

#: (kind, default, bounds) per parameter of each experiment, in its
#: runner's signature order: the signature states names and defaults
_REQUIRED = inspect.Parameter.empty
PARAM_SCHEMAS = {
    base: {name: (PARAM_DOMAINS[name][0], param.default,
                  PARAM_DOMAINS[name][1])
           for name, param in inspect.signature(runner).parameters.items()}
    for base, runner in RUNNERS.items()
}


class ConfigError(Exception):
    """Invalid experiment configuration (exit code 2)."""


class MultipleSweptParametersError(ConfigError):
    """More than one parameter was given as a sweep list."""


class OutputError(ConfigError):
    """The output file cannot be written (exit code 2)."""


def _is_number(value) -> bool:
    """A finite JSON number: no bool, NaN, infinity or int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_param(experiment: str, name: str, value):
    kind, bounds = PARAM_DOMAINS[name]
    where = f"{experiment}.{name}"
    if kind == "number":
        if not _is_number(value):
            raise ConfigError(
                f"{where} must be a finite number (radians), got {value!r}")
    elif kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
    elif kind == "axis":
        if (not isinstance(value, (list, tuple)) or len(value) != 3
                or not all(_is_number(v) for v in value)):
            raise ConfigError(f"{where} must be a 3-vector of finite numbers")
        # the rotation divides by sqrt(v . v), which must neither underflow
        # to zero nor overflow
        if not 0.0 < sum(float(v) * float(v) for v in value) < math.inf:
            raise ConfigError(f"{where} must be nonzero with a finite length")
    elif kind == "vertices":
        ok = (isinstance(value, (list, tuple)) and len(value) == 3
              and all(isinstance(v, (list, tuple)) and len(v) == 2
                      and all(_is_number(x) for x in v) for v in value))
        if not ok:
            raise ConfigError(f"{where} must be three finite [theta, phi] pairs")
    else:  # pragma: no cover - schema table typo guard
        raise AssertionError(f"unknown parameter kind {kind}")
    if bounds is None:
        return
    low, high = bounds[:2]
    open_low = bounds[2:] == (True,)
    if not ((low < value) if open_low else (low <= value)) or value > high:
        left = "(" if open_low else "["
        raise ConfigError(
            f"{where} must lie in {left}{low}, {high}], got {value!r}")


@dataclass
class RunPlan:
    """Validated config: base experiment, parameters, swept name (or None);
    seed is the config's own, None where it sets none."""

    experiment: str
    base: str
    parameters: dict
    swept: str | None
    seed: int | None
    output: str | None
    format: str


def validate_config(raw) -> RunPlan:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    allowed_top = {"experiment", "parameters", "seed", "output", "format", "base"}
    unknown = set(raw) - allowed_top
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {sorted(EXPERIMENTS)}, got {experiment!r}")
    if experiment == "sweep":
        base = raw.get("base")
        if base not in RUNNERS:
            raise ConfigError(
                f"sweep configs need a 'base' experiment from {sorted(RUNNERS)}")
    else:
        if "base" in raw:
            raise ConfigError("'base' is only valid with experiment = 'sweep'")
        base = experiment

    params = raw.get("parameters")
    if not isinstance(params, dict):
        raise ConfigError("'parameters' must be an object")
    schema = PARAM_SCHEMAS[base]
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(f"unknown parameters for {base}: {sorted(unknown)}")
    for name, (_, default, _) in schema.items():
        if name not in params and default is _REQUIRED:
            raise ConfigError(f"missing required parameter {base}.{name}")

    swept = None
    cleaned = {name: default for name, (_, default, _) in schema.items()
               if default is not _REQUIRED}
    for name, value in params.items():
        kind = schema[name][0]
        if isinstance(value, list) and kind in ("number", "int"):
            if not value:
                raise ConfigError(f"sweep list for {base}.{name} is empty")
            for v in value:
                _check_param(base, name, v)
            if swept is not None:
                raise MultipleSweptParametersError(
                    f"both {swept!r} and {name!r} are sweep lists; sweep exactly one")
            swept = name
            cleaned[name] = list(value)
        else:
            _check_param(base, name, value)
            cleaned[name] = value

    if experiment == "sweep" and swept is None:
        raise ConfigError("sweep config has no list-valued parameter")

    if "seed" in raw and (not isinstance(raw["seed"], int)
                          or isinstance(raw["seed"], bool)):
        raise ConfigError("seed must be an integer")
    seed = raw.get("seed")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output must be a path string")
    fmt = raw.get("format", "csv")
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}")
    return RunPlan(experiment, base, cleaned, swept, seed, output, fmt)


# ---------------------------------------------------------------------------
# record assembly and serialization

def _versions() -> dict:
    return {
        "pancha": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _require_finite(value, field: str):
    """Refuse (exit 3) the first NaN or infinity under ``field``, by path."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{field}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _require_finite(item, f"{field}[{index}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise PhaseDomainError(f"{field} is {value}; an undefined result "
                               "is not written")


def _write_whole(path: str, write):
    """Write through ``write(fh)`` to a temporary file beside ``path`` and
    rename it over ``path``, so the output is complete or absent.

    Raises:
        OutputError: naming ``path`` when it cannot be written.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _record(plan: RunPlan, results: dict, oracle_deltas: dict) -> dict:
    """Everything one invocation produced, as the JSON output holds it."""
    return {"config": _config_echo(plan), "results": results,
            "oracle_deltas": oracle_deltas, "versions": _versions()}


def _single_record(plan: RunPlan, outcome: ExperimentOutcome) -> dict:
    results = dict(outcome.results)
    if outcome.profile is not None:
        chis, intensities = outcome.profile
        results["profile"] = {"chi": chis.tolist(), "intensity": intensities.tolist()}
    return _record(plan, results, dict(outcome.oracle_deltas))


def _config_echo(plan: RunPlan) -> dict:
    echo = {
        "experiment": plan.experiment,
        "parameters": plan.parameters,
        "seed": plan.seed,
        "format": plan.format,
    }
    if plan.experiment == "sweep":
        echo["base"] = plan.base
    return echo


def _single_columns(outcome: ExperimentOutcome) -> dict[str, list]:
    """One run's CSV columns: the profile's chi and intensity, if any, then
    each scalar result and oracle delta repeated down the rows."""
    columns, rows = {}, 1
    if outcome.profile is not None:
        chis, intensities = outcome.profile
        columns = {"chi": chis.tolist(), "intensity": intensities.tolist()}
        rows = len(columns["chi"])
    scalars = {**outcome.results,
               **{f"delta_{k}": v for k, v in outcome.oracle_deltas.items()}}
    return columns | {key: [value] * rows for key, value in scalars.items()}


def _sweep_point(args) -> tuple[dict, dict, tuple]:
    base, params = args
    outcome = RUNNERS[base](**params)
    return outcome.results, outcome.oracle_deltas, outcome.phase_keys


def run_sweep(plan: RunPlan, jobs: int) -> tuple[dict, dict[str, list]]:
    values = plan.parameters[plan.swept]
    tasks = [
        (plan.base, {**plan.parameters, plan.swept: value}) for value in values
    ]
    # a forked pool starts all its workers at once: never more than the CPUs
    jobs = min(jobs, len(tasks), _usable_cpus())
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a sweep needs it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_sweep_point, tasks))
    else:
        points = [_sweep_point(t) for t in tasks]

    result_keys = list(points[0][0])
    delta_keys = list(points[0][1])
    phase_keys = points[0][2]
    columns: dict[str, list[float]] = {plan.swept: [float(v) for v in values]}
    for key in result_keys:
        columns[key] = [p[0][key] for p in points]
    for key in phase_keys:
        columns[f"{key}_unwrapped"] = np.unwrap(columns[key]).tolist()
    for key in delta_keys:
        columns[f"delta_{key}"] = [p[1][key] for p in points]
    record = _record(plan, {"swept": plan.swept, "rows": columns},
                     {f"max_{k}": max(p[1][k] for p in points) for k in delta_keys})
    return record, columns


# ---------------------------------------------------------------------------
# verbs

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _seed(flag: int | None, config: int | None = None) -> int:
    """The seed of every verb: ``--seed``, else the config's, else
    $PANCHA_SEED, else 0.

    Raises:
        ConfigError: naming its source, for a seed below 0.
    """
    if flag is not None:
        seed, source = flag, "--seed"
    elif config is not None:
        seed, source = config, "config seed"
    else:
        source = SEED_ENV_VAR
        try:
            seed = int(os.environ.get(SEED_ENV_VAR, "0"))
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    if seed < 0:
        raise ConfigError(f"{source} must be at least 0, got {seed}")
    return seed


def _emit(plan: RunPlan, args, record: dict, columns: dict[str, list]) -> str:
    """Write ``record`` as JSON or ``columns`` as CSV; return the path."""
    _require_finite(record["results"], "results")  # the columns hold the same numbers
    _require_finite(record["oracle_deltas"], "oracle_deltas")
    path = args.out or plan.output or f"pancha-{plan.experiment}.{plan.format}"

    def write(fh):
        if plan.format == "json":
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
            return
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(map(_fmt_float, row)) + "\n")

    _write_whole(path, write)
    return path


def _plan(args) -> RunPlan:
    """Load, seed and validate the config, then apply the command-line
    overrides shared by ``run`` and ``sweep``."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    raw = _load_config(args.config)
    plan = validate_config(raw)
    plan.seed = _seed(args.seed, plan.seed)
    if args.format:
        plan.format = args.format
    if plan.base == "precession" and args.subdivisions is not None:
        _check_param(plan.base, "subdivisions", args.subdivisions)
        if "subdivisions" not in raw["parameters"]:  # the config's own wins
            plan.parameters["subdivisions"] = args.subdivisions
    if plan.base == "precession":  # a subnormal phi repeats the path's times
        for phi in np.ravel(plan.parameters["phi"]):
            for n in np.ravel(plan.parameters["subdivisions"]):
                # linspace's times are fl(i * step), which rise strictly for
                # a normal step and n < 2**51: only a subnormal one can repeat
                if phi / n >= np.finfo(float).tiny:
                    continue
                times = np.linspace(0.0, phi, n + 1)
                if not (np.diff(times) > 0.0).all():
                    raise ConfigError(f"precession.phi must give strictly increasing "
                                      f"times at {n} subdivisions, got {float(phi)!r}")
    return plan


def _cmd_run(args) -> int:
    plan = _plan(args)
    if plan.swept is not None:
        record, columns = run_sweep(plan, jobs=args.jobs)
    else:
        outcome = RUNNERS[plan.base](**plan.parameters)
        record, columns = _single_record(plan, outcome), _single_columns(outcome)
    path = _emit(plan, args, record, columns)
    for key, value in record["oracle_deltas"].items():
        print(f"{key}: {_fmt_float(value)}", file=sys.stderr)
    print(f"wrote {plan.experiment} results to {path}")
    return 0


def _cmd_sweep(args) -> int:
    plan = _plan(args)
    if plan.swept is None:
        raise ConfigError("sweep needs exactly one list-valued parameter")
    record, columns = run_sweep(plan, jobs=args.jobs)
    path = _emit(plan, args, record, columns)
    print(f"wrote {len(columns[plan.swept])}-point sweep of '{plan.swept}' to {path}")
    return 0


def _cmd_verify(args) -> int:
    seed = _seed(args.seed)
    if not (math.isfinite(args.tol_scale) and args.tol_scale >= 0.0):
        raise ConfigError(f"--tol-scale must be finite and at least 0, "
                          f"got {args.tol_scale}")
    from .checks import run_suites

    results = run_suites(args.suite, seed=seed, tol_scale=args.tol_scale)
    failures = sum(0 if result.passed else 1 for result in results)
    for result in results:
        print(f"[{result.suite}] {result.line()}")
    print(f"{len(results) - failures}/{len(results)} properties passed")
    return 0 if failures == 0 else 1


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pancha",
        description="Relative-phase interferometry experiments and checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON experiment config")
    common.add_argument("--out", help="output path (overrides config.output)")
    common.add_argument("--format", choices=FORMATS,
                        help="output format (overrides config.format)")
    common.add_argument("--seed", type=int,
                        help=f"seed (falls back to config, then ${SEED_ENV_VAR})")
    common.add_argument("--subdivisions", type=int,
                        help="path subdivisions for simulated evolutions")
    common.add_argument("--jobs", type=int, default=_usable_cpus(),
                        help="worker processes for sweep points (default: the "
                             "CPUs this process may run on; at least 1; never "
                             "more than the points or those CPUs)")

    run_p = sub.add_parser("run", parents=[common],
                           help="execute one experiment config")
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="execute a one-parameter sweep")
    sweep_p.set_defaults(fn=_cmd_sweep)

    verify_p = sub.add_parser("verify", help="run the invariant batteries")
    verify_p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    verify_p.add_argument("--seed", type=int, default=None)
    verify_p.add_argument("--tol-scale", type=float, default=1.0,
                          help="tolerance multiplier, finite and at least 0 "
                               "(harness self-test knob)")
    verify_p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except PhaseDomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
