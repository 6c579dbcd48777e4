"""A cold command loads only what it calls.

``import pancha`` loads no submodule: its public names are looked up on
first use.  ``pancha run`` loads ``core``, ``phase`` and ``errors`` for
every experiment, and beyond them only the modules its runner calls.
"""

import importlib
import json
import subprocess
import sys

import pytest

import pancha

OCTANT = [[0.0, 0.0], [1.5707963267948966, 0.0], [1.5707963267948966, 1.5]]
SHARED = {"cli", "core", "errors", "experiments", "phase"}
#: experiment -> (parameters, the pancha modules one run of it loads)
RUNS = {
    "pair": ({"theta_a": 0.3, "phi_a": 0.0, "theta_b": 1.1, "phi_b": 0.4},
             SHARED),
    "mixed": ({"r": 0.5, "angle": 1.0}, SHARED),
    "dual": ({"theta": 0.7, "delta_phi": 0.4}, SHARED | {"dual"}),
    "triangle": ({"vertices": OCTANT}, SHARED | {"geometry"}),
    "two-photon": ({"lam": 0.25, "triangle_a": OCTANT,
                    "triangle_a_prime": OCTANT}, SHARED | {"geometry", "twophoton"}),
    "precession": ({"theta": 0.5, "phi": 1.0, "subdivisions": 64},
                   SHARED | {"geometry", "transport"}),
}


def _loaded_after(code: str) -> set[str]:
    """The ``pancha.*`` submodules a fresh interpreter holds after ``code``."""
    probe = (f"import sys\n{code}\n"
             "print(' '.join(m for m in sys.modules if m.startswith('pancha.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    last = proc.stdout.splitlines()[-1]
    return {name.removeprefix("pancha.") for name in last.split()}


@pytest.mark.parametrize("experiment", RUNS)
def test_run_loads_only_its_experiments_modules(tmp_path, experiment):
    params, modules = RUNS[experiment]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "parameters": params}))
    out = tmp_path / "out.csv"
    code = ("from pancha import cli\n"
            f"assert cli.main(['run', '--config', {str(cfg)!r}, "
            f"'--out', {str(out)!r}]) == 0")
    assert _loaded_after(code) == modules
    assert out.exists()


def test_import_pancha_loads_no_submodule():
    assert _loaded_after("import pancha") == set()


@pytest.mark.parametrize("name", pancha.__all__)
def test_every_export_is_its_defining_modules_object(name):
    home = importlib.import_module(f"pancha.{pancha._MODULE_OF[name]}")
    value = getattr(pancha, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_dir_lists_every_export():
    assert set(pancha.__all__) | {"__version__"} <= set(dir(pancha))


def test_unknown_name_is_an_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        pancha.no_such_name  # noqa: B018
    from pancha import checks

    assert checks.__name__ == "pancha.checks"
