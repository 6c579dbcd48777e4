"""Each runner's oracle deltas are the rows a battery yields, from one
library function.

A law that a battery and a runner both hold against an independent route
is paired with it by a row function ``<law>_routes`` beside the law,
which returns ``(values, deviations)``.  These tests hold that pairing:
every oracle delta of every runner is a deviation of a row function that
some registered check calls, except the five listed in ``UNCHECKED``; and
a fault planted in the closed form a row function reads makes its check
fail and pushes the runner's deltas over that check's bounds.
"""

import importlib
import sys

import pytest

from pancha import checks, dual
from pancha.experiments import RUNNERS
from pancha.phase import PhaseResult

SEEDS = (0, 20260809)
OCTANT = [[0.0, 0.0], [1.5707963267948966, 0.0], [1.5707963267948966, 1.5]]

#: one fixed config per runner
CONFIGS = {
    "pair": {"theta_a": 0.3, "phi_a": 0.0, "theta_b": 1.1, "phi_b": 0.4},
    "mixed": {"r": 0.5, "angle": 1.0, "axis": (0.3, -0.4, 0.8)},
    "triangle": {"vertices": OCTANT, "r": 0.5},
    "two-photon": {"lam": 0.25, "triangle_a": OCTANT, "triangle_a_prime": OCTANT},
    # |closed form| 1.8, so a 1e-3 relative fault clears even the chain's budget
    "precession": {"theta": 2.0, "phi": 5.0, "subdivisions": 4096},
    "dual": {"theta": 0.7, "delta_phi": 1.3},
}

#: (runner, oracle delta) that no row function states, and why
UNCHECKED = {
    ("pair", "fit_vs_overlap_phase"):
        "a fitted phase errs by about eps / visibility, so no fixed battery "
        "bound covers it at low visibility",
    ("pair", "fit_vs_overlap_visibility"): "read off the same fit as its phase",
    ("mixed", "fit_vs_trace_phase"):
        "a fitted phase errs by about eps / visibility, so no fixed battery "
        "bound covers it at low visibility",
    ("mixed", "fit_vs_trace_visibility"): "read off the same fit as its phase",
    ("triangle", "holonomy_vs_invariant"):
        "check_holonomy_spectrum holds the holonomy against -Omega/2 from the "
        "excess, not against the overlap invariant",
}

ROW_MODULES = ("phase", "geometry", "transport", "twophoton", "dual")

#: row function -> (the closed form it reads, which a fault scales; the
#: check that calls it; the runner; each delta with that check's bound)
FAULTS = {
    "transport.precession_routes": (
        "transport.precession_phase_closed_form", "check_precession_three_way",
        "precession", {"sim_vs_closed": 1e-9, "chain_vs_closed": 1e-3,
                       "half_area_vs_closed": 1e-4}),  # the check's budgets
    "transport.mixed_noncyclic_routes": (
        "transport.mixed_noncyclic_phase", "check_mixed_noncyclic", "precession",
        {"mixed_vs_trace": 1e-8}),
    "geometry.solid_angle_routes": (
        "geometry.solid_angle", "check_solid_angle_law", "triangle",
        {"invariant_vs_half_area": 1e-9}),
    "geometry.mixed_solid_angle_routes": (
        "geometry.mixed_solid_angle_phase", "check_mixed_solid_angle_law", "triangle",
        {"mixed_vs_closed_form": 1e-8}),
    "twophoton.pair_routes": (
        "twophoton.entangled_phase_closed_form", "check_pair_oracle", "two-photon",
        {"sim_vs_closed_phase": 1e-8, "sim_vs_closed_visibility": 1e-8}),
    "twophoton.franson_routes": (
        "twophoton.entangled_phase_closed_form", "check_franson_fringe", "two-photon",
        {"fit_vs_closed_phase": 1e-8, "fit_vs_closed_visibility": 1e-8}),
    "dual.dual_fringe_routes": (
        "dual.dual_phase_closed_form", "check_dual_fringe", "dual",
        {"fit_vs_closed_phase": 1e-8, "fit_vs_closed_visibility": 1e-8}),
    "dual.duality_routes": (
        "dual.dual_phase_closed_form", "check_duality_identity", "dual",
        {"duality_phase": 1e-10, "duality_visibility": 1e-10}),
    # the conserved sum is the literal 4: the fault scales the channels
    "dual.channel_sum_routes": (
        "dual._channel", "check_channel_sum", "dual", {"channel_sum_max_dev": 1e-10}),
    "phase.mixed_profile_routes": (
        "phase._trace_profile", "check_mixed_profile_routes", "mixed",
        {"profile_routes_max": 1e-9}),
}


def _row_functions():
    """Every ``<law>_routes`` function of the library, by module.name."""
    found = {}
    for module_name in ROW_MODULES:
        module = importlib.import_module(f"pancha.{module_name}")
        for name, value in vars(module).items():
            if (name.endswith("_routes") and callable(value)
                    and value.__module__ == module.__name__):
                found[f"{module_name}.{name}"] = value
    return found


ROW_FUNCTIONS = _row_functions()


def patch_everywhere(monkeypatch, real, replacement):
    """Rebind ``real`` to ``replacement`` in every pancha module that holds it."""
    for module in [m for name, m in sys.modules.items() if name.startswith("pancha.")]:
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def row_calls(monkeypatch):
    """The (row function, deviations) of every row function call."""
    calls = []
    for qualified, real in ROW_FUNCTIONS.items():
        def spy(*args, _real=real, _name=qualified):
            values, deviations = _real(*args)
            calls.append((_name, deviations))
            return values, deviations

        patch_everywhere(monkeypatch, real, spy)
    return calls


def test_every_oracle_delta_is_a_row_a_battery_yields(row_calls):
    checked = set()
    for fns in checks.SUITES.values():
        for fn in fns:
            fn(0)
            checked |= {name for name, _ in row_calls}
            row_calls.clear()
    assert checked == set(ROW_FUNCTIONS)  # every row function has a battery
    assert set(CONFIGS) == set(RUNNERS)
    unchecked = set()
    for experiment, params in CONFIGS.items():
        row_calls.clear()
        for key, value in RUNNERS[experiment](**params).oracle_deltas.items():
            # the very object a row function returned, not an equal restatement
            sources = [name for name, deviations in row_calls
                       if deviations.get(key) is value]
            if not sources:
                unchecked.add((experiment, key))
            assert len(sources) <= 1, (experiment, key, sources)
    assert unchecked == set(UNCHECKED)


def test_every_row_function_has_a_planted_fault():
    assert set(FAULTS) == set(ROW_FUNCTIONS)


@pytest.mark.parametrize("row", list(FAULTS))
def test_a_fault_in_the_closed_form_reaches_battery_and_runner(monkeypatch, row_calls,
                                                               row):
    target, check_name, experiment, bounds = FAULTS[row]
    check, runner = getattr(checks, check_name), RUNNERS[experiment]
    deltas = runner(**CONFIGS[experiment]).oracle_deltas
    assert all(deltas[key] <= bound for key, bound in bounds.items()), deltas
    assert all(check(seed).passed for seed in SEEDS)

    module_name, name = target.split(".")
    real = getattr(importlib.import_module(f"pancha.{module_name}"), name)

    def scaled(*args):
        value = real(*args)
        if isinstance(value, PhaseResult):
            return PhaseResult(value.phase * (1 + 1e-3), value.visibility * (1 + 1e-3))
        return value * (1 + 1e-3)

    patch_everywhere(monkeypatch, real, scaled)
    for seed in SEEDS:
        row_calls.clear()
        assert not check(seed).passed, seed
        assert row in {name for name, _ in row_calls}
    row_calls.clear()
    deltas = runner(**CONFIGS[experiment]).oracle_deltas
    assert row in {name for name, _ in row_calls}
    assert all(deltas[key] > bound for key, bound in bounds.items()), deltas


@pytest.mark.parametrize("arrangement", ["spatial_vectors", "spin_arm_states"])
def test_a_fault_in_either_arrangement_reaches_the_duality_check(monkeypatch,
                                                                   arrangement):
    """duality_routes reads both arrangements' built states: an angle
    fault in either one alone fails the check and lifts the runner's deltas."""
    real = getattr(dual, arrangement)
    monkeypatch.setattr(dual, arrangement,
                        lambda theta, angle: real(theta, angle * (1 + 1e-3)))
    assert not any(checks.check_duality_identity(seed).passed for seed in SEEDS)
    deltas = RUNNERS["dual"](**CONFIGS["dual"]).oracle_deltas
    assert deltas["duality_phase"] > 1e-10 and deltas["duality_visibility"] > 1e-10
