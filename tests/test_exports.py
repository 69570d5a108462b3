"""Every name a module lists in ``__all__`` resolves, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import paralift

MODULES = sorted(
    name for name in
    ["paralift"] + [f"paralift.{m.name}" for m in pkgutil.iter_modules(paralift.__path__)]
    if hasattr(importlib.import_module(name), "__all__"))


def test_modules_with_all_are_found():
    assert "paralift.phase" in MODULES and "paralift.verify" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists undefined names {missing}"


def test_the_package_exports_what_the_checks_reach():
    """Evaluators and oracles that no check reaches are imported from their
    own modules, not from the package."""
    assert set(paralift.__all__) == {
        "ScalarFamily", "StructureSpec", "affine", "almost_product_spec",
        "constant", "exponential", "integrable_spec", "polynomial",
        "rational_spec", "with_metric",
        "ChartDomainError", "ConfigError", "ContractError",
        "DegenerateCoefficient", "RangeError",
        "LiftedStructure",
        "CotangentPoint", "energy_density", "make_point",
        "CheckReport",
        "ChartModel", "SpaceForm", "conformal_ball", "flat_space",
        "perturbed_conformal",
        "DEFAULT_TOLERANCES", "PhaseSample", "fd_oracle", "run_check",
        "sample_points",
    }
    assert "CheckReport" not in paralift.verify.__all__
