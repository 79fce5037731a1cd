"""The package's public surface and what importing it loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import panelmg

PUBLIC = [
    "__version__",
    # panel
    "PanelData",
    "DemeanedPanel",
    "validate_panel",
    "double_demean",
    "read_csv",
    # estimators
    "Method",
    "SlopeEstimates",
    "estimate",
    "compute_ridge_kappa",
    # inference
    "JackknifeCovariance",
    "ConfidenceInterval",
    "PerCoefficientTest",
    "PoolabilityReport",
    "jackknife",
    "confidence_interval",
    "poolability_test",
    "holm_adjust",
    "chi_square_upper_tail",
    "normal_quantile_upper",
    # simulation
    "DgpSpec",
    "SimTruth",
    "SimCell",
    "SimReport",
    "simulate_dgp",
    "run_monte_carlo",
    "DGP_N_REGRESSORS",
    # errors
    "PanelMgError",
    "DataError",
    "UnbalancedPanel",
    "DuplicateCell",
    "NonFiniteValue",
    "TooSmall",
    "MalformedInput",
    "EstimationError",
    "SingularCapacitance",
    "RankDeficient",
    "TooFewPeriods",
    "SingularSystem",
    "MethodMismatch",
    "DegenerateJackknife",
    "SingularOmegaDelta",
    "OutOfRange",
]


def test_all_is_the_kept_list():
    assert panelmg.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in panelmg.__all__:
        assert getattr(panelmg, name) is not None, name


def test_every_module_all_resolves():
    for path in sorted(Path(panelmg.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"panelmg.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_import_loads_no_scipy():
    src = str(Path(panelmg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("panelmg", "panelmg.cli"):
        code = (
            f"import sys, {module}; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "[]", module


def test_import_loads_no_process_pool():
    # only run_monte_carlo with more than one worker needs one
    src = str(Path(panelmg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("panelmg", "panelmg.cli"):
        code = (
            f"import sys, {module}; print([m for m in sys.modules "
            "if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "[]", module
