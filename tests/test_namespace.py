"""The package namespace: each module's ``__all__`` is its one list of
public names, and ``ckstates`` re-exports the four of them."""

from types import ModuleType

import ckstates
from ckstates import modes, observables, oracle, states

# The package's public names as they stood before the module lists became
# the only declaration, less AngleGamma (theta_gamma returns a float).
FROZEN = [
    "__version__",
    "NotUnderdampedError", "WronskianError", "PhysicalParams", "SqueezeParams",
    "ModeValue", "make_params", "mode_u0", "mode_u_rphi", "wronskian",
    "squeeze_from_mode", "special_squeeze",
    "GaussCoeffs", "StateSpec", "hermite", "gauss_coeffs", "eval_number_state",
    "eval_coherent_state", "coherent_trajectory",
    "UncertaintyRecord", "TimeAverage", "theta_gamma", "sigma0",
    "uncertainty_product", "uncertainty_time_avg", "hamiltonian_expectation",
    "REPORT_VERSION", "BoundaryLeakError", "GridSpec", "Moments", "ToleranceConfig",
    "Check", "ReportEntry", "ValidationReport", "make_grid", "moments",
    "apply_annihilation", "apply_creation", "schrodinger_residual",
    "crank_nicolson_evolve", "default_schedule", "validate",
]


def test_package_all_is_the_module_lists():
    names = ckstates.__all__
    assert len(names) == len(set(names))
    assert names == [
        "__version__", *modes.__all__, *states.__all__, *observables.__all__, *oracle.__all__
    ]
    assert names == FROZEN
    for name in names:
        assert getattr(ckstates, name) is not None, name
    assert ckstates.__version__ == oracle.REPORT_VERSION


def test_public_dir_is_all_plus_submodules():
    public = {name for name in dir(ckstates) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(ckstates, name), ModuleType)}
    assert public - submodules == set(FROZEN[1:])
    assert {"modes", "states", "observables", "oracle"} <= submodules


def test_unlisted_names_stay_importable():
    assert oracle.cn_cross_check.__module__ == "ckstates.oracle"
    assert states.MAX_N == 32
    assert not hasattr(ckstates, "cn_cross_check") and not hasattr(ckstates, "MAX_N")
