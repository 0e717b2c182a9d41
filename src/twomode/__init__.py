"""Steady states, stability, and hysteresis of a two-mode optomechanical cavity.

Two driven optical modes share one mechanical oscillator through radiation
pressure.  The library finds every steady-state branch exactly (the fixed
points reduce to one real polynomial in the static mechanical displacement),
classifies each branch by the eigenvalues of the analytic Jacobian, and
traces fold bifurcations and hysteresis loops along drive-parameter sweeps.
"""

from .continuation import (HysteresisResult, SweepResult, SweepSpec, Trace,
                           axis_grid, clamped_hysteresis_sweep,
                           hysteresis_sweep, locate_folds, sweep_1d)
from .config import RunConfig, parse_config, serialize_config
from .errors import (ClassificationError, ConfigError, NoStableBranchError,
                     ParameterError, PolynomialError, SolverError, SweepError)
from .figures import FIGURE_PRESETS, power_window, run_preset
from .params import (HBAR, DrivePoint, SystemParams, drive_amplitude,
                     preset_hill_params, replace_params, to_angular)
from .polyroots import RealPolynomial, real_roots
from .stability import (Diagnostic, branch_state, classify_branches,
                        solve_and_classify)
from .steady import (SolverOptions, SteadyBranch, Verdict, effective_detunings,
                     photon_numbers_from_q, q_upper_bound, steady_branches,
                     steady_residual)
from .studies import (FoldStudyReport, SubUnityReport, fold_power_study,
                      subunity_search)

__version__ = "0.1.0"

__all__ = [
    "HBAR", "__version__",
    "ParameterError", "ConfigError", "PolynomialError", "SolverError",
    "ClassificationError", "SweepError",
    "NoStableBranchError",
    "to_angular", "drive_amplitude", "SystemParams", "DrivePoint",
    "preset_hill_params", "replace_params",
    "RealPolynomial", "real_roots",
    "Verdict", "SolverOptions", "SteadyBranch", "steady_branches",
    "steady_residual", "photon_numbers_from_q", "effective_detunings",
    "q_upper_bound",
    "branch_state", "classify_branches", "solve_and_classify", "Diagnostic",
    "SweepSpec", "Trace", "HysteresisResult", "SweepResult", "axis_grid",
    "sweep_1d", "hysteresis_sweep", "clamped_hysteresis_sweep",
    "locate_folds",
    "RunConfig", "parse_config", "serialize_config",
    "FIGURE_PRESETS", "run_preset", "power_window",
    "FoldStudyReport", "SubUnityReport", "fold_power_study",
    "subunity_search",
]
