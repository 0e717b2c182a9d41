"""The package's public names: an export is added or removed on purpose."""

import twomode

PUBLIC = {
    "HBAR", "__version__",
    "ParameterError", "ConfigError", "PolynomialError", "SolverError",
    "ClassificationError", "SweepError", "NoStableBranchError",
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
}


def test_all_is_the_pinned_public_set():
    assert len(twomode.__all__) == len(set(twomode.__all__))
    assert set(twomode.__all__) == PUBLIC
    for name in twomode.__all__:
        assert hasattr(twomode, name), name
