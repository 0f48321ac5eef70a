"""The public surface, pinned: a new entry point, or one removed, is a one-line diff here."""

import types

import datatrace as dt
from datatrace import models

PACKAGE = [
    "ApproxErrorTrace", "ClusterEvaluation", "ConfigError", "ConstantSchedule",
    "ContributionReport", "ConvergenceError", "DistributionStats", "DivergenceError",
    "ExponentialSchedule", "HypergradState", "IdxFormatError", "InterClassMatrix",
    "InverseHvpConfig", "LabeledDataset", "MethodComparison", "ModelSpec", "NoiseRecord",
    "NumericError", "OracleResult", "ReduceOnPlateauSchedule", "ReplayDivergenceError",
    "ScalingError", "ShapeError", "StepDecaySchedule", "TrainingConfig", "TrajectoryRecord",
    "accuracy", "as_flat", "batch_gradient", "build_batch_schedule", "check_disjoint",
    "clean_dataset", "compare_methods", "contribution", "contribution_approx",
    "contribution_exact", "dense_hessian", "distribution_stats", "error_trace",
    "finite_difference_hypergradient", "hessian_vector_product", "influence", "init_params",
    "inject_noise", "inter_class_matrix", "inverse_hvp", "leave_one_out", "linearize",
    "load_csv", "load_idx", "load_trajectory", "loss_and_gradient",
    "oracle_results_to_report", "per_sample_gradients", "power_iteration_max_eig",
    "read_report_csv", "replay", "sample_losses", "save_trajectory", "schedule_from_string",
    "sign_cluster", "synth_gaussian", "test_loss", "track_approx", "track_exact", "train",
    "write_idx", "write_report_csv",
]

# One entry per model quantity: the functions and classes ``models`` defines.
MODELS = [
    "Linearization", "ModelSpec", "accuracy", "as_flat", "batch_gradient",
    "check_test_subset", "dense_hessian", "gradient_dots", "hessian_vector_product",
    "init_params", "keep", "linearize", "loss_and_gradient", "param_count",
    "per_sample_gradients", "power_iteration_max_eig", "restore", "row_dots", "row_norms",
    "sample_losses", "test_gradients", "test_loss",
]


def test_the_package_exports_exactly_its_pinned_names():
    names = [
        name for name, value in vars(dt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == PACKAGE


def test_models_defines_exactly_its_pinned_entries():
    names = [
        name for name, value in vars(models).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == models.__name__
    ]
    assert sorted(names) == MODELS
