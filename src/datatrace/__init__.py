"""Training-data attribution through optimization trajectories.

Measures how much each training sample contributed to a model's test loss by
carrying per-sample hypergradients through every optimization step, with an
influence-functions baseline and a retraining oracle for validation.
"""

from .attribution import (
    ClusterEvaluation,
    DistributionStats,
    InterClassMatrix,
    MethodComparison,
    clean_dataset,
    compare_methods,
    distribution_stats,
    inter_class_matrix,
    sign_cluster,
)
from .data import (
    LabeledDataset,
    NoiseRecord,
    check_disjoint,
    inject_noise,
    load_csv,
    load_idx,
    synth_gaussian,
    write_idx,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    IdxFormatError,
    NumericError,
    ReplayDivergenceError,
    ScalingError,
    ShapeError,
)
from .hypergrad import (
    ApproxErrorTrace,
    HypergradState,
    contribution,
    contribution_approx,
    contribution_exact,
    error_trace,
    track_approx,
    track_exact,
)
from .influence import InverseHvpConfig, influence, inverse_hvp
from .models import (
    ModelSpec,
    accuracy,
    as_flat,
    batch_gradient,
    dense_hessian,
    hessian_vector_product,
    init_params,
    loss_and_gradient,
    per_sample_gradient,
    per_sample_gradients,
    power_iteration_max_eig,
    sample_losses,
    test_loss,
    test_loss_gradient,
)
from .oracle import OracleResult, finite_difference_hypergradient, leave_one_out
from .reports import (
    ContributionReport,
    oracle_results_to_report,
    read_report_csv,
    write_report_csv,
)
from .trainer import (
    ConstantSchedule,
    ExponentialSchedule,
    ReduceOnPlateauSchedule,
    StepDecaySchedule,
    TrainingConfig,
    TrajectoryRecord,
    build_batch_schedule,
    load_trajectory,
    replay,
    save_trajectory,
    schedule_from_string,
    train,
)

__version__ = "0.1.0"
