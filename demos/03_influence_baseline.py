"""Compare the influence-functions baseline against trajectory tracking.

Influence functions estimate a sample's effect from the final parameters
only: IF(i) = -grad_i^T s_test with s_test = H^-1 grad_test, which equals
-grad_test^T H^-1 grad_i because H is symmetric. One inverse Hessian-vector
product per call, on the test side, serves every training sample; it is
computed by conjugate gradient, a stochastic Neumann series, or a dense
solve. This script runs all three solvers, checks them against each other,
and compares the resulting ranking with exact trajectory tracking.

Run:  python3 demos/03_influence_baseline.py
"""

import numpy as np

import datatrace as dt

train = dt.synth_gaussian(classes=2, per_class=25, dim=5, separation=3.0, seed=1)
test = dt.synth_gaussian(2, 25, 5, 3.0, 101, "test")
spec = dt.ModelSpec("logistic_regression", (5, 2))
config = dt.TrainingConfig(
    epochs=500, batch_size=0, initial_lr=0.1, weight_decay=0.01, seed=7
)
record = dt.train(spec, train, config)
indices = list(range(len(train)))

# The three inverse-HVP solvers on the same damped system. The Neumann
# solver is stochastic (single-sample Hessians, finite depth), so it is the
# loose one; dense and conjugate gradient agree to machine precision.
solvers = {
    "dense": dt.InverseHvpConfig(method="dense", damping=0.1),
    "conjugate_gradient": dt.InverseHvpConfig(method="conjugate_gradient",
                                              damping=0.1),
    "neumann": dt.InverseHvpConfig(method="neumann", damping=0.1,
                                   neumann_depth=500, neumann_repeats=4, seed=5),
}
reports = {}
for name, solver in solvers.items():
    reports[name] = dt.influence(spec, record.final_params, train, test,
                                 indices, config=solver, weight_decay=0.01)

ref = np.array([reports["dense"].values[i] for i in indices])
for name in ("conjugate_gradient", "neumann"):
    got = np.array([reports[name].values[i] for i in indices])
    rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    print(f"{name:>20} vs dense: relative difference {rel:.3e}")

# How well does the final-parameter estimate rank samples compared with
# tracking the whole trajectory?
exact = dt.contribution_exact(record, train, indices, test)
comparison = dt.compare_methods(exact, reports["conjugate_gradient"])
print(f"\ninfluence vs exact tracking: sign errors {comparison.sign_error_rate:.3f}, "
      f"Spearman {comparison.spearman_rho:.4f}")
print("(influence sees only the final parameters; on longer, noisier "
      "trajectories its ranking degrades while trajectory tracking does not)")
