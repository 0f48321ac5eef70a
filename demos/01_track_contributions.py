"""Measure what each training sample contributed to the test loss.

Trains a small logistic-regression model on a synthetic two-class problem
and differentiates the test loss through the full optimization trajectory,
giving every sample's contribution score C(i): the first-order estimate of
how much the test loss would rise if sample i were removed. Positive C(i)
means the sample helped.

Run:  python3 demos/01_track_contributions.py
"""

import numpy as np

import datatrace as dt

# A balanced 2-class Gaussian problem: 50 training and 50 test points.
train = dt.synth_gaussian(classes=2, per_class=25, dim=5, separation=3.0, seed=1)
test = dt.synth_gaussian(2, 25, 5, 3.0, 101, "test")

spec = dt.ModelSpec("logistic_regression", (5, 2))
config = dt.TrainingConfig(
    epochs=500, batch_size=0, initial_lr=0.1, weight_decay=0.01, seed=7
)

# Training records the full trajectory (every step's parameters are
# reproducible from the seed and batch schedule), which tracking replays:
# one pass over the steps gives C(i) for every sample at once.
record = dt.train(spec, train, config)
print(f"trained {record.steps} steps, "
      f"final test accuracy {dt.accuracy(spec, record.final_params, test):.3f}")

indices = list(range(len(train)))

# Exact mode propagates the Hessian-vector term at every step.
exact = dt.contribution_exact(record, train, indices, test)

# Approx mode drops the Hessian term: C(i) is a sum of closed-form step
# weights times g_test . g_i(w_t), with no Hessian-vector product and no
# backward pass, at a small cost in fidelity.
approx = dt.contribution_approx(record, train, indices, test)

stats = dt.distribution_stats(exact, k=3)
print(f"\ncontribution mean {stats.mean:+.2e}, std {stats.std:.2e}")
print("most helpful samples:", [(i, f"{v:+.2e}") for i, v in stats.top])
print("most harmful samples:", [(i, f"{v:+.2e}") for i, v in stats.bottom])

comparison = dt.compare_methods(exact, approx)
print(f"\napprox vs exact: sign errors {comparison.sign_error_rate:.3f}, "
      f"Spearman {comparison.spearman_rho:.4f}")

# Per-test-sample contributions C(i, j) support the class-pair view: how
# much does training class a help or hurt test class b on average?
per_pair = dt.contribution_exact(record, train, indices, test, per_test=True)
matrix = dt.inter_class_matrix(per_pair.pair_values, train.labels, test.labels, 2)
print("\ninter-class contribution means (rows = train class, cols = test class):")
print(np.array2string(matrix.raw, formatter={"float_kind": lambda v: f"{v:+.2e}"}))
