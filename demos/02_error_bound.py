"""Trace the exact-vs-approx hypergradient error against its analytic bound.

The fast tracking mode drops the Hessian term from the hypergradient
recurrence. With weight decay lambda > 0 and learning rates eta_t, the norm
of the resulting error is bounded by

    L * M_w * eta_1 / (eta_t * lambda)

where L is the largest eigenvalue of the final empirical-risk Hessian
(estimated by power iteration) and M_w is the running maximum of the exact
hypergradient norm. This script runs both modes in lockstep and prints the
measured error next to the bound at regular intervals.

Run:  python3 demos/02_error_bound.py
"""

import datatrace as dt

train = dt.synth_gaussian(classes=2, per_class=25, dim=5, separation=3.0, seed=1)
spec = dt.ModelSpec("logistic_regression", (5, 2))
config = dt.TrainingConfig(
    epochs=500, batch_size=0, initial_lr=0.1, weight_decay=0.01, seed=7
)
record = dt.train(spec, train, config)

trace = dt.error_trace(record, train, [0], record_stride=50)[0]
print(f"Lipschitz estimate L = {trace.lipschitz_estimate:.4f}, "
      f"max hypergradient norm M_w = {trace.nabla_max:.4f}\n")
print(f"{'step':>6} {'error norm':>14} {'bound':>14} {'slack':>10}")
for step, err, bound in zip(trace.steps, trace.error_norms, trace.bounds):
    print(f"{step:>6} {err:>14.6e} {bound:>14.6e} {bound / max(err, 1e-300):>10.1f}x")

violated = (trace.error_norms > trace.bounds).any()
print(f"\nbound violated anywhere: {bool(violated)}")
