"""Validate tracked contributions against brute-force retraining.

The ground truth for "what did sample i contribute" is retraining. Two
oracles are provided:

- finite_difference_hypergradient: retrains with sample i's data weight
  nudged by +/-delta and by +/-delta/2, and forms a Richardson-extrapolated
  central difference of the test loss — the same derivative tracking
  computes. The 4 perturbed weight vectors advance together in one stacked
  replay of the recorded trajectory.
- leave_one_out: retrains once with sample i removed and reports the actual
  test-loss change.

Both retrain under the identical batch schedule, so the comparison is
apples-to-apples. Retraining is O(T) per sample, which is exactly what
tracking avoids; a cost guard refuses oversized datasets unless forced.

Run:  python3 demos/04_retraining_oracle.py   (10 samples x one stacked replay
of 4 weight vectors, 500 steps each)
"""

import datatrace as dt
from datatrace.reports import oracle_results_to_report

train = dt.synth_gaussian(classes=2, per_class=25, dim=5, separation=3.0, seed=1)
test = dt.synth_gaussian(2, 25, 5, 3.0, 101, "test")
spec = dt.ModelSpec("logistic_regression", (5, 2))
config = dt.TrainingConfig(
    epochs=500, batch_size=0, initial_lr=0.1, weight_decay=0.01, seed=7
)
record = dt.train(spec, train, config)

probe = list(range(10))
tracked = dt.contribution_exact(record, train, probe, test)

fd = [dt.finite_difference_hypergradient(spec, train, config, i, test,
                                         nominal=record) for i in probe]
fd_report = oracle_results_to_report(fd, n_train=len(train))

print(f"{'sample':>6} {'tracked C(i)':>14} {'oracle C(i)':>14} {'rel err':>10}")
for i in probe:
    t, o = tracked.values[i], fd_report.values[i]
    print(f"{i:>6} {t:>14.6e} {o:>14.6e} {abs(t - o) / abs(o):>10.2e}")

# Leave-one-out removes the sample entirely (a finite, not infinitesimal,
# change), so it agrees in ranking but not to many digits.
loo = dt.leave_one_out(spec, train, config, probe[0], test, nominal=record)
print(f"\nleave-one-out for sample {probe[0]}: test loss changes by "
      f"{loo.loo_delta:+.6e} when it is removed "
      f"(tracked first-order estimate {tracked.values[probe[0]]:+.6e})")
