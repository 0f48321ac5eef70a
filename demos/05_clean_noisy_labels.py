"""Find and remove mislabeled training samples by their contributions.

Flips 30% of the labels in a clean two-class problem, trains on the noisy
set, and ranks every sample by its (fast-mode) contribution to a clean test
set. Mislabeled samples pull the parameters the wrong way, so they land at
the bottom of the ranking; discarding the bottom 30% removes most of them,
and retraining on the remainder recovers accuracy.

Also demonstrates sign-vector clustering: each sample's signs of C(i, j)
across test samples form a binary vector, and 2-means on those vectors
separates flipped from correct samples within each class.

Run:  python3 demos/05_clean_noisy_labels.py
"""

import numpy as np

import datatrace as dt

clean = dt.synth_gaussian(classes=2, per_class=50, dim=5, separation=3.0, seed=1)
test = dt.synth_gaussian(2, 100, 5, 3.0, 101, "test")
noisy, noise = dt.inject_noise(clean, fraction=0.3, seed=1)
print(f"flipped {len(noise.flipped_indices)} of {len(clean)} labels")

spec = dt.ModelSpec("logistic_regression", (5, 2))
config = dt.TrainingConfig(
    epochs=300, batch_size=0, initial_lr=0.05, weight_decay=0.01, seed=7
)
record = dt.train(spec, noisy, config)
before = dt.accuracy(spec, record.final_params, test)

indices = list(range(len(noisy)))
# One pass over the steps gives C(i) and every C(i, j) for all samples at once.
report = dt.contribution_approx(record, noisy, indices, test, per_test=True)

retained = dt.clean_dataset(report, 0.3)
discarded = set(indices) - {int(i) for i in retained}
flipped = {int(i) for i in noise.flipped_indices}
recovery = len(flipped & discarded) / len(flipped)
print(f"discarded the bottom {len(discarded)} samples; "
      f"{recovery:.0%} of the flipped labels are among them")

record2 = dt.train(spec, noisy.subset(retained), config)
after = dt.accuracy(spec, record2.final_params, test)
print(f"test accuracy {before:.3f} -> {after:.3f} after cleaning")

# Sign-vector clustering: flipped samples anti-agree with their class.
signs = np.array([
    [report.pair_values[(i, j)] for j in range(len(test))] for i in indices
])
flags = np.array([i in flipped for i in indices])
evaluation = dt.sign_cluster(signs, noisy.labels, flags, seed=0)
print(f"\nsign-cluster Jaccard vs true flips: correct {evaluation.mean_correct:.2f}, "
      f"flipped {evaluation.mean_flipped:.2f}")
