"""Growing a training set with generated points.

Trains the encoder-mode model, samples class-conditioned synthetic points,
runs the class-balance gate, then measures what 600 extra pseudolabeled
points do to a small end classifier under both labeling routes:
  synthetic_pl - label generated points with the model's own posterior
  lf_pl        - re-apply the labeling functions to the generated points
"""
import numpy as np

from wsganlab.data import DatasetSpec, synth_dataset
from wsganlab.harness import LfPlan, make_lf_applicator
from wsganlab.labelmodel import crisp_labels, generate_synthetic_lfs
from wsganlab.metrics import ClassifierConfig, train_eval_classifier
from wsganlab.wsgan import (
    TrainingConfig,
    augment_dataset,
    class_balance_check,
    generate_samples,
    pseudolabel_table,
    train,
)

spec = DatasetSpec(class_count=4, feature_dim=2, num_samples=1500, seed=4)
data = synth_dataset(spec)
test = synth_dataset(DatasetSpec(class_count=4, feature_dim=2, num_samples=1500, seed=104))
lf_specs = LfPlan(num_lfs=10).sample(4, np.random.default_rng(5))
L = generate_synthetic_lfs(data.labels, lf_specs, 4)

config = TrainingConfig(mode="encoder", epochs=30, seed=8)
bundle, _ = train(data, L, config)

feats, codes = generate_samples(bundle, 600, seed=9)
print(f"sampled {feats.shape[0]} synthetic points; feature ranges "
      f"[{feats.min():.2f}, {feats.max():.2f}] vs real [{data.features.min():.2f}, {data.features.max():.2f}]")
balance = class_balance_check(codes, 4)
print(f"raw code balance: {balance.describe()}")

table = pseudolabel_table(bundle, data.features, L)
pls = crisp_labels(table)
cls = ClassifierConfig(hidden_dim=16, epochs=20, seed=0)
baseline = train_eval_classifier(data.features, pls, test.features, test.labels, cls)
print(f"\nbaseline classifier (pseudolabeled real data only): test accuracy {baseline:.4f}")

applicator = make_lf_applicator(lf_specs, spec)
n = 600
for mode in ("synthetic_pl", "lf_pl"):
    aug = augment_dataset(
        bundle, data.features, pls, n,
        lf_applicator=applicator if mode == "lf_pl" else None, seed=10,
    )
    print(f"\n{mode}: appended {n} points; balance {aug.balance.describe()}")
    acc = train_eval_classifier(aug.features, aug.labels, test.features, test.labels, cls)
    print(f"  augmented classifier: test accuracy {acc:.4f} (delta {100 * (acc - baseline):+.2f}pp)")
