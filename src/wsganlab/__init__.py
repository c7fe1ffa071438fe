"""wsganlab — a desk-scale lab for weakly supervised GANs.

Numpy only: a tiny reverse-mode autodiff engine, programmatic weak
supervision (label matrices, majority vote, Dawid-Skene, weighted-softmax
label models), an InfoGAN-style generative model whose latent code is aligned
with labeling-function output, evaluation metrics, numerical checks for the
accompanying error bounds, and an experiment harness with a CLI.
"""

__version__ = "0.1.0"

from . import autodiff, data, harness, labelmodel, metrics, nn, theory, wsgan
from .autodiff import Adam, Tensor, backward, no_grad
from .data import Dataset, DatasetSpec, load_dataset, save_dataset, synth_dataset
from .harness import (
    ExperimentConfig,
    LfPlan,
    TheoryGridConfig,
    default_benchmark_config,
    make_lf_applicator,
    run_augmentation,
    run_benchmark,
    run_theory_suite,
)
from .labelmodel import (
    LabelMatrix,
    LfSpec,
    PosteriorTable,
    crisp_labels,
    dawid_skene_fit,
    generate_synthetic_lfs,
    lf_stats,
    load_label_matrix,
    majority_vote,
    save_label_matrix,
    weighted_softmax_posterior,
)
from .metrics import (
    ClassifierConfig,
    adjusted_rand_index,
    average_precision,
    frechet_gaussian_distance,
    pseudolabel_accuracy,
    train_eval_classifier,
    weighted_f1,
    weighted_map,
)
from .theory import (
    TheoryReport,
    generalization_bound,
    min_lfs,
    mv_error_bound,
    mv_error_exact,
    verify_rcgan_tv_chain,
)
from .wsgan import (
    ModelBundle,
    TrainingConfig,
    augment_dataset,
    class_balance_check,
    generate_samples,
    load_bundle,
    pseudolabel_table,
    save_bundle,
    train,
)
