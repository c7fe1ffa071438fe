"""Evaluation metrics: pseudolabel quality, clustering agreement, and a
Gaussian-moment distance between sample sets, plus a small end classifier."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .labelmodel import PosteriorTable, crisp_labels
from .nn import MLP, one_hot

__all__ = [
    "MetricError",
    "MetricUndefinedError",
    "pseudolabel_accuracy",
    "weighted_f1",
    "average_precision",
    "weighted_map",
    "adjusted_rand_index",
    "frechet_gaussian_distance",
    "frechet_from_moments",
    "ClassifierConfig",
    "train_eval_classifier",
]


class MetricError(Exception):
    pass


class MetricUndefinedError(MetricError):
    """The metric has an empty domain (e.g. no covered rows)."""


def pseudolabel_accuracy(posteriors: PosteriorTable, true_labels: np.ndarray) -> float:
    """Crisp-argmax accuracy over covered rows only."""
    y = np.asarray(true_labels, dtype=np.int64)
    if y.shape != (posteriors.probs.shape[0],):
        raise MetricError("label length must match posterior rows")
    mask = posteriors.covered
    if not mask.any():
        raise MetricUndefinedError("no covered rows")
    preds = crisp_labels(posteriors)
    return float((preds[mask] == y[mask]).mean())


def weighted_f1(predictions: np.ndarray, true_labels: np.ndarray) -> float:
    """Support-weighted one-vs-rest F1.

    Classes absent from the truth get zero weight; a class with zero predicted
    positives or zero recall contributes F1 = 0.
    """
    preds = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(true_labels, dtype=np.int64)
    if preds.shape != y.shape or y.ndim != 1:
        raise MetricError("predictions and labels must be equal-length 1-D arrays")
    if y.size == 0:
        raise MetricUndefinedError("empty label array")
    out = 0.0
    n = y.size
    for c in np.unique(y):
        support = int((y == c).sum())
        tp = int(((preds == c) & (y == c)).sum())
        pp = int((preds == c).sum())
        precision = tp / pp if pp else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        out += (support / n) * f1
    return float(out)


def average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """Non-interpolated AP: the step integral of precision over recall.

    Thresholds sweep the distinct score values from high to low; tied scores
    enter together.  Undefined when there are no positives.
    """
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positives, dtype=bool)
    if s.shape != pos.shape or s.ndim != 1:
        raise MetricError("scores and positives must be equal-length 1-D arrays")
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise MetricUndefinedError("no positive examples")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    pos_sorted = pos[order].astype(np.float64)
    tp_cum = np.cumsum(pos_sorted)
    ranks = np.arange(1, s.size + 1)
    # keep only the last index of each tied-score group
    group_end = np.flatnonzero(np.r_[s_sorted[1:] != s_sorted[:-1], True])
    precision = tp_cum[group_end] / ranks[group_end]
    recall = tp_cum[group_end] / n_pos
    prev_recall = np.r_[0.0, recall[:-1]]
    return float(((recall - prev_recall) * precision).sum())


def weighted_map(posteriors: PosteriorTable, true_labels: np.ndarray) -> float:
    """Support-weighted mean of one-vs-rest average precisions over covered rows."""
    y = np.asarray(true_labels, dtype=np.int64)
    if y.shape != (posteriors.probs.shape[0],):
        raise MetricError("label length must match posterior rows")
    mask = posteriors.covered
    if not mask.any():
        raise MetricUndefinedError("no covered rows")
    probs, y = posteriors.probs[mask], y[mask]
    out = 0.0
    n = y.size
    for c in np.unique(y):
        support = int((y == c).sum())
        ap = average_precision(probs[:, c - 1], y == c)
        out += (support / n) * ap
    return float(out)


def adjusted_rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Chance-adjusted agreement of two partitions (labels are opaque ids).

    Returns 1.0 in the doubly degenerate case where both partitions make the
    expected and maximum index coincide (e.g. identical trivial partitions).
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise MetricError("partitions must be equal-length non-empty 1-D arrays")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    R, C = ai.max() + 1, bi.max() + 1
    table = np.zeros((R, C), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(a.size)
    expected = sum_rows * sum_cols / total
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def frechet_from_moments(
    mu1: np.ndarray, cov1: np.ndarray, mu2: np.ndarray, cov2: np.ndarray
) -> float:
    """||mu1-mu2||^2 + Tr(cov1 + cov2 - 2 (cov1 cov2)^{1/2}) between Gaussians.

    The matrix square root is taken through an eigendecomposition of the
    symmetrized product; tiny negative eigenvalues from rank deficiency are
    clipped to zero with a warning when they are more than roundoff.
    """
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=np.float64))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=np.float64))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=np.float64))
    cov2 = np.atleast_2d(np.asarray(cov2, dtype=np.float64))
    if mu1.shape != mu2.shape or cov1.shape != cov2.shape:
        raise MetricError("moment shape mismatch")
    diff = float(((mu1 - mu2) ** 2).sum())
    # sqrt(cov1 cov2) has the same eigenvalues as S1 cov2 S1 with S1 = cov1^{1/2}
    w1, v1 = np.linalg.eigh((cov1 + cov1.T) / 2)
    if w1.min() < -1e-8 * max(1.0, abs(w1.max())):
        warnings.warn("covariance not PSD; clipping negative eigenvalues", RuntimeWarning)
    s1 = (v1 * np.sqrt(np.clip(w1, 0.0, None))) @ v1.T
    inner = s1 @ ((cov2 + cov2.T) / 2) @ s1
    w = np.linalg.eigvalsh((inner + inner.T) / 2)
    if w.min() < -1e-8 * max(1.0, abs(w.max())):
        warnings.warn("cross-covariance product not PSD; clipping", RuntimeWarning)
    trace_sqrt = np.sqrt(np.clip(w, 0.0, None)).sum()
    return float(diff + np.trace(cov1) + np.trace(cov2) - 2.0 * trace_sqrt)


def frechet_gaussian_distance(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Gaussian-moment distance between two sample sets (rows = samples).

    Uses empirical means and ddof=1 covariances; needs at least two rows per
    side.
    """
    a = np.atleast_2d(np.asarray(sample_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(sample_b, dtype=np.float64))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise MetricError("samples must be 2-D with matching feature dims")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise MetricError("need at least 2 samples per side for a covariance")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))
    return frechet_from_moments(mu_a, cov_a, mu_b, cov_b)


# ---------------------------------------------------------------------------
# end classifier


@dataclass(frozen=True)
class ClassifierConfig:
    hidden_dim: int = 32
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0


def train_eval_classifier(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    config: ClassifierConfig = ClassifierConfig(),
) -> float:
    """Fit a small softmax MLP on (train_x, train_y); return test accuracy.

    Class ids are 1..C with C = max over both splits.  A class present in the
    test set but absent from training triggers a warning and proceeds.
    """
    tx = np.asarray(train_x, dtype=np.float64)
    ty = np.asarray(train_y, dtype=np.int64)
    ex = np.asarray(test_x, dtype=np.float64)
    ey = np.asarray(test_y, dtype=np.int64)
    if tx.ndim != 2 or tx.shape[0] != ty.size or ex.shape[1] != tx.shape[1]:
        raise MetricError("bad classifier input shapes")
    C = int(max(ty.max(), ey.max()))
    missing = sorted(set(range(1, C + 1)) - set(np.unique(ty).tolist()))
    if missing:
        warnings.warn(f"classes {missing} absent from training labels", RuntimeWarning)

    rng = np.random.default_rng(config.seed)
    net = MLP([tx.shape[1], config.hidden_dim, config.hidden_dim, C], rng)
    opt = ad.Adam(net.params, lr=1e-3)
    targets = one_hot(ty, C)
    n = tx.shape[0]
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            logits = net(ad.Tensor(tx[idx]))
            logp = ad.log_softmax(logits)
            loss = ad.scale(ad.total(ad.mul(logp, targets[idx])), -1.0 / idx.size)
            opt.step(loss)
    with ad.no_grad():
        logits = net(ad.Tensor(ex)).data
    preds = np.argmax(logits, axis=1) + 1
    return float((preds == ey).mean())

