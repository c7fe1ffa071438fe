"""Evaluation metrics against independent oracles.

ARI is cross-checked with a pair-counting implementation (the definition),
average precision with explicit threshold enumeration, and the Gaussian
Fréchet distance with closed forms for diagonal covariances.
"""
import itertools

import numpy as np
import pytest

from wsganlab.labelmodel import PosteriorTable
from wsganlab.metrics import (
    ClassifierConfig,
    MetricError,
    MetricUndefinedError,
    adjusted_rand_index,
    average_precision,
    frechet_from_moments,
    frechet_gaussian_distance,
    pseudolabel_accuracy,
    train_eval_classifier,
    weighted_f1,
    weighted_map,
)


def table(probs, covered=None):
    probs = np.asarray(probs, dtype=float)
    if covered is None:
        covered = np.ones(len(probs), bool)
    return PosteriorTable(probs, covered)


# ---------------------------------------------------------------------------
# accuracy / F1 / AP


def test_pseudolabel_accuracy_covered_only():
    t = table([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]], covered=[True, True, False])
    y = np.array([1, 1, 2])
    assert pseudolabel_accuracy(t, y) == 0.5  # third row excluded
    with pytest.raises(MetricUndefinedError):
        pseudolabel_accuracy(table([[0.5, 0.5]], covered=[False]), np.array([1]))


def test_weighted_f1_hand_case():
    y = np.array([1, 1, 1, 2, 2, 3])
    p = np.array([1, 1, 2, 2, 2, 1])
    # class1: P=2/3, R=2/3, F1=2/3 ; class2: P=2/3, R=1, F1=0.8 ; class3: F1=0
    expected = (3 / 6) * (2 / 3) + (2 / 6) * 0.8 + (1 / 6) * 0.0
    assert np.isclose(weighted_f1(p, y), expected)


def test_weighted_f1_perfect_and_degenerate():
    y = np.array([1, 2, 3, 1])
    assert weighted_f1(y, y) == 1.0
    assert weighted_f1(np.full(4, 1), y) < 1.0
    with pytest.raises(MetricUndefinedError):
        weighted_f1(np.array([], dtype=int), np.array([], dtype=int))


def brute_force_ap(scores, positives):
    """AP by explicit threshold enumeration over distinct scores."""
    scores = np.asarray(scores, float)
    positives = np.asarray(positives, bool)
    thresholds = sorted(set(scores), reverse=True)
    n_pos = positives.sum()
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        sel = scores >= th
        tp = (positives & sel).sum()
        precision = tp / sel.sum()
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_average_precision_perfect_and_hand_value():
    assert average_precision([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0
    # ranked: pos, neg, pos -> AP = 0.5*1 + 0.5*(2/3)
    ap = average_precision([0.9, 0.5, 0.3], [True, False, True])
    assert np.isclose(ap, 0.5 + 0.5 * 2 / 3)


def test_average_precision_ties_grouped():
    scores = [0.5, 0.5, 0.5, 0.1]
    pos = [True, False, True, False]
    # single threshold group of 3: precision 2/3 at recall 1
    assert np.isclose(average_precision(scores, pos), 2 / 3)
    assert np.isclose(brute_force_ap(scores, pos), 2 / 3)


def test_average_precision_matches_brute_force_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(3, 25))
        scores = np.round(rng.random(n), 2)  # induce ties
        pos = rng.random(n) < 0.4
        if not pos.any():
            pos[0] = True
        assert np.isclose(average_precision(scores, pos), brute_force_ap(scores, pos), atol=1e-12)


def test_average_precision_requires_positives():
    with pytest.raises(MetricUndefinedError):
        average_precision([0.5, 0.4], [False, False])


def test_weighted_map_table_coverage():
    probs = [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]
    t = table(probs, covered=[True, True, False])
    y = np.array([1, 2, 1])
    assert np.isclose(weighted_map(t, y), 1.0)  # covered rows perfectly ranked
    raw = weighted_map(table(probs[:2], covered=[True, True]), y[:2])
    assert np.isclose(raw, 1.0)


# ---------------------------------------------------------------------------
# ARI


def pair_counting_ari(a, b):
    """ARI from the pair-agreement definition, O(n^2)."""
    n = len(a)
    ss = sd = ds = dd = 0
    for i, j in itertools.combinations(range(n), 2):
        same_a, same_b = a[i] == a[j], b[i] == b[j]
        if same_a and same_b:
            ss += 1
        elif same_a:
            sd += 1
        elif same_b:
            ds += 1
        else:
            dd += 1
    total = ss + sd + ds + dd
    expected = (ss + sd) * (ss + ds) / total
    mx = 0.5 * ((ss + sd) + (ss + ds))
    if mx == expected:
        return 1.0
    return (ss - expected) / (mx - expected)


def test_ari_identical_and_degenerate():
    a = np.array([1, 1, 2, 2, 3])
    assert adjusted_rand_index(a, a) == 1.0
    assert adjusted_rand_index(np.ones(5, int), np.ones(5, int)) == 1.0


def test_ari_permutation_invariance_sample():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        a = rng.integers(1, 4, n)
        b = rng.integers(1, 4, n)
        perm = rng.permutation(3) + 1
        assert np.isclose(adjusted_rand_index(a, b), adjusted_rand_index(perm[a - 1], b), atol=1e-12)


def test_ari_matches_pair_counting():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        a = rng.integers(1, 5, n)
        b = rng.integers(1, 5, n)
        assert np.isclose(adjusted_rand_index(a, b), pair_counting_ari(a, b), atol=1e-12)


# ---------------------------------------------------------------------------
# Frechet


def test_frechet_closed_forms():
    mu = np.zeros(2)
    sig = np.eye(2)
    assert abs(frechet_from_moments(mu, sig, mu, sig)) < 1e-8
    # unit covariances, mean offset delta -> ||delta||^2
    mu2 = np.array([1.0, 0.0])
    assert abs(frechet_from_moments(mu, sig, mu2, sig) - 1.0) < 1e-8
    # 1-D N(0,1) vs N(0,4): (sqrt(1)-sqrt(4))^2 = 1
    assert abs(frechet_from_moments(np.zeros(1), np.eye(1), np.zeros(1), 4 * np.eye(1)) - 1.0) < 1e-8


def test_frechet_diagonal_covariance_formula():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        m1, m2 = rng.normal(size=d), rng.normal(size=d)
        a, b = rng.uniform(0.2, 3.0, d), rng.uniform(0.2, 3.0, d)
        expected = ((m1 - m2) ** 2).sum() + ((np.sqrt(a) - np.sqrt(b)) ** 2).sum()
        got = frechet_from_moments(m1, np.diag(a), m2, np.diag(b))
        assert abs(got - expected) < 1e-8


def test_frechet_symmetry_and_sample_path():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(400, 3))
    y = rng.normal(loc=0.5, size=(400, 3))
    d1 = frechet_gaussian_distance(x, y)
    d2 = frechet_gaussian_distance(y, x)
    assert np.isclose(d1, d2, atol=1e-8)
    assert d1 > 0
    assert frechet_gaussian_distance(x, x) < 1e-10
    with pytest.raises(MetricError):
        frechet_gaussian_distance(x[:1], y)


# ---------------------------------------------------------------------------
# end classifier and report


def test_classifier_learns_separable_blobs():
    rng = np.random.default_rng(14)
    n = 300
    y = rng.integers(1, 3, n)
    x = np.where((y == 1)[:, None], -2.0, 2.0) + rng.normal(scale=0.3, size=(n, 2))
    acc = train_eval_classifier(x, y, x, y, ClassifierConfig(epochs=10, seed=0))
    assert acc > 0.95


@pytest.mark.parametrize("field, value", [("hidden_dim", 0), ("epochs", -3), ("batch_size", -1)])
def test_classifier_config_refuses_a_config_that_trains_nothing(field, value):
    # epochs -3 or batch_size -1 would train no step and score an untrained net
    with pytest.raises(MetricError, match="hidden_dim and batch_size must be >= 1 and epochs >= 0"):
        ClassifierConfig(**{field: value})
    ClassifierConfig(epochs=0)  # zero epochs is allowed, as in TrainingConfig


def test_classifier_warns_on_missing_class():
    x = np.zeros((4, 2))
    with pytest.warns(RuntimeWarning):
        train_eval_classifier(x, np.array([1, 1, 1, 1]), x, np.array([1, 1, 2, 2]), ClassifierConfig(epochs=1))

