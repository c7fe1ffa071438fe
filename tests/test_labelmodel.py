"""Label matrix construction, vote aggregation, and the one-coin EM.

The Dawid-Skene check re-derives every EM iteration with an independent dense
implementation (explicit per-row products in probability space via logs) and
compares trajectories, rather than only endpoints.
"""
import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsganlab.labelmodel import (
    _CSV_BLOCK_ROWS,
    DegenerateLabelMatrixWarning,
    InfeasibleLfSpecError,
    LabelMatrix,
    LfSpec,
    PosteriorTable,
    WeakSupError,
    crisp_labels,
    dawid_skene_fit,
    generate_synthetic_lfs,
    lf_stats,
    load_label_matrix,
    majority_vote,
    save_label_matrix,
    weighted_softmax_posterior,
)


def balanced_labels(n, C, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(1, C + 1, size=n)


# ---------------------------------------------------------------------------
# LF specs and synthesis


def test_lfspec_validation():
    LfSpec(target_class=1, accuracy=0.8, propensity=0.2, seed=0).validate(4)
    with pytest.raises(WeakSupError):
        LfSpec(1, 0.25, 0.2, 0).validate(4)  # not better than chance
    with pytest.raises(WeakSupError):
        LfSpec(1, 0.8, 0.0, 0).validate(4)
    with pytest.raises(WeakSupError):
        LfSpec(5, 0.8, 0.2, 0).validate(4)  # target outside 1..C


def test_generate_exact_vote_counts():
    y = balanced_labels(500, 4, seed=3)
    spec = LfSpec(target_class=2, accuracy=0.8, propensity=0.3, seed=11)
    L = generate_synthetic_lfs(y, [spec], 4)
    votes = L.votes[:, 0]
    v = int(round(0.3 * 500))
    tp = int(round(0.8 * v))
    assert (votes != 0).sum() == v
    assert ((votes == 2) & (y == 2)).sum() == tp
    assert ((votes == 2) & (y != 2)).sum() == v - tp
    assert set(np.unique(votes)) <= {0, 2}  # unipolar


def test_generate_deterministic_per_spec_seed():
    y = balanced_labels(300, 3, seed=1)
    specs = [LfSpec(1, 0.7, 0.25, seed=5), LfSpec(3, 0.6, 0.2, seed=6)]
    a = generate_synthetic_lfs(y, specs, 3).votes
    b = generate_synthetic_lfs(y, specs, 3).votes
    assert (a == b).all()
    c = generate_synthetic_lfs(y, [LfSpec(1, 0.7, 0.25, seed=7), specs[1]], 3).votes
    assert (a[:, 0] != c[:, 0]).any()
    assert (a[:, 1] == c[:, 1]).all()  # other LF untouched


def test_generate_infeasible_reports_counts():
    y = np.array([1, 1, 2, 2, 2, 2, 2, 2, 2, 2])  # class 1 has 2 rows
    spec = LfSpec(target_class=1, accuracy=0.9, propensity=0.5, seed=0)
    with pytest.raises(InfeasibleLfSpecError) as exc:
        generate_synthetic_lfs(y, [spec], 2)
    msg = str(exc.value)
    assert "4" in msg and "2" in msg  # needs round(0.9*5)=4 votes on 2 rows


def test_fidelity_at_moderate_n():
    y = balanced_labels(5000, 4, seed=9)
    specs = [LfSpec(k, 0.6 + 0.05 * k, 0.15 + 0.02 * k, seed=k) for k in range(1, 5)]
    L = generate_synthetic_lfs(y, specs, 4)
    stats = lf_stats(L, y)
    for j, spec in enumerate(specs):
        assert abs(stats.accuracy[j] - spec.accuracy) < 0.02
        assert abs(stats.coverage[j] - spec.propensity) < 0.02


def test_label_matrix_validation_and_warning():
    with pytest.raises(WeakSupError):
        LabelMatrix(np.array([[0, 5]]), class_count=4)  # vote outside 0..C
    with pytest.raises(WeakSupError):
        LabelMatrix(np.array([[-1, 0]]), class_count=4)
    with pytest.warns(DegenerateLabelMatrixWarning):
        LabelMatrix(np.array([[1, 2], [1, 2]]), class_count=3)  # every column constant
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        LabelMatrix(np.array([[1, 2], [1, 0]]), class_count=3)  # one varying column is fine


def test_lf_stats_undefined_for_silent_lf():
    votes = np.array([[1, 0], [1, 0], [0, 0]])
    stats = lf_stats(votes, np.array([1, 2, 1]))
    assert (~np.isnan(stats.accuracy)).tolist() == [True, False]
    assert stats.accuracy[0] == 0.5
    assert np.nanmean(stats.accuracy) == 0.5  # NaN column skipped


# ---------------------------------------------------------------------------
# aggregation


def test_majority_vote_hand_instance():
    votes = np.array(
        [
            [1, 1, 2],  # clear winner 1
            [1, 2, 0],  # tie between 1 and 2
            [0, 0, 0],  # uncovered
            [3, 3, 3],  # unanimous
        ]
    )
    table = majority_vote(votes, 3)
    assert np.allclose(table.probs[0], [1.0, 0.0, 0.0])
    assert np.allclose(table.probs[1], [0.5, 0.5, 0.0])
    assert np.allclose(table.probs[2], [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(table.probs[3], [0.0, 0.0, 1.0])
    assert table.covered.tolist() == [True, True, False, True]


def test_uniform_weight_softmax_argmax_equals_mv_winner():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n, m, C = int(rng.integers(2, 30)), int(rng.integers(1, 8)), int(rng.integers(2, 5))
        votes = rng.integers(0, C + 1, size=(n, m))
        table = majority_vote(votes, C)
        probs = weighted_softmax_posterior(votes, np.ones(m), C)
        cov = table.covered
        if cov.any():
            assert (np.argmax(probs[cov], 1) == np.argmax(table.probs[cov], 1)).all()


def test_weighted_softmax_hand_values():
    votes = np.array([[1, 2, 1], [0, 2, 0]])
    w = np.array([2.0, 1.0, 0.5])
    probs = weighted_softmax_posterior(votes, w, 3)
    # row 0 scores: class1 = 2.5, class2 = 1.0, class3 = 0
    e = np.exp([2.5, 1.0, 0.0])
    assert np.allclose(probs[0], e / e.sum())
    e2 = np.exp([0.0, 1.0, 0.0])
    assert np.allclose(probs[1], e2 / e2.sum())


def test_weighted_softmax_per_row_weights_and_single_row():
    votes = np.array([[1, 0], [2, 2]])
    w = np.array([[1.0, 1.0], [3.0, 0.5]])
    probs = weighted_softmax_posterior(votes, w, 2)
    e = np.exp([0.0, 3.5])
    assert np.allclose(probs[1], e / e.sum())
    single = weighted_softmax_posterior(np.array([[1, 0]]), np.array([1.0, 1.0]), 2)
    assert single.shape == (1, 2)
    assert np.allclose(single[0], probs[0])
    with pytest.raises(WeakSupError, match="must be 2-D"):
        weighted_softmax_posterior(np.array([1, 0]), np.array([1.0, 1.0]), 2)


def test_crisp_labels_break_weighted_softmax_ties_low():
    votes = np.array([[1, 2], [0, 0]])
    table = PosteriorTable(weighted_softmax_posterior(votes, np.ones(2), 3), np.ones(2, dtype=bool))
    assert crisp_labels(table).tolist() == [1, 1]  # tie -> lowest class index


def test_posterior_table_validation():
    with pytest.raises(WeakSupError):
        PosteriorTable(np.array([[0.7, 0.7]]), np.array([True]))
    with pytest.raises(WeakSupError):
        PosteriorTable(np.array([[0.5, 0.5]]), np.array([True, False]))


# ---------------------------------------------------------------------------
# Dawid-Skene


def reference_em(votes, C, iters, init_acc=0.7):
    """Independent dense EM: per-iteration (ll, accuracies, posteriors)."""
    n, m = votes.shape
    acc = np.clip(np.full(m, init_acc), 1e-4, 1 - 1e-4)
    prior = np.full(C, 1.0 / C)
    out = []
    for _ in range(iters):
        log_post = np.zeros((n, C))
        for i in range(n):
            for k in range(C):
                s = math.log(prior[k])
                for j in range(m):
                    if votes[i, j] == 0:
                        continue
                    if votes[i, j] == k + 1:
                        s += math.log(acc[j])
                    else:
                        s += math.log((1 - acc[j]) / (C - 1))
                log_post[i, k] = s
        row_max = log_post.max(axis=1, keepdims=True)
        ll = float((row_max[:, 0] + np.log(np.exp(log_post - row_max).sum(axis=1))).sum())
        post = np.exp(log_post - row_max)
        post /= post.sum(axis=1, keepdims=True)
        out.append((ll, acc.copy(), post.copy()))
        new_acc = acc.copy()
        for j in range(m):
            num = den = 0.0
            for i in range(n):
                if votes[i, j] == 0:
                    continue
                den += 1.0
                num += post[i, votes[i, j] - 1]
            if den > 0:
                new_acc[j] = num / den
        acc = np.clip(new_acc, 1e-4, 1 - 1e-4)
        prior = np.clip(post.mean(axis=0), 1e-9, None)
        prior /= prior.sum()
    return out


@pytest.mark.filterwarnings("ignore:Dawid-Skene did not converge")
def test_dawid_skene_matches_reference_trajectory():
    rng = np.random.default_rng(5)
    votes = rng.integers(0, 4, size=(25, 5))
    ref = reference_em(votes, 3, iters=8)
    result = dawid_skene_fit(votes, 3, max_iters=8, tol=0.0)
    assert len(result.log_likelihood) == 8
    for it in range(8):
        assert np.isclose(result.log_likelihood[it], ref[it][0], atol=1e-9)
    assert np.allclose(result.posteriors.probs[result.posteriors.covered], ref[-1][2][(votes != 0).any(1)], atol=1e-10)


def test_dawid_skene_recovers_planted_accuracies():
    # 2-class well-specified instance: EM should find the planted parameters
    rng = np.random.default_rng(21)
    n, m, C = 2000, 5, 2
    y = rng.integers(1, C + 1, size=n)
    true_acc = np.array([0.9, 0.8, 0.85, 0.7, 0.95])
    votes = np.zeros((n, m), dtype=np.int64)
    for j in range(m):
        correct = rng.random(n) < true_acc[j]
        votes[:, j] = np.where(correct, y, 3 - y)
    result = dawid_skene_fit(votes, C)
    # label-switching cannot occur from a majority-correct start here
    assert np.abs(result.accuracies - true_acc).max() < 0.05
    acc = (crisp_labels(result.posteriors) == y).mean()
    assert acc > 0.95


@pytest.mark.filterwarnings("ignore:Dawid-Skene did not converge")
def test_dawid_skene_ll_monotone_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n, m, C = int(rng.integers(3, 40)), int(rng.integers(2, 8)), int(rng.integers(2, 5))
        votes = rng.integers(0, C + 1, size=(n, m))
        if not (votes != 0).any():
            continue
        result = dawid_skene_fit(votes, C, max_iters=60)
        diffs = np.diff(result.log_likelihood)
        assert (diffs >= -1e-9).all()


def test_dawid_skene_convergence_flag_and_warning():
    rng = np.random.default_rng(2)
    votes = rng.integers(0, 3, size=(30, 4))
    with pytest.warns(RuntimeWarning):
        result = dawid_skene_fit(votes, 2, max_iters=2, tol=0.0)
    assert not result.converged
    assert result.iterations == 2
    ok = dawid_skene_fit(votes, 2, max_iters=200)
    assert ok.converged and ok.iterations <= 200


def test_dawid_skene_uncovered_rows_uniform():
    votes = np.array([[1, 2], [0, 0], [2, 2]])
    result = dawid_skene_fit(votes, 2, max_iters=20)
    assert np.allclose(result.posteriors.probs[1], [0.5, 0.5])
    assert not result.posteriors.covered[1]


@pytest.mark.filterwarnings("ignore:Dawid-Skene did not converge")
@settings(max_examples=60, deadline=None)
@given(C=st.integers(2, 6), n=st.integers(20, 60), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_label_models_are_equivariant_under_relabelling(C, n, m, seed):
    # class k becomes pi[k - 1] + 1 and new LF column j is old column sigma[j]; so each
    # model's output comes back with its class columns in pi order and its LFs in sigma order
    rng = np.random.default_rng(seed)
    y = rng.integers(1, C + 1, size=n)
    # votes that carry the label: two classes voted alike are an unstable fixed point of EM,
    # where the permuted sums' rounding grows (to 4e-7 in 30 iterations on a 3-row matrix)
    wrong = rng.integers(1, C + 1, size=(n, m))
    votes = np.where(rng.random((n, m)) < 0.4, np.where(rng.random((n, m)) < 0.7, y[:, None], wrong), 0)
    pi, sigma = rng.permutation(C), rng.permutation(m)
    relabel = np.concatenate([[0], pi + 1])  # abstain stays 0
    votes2, y2 = relabel[votes][:, sigma], relabel[y]

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    mv, mv2 = majority_vote(votes, C), majority_vote(votes2, C)
    close(mv2.probs[:, pi], mv.probs)
    assert (mv2.covered == mv.covered).all()
    # tol=0 runs every fit for max_iters, so the two cannot stop at different iterations
    ds, ds2 = dawid_skene_fit(votes, C, max_iters=30, tol=0.0), dawid_skene_fit(votes2, C, max_iters=30, tol=0.0)
    close(ds2.posteriors.probs[:, pi], ds.posteriors.probs)
    close(ds2.accuracies, ds.accuracies[sigma])
    close(ds2.prior[pi], ds.prior)
    stats, stats2 = lf_stats(votes, y), lf_stats(votes2, y2)
    close(stats2.accuracy, stats.accuracy[sigma])  # NaN, for a silent LF, equals NaN
    close(stats2.coverage, stats.coverage[sigma])


# ---------------------------------------------------------------------------
# serialization


def test_label_matrix_roundtrip(tmp_path):
    y = balanced_labels(200, 3, seed=4)
    specs = [LfSpec(1, 0.7, 0.2, seed=1), LfSpec(2, 0.65, 0.25, seed=2)]
    L = generate_synthetic_lfs(y, specs, 3)
    csv_path, json_path = save_label_matrix(L, tmp_path / "lm.csv")
    assert csv_path.exists() and json_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "lf_0,lf_1"
    back = load_label_matrix(csv_path)
    assert (back.votes == L.votes).all()
    assert back.class_count == 3
    assert back.lf_specs is not None
    assert back.lf_specs[1].accuracy == 0.65


def test_load_rejects_inconsistent_sidecar(tmp_path):
    y = balanced_labels(50, 2, seed=8)
    L = generate_synthetic_lfs(y, [LfSpec(1, 0.8, 0.3, seed=3)], 2)
    csv_path, json_path = save_label_matrix(L, tmp_path / "lm.csv")
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-5]) + "\n")  # drop rows
    with pytest.raises(WeakSupError):
        load_label_matrix(csv_path)


def test_label_matrix_csv_bytes_and_edge_shapes(tmp_path):
    L = LabelMatrix(np.array([[0, 12, 3], [11, 0, 0]]), 12)
    csv_path, _ = save_label_matrix(L, tmp_path / "lm.csv")
    assert csv_path.read_bytes() == b"lf_0,lf_1,lf_2\r\n0,12,3\r\n11,0,0\r\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for votes in (np.array([[2], [0], [1]]), np.zeros((0, 3), np.int64), np.zeros((3, 0), np.int64)):
            back = load_label_matrix(save_label_matrix(LabelMatrix(votes, 2), tmp_path / "edge.csv")[0])
            assert back.votes.shape == votes.shape and (back.votes == votes).all()


@pytest.mark.parametrize("bad_row", ["1,0,2", "1,x"], ids=["ragged", "non-integer"])
def test_load_rejects_malformed_csv(tmp_path, bad_row):
    L = LabelMatrix(np.array([[1, 0], [0, 2], [2, 2]]), 2)
    csv_path, _ = save_label_matrix(L, tmp_path / "lm.csv")
    lines = csv_path.read_text().splitlines()
    lines[2] = bad_row
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(WeakSupError, match="lm.csv"):
        load_label_matrix(csv_path)


def csv_writer_bytes(votes):
    """The label-matrix CSV as `csv.writer` writes it, row by row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"lf_{j}" for j in range(votes.shape[1])])
    writer.writerows(votes.tolist())
    return buf.getvalue().encode()


@settings(max_examples=40, deadline=None)
@given(
    C=st.integers(2, 12),
    n=st.integers(0, 20) | st.just(_CSV_BLOCK_ROWS + 1),
    m=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(C=12, n=_CSV_BLOCK_ROWS + 1, m=3, seed=0)
@example(C=10, n=7, m=1, seed=1)
@example(C=2, n=0, m=4, seed=2)
@example(C=12, n=5, m=0, seed=3)
def test_label_matrix_csv_matches_csv_writer(tmp_path_factory, C, n, m, seed):
    votes = np.random.default_rng(seed).integers(0, C + 1, size=(n, m))
    csv_path = tmp_path_factory.mktemp("csv") / "lm.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLabelMatrixWarning)
        save_label_matrix(LabelMatrix(votes, C), csv_path)
        back = load_label_matrix(csv_path)
    assert csv_path.read_bytes() == csv_writer_bytes(votes)
    assert back.class_count == C and back.votes.shape == votes.shape and (back.votes == votes).all()


@pytest.mark.parametrize("bad_vote", ["negative", "above C"])
def test_save_rejects_votes_outside_range(tmp_path, bad_vote):
    L = LabelMatrix(np.array([[1, 0], [0, 2], [3, 3]]), 3)
    L.votes[0, 0] = -1 if bad_vote == "negative" else L.class_count + 1
    csv_path = tmp_path / "lm.csv"
    with pytest.raises(WeakSupError, match="lm.csv"):
        save_label_matrix(L, csv_path)
    assert not csv_path.exists()


def test_save_label_matrix_memory_is_bounded_by_block(tmp_path):
    # rows are encoded one block at a time, so the traced peak is a fraction
    # of the int64 votes however many rows there are
    n, m, C = 100_000, 40, 8
    rng = np.random.default_rng(0)
    L = LabelMatrix(np.where(rng.random((n, m)) < 0.125, rng.integers(1, C + 1, size=(n, m)), 0), C)
    tracemalloc.start()
    try:
        save_label_matrix(L, tmp_path / "lm.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * L.votes.nbytes, f"peak {peak / L.votes.nbytes:.2f}x votes.nbytes"


def test_dawid_skene_memory_scales_with_votes():
    # the encoding lists only the votes cast, so a fit allocates no (n, m)
    # float temporaries: its traced peak stays under 1.5x the int64 votes
    n, m, C = 20_000, 40, 8
    rng = np.random.default_rng(0)
    votes = np.where(rng.random((n, m)) < 0.125, rng.integers(1, C + 1, size=(n, m)), 0)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dawid_skene_fit(votes, C, max_iters=5, tol=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * votes.nbytes, f"peak {peak / votes.nbytes:.2f}x votes.nbytes"
