"""Model bundle, loss terms, training loop, and augmentation.

Loss oracles are recomputed with plain numpy in each test; the alignment
posterior is cross-checked against the numpy label-model path; gradients are
validated by finite differences over all touched parameters.
"""
import dataclasses
import json

import numpy as np
import pytest

import wsganlab.autodiff as ad
import wsganlab.wsgan as wsgan
from wsganlab.autodiff import Tensor, backward, check_gradients_params
from wsganlab.data import DataError, DatasetSpec, synth_dataset
from wsganlab.labelmodel import LfSpec, crisp_labels, generate_synthetic_lfs, weighted_softmax_posterior
from wsganlab.wsgan import (
    AugmentationRejectedError,
    HISTORY_COLUMNS,
    ModelBundle,
    TrainingConfig,
    TrainingDivergedError,
    TrainingError,
    alignment_loss,
    augment_dataset,
    binary_cross_entropy,
    class_balance_check,
    cross_entropy,
    generate_samples,
    generator_loss,
    info_loss,
    load_bundle,
    pseudolabel_table,
    save_bundle,
    train,
    weighted_posterior_tensor,
)

CLAMP = 1e-7


def small_config(**kwargs):
    base = dict(z_dim=4, hidden_dim=8, epochs=2, batch_size=8, seed=0)
    base.update(kwargs)
    return TrainingConfig(**base)


def small_bundle(seed, **kwargs):
    """A bundle sized for small_problem: 3 classes, 4 LFs, 2 feature dimensions."""
    return ModelBundle(small_config(**kwargs), 3, 4, 2, np.random.default_rng(seed))


def small_problem(n=40, seed=5):
    spec = DatasetSpec(class_count=3, feature_dim=2, num_samples=n, radius=3.0, sigma=0.5, seed=seed)
    data = synth_dataset(spec)
    specs = [
        LfSpec(1, 0.8, 0.3, seed=1),
        LfSpec(2, 0.7, 0.25, seed=2),
        LfSpec(3, 0.75, 0.3, seed=3),
        LfSpec(1, 0.6, 0.2, seed=4),
    ]
    L = generate_synthetic_lfs(data.labels, specs, 3)
    return data, L


# ---------------------------------------------------------------------------
# config and bundle


def test_config_validation():
    with pytest.raises(TrainingError):
        small_config(mode="both")
    with pytest.raises(TrainingError):
        small_config(z_dim=0)
    for sizes in ((1, 4, 2), (3, 0, 2), (3, 4, 0)):  # classes, LFs, feature dimensions
        with pytest.raises(TrainingError):
            ModelBundle(small_config(), *sizes, np.random.default_rng(0))
    with pytest.raises(TrainingError):
        small_config(align_weight=-1.0)


def test_bundle_init_identical_across_modes():
    for mode in ("vector", "infogan"):
        a = small_bundle(3, mode="encoder")
        b = small_bundle(3, mode=mode)
        for (name_a, pa), (name_b, pb) in zip(a.named_params(), b.named_params()):
            assert name_a == name_b
            assert (pa.data == pb.data).all()


def test_bundle_head_initialization():
    bundle = small_bundle(0)
    assert np.abs(bundle.weight_head.w.data).max() < 0.05  # near-zero head
    assert (bundle.weight_vector.data == 0.0).all()
    x = Tensor(np.random.default_rng(1).normal(size=(6, 2)))
    feats = bundle.features(x)
    assert np.abs(feats.data).max() < 1.0  # tanh-bounded trunk
    q = bundle.code_posterior(feats).data
    assert np.allclose(q.sum(axis=1), 1.0)
    w = bundle.lf_weights(feats).data
    assert ((w > 0) & (w < 1)).all()
    assert np.abs(w - 0.5).max() < 0.05  # weights open near majority vote


def test_vector_mode_weights_exactly_half_at_init():
    bundle = small_bundle(0, mode="vector")
    assert (bundle.lf_weights().data == 0.5).all()


def test_param_groups_disjoint_roles():
    bundle = small_bundle(0, mode="encoder")
    gen_ids = {id(p) for p in bundle.gen_params()}
    disc_ids = {id(p) for p in bundle.disc_params()}
    assert not gen_ids & disc_ids
    align_ids = {id(p) for p in bundle.align_params()}
    assert {id(p) for p in bundle.trunk.params} <= align_ids & disc_ids


# ---------------------------------------------------------------------------
# loss oracles


def test_generator_loss_oracle_and_clamp():
    d_fake = np.array([0.5, 0.25])
    assert np.isclose(float(generator_loss(d_fake).data), -np.mean(np.log(d_fake)), atol=1e-12)
    extreme = float(generator_loss(np.array([0.0])).data)
    assert np.isclose(extreme, -np.log(CLAMP))  # clamp keeps it finite


def test_binary_cross_entropy_oracle():
    p = np.array([0.8, 0.3, 0.6])
    t = np.array([1.0, 0.0, 0.9])
    got = float(binary_cross_entropy(p, t).data)
    want = -np.mean(t * np.log(p) + (1 - t) * np.log(1 - p))
    assert np.isclose(got, want, atol=1e-12)
    # (B, 1) probs, as the discriminator gives them, against (B,) targets: row by row
    p = 1.0 / (1.0 + np.exp(-np.array([3.0, -1.0, 2.0, 0.5])))
    t = np.array([1.0, 1.0, 0.0, 1.0])
    got = float(binary_cross_entropy(p[:, None], t).data)
    want = -np.mean(t * np.log(p) + (1 - t) * np.log(1 - p))
    assert np.isclose(got, want, atol=1e-12) and np.isclose(got, 0.991, atol=5e-4)
    with pytest.raises(ValueError):
        binary_cross_entropy(p[:, None], t[:3])


def test_info_loss_is_code_cross_entropy():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
    onehot = np.eye(3)[[0, 1]]
    got = float(info_loss(onehot, probs).data)
    assert np.isclose(got, -np.mean([np.log(0.7), np.log(0.8)]), atol=1e-12)


def test_cross_entropy_soft_targets():
    pred = np.array([[0.6, 0.4]])
    target = np.array([[0.5, 0.5]])
    got = float(cross_entropy(pred, target).data)
    assert np.isclose(got, -(0.5 * np.log(0.6) + 0.5 * np.log(0.4)), atol=1e-12)


@pytest.mark.parametrize("per_row", [False, True])
def test_weighted_posterior_tensor_matches_numpy_path(per_row):
    rng = np.random.default_rng(6)
    votes = rng.integers(0, 4, size=(7, 5))
    w = rng.uniform(0.1, 0.9, size=(7, 5) if per_row else 5)
    got = weighted_posterior_tensor(votes, Tensor(w), 3).data
    want = weighted_softmax_posterior(votes, w, 3)
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# alignment


def covered_batch(n=12):
    data, L = small_problem(n=60)
    mask = (L.votes != 0).any(axis=1)
    x = data.features[mask][:n]
    votes = L.votes[mask][:n]
    return x, votes


def test_alignment_penalty_formula():
    x, votes = covered_batch()
    bundle = small_bundle(2, mode="encoder")
    _loss, parts = alignment_loss(bundle, x, votes, epoch=0)
    with ad.no_grad():
        theta = bundle.lf_weights(bundle.features(Tensor(x))).data
    want0 = 3 / (0 * 1.5 + 1.0) * ((theta - 0.5) ** 2).sum(axis=1).mean()
    assert np.isclose(parts["penalty"], want0, atol=1e-12)
    _loss, parts3 = alignment_loss(bundle, x, votes, epoch=3)
    assert np.isclose(parts3["penalty_multiplier"], 3 / (3 * 1.5 + 1.0), atol=1e-15)


def test_alignment_vector_penalty_is_plain_sum():
    x, votes = covered_batch()
    bundle = small_bundle(2, mode="vector")
    _loss, parts = alignment_loss(bundle, x, votes, epoch=0)
    assert parts["penalty"] == 0.0  # sigmoid(0) = 0.5 exactly
    bundle.weight_vector.data[:] = 1.0
    _loss, parts = alignment_loss(bundle, x, votes, epoch=0)
    theta = 1 / (1 + np.exp(-1.0))
    assert np.isclose(parts["penalty"], 3.0 * 4 * (theta - 0.5) ** 2, atol=1e-12)


def test_alignment_ce_parts_against_numpy():
    x, votes = covered_batch()
    bundle = small_bundle(4, mode="encoder")
    loss, parts = alignment_loss(bundle, x, votes, epoch=1)
    with ad.no_grad():
        feats = bundle.features(Tensor(x))
        q = bundle.code_posterior(feats).data
        theta = bundle.lf_weights(feats).data
        y_hat = weighted_softmax_posterior(votes, theta, 3)
        f1 = bundle.label_posterior_from_code(Tensor(q)).data
        f2 = bundle.code_posterior_from_label(Tensor(y_hat)).data
    ce1 = -np.mean((y_hat * np.log(np.clip(f1, CLAMP, None))).sum(axis=1))
    ce2 = -np.mean((q * np.log(np.clip(f2, CLAMP, None))).sum(axis=1))
    assert np.isclose(parts["ce_code_side"], ce1, atol=1e-10)
    assert np.isclose(parts["ce_label_side"], ce2, atol=1e-10)
    assert np.isclose(float(loss.data), ce1 + ce2 + parts["penalty"], atol=1e-10)


def test_alignment_rejects_uncovered_rows():
    x, votes = covered_batch()
    votes = votes.copy()
    votes[0] = 0
    bundle = small_bundle(0)
    with pytest.raises(TrainingError):
        alignment_loss(bundle, x, votes, epoch=0)


def test_theta_path_does_not_touch_trunk():
    # gradient through the weight head flows into detached features only
    x, votes = covered_batch()
    bundle = small_bundle(7, mode="encoder")
    feats = bundle.features(Tensor(x))
    q = bundle.code_posterior(feats)
    theta = ad.sigmoid(bundle.weight_head(ad.detach(feats)))
    y_hat = weighted_posterior_tensor(votes, theta, 3)
    label_side = cross_entropy(bundle.code_posterior_from_label(y_hat), ad.detach(q))
    dev = ad.sub(theta, 0.5)
    pen = ad.scale(ad.total(ad.mul(dev, dev)), 1.0 / x.shape[0])
    *trunk_grads, head_grad = backward(ad.add(label_side, pen), [*bundle.trunk.params, bundle.weight_head.w])
    assert not any(g.any() for g in trunk_grads)
    assert head_grad.any()
    loss, _ = alignment_loss(bundle, x, votes, epoch=0)
    assert any(g.any() for g in backward(loss, bundle.trunk.params))  # code side does


@pytest.mark.parametrize("mode", ["encoder", "vector"])
def test_alignment_gradients_match_finite_differences(mode):
    # The live loss contains stop-gradients, so a naive FD probe would move
    # the frozen branches too.  Freeze them as constants, FD-check that
    # functional, then confirm its analytic gradient equals the live one.
    x, votes = covered_batch(n=6)
    n = x.shape[0]
    bundle = small_bundle(11, mode=mode)
    params = bundle.align_params()
    with ad.no_grad():
        feats0 = bundle.features(Tensor(x)).data
        q0 = bundle.code_posterior(Tensor(feats0)).data
        if mode == "vector":
            theta0 = 1 / (1 + np.exp(-bundle.weight_vector.data))
        else:
            theta0 = 1 / (1 + np.exp(-bundle.weight_head(Tensor(feats0)).data))
        y0 = weighted_softmax_posterior(votes, theta0, 3)

    def frozen_loss():
        feats = bundle.features(Tensor(x))
        q = bundle.code_posterior(feats)
        if mode == "vector":
            theta, per_row = ad.sigmoid(bundle.weight_vector), 1
        else:
            theta, per_row = ad.sigmoid(bundle.weight_head(Tensor(feats0))), n
        y_hat = weighted_posterior_tensor(votes, theta, 3)
        ce1 = cross_entropy(bundle.label_posterior_from_code(q), Tensor(y0))
        ce2 = cross_entropy(bundle.code_posterior_from_label(y_hat), Tensor(q0))
        dev = ad.sub(theta, 0.5)
        pen = ad.scale(ad.total(ad.mul(dev, dev)), (3 / (1 * 1.5 + 1.0)) / per_row)
        return ad.add(ad.add(ce1, ce2), pen)

    report = check_gradients_params(frozen_loss, params, step=1e-6)
    assert report.ok(1e-4), report.max_rel_error

    live = np.concatenate([g.ravel() for g in backward(alignment_loss(bundle, x, votes, epoch=1)[0], params)])
    assert np.allclose(live, report.analytic, atol=1e-12)


def test_discriminator_generator_gradients_match_finite_differences():
    data, _ = small_problem(n=8)
    bundle = small_bundle(9)
    x = data.features[:4]
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, bundle.config.z_dim))
    codes = rng.integers(1, 4, size=4)
    targets_real = np.full(4, 0.9)
    targets_fake = np.full(4, 0.1)

    def d_loss():
        with ad.no_grad():
            fake = bundle.generate(z, codes).data
        real_p = bundle.discriminate(bundle.features(Tensor(x)))
        fake_p = bundle.discriminate(bundle.features(Tensor(fake)))
        return ad.add(binary_cross_entropy(real_p, targets_real), binary_cross_entropy(fake_p, targets_fake))

    report = check_gradients_params(d_loss, bundle.disc_params(), step=1e-6)
    assert report.ok(1e-4), report.max_rel_error

    def g_loss():
        return generator_loss(bundle.discriminate(bundle.features(bundle.generate(z, codes))))

    report = check_gradients_params(g_loss, bundle.gen_params(), step=1e-6)
    assert report.ok(1e-4), report.max_rel_error


# ---------------------------------------------------------------------------
# training loop


def test_train_smoke_and_history_schema():
    data, L = small_problem()
    bundle, history = train(data, L, small_config(mode="encoder"))
    assert len(history.records) == 2
    for rec in history.records:
        assert len(rec) == len(HISTORY_COLUMNS)
        assert all(np.isfinite(v) for v in rec)
    assert history.column("epoch") == [0, 1]


def test_train_zero_epochs():
    data, L = small_problem()
    bundle, history = train(data, L, small_config(epochs=0))
    assert history.records == []


def test_train_deterministic():
    data, L = small_problem()
    cfg = small_config(mode="vector", seed=3)
    b1, h1 = train(data, L, cfg)
    b2, h2 = train(data, L, cfg)
    assert h1.records == h2.records
    for (_, p1), (_, p2) in zip(b1.named_params(), b2.named_params()):
        assert (p1.data == p2.data).all()


def test_train_infogan_alignment_columns_zero():
    data, L = small_problem()
    _, history = train(data, L, small_config(mode="infogan"))
    assert all(v == 0.0 for v in history.column("align_loss"))
    assert all(v == 0.0 for v in history.column("penalty"))


@pytest.mark.parametrize("mode", ["encoder", "vector"])
def test_alignment_steps_use_own_votes_and_move_align_params(monkeypatch, mode):
    # spy on one epoch: the rows and votes that reach alignment_loss, and the
    # order in which the optimizers step
    data, L = small_problem()
    real_loss, real_step = wsgan.alignment_loss, ad.Adam.step
    calls, events, moved = [], [], []

    def spy_loss(bundle, x_batch, votes_batch, epoch):
        calls.append((x_batch.copy(), votes_batch.copy()))
        events.append("loss")
        return real_loss(bundle, x_batch, votes_batch, epoch)

    def spy_step(opt, loss):
        after_loss = events[-1:] == ["loss"]
        before = [p.data.copy() for p in opt.params]
        real_step(opt, loss)
        events.append(opt)
        if after_loss:
            moved.append([not np.array_equal(b, p.data) for b, p in zip(before, opt.params)])

    monkeypatch.setattr(wsgan, "alignment_loss", spy_loss)
    monkeypatch.setattr(ad.Adam, "step", spy_step)
    bundle, _ = train(data, L, small_config(mode=mode, epochs=1, batch_size=4))

    row_of = {row.tobytes(): i for i, row in enumerate(data.features)}
    rows = []
    for x_batch, votes_batch in calls:
        batch_rows = [row_of[row.tobytes()] for row in x_batch]
        assert np.array_equal(votes_batch, L.votes[batch_rows])  # each row's own votes
        rows += batch_rows
    assert sorted(rows) == np.flatnonzero((L.votes != 0).any(axis=1)).tolist()  # every covered row, once

    # per batch: D, G and info steps, then one alignment step if and only if alignment_loss ran
    names = {id(bundle.opt_disc): "d", id(bundle.opt_gen): "g", id(bundle.opt_info): "info",
             id(bundle.opt_align): "align"}
    batches = " ".join(e if e == "loss" else names[id(e)] for e in events).replace(" d ", "\nd ").splitlines()
    assert set(batches) <= {"d g info", "d g info loss align"}
    assert len(moved) == len(calls) > 0
    assert [id(p) for p in bundle.opt_align.params] == [id(p) for p in bundle.align_params()]
    assert all(all(step) for step in moved)  # each alignment step moves every align_params() tensor


def test_encoder_zero_align_weight_reproduces_infogan_bitwise():
    data, L = small_problem(n=50)
    cfg_e = small_config(mode="encoder", align_weight=0.0, seed=13, epochs=3)
    cfg_i = small_config(mode="infogan", seed=13, epochs=3)
    be, he = train(data, L, cfg_e)
    bi, hi = train(data, L, cfg_i)
    for col in ("d_loss", "g_loss", "info_loss"):
        assert he.column(col) == hi.column(col)
    for (_, pe), (_, pi) in zip(be.named_params(), bi.named_params()):
        assert (pe.data == pi.data).all()


def test_train_input_validation():
    data, L = small_problem()
    with pytest.raises(TrainingError):
        train(data, L.votes[:10], small_config())  # row mismatch
    bad = dataclasses.replace(data, features=np.full_like(data.features, np.nan))
    with pytest.raises(TrainingError):
        train(bad, L, small_config())
    empty = L.votes.copy()
    empty[:] = 0
    with pytest.raises(TrainingError):
        train(data, empty, small_config(mode="encoder"))
    no_lfs = np.zeros((data.features.shape[0], 0), dtype=int)
    for mode in ("encoder", "infogan"):
        with pytest.raises(TrainingError):
            train(data, no_lfs, small_config(mode=mode))


def test_one_config_trains_problems_of_any_size():
    # the networks take C from the dataset spec, m from the votes and d from the features
    config = TrainingConfig(epochs=1, z_dim=4, hidden_dim=8, batch_size=16)
    for C, m, d in ((3, 4, 2), (4, 6, 3)):
        spec = DatasetSpec(class_count=C, feature_dim=d, num_samples=60, radius=3.0, sigma=0.5, seed=C)
        data = synth_dataset(spec)
        specs = [LfSpec(1 + j % C, 0.8, 0.15, seed=j) for j in range(m)]
        L = generate_synthetic_lfs(data.labels, specs, C)
        bundle, history = train(data, L, config)
        assert (bundle.class_count, bundle.num_lfs, bundle.feature_dim) == (C, m, d)
        params = dict(bundle.named_params())
        assert params["code_head.b"].data.shape == (C,)
        assert params["weight_vector"].data.shape == (m,)
        assert params["trunk.0.w"].data.shape[0] == d
        assert len(history.records) == 1 and all(np.isfinite(v) for v in history.records[0])
        assert pseudolabel_table(bundle, data.features, L).probs.shape == (60, C)
        assert generate_samples(bundle, 5)[0].shape == (5, d)


def test_history_csv_format(tmp_path):
    data, L = small_problem()
    _, history = train(data, L, small_config())
    path = history.save_csv(tmp_path / "h.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "0"
    float(cells[1])  # parses


def test_diverged_error_names_term_and_epoch():
    err = TrainingDivergedError("d_loss", 4, float("nan"))
    assert "d_loss" in str(err) and "4" in str(err)


@pytest.mark.parametrize("loss_name, term", [("binary_cross_entropy", "d_loss"), ("generator_loss", "g_loss"),
                                             ("info_loss", "info_loss"), ("alignment_loss", "align_loss")])
def test_train_raises_on_a_non_finite_step_loss(monkeypatch, loss_name, term):
    # each step's loss turns NaN once epoch 0's history metrics have run
    data, L = small_problem()
    real_loss, real_metrics = getattr(wsgan, loss_name), wsgan._epoch_metrics
    epochs_done = []

    def counting_metrics(*args):
        epochs_done.append(True)
        return real_metrics(*args)

    def poisoned(*args):
        out = real_loss(*args)
        if not epochs_done:
            return out
        if isinstance(out, tuple):  # alignment_loss returns (loss, parts)
            return ad.scale(out[0], np.nan), out[1]
        return ad.scale(out, np.nan)

    monkeypatch.setattr(wsgan, "_epoch_metrics", counting_metrics)
    monkeypatch.setattr(wsgan, loss_name, poisoned)
    with pytest.raises(TrainingDivergedError) as info:
        train(data, L, small_config(mode="encoder", epochs=3))
    assert (info.value.term, info.value.epoch) == (term, 1)
    assert np.isnan(info.value.value)


# ---------------------------------------------------------------------------
# prediction and generation


def test_predict_routes_lf_vs_synthetic():
    data, L = small_problem()
    bundle, _ = train(data, L, small_config())
    covered = np.flatnonzero((L.votes != 0).any(axis=1))[0]
    table = pseudolabel_table(bundle, data.features[covered : covered + 1], L.votes[covered : covered + 1])
    assert table.covered.tolist() == [True]  # the LF route
    with ad.no_grad():
        if bundle.config.mode == "vector":
            w = 1 / (1 + np.exp(-bundle.weight_vector.data))
        else:
            w = bundle.lf_weights(bundle.features(Tensor(data.features[covered : covered + 1]))).data[0]
    want = weighted_softmax_posterior(L.votes[covered : covered + 1], w, 3)
    assert np.allclose(table.probs[0], want[0], atol=1e-12)
    table2 = pseudolabel_table(bundle, data.features[:1], np.zeros((1, 4), dtype=int))
    assert table2.covered.tolist() == [False]  # the synthetic route
    assert np.isclose(table2.probs[0].sum(), 1.0)


def test_pseudolabel_table_partitions_by_coverage():
    data, L = small_problem()
    bundle, _ = train(data, L, small_config())
    table = pseudolabel_table(bundle, data.features, L)
    covered = (L.votes != 0).any(axis=1)
    assert (table.covered == covered).all()
    assert covered.any() and not covered.all()  # both routes run
    assert np.allclose(table.probs.sum(axis=1), 1.0)
    # batch path agrees with the single-row path
    i = int(np.flatnonzero(covered)[3])
    single = pseudolabel_table(bundle, data.features[i : i + 1], L.votes[i : i + 1])
    assert np.allclose(table.probs[i], single.probs[0], atol=1e-12)


@pytest.mark.parametrize("mode", ["encoder", "vector"])
def test_pseudolabel_table_is_equivariant_under_lf_permutation(mode):
    # permuting the vote columns, and the weight head's outputs or the weight
    # vector alike, leaves every posterior where it was
    data, L = small_problem()
    bundle, _ = train(data, L, small_config(mode=mode))
    want = pseudolabel_table(bundle, data.features, L.votes).probs
    head, vector = bundle.weight_head, bundle.weight_vector
    w, b, v = head.w.data, head.b.data, vector.data
    rng = np.random.default_rng(0)
    for _ in range(20):
        sigma = rng.permutation(L.votes.shape[1])
        head.w.data, head.b.data, vector.data = w[:, sigma], b[sigma], v[sigma]
        got = pseudolabel_table(bundle, data.features, L.votes[:, sigma]).probs
        assert np.abs(got - want).max() <= 1e-12
    head.w.data, head.b.data, vector.data = w, b, v
    moved = pseudolabel_table(bundle, data.features, L.votes[:, sigma]).probs
    assert np.abs(moved - want).max() > 1e-6  # the votes alone, permuted, do move the posteriors


def test_generate_samples_deterministic_and_fixed_class():
    bundle = small_bundle(0)
    xa, ca = generate_samples(bundle, 20, seed=5)
    xb, cb = generate_samples(bundle, 20, seed=5)
    assert (xa == xb).all() and (ca == cb).all()
    xc, cc = generate_samples(bundle, 20, seed=6)
    assert (xa != xc).any()
    xf, cf = generate_samples(bundle, 10, seed=5, class_id=2)
    assert (cf == 2).all()
    x0, c0 = generate_samples(bundle, 0)
    assert x0.shape == (0, 2) and c0.shape == (0,)
    with pytest.raises(TrainingError):
        generate_samples(bundle, 5, class_id=9)


# ---------------------------------------------------------------------------
# balance and augmentation


def test_class_balance_check():
    ok = class_balance_check(np.array([1, 1, 2, 2, 3, 3]), 3)
    assert ok.passed and ok.ratio == 1.0
    skew = class_balance_check(np.array([1] * 50 + [2] * 8 + [3] * 2), 3)
    assert not skew.passed and skew.ratio > 5.0
    missing = class_balance_check(np.array([1, 1, 2, 2]), 3)
    assert not missing.passed and missing.missing == [3]
    with pytest.raises(TrainingError):
        class_balance_check(np.array([1, 2]), 3)


def test_augment_appends_and_reports_balance():
    data, L = small_problem(n=80)
    bundle, _ = train(data, L, small_config(epochs=1))
    base_y = data.labels
    result = augment_dataset(bundle, data.features, base_y, 0)
    assert result.balance is None
    assert result.features.shape == data.features.shape


@pytest.mark.parametrize("mode", ["synthetic_pl", "lf_pl"])
def test_augment_appends_generated_points_with_their_pseudolabels(mode):
    bundle = small_bundle(0)
    bundle.code_to_label.w.data[:] = 1000 * np.eye(3)  # the code route labels by the code head's argmax
    base_x, base_y = np.zeros((5, 2)), np.array([1, 2, 3, 1, 2])

    def applicator(features, rng):  # LF j votes class j % 3 + 1 on about 30% of the points
        return np.where(rng.random((features.shape[0], 4)) < 0.3, np.arange(4) % 3 + 1, 0)

    n, seed = 60, 1
    result = augment_dataset(bundle, base_x, base_y, n, lf_applicator=applicator if mode == "lf_pl" else None,
                             seed=seed)
    feats, _codes = generate_samples(bundle, n, seed=seed)
    votes = applicator(feats, np.random.default_rng((seed, 1))) if mode == "lf_pl" else None
    labels = crisp_labels(pseudolabel_table(bundle, feats, votes))
    assert result.balance.passed
    assert (result.features == np.concatenate([base_x, feats])).all()
    assert (result.labels == np.concatenate([base_y, labels])).all()


def test_augment_rejects_collapsed_labels():
    bundle = small_bundle(0)
    bundle.code_to_label.b.data[:] = np.array([50.0, 0.0, 0.0])  # force class 1 always
    x = np.zeros((10, 2))
    y = np.array([1, 2, 3] * 3 + [1])
    with pytest.raises(AugmentationRejectedError) as exc:
        augment_dataset(bundle, x, y, 30, seed=0)
    assert exc.value.report.missing  # classes absent entirely


def test_augment_lf_pl_uses_applicator():
    data, L = small_problem(n=80)
    bundle, _ = train(data, L, small_config(epochs=1))
    calls = {}

    def applicator(features, rng):
        calls["n"] = features.shape[0]
        votes = np.zeros((features.shape[0], 4), dtype=int)
        votes[:, 0] = rng.integers(1, 4, size=features.shape[0])
        return votes

    result = augment_dataset(bundle, data.features, data.labels, 24, lf_applicator=applicator, seed=1)
    assert calls["n"] == 24
    assert result.features.shape[0] == 80 + 24


def test_augment_bad_applicator_shape():
    data, L = small_problem(n=30)
    bundle = small_bundle(0)
    with pytest.raises(TrainingError):
        augment_dataset(
            bundle, data.features, data.labels, 5, lf_applicator=lambda f, r: np.zeros((3, 2), int)
        )


# ---------------------------------------------------------------------------
# checkpointing


def test_bundle_roundtrip_bitwise(tmp_path):
    data, L = small_problem()
    bundle, _ = train(data, L, small_config(mode="encoder"))
    loaded = load_bundle(save_bundle(bundle, tmp_path / "ckpt.json"))
    assert loaded.config == bundle.config
    assert (loaded.class_count, loaded.num_lfs, loaded.feature_dim) == (3, 4, 2)
    for (na, pa), (nb, pb) in zip(bundle.named_params(), loaded.named_params()):
        assert na == nb and (pa.data == pb.data).all()
    # predictions are reproduced exactly
    t1 = pseudolabel_table(bundle, data.features, L)
    t2 = pseudolabel_table(loaded, data.features, L)
    assert (t1.probs == t2.probs).all()


def test_load_rejects_bad_version_and_shape(tmp_path):
    bundle = small_bundle(0)
    path = save_bundle(bundle, tmp_path / "c.json")
    with open(path) as fh:
        payload = json.load(fh)
    payload["format_version"] = 99
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(DataError):
        load_bundle(path)
    older = {1: {"config": {**payload["config"], "class_count": 3}},  # version 1 stored the network sizes
             2: {"rng_state": None}}  # version 2 had a slot for an RNG state
    for version, changes in older.items():
        path.write_text(json.dumps({**payload, **changes, "format_version": version}))
        with pytest.raises(DataError, match=rf"c\.json: unsupported format_version {version}, expected 3"):
            load_bundle(path)
    payload["format_version"] = 3
    payload["params"]["weight_vector"] = [0.0, 0.0]  # wrong length
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(TrainingError):
        load_bundle(path)


@pytest.mark.parametrize("change", ["missing", "unknown", "missing-size"])
def test_load_rejects_missing_or_unknown_param(tmp_path, change):
    bundle = small_bundle(0)
    path = save_bundle(bundle, tmp_path / "c.json")
    payload = json.loads(path.read_text())
    if change == "missing":
        del payload["params"]["trunk.0.b"]
    elif change == "missing-size":  # a parameter the network sizes are read from
        del payload["params"]["trunk.0.w"]
    else:
        payload["params"]["trunk.9.w"] = [[0.0]]
    path.write_text(json.dumps(payload))
    with pytest.raises(TrainingError, match=r"trunk\.[09]\.[bw]"):
        load_bundle(path)
