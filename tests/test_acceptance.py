"""Acceptance gate: twelve criteria, one recorded pass/fail line each.

Criteria 1-9 are exact property suites (gradients, label-model equivalence,
EM monotonicity, LF fidelity, bound verification, metric identities, the
zero-alignment equivalence run).  Criteria 10-12 run the default multi-seed
benchmark once (shared module fixture) and check the expected orderings,
the augmentation deltas, and byte-level determinism.
"""
import dataclasses
import itertools
import json
import math
import time
import warnings

import numpy as np
import pytest

import wsganlab.autodiff as ad
from wsganlab.autodiff import Tensor, check_gradients_params
from wsganlab.cli import main as cli_main
from wsganlab.data import DatasetSpec, load_dataset, synth_dataset
from wsganlab.harness import (
    ExperimentConfig,
    LfPlan,
    TheoryGridConfig,
    default_benchmark_config,
    derive_seed,
    read_csv,
    run_augmentation,
    run_benchmark,
)
from wsganlab.labelmodel import (
    LabelMatrix,
    dawid_skene_fit,
    generate_synthetic_lfs,
    load_label_matrix,
    majority_vote,
    weighted_softmax_posterior,
)
from wsganlab.metrics import (
    ClassifierConfig,
    adjusted_rand_index,
    average_precision,
    frechet_from_moments,
)
from wsganlab.nn import one_hot
from wsganlab.theory import (
    hellinger_tv_entry,
    min_lfs,
    min_lfs_entry,
    mv_bound_entry,
    mv_error_bound,
    mv_error_exact,
    verify_rcgan_tv_chain,
    random_finite_joint,
)
from wsganlab.wsgan import (
    ModelBundle,
    TrainingConfig,
    alignment_loss,
    binary_cross_entropy,
    cross_entropy,
    generator_loss,
    train,
    weighted_posterior_tensor,
)

BATCH = 4  # gradient-suite batch size


# ---------------------------------------------------------------------------
# shared default-benchmark run (criteria 3, 9, 10, 11)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_benchmark")
    config = default_benchmark_config()
    t0 = time.perf_counter()
    manifest = run_benchmark(config, out)
    elapsed = time.perf_counter() - t0
    return config, out, manifest, elapsed


def _per_seed_means(out):
    header, rows = read_csv(out / "per_seed.csv")
    metrics = header[2:]
    acc = {}
    for row in rows:
        acc.setdefault(row[1], []).append([float(v) for v in row[2:]])
    return {model: dict(zip(metrics, np.mean(vals, axis=0))) for model, vals in acc.items()}


# ---------------------------------------------------------------------------
# criterion 1 — gradient suite


def test_criterion_01_gradient_suite(acceptance):
    t0 = time.perf_counter()
    spec = DatasetSpec(class_count=3, feature_dim=2, num_samples=60, radius=3.0, sigma=0.5, seed=5)
    data = synth_dataset(spec)
    plan = LfPlan(num_lfs=4, accuracy_range=(0.6, 0.85), propensity_range=(0.3, 0.5))
    specs = plan.sample(3, np.random.default_rng(1))
    L = generate_synthetic_lfs(data.labels, specs, 3)
    covered = np.flatnonzero((L.votes != 0).any(axis=1))[:BATCH]
    x_align, votes_align = data.features[covered], L.votes[covered]
    x = data.features[:BATCH]
    rng = np.random.default_rng(2)
    z = rng.standard_normal((BATCH, 4))
    codes = rng.integers(1, 4, size=BATCH)
    worst = 0.0

    def run_suite(name, loss_fn, params):
        nonlocal worst
        report = check_gradients_params(loss_fn, params, step=1e-6)
        worst = max(worst, report.max_rel_error)

    def make_bundle(mode):
        cfg = TrainingConfig(z_dim=4, hidden_dim=8, mode=mode, seed=9)
        return ModelBundle(cfg, 3, 4, 2, np.random.default_rng(9))

    # discriminator value with smoothed targets, generator frozen
    bundle = make_bundle("encoder")
    with ad.no_grad():
        fake = bundle.generate(z, codes).data

    def d_loss():
        real_p = bundle.discriminate(bundle.features(Tensor(x)))
        fake_p = bundle.discriminate(bundle.features(Tensor(fake)))
        return ad.add(
            binary_cross_entropy(real_p, np.full(BATCH, 0.9)),
            binary_cross_entropy(fake_p, np.full(BATCH, 0.1)),
        )

    run_suite("d", d_loss, bundle.disc_params())

    # non-saturating generator objective
    run_suite(
        "g",
        lambda: generator_loss(bundle.discriminate(bundle.features(bundle.generate(z, codes)))),
        bundle.gen_params(),
    )

    # latent-code recovery term
    onehot = one_hot(codes, 3)

    def i_loss():
        probs = bundle.code_posterior(bundle.features(bundle.generate(z, codes)))
        return cross_entropy(probs, Tensor(onehot))

    run_suite("info", i_loss, bundle.info_params())

    # alignment objective incl. penalty; stop-gradient branches frozen as
    # constants so FD probes the same functional the optimizer differentiates
    for mode in ("encoder", "vector"):
        b = make_bundle(mode)
        with ad.no_grad():
            feats0 = b.features(Tensor(x_align)).data
            q0 = b.code_posterior(Tensor(feats0)).data
            if mode == "vector":
                theta0 = 1 / (1 + np.exp(-b.weight_vector.data))
            else:
                theta0 = 1 / (1 + np.exp(-b.weight_head(Tensor(feats0)).data))
            y0 = weighted_softmax_posterior(votes_align, theta0, 3)

        def a_loss(b=b, mode=mode):
            feats = b.features(Tensor(x_align))
            q = b.code_posterior(feats)
            if mode == "vector":
                theta, per_row = ad.sigmoid(b.weight_vector), 1
            else:
                theta, per_row = ad.sigmoid(b.weight_head(Tensor(feats0))), BATCH
            y_hat = weighted_posterior_tensor(votes_align, theta, 3)
            ce1 = cross_entropy(b.label_posterior_from_code(q), Tensor(y0))
            ce2 = cross_entropy(b.code_posterior_from_label(y_hat), Tensor(q0))
            dev = ad.sub(theta, 0.5)
            pen = ad.scale(ad.total(ad.mul(dev, dev)), (3 / (1 * 1.5 + 1.0)) / per_row)
            return ad.add(ad.add(ce1, ce2), pen)

        run_suite(f"align-{mode}", a_loss, b.align_params())

    elapsed = time.perf_counter() - t0
    acceptance(
        1,
        worst <= 1e-4 and elapsed < 60,
        f"all composite losses match central FD on {BATCH}-sample batches; "
        f"max rel err {worst:.2e} <= 1e-4; {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 2 — uniform-weight softmax vs majority vote


@pytest.mark.filterwarnings("ignore::wsganlab.labelmodel.DegenerateLabelMatrixWarning")
def test_criterion_02_labelmodel_equivalence(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    instances = 0
    mismatches = 0
    while instances < 1000:
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 11))
        C = int(rng.integers(2, 6))
        votes = rng.integers(0, C + 1, size=(n, m))
        L = LabelMatrix(votes, C)
        theta = float(rng.uniform(0.55, 0.95))
        soft = weighted_softmax_posterior(votes, np.full(m, theta), C)
        mv = majority_vote(L, C).probs
        covered = (votes != 0).any(axis=1)
        if covered.any():
            # shared tie-break: argmax takes the lowest class index on ties
            mismatches += int((np.argmax(soft[covered], 1) != np.argmax(mv[covered], 1)).sum())
        instances += 1
    elapsed = time.perf_counter() - t0
    acceptance(
        2,
        mismatches == 0 and elapsed < 60,
        f"1000 random LabelMatrix instances (n<=50, m<=10, C<=5): uniform-weight softmax argmax "
        f"= MV winner on every covered row ({mismatches} mismatches); {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 3 — Dawid-Skene monotone likelihood and convergence


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_03_dawid_skene(acceptance, bench):
    _, out, _, _ = bench
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    worst_drop = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 81))
        m = int(rng.integers(2, 9))
        C = int(rng.integers(2, 5))
        votes = rng.integers(0, C + 1, size=(n, m))
        result = dawid_skene_fit(LabelMatrix(votes, C), C, max_iters=60)
        ll = np.asarray(result.log_likelihood)
        if len(ll) > 1:
            worst_drop = max(worst_drop, float(np.max(-np.diff(ll))))
    converged = []
    iterations = []
    for seed in (101, 102, 103):
        result = dawid_skene_fit(load_label_matrix(out / f"seed_{seed}" / "lfs.csv"))
        converged.append(result.converged)
        iterations.append(result.iterations)
    elapsed = time.perf_counter() - t0
    acceptance(
        3,
        worst_drop <= 1e-9 and all(converged) and max(iterations) <= 200 and elapsed < 60,
        f"log-likelihood non-decreasing on 100 random instances (worst drop {worst_drop:.2e} <= 1e-9); "
        f"default benchmark converges in {iterations} iterations (<= 200); {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 4 — synthetic LF fidelity


def test_criterion_04_lf_fidelity(acceptance):
    t0 = time.perf_counter()
    data = synth_dataset(DatasetSpec(num_samples=10000, seed=40))
    specs = LfPlan().sample(4, np.random.default_rng(41))
    L = generate_synthetic_lfs(data.labels, specs, 4)
    worst = 0.0
    for j, spec in enumerate(specs):
        col = L.votes[:, j]
        fired = col != 0
        realized_prop = float(fired.mean())
        realized_acc = float((col[fired] == data.labels[fired]).mean())
        worst = max(worst, abs(realized_prop - spec.propensity), abs(realized_acc - spec.accuracy))
    elapsed = time.perf_counter() - t0
    acceptance(
        4,
        worst <= 0.02 and elapsed < 10,
        f"n=10000: realized accuracy and propensity within +/-0.02 for all {len(specs)} LFs "
        f"(worst deviation {worst:.4f}); {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# criterion 5 — majority-vote bound grid


def test_criterion_05_mv_bound_grid(acceptance):
    t0 = time.perf_counter()
    grid = TheoryGridConfig()
    entries = []
    for m in grid.m_values:
        for alpha in grid.alpha_values:
            entries.append(mv_bound_entry(m, alpha, trials=100_000, seed=derive_seed(grid.seed, m, int(alpha * 1000))))
    grid_ok = all(e.passed for e in entries)
    min_entries = [min_lfs_entry(eps) for eps in (0.1, 0.2, 0.3, 0.4)]
    min_ok = all(e.passed for e in min_entries)
    spot = (
        min_lfs(0.25) == 12
        and abs(mv_error_bound(12, 0.25) - math.exp(-1.5)) < 1e-15
        and mv_error_exact(12, 0.25) <= 0.25
    )
    elapsed = time.perf_counter() - t0
    acceptance(
        5,
        grid_ok and min_ok and spot and elapsed < 120,
        f"default grid ({len(entries)} cells): exact <= exp(-2m a^2) and 100k-trial MC within 3 SE; "
        f"exact error <= eps at m=min_lfs(eps) for eps in 0.1..0.4; min_lfs(0.25)=12 with bound "
        f"exp(-1.5)={math.exp(-1.5):.4f}; {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# criterion 6 — TV chain on random finite joints


def test_criterion_06_tv_chain(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    eps_grid = [round(0.05 * k, 2) for k in range(1, 10)]  # 0.05 .. 0.45
    eps_lambdas = (0.1, 0.2, 0.3, 0.4)
    violations = 0
    chains = 0
    for j in range(200):
        support = int(rng.integers(2, 33))
        P = random_finite_joint(rng, support)
        Q = random_finite_joint(rng, support)
        eps_lambda = eps_lambdas[j % len(eps_lambdas)]
        with_mv = (min_lfs(eps_lambda), eps_lambda)
        for eps in eps_grid:
            entry = verify_rcgan_tv_chain(P, Q, eps, with_mv=with_mv, tol=1e-12)
            chains += 1
            if not entry.passed:
                violations += 1
            names = [c.name for c in entry.checks]
            assert "Hoeffding multiplier <= single-LF multiplier" in names
    elapsed = time.perf_counter() - t0
    acceptance(
        6,
        violations == 0 and elapsed < 60,
        f"200 joints (support <= 32) x eps in {{0.05..0.45}}: {chains} full chains incl. the "
        f"Hoeffding-vs-single-LF multiplier comparison, {violations} violations at 1e-12; "
        f"{elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 7 — Hellinger/TV readings


def test_criterion_07_hellinger(acceptance):
    t0 = time.perf_counter()
    entry = hellinger_tv_entry(num_pairs=1000, max_support=32, seed=7)
    q = entry.quantities
    chain_clean = q["violations_chain_lower"] == 0 and q["violations_chain_upper"] == 0
    states_verdict = "holds" in entry.notes or "violated" in entry.notes
    elapsed = time.perf_counter() - t0
    acceptance(
        7,
        entry.passed and chain_clean and states_verdict and elapsed < 30,
        f"1000 pairs, both readings evaluated; report: {entry.notes!r}; squared-convention chain "
        f"violations (lower={q['violations_chain_lower']}, upper={q['violations_chain_upper']}); "
        f"{elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# criterion 8 — metric identities


def _ap_by_threshold_enumeration(scores, positives):
    order = np.argsort(-scores, kind="stable")
    s, p = scores[order], positives[order]
    total_pos = int(p.sum())
    ap = 0.0
    prev_recall = 0.0
    for t in np.unique(-s):
        taken = s >= -t
        tp = int(p[taken].sum())
        precision = tp / int(taken.sum())
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_criterion_08_metric_identities(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(80)
    ari_bad = 0
    for _ in range(1000):
        n = int(rng.integers(5, 60))
        ka, kb = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.integers(0, ka, size=n)
        b = rng.integers(0, kb, size=n)
        perm = rng.permutation(kb)
        if not np.isclose(adjusted_rand_index(a, b), adjusted_rand_index(a, perm[b]), atol=1e-12):
            ari_bad += 1

    mu = np.zeros(3)
    eye = np.eye(3)
    offset = mu.copy()
    offset[0] += 1.0
    frechet_errs = [
        abs(frechet_from_moments(mu, eye, mu, eye) - 0.0),
        abs(frechet_from_moments(mu, eye, offset, eye) - 1.0),
        abs(frechet_from_moments(np.zeros(1), np.eye(1), np.zeros(1), 4.0 * np.eye(1)) - 1.0),
    ]

    ap_bad = 0
    for _ in range(50):
        n = int(rng.integers(4, 25))
        scores = rng.choice([0.1, 0.25, 0.5, 0.7, 0.9], size=n)  # ties likely
        positives = rng.random(n) < 0.4
        if not positives.any():
            positives[int(rng.integers(n))] = True
        if not np.isclose(average_precision(scores, positives), _ap_by_threshold_enumeration(scores, positives), atol=1e-12):
            ap_bad += 1
    elapsed = time.perf_counter() - t0
    acceptance(
        8,
        ari_bad == 0 and max(frechet_errs) <= 1e-8 and ap_bad == 0 and elapsed < 60,
        f"ARI permutation-invariant on 1000 pairs ({ari_bad} failures); Frechet closed forms within "
        f"1e-8 (max err {max(frechet_errs):.2e}); AP matches threshold enumeration on 50 instances "
        f"({ap_bad} mismatches); {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 9 — zero-alignment equivalence


def test_criterion_09_equivalence_run(acceptance, bench):
    config, out, _, _ = bench
    t0 = time.perf_counter()
    data = load_dataset(out / "seed_101" / "dataset.csv")
    L = load_label_matrix(out / "seed_101" / "lfs.csv")
    base = dataclasses.replace(config.training, epochs=5, seed=777)
    _, h_enc = train(data, L, dataclasses.replace(base, mode="encoder", align_weight=0.0))
    _, h_info = train(data, L, dataclasses.replace(base, mode="infogan"))
    identical = all(h_enc.column(c) == h_info.column(c) for c in ("d_loss", "g_loss", "info_loss"))
    elapsed = time.perf_counter() - t0
    acceptance(
        9,
        identical and elapsed < 180,
        f"align weight 0: encoder reproduces InfoGAN D/G/info traces bitwise over 5 epochs on the "
        f"default benchmark (shared seed); {elapsed:.1f}s < 180s",
    )


# ---------------------------------------------------------------------------
# criterion 10 — benchmark orderings


def test_criterion_10_benchmark_orderings(acceptance, bench):
    _, out, manifest, elapsed = bench
    means = _per_seed_means(out)
    enc, vec, info, mv = (means[k] for k in ("wsgan_encoder", "wsgan_vector", "infogan", "majority_vote"))
    a = enc["covered_accuracy"] >= mv["covered_accuracy"] + 0.005
    b = enc["covered_accuracy"] >= vec["covered_accuracy"] - 0.005
    c = enc["ari"] >= info["ari"] + 0.10
    d = enc["frechet"] <= info["frechet"] * 1.10
    acceptance(
        10,
        manifest.failures == [] and a and b and c and d and elapsed < 900,
        f"3 seeds x 60 epochs in {elapsed:.0f}s < 900s; (a) encoder acc {enc['covered_accuracy']:.4f} >= "
        f"MV {mv['covered_accuracy']:.4f}+0.005; (b) >= vector {vec['covered_accuracy']:.4f}-0.005; "
        f"(c) ARI {enc['ari']:.3f} >= InfoGAN {info['ari']:.3f}+0.10; "
        f"(d) Frechet {enc['frechet']:.3f} <= {info['frechet']:.3f}x1.10",
    )


# ---------------------------------------------------------------------------
# criterion 11 — augmentation deltas


def test_criterion_11_augmentation(acceptance, bench, tmp_path):
    config, _, manifest, _ = bench
    t0 = time.perf_counter()
    rows = run_augmentation(config, n_synth=1000, out_dir=tmp_path, manifest=manifest)
    by_mode = {}
    balance_ok = True
    for seed, mode, _base, _aug, delta, balance, _n in rows:
        by_mode.setdefault(mode, []).append(delta)
        balance_ok = balance_ok and balance
    mean_deltas = {mode: float(np.mean(v)) for mode, v in by_mode.items()}
    deltas_ok = all(np.isfinite(v) and v >= -0.01 for v in mean_deltas.values())
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{mode} {v * 100:+.2f}pp" for mode, v in sorted(mean_deltas.items()))
    acceptance(
        11,
        set(by_mode) == {"synthetic_pl", "lf_pl"} and deltas_ok and balance_ok and elapsed < 600,
        f"1000 synthetic points, 3-seed mean end-classifier delta >= -1.0pp in both modes ({detail}); "
        f"balance check passing; {elapsed:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# criterion 12 — byte-identical benchmark reruns


def test_criterion_12_determinism(acceptance, tmp_path):
    config = ExperimentConfig(
        dataset=DatasetSpec(class_count=3, feature_dim=2, num_samples=240, radius=3.0, sigma=0.5, seed=0),
        lf_plan=LfPlan(num_lfs=5, accuracy_range=(0.6, 0.85), propensity_range=(0.15, 0.3)),
        training=TrainingConfig(epochs=2, batch_size=16, seed=0),
        seeds=(11,),
        classifier=ClassifierConfig(hidden_dim=8, epochs=3, batch_size=32, seed=0),
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(config)))
    for name in ("r1", "r2"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert cli_main(["benchmark", "--config", str(cfg_path), "--out", str(tmp_path), "--dir-name", name]) == 0
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    rel_csvs = sorted(p.relative_to(r1) for p in r1.rglob("*.csv"))
    assert rel_csvs == sorted(p.relative_to(r2) for p in r2.rglob("*.csv"))
    differing = [str(rel) for rel in rel_csvs if (r1 / rel).read_bytes() != (r2 / rel).read_bytes()]
    acceptance(
        12,
        len(rel_csvs) > 0 and differing == [],
        f"`benchmark` with a fixed config and seed: {len(rel_csvs)} CSV files byte-identical across "
        f"two runs ({len(differing)} differ)",
    )
