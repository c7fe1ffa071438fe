"""Experiment orchestration: the desk benchmark (majority vote, Dawid-Skene,
InfoGAN, and the two WSGAN modes over several seeds), the numerical theory
suite, and the augmentation study.  All runs derive their randomness from one
experiment seed through named streams, and all CSV cells are written with
repr() so identical configs produce byte-identical outputs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    DatasetSpec,
    nearest_prototype_labels,
    read_csv,
    save_dataset,
    synth_dataset,
    write_csv,
    write_json,
)
from .labelmodel import (
    LfSpec,
    crisp_labels,
    dawid_skene_fit,
    generate_synthetic_lfs,
    majority_vote,
    save_label_matrix,
)
from .metrics import (
    ClassifierConfig,
    frechet_gaussian_distance,
    pseudolabel_accuracy,
    train_eval_classifier,
    weighted_f1,
    weighted_map,
)
from .theory import (
    TheoryError,
    TheoryReport,
    generalization_bound_entry,
    hellinger_tv_entry,
    min_lfs,
    min_lfs_entry,
    mv_bound_entry,
    random_finite_joint,
    verify_rcgan_tv_chain,
)
from .wsgan import (
    HISTORY_COLUMNS,
    AugmentationRejectedError,
    TrainingConfig,
    augment_dataset,
    generate_samples,
    load_bundle,
    pseudolabel_table,
    save_bundle,
    train,
)

__all__ = [
    "HarnessError",
    "LfPlan",
    "ExperimentConfig",
    "TheoryGridConfig",
    "default_benchmark_config",
    "config_hash",
    "derive_seed",
    "RunManifest",
    "run_benchmark",
    "summarize_rows",
    "run_theory_suite",
    "run_augmentation",
    "verify_benchmark_dir",
    "BENCHMARK_MODELS",
    "METRIC_NAMES",
]


class HarnessError(Exception):
    pass


BENCHMARK_MODELS = ("majority_vote", "dawid_skene", "infogan", "wsgan_vector", "wsgan_encoder")
METRIC_NAMES = ("covered_accuracy", "weighted_f1", "weighted_map", "ari", "frechet")

# named RNG streams hanging off each run seed
_STREAM_DATA = 0
_STREAM_LF = 1
_STREAM_TRAIN = 2
_STREAM_CLASSIFIER = 3
_STREAM_AUG = 4
_STREAM_TEST = 5
_STREAM_GEN = 6


def derive_seed(*keys: int) -> int:
    """Stable child seed from a tuple of integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass(frozen=True)
class LfPlan:
    """Recipe for sampling a family of labeling functions per run seed."""

    num_lfs: int = 12
    accuracy_range: tuple[float, float] = (0.55, 0.9)
    propensity_range: tuple[float, float] = (0.1, 0.3)

    def __post_init__(self):
        if self.num_lfs < 1:
            raise HarnessError("num_lfs must be >= 1")
        for lo, hi in (self.accuracy_range, self.propensity_range):
            if not (0 < lo <= hi <= 1):
                raise HarnessError("ranges must satisfy 0 < lo <= hi <= 1")

    def sample(self, class_count: int, rng: np.random.Generator) -> list[LfSpec]:
        """Draw target class, accuracy, propensity, and a vote seed per LF.

        (accuracy, propensity) pairs are redrawn until accuracy*propensity
        <= 0.9/class_count, so the exact-count vote construction stays
        feasible on roughly class-balanced data.
        """
        cap = 0.9 / class_count
        specs = []
        for _ in range(self.num_lfs):
            target = int(rng.integers(1, class_count + 1))
            for _attempt in range(1000):
                acc = float(rng.uniform(*self.accuracy_range))
                prop = float(rng.uniform(*self.propensity_range))
                if acc * prop <= cap:
                    break
            else:
                raise HarnessError(
                    f"no feasible (accuracy, propensity) under cap {cap:.3f}; narrow the plan ranges"
                )
            acc = max(acc, 1.0 / class_count + 1e-6)  # keep better-than-chance
            specs.append(LfSpec(target_class=target, accuracy=acc, propensity=prop, seed=int(rng.integers(2**31))))
        return specs


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = DatasetSpec()
    lf_plan: LfPlan = LfPlan()
    training: TrainingConfig = TrainingConfig()
    seeds: tuple[int, ...] = (101, 102, 103)
    metrics: tuple[str, ...] = METRIC_NAMES
    classifier: ClassifierConfig = ClassifierConfig()

    def __post_init__(self):
        if not self.seeds:
            raise HarnessError("need at least one seed")
        bad = [m for m in self.metrics if m not in METRIC_NAMES]
        if bad:
            raise HarnessError(f"unknown metrics {bad}; choose from {METRIC_NAMES}")


def default_benchmark_config() -> ExperimentConfig:
    """The desk benchmark: 4 Gaussian blobs in 2-D, 12 LFs, 3 seeds."""
    return ExperimentConfig()


def config_hash(config) -> str:
    canon = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# benchmark


@dataclass
class RunManifest:
    """A benchmark run's record.  In `manifest.json` the `files` and
    `checkpoints` paths are relative to the manifest's own directory."""

    format_version: int
    config_hash: str
    version: str
    seeds: list[int]
    files: dict[str, str] = field(default_factory=dict)
    checkpoints: dict[str, str] = field(default_factory=dict)
    wall_times: dict[str, float] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    def resolved(self, base) -> RunManifest:
        """This manifest with its file and checkpoint paths joined onto the directory `base`."""
        return dataclasses.replace(self, files={k: str(Path(base, v)) for k, v in self.files.items()},
                                   checkpoints={k: str(Path(base, v)) for k, v in self.checkpoints.items()})


_N_GEN = 1000  # sample count for the generated-vs-real Gaussian distance


def _metric_row(seed, model, table, ari_value, data: Dataset, gen_feats, config) -> list:
    """One benchmark row; NaN marks metrics a model does not define."""
    labels = np.asarray(data.labels)
    values = {name: float("nan") for name in METRIC_NAMES}
    covered = table.covered
    if covered.any():
        values["covered_accuracy"] = pseudolabel_accuracy(table, labels)
        preds = crisp_labels(table)[covered]
        values["weighted_f1"] = weighted_f1(preds, labels[covered])
        values["weighted_map"] = weighted_map(table, labels)
    if ari_value is not None:
        values["ari"] = ari_value
    if gen_feats is not None:
        values["frechet"] = frechet_gaussian_distance(data.features, gen_feats)
    return [seed, model] + [values[m] for m in config.metrics]


def _seed_inputs(config: ExperimentConfig, seed: int) -> tuple:
    """One run seed's dataset, LF specs and label matrix, each from its own stream."""
    data = synth_dataset(dataclasses.replace(config.dataset, seed=derive_seed(seed, _STREAM_DATA)))
    lf_rng = np.random.default_rng(derive_seed(seed, _STREAM_LF))
    specs = config.lf_plan.sample(config.dataset.class_count, lf_rng)
    L = generate_synthetic_lfs(data.labels, specs, config.dataset.class_count)
    return data, specs, L


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _recording_warnings(fn, *args) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _map_units(fn, jobs: list) -> list:
    """``[fn(*job) for job in jobs]``, in job order.

    With more than one job and more than one usable CPU, the jobs run in a
    pool of forked worker processes, one per CPU up to the job count.  Forked
    workers inherit the loaded package and the caller's BLAS thread settings.
    A worker's warnings are raised again here, under the caller's filters, in
    job order.  Every worker is joined before this returns.
    """
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(*job) for job in jobs]
    # imported here, so that importing the package does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_recording_warnings, fn, *job) for job in jobs]
        results, registry = [], {}
        for future in futures:
            result, caught = future.result()
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            results.append(result)
        return results
    finally:
        pool.shutdown(cancel_futures=True)


_GAN_MODELS = (("infogan", "infogan"), ("wsgan_vector", "vector"), ("wsgan_encoder", "encoder"))


def _training_config(config: ExperimentConfig, seed: int, mode: str) -> TrainingConfig:
    # every mode of a run seed trains from the same seed, for pairing
    return dataclasses.replace(config.training, mode=mode, seed=derive_seed(seed, _STREAM_TRAIN))


def _gan_unit(config: ExperimentConfig, seed: int, model: str, mode: str, out_dir: Path) -> tuple:
    """Train one GAN model on one run seed, write its history and checkpoint
    under `out_dir`, and score it.  Returns (row, wall time, checkpoint path
    relative to `out_dir`, error).  A failed training gives a NaN row, no time
    or path, and the error's repr: data, so it crosses a process boundary
    whatever the exception type.
    """
    data, _specs, L = _seed_inputs(config, seed)
    t0 = time.perf_counter()
    try:
        bundle, history = train(data, L, _training_config(config, seed, mode))
    except Exception as exc:  # keep the sweep alive
        return [seed, model] + [float("nan")] * len(config.metrics), None, None, repr(exc)
    wall = time.perf_counter() - t0
    history.save_csv(out_dir / f"seed_{seed}/history_{model}.csv")
    ckpt = f"seed_{seed}/checkpoint_{model}.json"
    save_bundle(bundle, out_dir / ckpt)
    table = pseudolabel_table(bundle, data.features, L)
    gen_feats, _codes = generate_samples(bundle, _N_GEN, seed=derive_seed(seed, _STREAM_GEN))
    ari = history.records[-1][HISTORY_COLUMNS.index("ari")] if history.records else float("nan")
    return _metric_row(seed, model, table, ari, data, gen_feats, config), wall, ckpt, None


def run_benchmark(config: ExperimentConfig, out_dir) -> RunManifest:
    """Train every model on every seed; write per-seed rows, the mean/std
    summary, training histories, checkpoints, and a manifest.

    The label models run here; each (seed, GAN model) training is one unit of
    `_map_units`.  A failed model run is recorded in manifest.failures and
    leaves NaN rows; remaining runs continue.  The returned manifest's paths
    are joined onto `out_dir`; `manifest.json` stores them relative to it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(format_version=1, config_hash=config_hash(config), version=__version__,
                           seeds=list(config.seeds))
    C = config.dataset.class_count
    label_results = []  # per seed: (model, row, wall time, checkpoint, error), as _gan_unit gives them
    for seed in config.seeds:
        seed_dir = out_dir / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        data, _specs, L = _seed_inputs(config, seed)
        save_dataset(data, seed_dir / "dataset.csv")
        save_label_matrix(L, seed_dir / "lfs.csv")
        mv_row = _metric_row(seed, "majority_vote", majority_vote(L, C), None, data, None, config)
        try:
            ds = dawid_skene_fit(L, C)
            ds_row, ds_error = _metric_row(seed, "dawid_skene", ds.posteriors, None, data, None, config), None
        except Exception as exc:  # keep the sweep alive
            ds_row, ds_error = [seed, "dawid_skene"] + [float("nan")] * len(config.metrics), repr(exc)
        label_results.append([("majority_vote", mv_row, None, None, None),
                              ("dawid_skene", ds_row, None, None, ds_error)])

    jobs = [(config, seed, model, mode, out_dir) for seed in config.seeds for model, mode in _GAN_MODELS]
    gan_results = iter(_map_units(_gan_unit, jobs))
    rows = []
    for seed, results in zip(config.seeds, label_results):
        results += [(model, *next(gan_results)) for model, _mode in _GAN_MODELS]
        for model, row, wall, ckpt, error in results:
            rows.append(row)
            if error is not None:
                manifest.failures.append({"seed": seed, "model": model, "error": error})
            if wall is not None:
                manifest.wall_times[f"{model}_seed{seed}"] = wall
                manifest.checkpoints[f"{model}_seed{seed}"] = ckpt

    write_csv(out_dir / "per_seed.csv", ["seed", "model"] + list(config.metrics), rows)
    write_csv(out_dir / "summary.csv", ["model", "metric", "mean", "std"], summarize_rows(rows, config.metrics))
    write_json(out_dir / "config.json", config, sort_keys=True)
    manifest.files = {"per_seed": "per_seed.csv", "summary": "summary.csv", "config": "config.json"}
    write_json(out_dir / "manifest.json", manifest, sort_keys=True)
    return manifest.resolved(out_dir)


def summarize_rows(rows: list, metrics) -> list:
    """Mean/std (population) per model and metric, in model declaration order."""
    out = []
    for model in BENCHMARK_MODELS:
        model_rows = [r for r in rows if r[1] == model]
        if not model_rows:
            continue
        for j, metric in enumerate(metrics):
            vals = np.array([float(r[2 + j]) for r in model_rows])
            out.append([model, metric, float(np.mean(vals)), float(np.std(vals))])
    return out


def verify_benchmark_dir(out_dir) -> list:
    """Recompute summary.csv from per_seed.csv; return list of mismatches."""
    out_dir = Path(out_dir)
    header, raw_rows = read_csv(out_dir / "per_seed.csv")
    metrics = header[2:]
    rows = [[int(r[0]), r[1]] + [float(v) for v in r[2:]] for r in raw_rows]
    expected = summarize_rows(rows, metrics)
    _, raw_summary = read_csv(out_dir / "summary.csv")
    mismatches = []
    if len(raw_summary) != len(expected):
        return [f"summary has {len(raw_summary)} rows, recompute gives {len(expected)}"]
    for got, want in zip(raw_summary, expected):
        got_vals = [got[0], got[1], float(got[2]), float(got[3])]
        want_vals = [want[0], want[1], float(want[2]), float(want[3])]
        same = got_vals[:2] == want_vals[:2] and all(
            (np.isnan(g) and np.isnan(w)) or g == w for g, w in zip(got_vals[2:], want_vals[2:])
        )
        if not same:
            mismatches.append(f"row {got} != recomputed {want}")
    return mismatches


# ---------------------------------------------------------------------------
# theory suite


@dataclass(frozen=True)
class TheoryGridConfig:
    m_values: tuple[int, ...] = (3, 7, 15)
    alpha_values: tuple[float, ...] = (0.1, 0.2, 0.3)
    eps_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
    eps_lambda_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
    mc_trials: int = 100_000
    num_joints: int = 50
    max_support: int = 32
    hellinger_pairs: int = 1000
    seed: int = 7


def run_theory_suite(grid: TheoryGridConfig | None = None, out_dir=None) -> TheoryReport:
    """Numerically check every bound on the grid.  Invalid grid points (e.g.
    a vote-error rate at or beyond the 0.49 cutoff) become "rejected_input"
    entries — reported, not fatal — and the run continues.
    """
    grid = grid or TheoryGridConfig()
    report = TheoryReport()

    for m in grid.m_values:
        for alpha in grid.alpha_values:
            report.add(mv_bound_entry(m, alpha, trials=grid.mc_trials, seed=derive_seed(grid.seed, m, int(alpha * 1000))))

    for eps_lambda in grid.eps_lambda_values:
        try:
            report.add(min_lfs_entry(eps_lambda))
        except TheoryError as exc:
            report.add_rejected("min_lfs", {"eps_lambda": eps_lambda}, str(exc))

    rng = np.random.default_rng(derive_seed(grid.seed, 999))
    valid_mv = [e for e in grid.eps_lambda_values if 0 < e < 0.49]
    for j in range(grid.num_joints):
        support = int(rng.integers(2, grid.max_support + 1))
        P = random_finite_joint(rng, support)
        Q = random_finite_joint(rng, support)
        for eps in grid.eps_values:
            with_mv = None
            if valid_mv:
                eps_lambda = valid_mv[j % len(valid_mv)]
                with_mv = (min_lfs(eps_lambda), eps_lambda)
            report.add(verify_rcgan_tv_chain(P, Q, eps, with_mv=with_mv))

    report.add(hellinger_tv_entry(num_pairs=grid.hellinger_pairs, max_support=grid.max_support, seed=grid.seed))
    report.add(generalization_bound_entry())

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.save_json(out_dir / "theory_report.json")
        (out_dir / "theory_report.txt").write_text(report.to_text())
        write_json(out_dir / "theory_grid.json", grid, sort_keys=True)
    return report


# ---------------------------------------------------------------------------
# augmentation study


AUG_MODES = ("synthetic_pl", "lf_pl")
AUG_HEADER = ["seed", "mode", "baseline_accuracy", "augmented_accuracy", "delta", "balance_passed", "n_synth"]


def run_augmentation(
    config: ExperimentConfig,
    n_synth: int = 1000,
    modes=AUG_MODES,
    out_dir=None,
    manifest: RunManifest | None = None,
) -> list:
    """Compare an end classifier trained on pseudolabeled real data against
    one trained on the same data plus generated points.

    Encoder checkpoints are loaded from a benchmark manifest when given, which
    must hold one for every config seed; otherwise they are trained afresh per
    seed.  Each encoder training and each end classifier is one unit of
    `_map_units`.  Returns the CSV rows in seed order; a rejected augmentation
    (balance failure) yields a row with NaN accuracies and balance_passed
    False.
    """
    for mode in modes:
        if mode not in AUG_MODES:
            raise HarnessError(f"unknown augmentation mode {mode!r}")
    if manifest is not None:
        keys = [f"wsgan_encoder_seed{s}" for s in config.seeds]
        missing = [k for k in keys if k not in manifest.checkpoints]
        if missing:
            raise HarnessError(f"manifest has no encoder checkpoint {', '.join(missing)}")
    with tempfile.TemporaryDirectory() as tmp:
        if manifest is not None:
            checkpoints = [manifest.checkpoints[k] for k in keys]
        else:  # train each seed's encoder into a checkpoint the classifier units load
            jobs = [(config, seed, Path(tmp) / f"encoder_seed{seed}.json") for seed in config.seeds]
            checkpoints = _map_units(_encoder_unit, jobs)
        jobs = [(config, seed, n_synth, mode, ckpt) for seed, ckpt in zip(config.seeds, checkpoints)
                for mode in (None, *modes)]
        accuracies = iter(_map_units(_classifier_unit, jobs))
    rows = []
    for seed in config.seeds:
        baseline = next(accuracies)
        for mode in modes:
            augmented = next(accuracies)
            if augmented is None:  # the balance check rejected the augmentation
                rows.append([seed, mode, baseline, float("nan"), float("nan"), False, n_synth])
            else:
                rows.append([seed, mode, baseline, augmented, augmented - baseline, True, n_synth])
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "augmentation.csv", AUG_HEADER, rows)
    return rows


def _encoder_unit(config: ExperimentConfig, seed: int, path: Path) -> str:
    """Train one run seed's encoder as `run_benchmark` does; save it to `path`."""
    data, _specs, L = _seed_inputs(config, seed)
    bundle, _history = train(data, L, _training_config(config, seed, "encoder"))
    return str(save_bundle(bundle, path))


def _classifier_unit(config: ExperimentConfig, seed: int, n_synth: int, mode, checkpoint) -> float | None:
    """Test accuracy of one run seed's end classifier, trained on the real
    data pseudolabeled by the encoder at `checkpoint` (mode None) or on those
    data plus `n_synth` points generated in `mode`.  None when the balance
    check rejects the augmentation."""
    data, specs, L = _seed_inputs(config, seed)
    test = synth_dataset(dataclasses.replace(config.dataset, seed=derive_seed(seed, _STREAM_TEST)))
    bundle = load_bundle(checkpoint)
    features, labels = data.features, crisp_labels(pseudolabel_table(bundle, data.features, L))
    if mode is not None:
        try:
            aug = augment_dataset(
                bundle,
                features,
                labels,
                n_synth,
                mode,
                lf_applicator=make_lf_applicator(specs, config.dataset) if mode == "lf_pl" else None,
                seed=derive_seed(seed, _STREAM_AUG),
            )
        except AugmentationRejectedError:
            return None
        features, labels = aug.features, aug.labels
    cls_cfg = dataclasses.replace(config.classifier, seed=derive_seed(seed, _STREAM_CLASSIFIER))
    return train_eval_classifier(features, labels, test.features, test.labels, cls_cfg)


def make_lf_applicator(specs: list, data_spec: DatasetSpec):
    """Vote process for generated points, mirroring each LF's accuracy and
    propensity against a proxy class (nearest dataset prototype).

    Per spec j with target class t, accuracy a, propensity p: a point with
    proxy class t votes t with probability min(1, a*p*C); a point with proxy
    class k != t votes t with probability min(1, (1-a)*p*C/(C-1)).  Those
    conditional rates reproduce the LF's marginal coverage and accuracy on a
    class-balanced population (up to the caps).
    """
    C = data_spec.class_count

    def apply(features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        proxy = nearest_prototype_labels(features, data_spec)
        votes = np.zeros((features.shape[0], len(specs)), dtype=np.int64)
        for j, spec in enumerate(specs):
            on_target = proxy == spec.target_class
            p_hit = min(1.0, spec.accuracy * spec.propensity * C)
            p_miss = min(1.0, (1.0 - spec.accuracy) * spec.propensity * C / (C - 1))
            fire = rng.random(features.shape[0]) < np.where(on_target, p_hit, p_miss)
            votes[fire, j] = spec.target_class
        return votes

    return apply
