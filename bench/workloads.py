"""The benchmark workloads: labelmodel_large and harness_sweep.

Each workload is a closed loop with one caller: `setup(seed)` builds the
inputs once, and `unit(inputs, ctx)` runs one iteration over them and returns
its results.  Every call into the package goes through `ctx.call`, which times
it and counts a raised exception as a failed operation; every output check
goes through `ctx.check`.  Calls use module attributes
(``harness.run_benchmark``, not an imported name) so a tracer installed around
a unit sees them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import time
import warnings
from pathlib import Path

import numpy as np

from wsganlab import data, harness, labelmodel, metrics

import spans

PLAN_SEED = 101  # the default benchmark config's first run seed
MODES = ("infogan", "vector", "encoder")
# labelmodel_large runs Dawid-Skene for a fixed number of EM iterations (tol=0
# never stops early) so every seed does the same work.  Run to convergence,
# the fits took 15-16 iterations over seeds 1-3, and 16-51 with the LF plan
# drawn per seed.
DS_ITERS = 24
SWEEP_EPOCHS = 1


class Context:
    """Per-unit bookkeeping: attempted and failed operations, call times."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.seconds: dict[str, float] = {}

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted and reported, the loop goes on
            self.failed += 1
            self.failures.append(f"{label}: {exc!r}")
            return None
        finally:
            self.seconds[label] = self.seconds.get(label, 0.0) + time.perf_counter() - t0

    def check(self, label: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {label}")
        return bool(ok)


def _seed(*keys: int) -> int:
    # second key: harness's stream numbers (0 data, 1 LFs); 7 and 8 are this
    # benchmark's own (per-row weights, theory grid)
    return harness.derive_seed(*keys)


def _rows_sum_to_one(probs) -> bool:
    probs = np.asarray(probs)
    return probs.ndim == 2 and bool(np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _labelled_inputs(seed: int, spec: data.DatasetSpec, plan: harness.LfPlan):
    """Dataset and label matrix.  The workload seed draws the dataset sample
    and the rows each LF votes on.  The LF plan (target class, accuracy and
    propensity per LF) is fixed to the one the default config draws for its
    first run seed.  Drawn per workload seed, the plan moved DS covered
    accuracy between 0.60 and 0.84 over seeds 1-6, beyond any usable bound."""
    dataset = data.synth_dataset(dataclasses.replace(spec, seed=_seed(seed, 0)))
    lf_specs = plan.sample(spec.class_count, np.random.default_rng(_seed(PLAN_SEED, 1)))
    lf_specs = [dataclasses.replace(s, seed=_seed(seed, 1, j)) for j, s in enumerate(lf_specs)]
    L = labelmodel.generate_synthetic_lfs(dataset.labels, lf_specs, spec.class_count)
    return dataset, L


# ---------------------------------------------------------------------------
# labelmodel_large: label-model aggregation and CSV I/O at n=100,000


def _fit_ds(ctx: Context, L, C: int):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Dawid-Skene did not converge", RuntimeWarning)
        return ctx.call("dawid_skene_fit", labelmodel.dawid_skene_fit, L, C, max_iters=DS_ITERS, tol=0.0)


def _label_model_checks(ctx: Context, mv, ds, labels) -> dict:
    ctx.check("MV posterior rows sum to 1", mv is not None and _rows_sum_to_one(mv.probs))
    ctx.check("DS posterior rows sum to 1", ds is not None and _rows_sum_to_one(ds.posteriors.probs))
    ctx.check("DS log-likelihood never decreases", ds is not None and bool(
        np.all(np.diff(ds.log_likelihood) >= -1e-9 * np.abs(ds.log_likelihood[1:]))
    ))
    mv_acc = metrics.pseudolabel_accuracy(mv, labels) if mv is not None else float("nan")
    ds_acc = metrics.pseudolabel_accuracy(ds.posteriors, labels) if ds is not None else float("nan")
    ctx.check("DS and MV accuracies recorded", 0.0 <= mv_acc <= 1.0 and 0.0 <= ds_acc <= 1.0)
    return {"mv_covered_accuracy": mv_acc, "ds_covered_accuracy": ds_acc}


LARGE_SPEC = data.DatasetSpec(class_count=8, num_samples=100_000)
LARGE_PLAN = harness.LfPlan(num_lfs=40, propensity_range=(0.05, 0.2))


def labelmodel_large_setup(seed: int) -> dict:
    dataset, L = _labelled_inputs(seed, LARGE_SPEC, LARGE_PLAN)
    # per-row LF weights in (0, 1), as an accuracy encoder would give them:
    # each LF's logit accuracy plus unit Gaussian noise per row
    rng = np.random.default_rng(_seed(seed, 7))
    acc = np.array([s.accuracy for s in L.lf_specs])
    logits = np.log(acc / (1.0 - acc)) + rng.standard_normal(L.votes.shape)
    return {"dataset": dataset, "L": L, "weights": 1.0 / (1.0 + np.exp(-logits))}


def labelmodel_large_unit(inp: dict, ctx: Context) -> dict:
    dataset, L, C = inp["dataset"], inp["L"], inp["L"].class_count
    labels = np.asarray(dataset.labels)
    path = ctx.workdir / "lfs.csv"
    ctx.call("save_label_matrix", labelmodel.save_label_matrix, L, path)
    loaded = ctx.call("load_label_matrix", labelmodel.load_label_matrix, path)
    ctx.check("label matrix votes survive the save/load round trip", loaded is not None
              and loaded.class_count == C and np.array_equal(loaded.votes, L.votes))
    L2 = loaded if loaded is not None else L
    mv = ctx.call("majority_vote", labelmodel.majority_vote, L2, C)
    ds = _fit_ds(ctx, L2, C)
    out = _label_model_checks(ctx, mv, ds, labels)
    out["weighted_pl_accuracy"] = float("nan")
    probs = ctx.call("weighted_softmax_posterior", labelmodel.weighted_softmax_posterior, L2.votes, inp["weights"], C)
    ctx.check("weighted posterior rows sum to 1", probs is not None and _rows_sum_to_one(probs))
    covered = (L2.votes != 0).any(axis=1)
    if probs is not None:
        out["weighted_pl_accuracy"] = float((np.argmax(probs[covered], axis=1) + 1 == labels[covered]).mean())
    wmap = ctx.call("weighted_map", metrics.weighted_map, ds.posteriors, labels) if ds is not None else None
    ctx.check("DS weighted mAP in [0, 1]", wmap is not None and 0.0 <= wmap <= 1.0)
    out["ds_fit_s"] = ctx.seconds["dawid_skene_fit"]
    out["digest"] = _digest(ds.posteriors.probs if ds is not None else None, probs, wmap)
    return out


# ---------------------------------------------------------------------------
# harness_sweep: benchmark, augmentation, theory suite and verification


def harness_sweep_setup(seed: int) -> dict:
    # the default config's own run seeds (101, 102, 103): harness derives every
    # stream of a run, LF plan included, from them, so the workload seed moves
    # the theory grid's draws instead
    config = harness.default_benchmark_config()
    config = dataclasses.replace(config, training=dataclasses.replace(config.training, epochs=SWEEP_EPOCHS))
    grid = harness.TheoryGridConfig(seed=_seed(seed, 8))
    return {"config": config, "grid": grid}


def harness_sweep_unit(inp: dict, ctx: Context) -> dict:
    config, root = inp["config"], ctx.workdir
    bench_dir = root / "benchmark"
    # a timer on the three in-sweep DS fits only; the rest of the sweep runs unwrapped
    with spans.Tracer([t for t in spans.TARGETS if t[0] == "labelmodel.dawid_skene_fit"]) as ds_timer:
        manifest = ctx.call("run_benchmark", harness.run_benchmark, config, bench_dir)
    ctx.check("manifest.failures is empty", manifest is not None and manifest.failures == [])
    aug = ctx.call("run_augmentation", harness.run_augmentation, config,
                   out_dir=root / "augmentation", manifest=manifest)
    ctx.check("augmentation has a row per seed and mode",
              aug is not None and len(aug) == len(config.seeds) * len(harness.AUG_MODES))
    report = ctx.call("run_theory_suite", harness.run_theory_suite, inp["grid"], out_dir=root / "theory")
    ctx.check("theory report passes", report is not None and report.passed)
    mismatches = ctx.call("verify_benchmark_dir", harness.verify_benchmark_dir, bench_dir)
    ctx.check("verify_benchmark_dir returns []", mismatches == [])

    out = {"s_per_epoch": {}, "aug_accepted": sum(1 for r in aug or [] if r[5] is True),
           "aug_attempted": len(aug or [])}
    if manifest is not None:
        for model, mode in (("infogan", "infogan"), ("wsgan_vector", "vector"), ("wsgan_encoder", "encoder")):
            times = [manifest.wall_times.get(f"{model}_seed{s}", float("nan")) for s in config.seeds]
            out["s_per_epoch"][mode] = float(np.median(times)) / config.training.epochs
    files = sorted(p for p in root.rglob("*") if p.is_file())
    out["files_written"] = len(files)
    out["bytes_written"] = sum(p.stat().st_size for p in files)
    histories = [p for p in files if p.name.startswith("history_")]
    ctx.check("a history per seed and GAN mode", len(histories) == len(config.seeds) * len(MODES))
    pl_acc = []
    for path in histories:
        header, rows = harness.read_csv(path)
        values = np.array(rows, dtype=np.float64)
        ctx.check(f"{path.parent.name}/{path.name} finite", values.size > 0 and np.isfinite(values).all())
        if path.name == "history_wsgan_encoder.csv":
            pl_acc.append(values[-1, header.index("pl_accuracy")])
    rows = harness.read_csv(bench_dir / "per_seed.csv")[1] if (bench_dir / "per_seed.csv").is_file() else []
    for model, key in (("majority_vote", "mv_covered_accuracy"), ("dawid_skene", "ds_covered_accuracy")):
        # covered_accuracy is the first metric column of the default config
        out[key] = float(np.mean([float(r[2]) for r in rows if r[1] == model] or [float("nan")]))
    out["ds_fit_s"] = ds_timer.layer_table().get("labelmodel.dawid_skene_fit", (0, float("nan"), 0.0))[1]
    out["weighted_pl_accuracy"] = float(np.mean(pl_acc)) if pl_acc else float("nan")
    # everything but the manifest, which holds wall times and this unit's paths
    out["digest"] = _digest(*(p.read_bytes() for p in files if p.name != "manifest.json"))
    return out


WORKLOADS = {
    "labelmodel_large": (labelmodel_large_setup, labelmodel_large_unit),
    "harness_sweep": (harness_sweep_setup, harness_sweep_unit),
}
