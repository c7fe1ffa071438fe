"""Experiment orchestration: configs, benchmark runs, reports, and the CLI."""
import dataclasses
import json
import multiprocessing
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from wsganlab import harness
from wsganlab.cli import _COMMANDS, build_parser, main
from wsganlab.data import DataError, DatasetSpec, from_json, load_dataset, read_csv, read_json, write_csv
from wsganlab.harness import (
    AUG_HEADER,
    BENCHMARK_MODELS,
    ExperimentConfig,
    HarnessError,
    LfPlan,
    METRIC_NAMES,
    RunManifest,
    TheoryGridConfig,
    config_hash,
    default_benchmark_config,
    derive_seed,
    make_lf_applicator,
    open_run,
    run_augmentation,
    run_benchmark,
    run_theory_suite,
    summarize_rows,
    verify_benchmark_dir,
)
from wsganlab.labelmodel import WeakSupError, dawid_skene_fit, generate_synthetic_lfs, save_label_matrix
from wsganlab.metrics import ClassifierConfig
from wsganlab.wsgan import ModelBundle, TrainingConfig, TrainingDivergedError, load_bundle, save_bundle


def tiny_config(**kwargs):
    base = dict(
        dataset=DatasetSpec(class_count=3, feature_dim=2, num_samples=240, radius=3.0, sigma=0.5, seed=0),
        lf_plan=LfPlan(num_lfs=5, accuracy_range=(0.6, 0.85), propensity_range=(0.15, 0.3)),
        training=TrainingConfig(epochs=2, batch_size=16, seed=0),
        seeds=(11, 12),
        classifier=ClassifierConfig(hidden_dim=8, epochs=3, batch_size=32, seed=0),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeds and configs


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 0) != derive_seed(8, 0)
    assert 0 <= derive_seed(123, 4, 5) < 2**32


def test_lf_plan_sampling_respects_feasibility_cap():
    plan = LfPlan(num_lfs=30, accuracy_range=(0.5, 0.95), propensity_range=(0.1, 0.45))
    specs = plan.sample(4, np.random.default_rng(0))
    assert len(specs) == 30
    for spec in specs:
        assert spec.accuracy * spec.propensity <= 0.9 / 4 + 1e-12
        assert 0.5 <= spec.accuracy <= 0.95
        assert 1 <= spec.target_class <= 4
    # deterministic given the same generator state
    specs2 = plan.sample(4, np.random.default_rng(0))
    assert [dataclasses.astuple(s) for s in specs] == [dataclasses.astuple(s) for s in specs2]


def test_lf_plan_validation():
    with pytest.raises(HarnessError):
        LfPlan(num_lfs=0)
    with pytest.raises(HarnessError):
        LfPlan(accuracy_range=(0.9, 0.6))
    with pytest.raises(HarnessError):
        LfPlan(propensity_range=(0.0, 0.3))


def test_experiment_config_rejects_unknown_metric():
    with pytest.raises(HarnessError):
        tiny_config(metrics=("covered_accuracy", "mystery"))
    with pytest.raises(HarnessError):
        tiny_config(seeds=())


def test_run_seed_streams_are_distinct():
    # two streams under one key draw the same numbers: with the test stream on
    # the data stream, the end classifier would be scored on its training set
    streams = [value for name, value in vars(harness).items() if name.startswith("_STREAM_")]
    assert len(streams) == 7 and len(set(streams)) == len(streams)


@pytest.mark.parametrize("section, name, value", [("dataset", "seed", 5), ("training", "mode", "vector"),
                                                 ("training", "seed", 5), ("classifier", "seed", 5)])
def test_experiment_config_rejects_a_setting_the_harness_derives(section, name, value):
    # each unit overrides these from its run seed and model, so a given value would change only the hash
    config = tiny_config()
    changed = dataclasses.replace(getattr(config, section), **{name: value})
    with pytest.raises(HarnessError, match=f"^{section}\\.{name} is {value!r}: the harness derives it"):
        dataclasses.replace(config, **{section: changed})


def test_experiment_config_rejects_a_repeated_seed():
    # two units of one seed would train into the same files
    with pytest.raises(HarnessError, match=r"^seeds repeat \[11\]"):
        tiny_config(seeds=(11, 12, 11))


def test_cli_benchmark_rejects_a_derived_setting(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"training": {"seed": 5}}))
    out = tmp_path / "runs"
    capsys.readouterr()
    assert run_cli("benchmark", "--config", path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: training.seed is 5: the harness derives it") and err.count("\n") == 1
    assert not out.exists()


def test_training_section_may_omit_dimension_fields(tmp_path):
    explicit = tiny_config()
    raw = dataclasses.asdict(explicit)
    raw["training"] = {"epochs": 2, "batch_size": 16}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    loaded = read_json(ExperimentConfig, path)
    assert loaded == explicit
    assert config_hash(loaded) == config_hash(explicit)
    raw["training"] = {"epoch": 2}
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="unknown key training.epoch$"):
        read_json(ExperimentConfig, path)
    raw["training"] = {"epochs": 2, "class_count": 3}  # the sizes come from the data
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="unknown key training.class_count$"):
        read_json(ExperimentConfig, path)


def test_config_dict_roundtrip_preserves_hash():
    config = tiny_config()
    clone = from_json(ExperimentConfig, json.loads(json.dumps(dataclasses.asdict(config))), "config.json")
    assert config_hash(clone) == config_hash(config)
    assert clone == config


def test_config_hash_sensitivity():
    a = tiny_config()
    b = tiny_config(seeds=(11, 13))
    assert config_hash(a) != config_hash(b)


def test_default_benchmark_config_shape():
    config = default_benchmark_config()
    assert config.seeds == (101, 102, 103)
    assert config.dataset.num_samples == 4000
    assert config.training.epochs == 60
    assert config.lf_plan.num_lfs == 12
    assert config.metrics == METRIC_NAMES


def test_load_experiment_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(tiny_config())))
    assert read_json(ExperimentConfig, path) == tiny_config()
    path.write_text(json.dumps({"seeds": []}))
    with pytest.raises(DataError) as refused:  # the config's own refusal, naming the file
        read_json(ExperimentConfig, path)
    assert str(refused.value) == f"{path}: need at least one seed" and isinstance(refused.value.__cause__, HarnessError)


# ---------------------------------------------------------------------------
# CSV helpers


def test_csv_roundtrip_exact_floats(tmp_path):
    header = ["name", "value", "flag"]
    rows = [["a", 0.1 + 0.2, True], ["b", float("nan"), False], ["c", 3, True]]
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    got_header, got_rows = read_csv(path)
    assert got_header == header
    assert got_rows[0][1] == repr(0.1 + 0.2)
    assert float(got_rows[0][1]) == 0.1 + 0.2  # no precision lost
    assert got_rows[0][2] == "True" and got_rows[2][1] == "3"


def test_summarize_rows_population_std():
    rows = []
    for seed, acc in ((1, 0.8), (2, 0.9)):
        for model in BENCHMARK_MODELS:
            rows.append([seed, model] + [acc if model == "wsgan_encoder" else 0.5] * len(METRIC_NAMES))
    summary = summarize_rows(rows, METRIC_NAMES)
    assert len(summary) == len(BENCHMARK_MODELS) * len(METRIC_NAMES)
    assert [r[0] for r in summary[:: len(METRIC_NAMES)]] == list(BENCHMARK_MODELS)
    by_key = {(r[0], r[1]): r for r in summary}
    enc = by_key[("wsgan_encoder", "covered_accuracy")]
    assert enc[2] == pytest.approx(0.85)
    assert enc[3] == pytest.approx(0.05)  # population std (ddof=0)


# ---------------------------------------------------------------------------
# benchmark runs


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    config = tiny_config()
    manifest = run_benchmark(config, out)
    return config, out, manifest


def test_benchmark_outputs(tiny_run):
    config, out, manifest = tiny_run
    assert manifest.failures == []
    assert sorted(manifest.seeds) == [11, 12]
    header, rows = read_csv(out / "per_seed.csv")
    assert header == ["seed", "model"] + list(METRIC_NAMES)
    assert len(rows) == 2 * len(BENCHMARK_MODELS)
    for rec in rows:
        assert rec[1] in BENCHMARK_MODELS
        acc = float(rec[2])
        assert np.isnan(acc) or 0.0 <= acc <= 1.0
    sum_header, sum_rows = read_csv(out / "summary.csv")
    assert sum_header == ["model", "metric", "mean", "std"]
    assert len(sum_rows) == len(BENCHMARK_MODELS) * len(METRIC_NAMES)
    for seed in (11, 12):
        seed_dir = out / f"seed_{seed}"
        assert (seed_dir / "dataset.csv").exists()
        assert (seed_dir / "lfs.csv").exists()
        for model in ("infogan", "wsgan_vector", "wsgan_encoder"):
            assert (seed_dir / f"history_{model}.csv").exists()
            assert (seed_dir / f"checkpoint_{model}.json").exists()
    assert read_json(ExperimentConfig, out / "config.json") == config


def test_benchmark_manifest_roundtrip(tiny_run):
    _, out, manifest = tiny_run
    loaded = read_json(RunManifest, out / "manifest.json", version=1)
    assert loaded.config_hash == manifest.config_hash
    # stored relative to the manifest's directory
    assert loaded.files == {"per_seed": "per_seed.csv", "summary": "summary.csv", "config": "config.json"}
    assert loaded.checkpoints == {
        f"{model}_seed{seed}": f"seed_{seed}/checkpoint_{model}.json"
        for model in ("infogan", "wsgan_vector", "wsgan_encoder") for seed in (11, 12)
    }
    assert all(t >= 0 for t in loaded.wall_times.values())
    assert open_run(out / "manifest.json")[1] == manifest  # the returned manifest joins them onto the run directory
    assert all(Path(p).is_file() for p in [*manifest.files.values(), *manifest.checkpoints.values()])


def test_benchmark_checkpoints_hold_their_models_mode(tiny_run):
    _, out, _ = tiny_run
    manifest = open_run(out / "manifest.json")[1]
    modes = {"infogan": "infogan", "wsgan_vector": "vector", "wsgan_encoder": "encoder"}
    assert len(manifest.checkpoints) == len(modes) * 2
    for key, path in manifest.checkpoints.items():
        bundle = load_bundle(path)
        assert bundle.config.mode == modes[key.rsplit("_seed", 1)[0]], key


def test_benchmark_verify_clean_then_detects_tamper(tiny_run):
    _, out, _ = tiny_run
    assert verify_benchmark_dir(out) == []
    summary = out / "summary.csv"
    original = summary.read_text()
    first_mean = original.splitlines()[1].split(",")[2]
    try:
        summary.write_text(original.replace(first_mean, repr(float(first_mean) + 0.25), 1))
        assert verify_benchmark_dir(out) != []
        # the same value in other text: summary.csv must be exactly what write_csv wrote
        summary.write_text(original.replace(first_mean, f"{float(first_mean):.17e}", 1))
        assert len(verify_benchmark_dir(out)) == 1
    finally:
        summary.write_text(original)
    assert verify_benchmark_dir(out) == []


def test_benchmark_rerun_byte_identical(tiny_run, tmp_path):
    config, out, _ = tiny_run
    out2 = tmp_path / "again"
    run_benchmark(config, out2)
    for name in ("per_seed.csv", "summary.csv"):
        assert (out2 / name).read_bytes() == (out / name).read_bytes()
    for seed in (11, 12):
        a = (out / f"seed_{seed}" / "history_wsgan_encoder.csv").read_bytes()
        b = (out2 / f"seed_{seed}" / "history_wsgan_encoder.csv").read_bytes()
        assert a == b


# ---------------------------------------------------------------------------
# worker processes


@pytest.mark.parametrize("cpus", [1, 2])
def test_map_units_keeps_job_order_and_joins_its_workers(monkeypatch, cpus):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    pids = harness._map_units(os.getpid, [()] * 3)
    assert (os.getpid() in pids) == (cpus == 1)
    assert harness._map_units(pow, [(2, k) for k in range(5)]) == [1, 2, 4, 8, 16]
    with pytest.warns(UserWarning) as record:
        harness._map_units(warnings.warn, [("first",), ("second",)])
    assert [str(w.message) for w in record] == ["first", "second"]
    assert multiprocessing.active_children() == []


def _outputs(out: Path) -> tuple[dict, dict]:
    """The bytes of every file under `out` but the manifest, and the manifest
    with `out` written as <out>."""
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    manifest = json.loads(files.pop("manifest.json").decode().replace(str(out), "<out>"))
    return files, manifest


def _assert_same_outputs(a: Path, b: Path):
    files_a, manifest_a = _outputs(a)
    files_b, manifest_b = _outputs(b)
    assert sorted(files_a) == sorted(files_b)
    assert [name for name in files_a if files_a[name] != files_b[name]] == []
    assert sorted(manifest_a.pop("wall_times")) == sorted(manifest_b.pop("wall_times"))
    assert manifest_a == manifest_b


@pytest.mark.filterwarnings("ignore:classes .* absent:RuntimeWarning")
def test_worker_count_leaves_outputs_unchanged(monkeypatch, tmp_path):
    config = tiny_config()
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        manifest = run_benchmark(config, tmp_path / f"cpus{cpus}")
        run_augmentation(config, n_synth=60, out_dir=tmp_path / f"cpus{cpus}" / "aug", manifest=manifest)
    _assert_same_outputs(tmp_path / "cpus1", tmp_path / "cpus2")


def test_failed_training_is_recorded_and_the_sweep_goes_on(monkeypatch, tmp_path):
    real_train = harness.train

    def train(data, L, config):
        if config.mode == "vector":
            raise TrainingDivergedError("d_loss", 1, float("nan"))
        return real_train(data, L, config)

    monkeypatch.setattr(harness, "train", train)
    config = tiny_config()
    error = "TrainingDivergedError('non-finite d_loss at epoch 1: nan')"
    trained = {f"{model}_seed{seed}" for model in ("infogan", "wsgan_encoder") for seed in config.seeds}
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        manifest = run_benchmark(config, out)
        assert manifest.failures == [{"seed": seed, "model": "wsgan_vector", "error": error} for seed in config.seeds]
        assert set(manifest.checkpoints) == set(manifest.wall_times) == trained
        _, rows = read_csv(out / "per_seed.csv")
        assert [row[:2] for row in rows] == [[str(seed), model] for seed in config.seeds for model in BENCHMARK_MODELS]
        for row in rows:
            if row[1] == "wsgan_vector":
                assert np.isnan([float(v) for v in row[2:]]).all()
            else:
                assert 0.0 <= float(row[2]) <= 1.0  # covered accuracy
        for seed in config.seeds:
            for model in ("infogan", "wsgan_vector", "wsgan_encoder"):
                for name in (f"history_{model}.csv", f"checkpoint_{model}.json"):
                    assert (out / f"seed_{seed}" / name).exists() == (model != "wsgan_vector")
        assert verify_benchmark_dir(out) == []
    _assert_same_outputs(tmp_path / "cpus1", tmp_path / "cpus2")


def test_failed_label_model_fit_is_recorded_and_the_sweep_goes_on(monkeypatch, tmp_path):
    def dawid_skene_fit(L, class_count):
        raise WeakSupError("EM diverged")

    monkeypatch.setattr(harness, "dawid_skene_fit", dawid_skene_fit)
    manifest = run_benchmark(tiny_config(seeds=(11,)), tmp_path)
    assert manifest.failures == [{"seed": 11, "model": "dawid_skene", "error": "WeakSupError('EM diverged')"}]
    assert set(manifest.checkpoints) == {f"{model}_seed11" for model in ("infogan", "wsgan_vector", "wsgan_encoder")}
    _, rows = read_csv(tmp_path / "per_seed.csv")
    assert [row[:2] for row in rows] == [["11", model] for model in BENCHMARK_MODELS]
    for row in rows:
        assert np.isnan([float(v) for v in row[2:]]).all() == (row[1] == "dawid_skene")
    assert verify_benchmark_dir(tmp_path) == []  # the NaN row verifies


def test_run_augmentation_passes_on_a_worker_training_error(tiny_run, monkeypatch):
    def train_eval_classifier(*args):
        raise TrainingDivergedError("g_loss", 0, float("inf"))

    config, _out, manifest = tiny_run
    monkeypatch.setattr(harness, "train_eval_classifier", train_eval_classifier)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    with pytest.raises(TrainingDivergedError, match=r"^non-finite g_loss at epoch 0: inf$") as info:
        run_augmentation(config, manifest, n_synth=60)
    assert (info.value.term, info.value.epoch, info.value.value) == ("g_loss", 0, float("inf"))


@pytest.mark.filterwarnings("ignore:classes .* absent:RuntimeWarning")
def test_run_augmentation_schema(tiny_run, tmp_path):
    config, _out, manifest = tiny_run
    aug_dir = tmp_path / "aug"
    rows = run_augmentation(config, n_synth=60, out_dir=aug_dir, manifest=manifest)
    header, got = read_csv(aug_dir / "augmentation.csv")
    assert header == AUG_HEADER
    assert len(got) == len(rows) == 2 * 2  # seeds x modes
    for rec in got:
        assert rec[1] in ("synthetic_pl", "lf_pl")
        assert rec[5] in ("True", "False")
        assert rec[6] == "60"
        assert np.isfinite(float(rec[2]))  # baseline always defined
        if rec[5] == "True":
            delta = float(rec[4])
            assert np.isfinite(delta)
            assert np.isclose(delta, float(rec[3]) - float(rec[2]), atol=1e-12)
        else:
            assert np.isnan(float(rec[3])) and np.isnan(float(rec[4]))


def test_run_augmentation_accepts_a_decisive_code_route(tmp_path):
    # an untrained encoder whose code route labels by the code head's argmax; the tiny run's
    # 2-epoch encoders, given the same map, put 34 of seed 11's 60 generated points in one class
    config = tiny_config()
    bundle = ModelBundle(config.training, 3, 5, 2, np.random.default_rng(0))
    bundle.code_to_label.w.data[:] = 1000 * np.eye(3)
    ckpt = str(save_bundle(bundle, tmp_path / "encoder.json"))
    manifest = RunManifest(format_version=1, config_hash=config_hash(config), version="0.1.0",
                           seeds=list(config.seeds), checkpoints={f"wsgan_encoder_seed{s}": ckpt for s in config.seeds})
    rows = run_augmentation(config, manifest, n_synth=60)
    assert [(r[0], r[1], r[5]) for r in rows] == [(s, m, True) for s in config.seeds for m in harness.AUG_MODES]
    for _seed, _mode, baseline, augmented, delta, _passed, _n in rows:
        assert np.isfinite([baseline, augmented]).all() and delta == augmented - baseline


def test_run_augmentation_needs_a_checkpoint_per_seed(tmp_path):
    config = tiny_config(seeds=(2,))
    manifest = RunManifest(format_version=1, config_hash=config_hash(config), version="0.1.0", seeds=[1],
                           checkpoints={"wsgan_encoder_seed1": str(tmp_path / "ckpt.json")})
    with pytest.raises(HarnessError, match="^manifest has no encoder checkpoint wsgan_encoder_seed2$"):
        run_augmentation(config, manifest, n_synth=60, out_dir=tmp_path / "aug")
    assert not (tmp_path / "aug").exists()


def test_run_augmentation_refuses_an_unknown_mode(tmp_path):
    # checked first: this manifest's hash and missing checkpoints are refused later
    manifest = RunManifest(format_version=1, config_hash="ab", version="0.1.0", seeds=[11, 12])
    with pytest.raises(HarnessError, match="^unknown augmentation mode 'nope'$"):
        run_augmentation(tiny_config(), manifest, n_synth=60, modes=("lf_pl", "nope"), out_dir=tmp_path / "aug")
    assert not (tmp_path / "aug").exists()


def test_run_augmentation_refuses_a_config_that_is_not_the_runs(tiny_run, tmp_path):
    config, _out, manifest = tiny_run
    other = dataclasses.replace(config, dataset=dataclasses.replace(config.dataset, sigma=0.9))
    message = f"^config hash {config_hash(other)[:12]} differs from the run's {manifest.config_hash[:12]}$"
    # checked before the checkpoints
    for run in (manifest, dataclasses.replace(manifest, checkpoints={})):
        with pytest.raises(HarnessError, match=message):
            run_augmentation(other, run, n_synth=60, out_dir=tmp_path / "aug")
    assert not (tmp_path / "aug").exists()


def test_lf_applicator_vote_shape_and_range():
    config = tiny_config()
    specs = config.lf_plan.sample(3, np.random.default_rng(derive_seed(0, 1)))
    apply_lfs = make_lf_applicator(specs, config.dataset)
    feats = np.random.default_rng(2).normal(size=(50, 2)) * 2
    votes = apply_lfs(feats, np.random.default_rng(3))
    assert votes.shape == (50, len(specs))
    assert votes.min() >= 0 and votes.max() <= 3
    for j, spec in enumerate(specs):
        assert set(np.unique(votes[:, j])) <= {0, spec.target_class}  # unipolar


# ---------------------------------------------------------------------------
# theory suite plumbing


def test_run_theory_suite_smoke(tmp_path):
    grid = TheoryGridConfig(
        m_values=(3, 5),
        alpha_values=(0.2, 0.3),
        eps_values=(0.1, 0.3),
        eps_lambda_values=(0.2, 0.49),
        mc_trials=2000,
        num_joints=4,
        max_support=8,
        hellinger_pairs=20,
        seed=7,
    )
    report = run_theory_suite(grid, tmp_path)
    assert report.passed
    kinds = [e.kind for e in report.entries]
    assert kinds.count("mv_bound") == 4
    assert kinds.count("min_lfs") == 1
    assert kinds.count("rejected_input:min_lfs") == 1  # 0.49 is out of range, recorded not fatal
    assert kinds.count("rcgan_tv_chain") == 4 * 2  # joints x eps values
    assert kinds.count("hellinger_tv") == 1
    assert kinds.count("generalization_bound") == 1
    assert (tmp_path / "theory_report.json").exists()
    text = (tmp_path / "theory_report.txt").read_text()
    assert "overall: PASS" in text
    stored = json.loads((tmp_path / "theory_grid.json").read_text())
    assert stored == json.loads(json.dumps(dataclasses.asdict(grid)))
    assert read_json(TheoryGridConfig, tmp_path / "theory_grid.json") == grid


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_synth_pipeline(tmp_path):
    out = tmp_path / "runs"
    assert run_cli("synth-data", "--out", out, "--classes", "3", "--samples", "120", "--seed", "4") == 0
    assert (out / "dataset.csv").exists() and (out / "dataset.json").exists()
    assert run_cli("synth-lfs", "--out", out, "--dataset", out / "dataset.csv", "--num-lfs", "4", "--seed", "4") == 0
    assert (out / "lfs.csv").exists()
    assert run_cli("fit-labelmodel", "--out", out, "--lfs", out / "lfs.csv", "--model", "mv", "--name", "mv") == 0
    assert (out / "mv_posteriors.csv").exists()
    assert json.loads((out / "mv.json").read_text())["model"] == "majority_vote"
    assert run_cli("fit-labelmodel", "--out", out, "--lfs", out / "lfs.csv", "--model", "ds", "--max-iters", "30") == 0
    payload = json.loads((out / "labelmodel.json").read_text())
    assert payload["model"] == "dawid_skene"
    assert len(payload["accuracies"]) == 4
    assert payload["iterations"] <= 30


def test_cli_train(tmp_path):
    out = tmp_path / "runs"
    run_cli("synth-data", "--out", out, "--classes", "3", "--samples", "120", "--seed", "4")
    run_cli("synth-lfs", "--out", out, "--dataset", out / "dataset.csv", "--num-lfs", "4", "--seed", "4")
    args = ("train", "--out", out, "--dataset", out / "dataset.csv", "--lfs", out / "lfs.csv")
    assert run_cli(*args, "--mode", "encoder", "--epochs", "2", "--seed", "1") == 0
    assert (out / "model_checkpoint.json").exists()
    history = (out / "model_history.csv").read_text().splitlines()
    assert len(history) == 3  # header + 2 epochs


def test_cli_train_refuses_a_label_matrix_of_another_class_count(tmp_path, capsys):
    out = tmp_path / "runs"
    for classes, name in (("4", "four"), ("3", "three")):
        assert run_cli("synth-data", "--out", out, "--classes", classes, "--samples", "120", "--name", name) == 0
    assert run_cli("synth-lfs", "--out", out, "--dataset", out / "three.csv", "--num-lfs", "4") == 0
    capsys.readouterr()
    args = ("train", "--out", tmp_path / "model", "--dataset", out / "four.csv", "--lfs", out / "lfs.csv")
    assert run_cli(*args, "--epochs", "1") == 1
    assert capsys.readouterr().err == "error: label matrix has 3 classes, the dataset 4\n"
    assert not (tmp_path / "model").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_train_on_a_non_finite_graph_returns_one(tmp_path, capsys):
    # the raw alignment loss is finite; the loss it steps on, scaled by 1e308, is not
    out = tmp_path / "runs"
    run_cli("synth-data", "--out", out, "--samples", "200")
    run_cli("synth-lfs", "--out", out, "--dataset", out / "dataset.csv", "--num-lfs", "4")
    config = {"mode": "encoder", "epochs": 1, "align_weight": 1e308, "hidden_dim": 8, "z_dim": 4}
    (tmp_path / "c.json").write_text(json.dumps(config))
    capsys.readouterr()
    args = ("train", "--out", out, "--dataset", out / "dataset.csv", "--lfs", out / "lfs.csv")
    assert run_cli(*args, "--config", tmp_path / "c.json") == 1
    assert capsys.readouterr().err == "error: non-finite align_loss at epoch 0: inf\n"


def test_cli_benchmark_report_augment(tmp_path):
    out = tmp_path / "runs"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(tiny_config(seeds=(11,)))))
    assert run_cli("benchmark", "--out", out, "--config", cfg_path, "--dir-name", "b0") == 0
    assert run_cli("report", "--dir", out / "b0") == 0
    rc = run_cli(
        "augment",
        "--out",
        out,
        "--manifest",
        out / "b0" / "manifest.json",
        "--n-synth",
        "40",
        "--dir-name",
        "aug",
    )
    assert rc in (0, 1)  # balance may reject on a 2-epoch model; either way the CSV lands
    header, rows = read_csv(out / "aug" / "augmentation.csv")
    assert header == AUG_HEADER and len(rows) == 2


@pytest.mark.filterwarnings("ignore:classes .* absent:RuntimeWarning")
def test_cli_augment_reads_a_manifest_from_anywhere(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(tiny_config(seeds=(11,)))))
    work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
    work.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(work)
    assert run_cli("benchmark", "--out", "runs", "--config", cfg_path, "--dir-name", "b") == 0
    monkeypatch.chdir(elsewhere)
    args = ("augment", "--out", "aug", "--n-synth", "40", "--manifest")
    # seed 11's lf_pl augmentation passes the balance check, so a run that finds its checkpoints exits 0
    assert run_cli(*args, work / "runs" / "b" / "manifest.json") == 0
    moved = shutil.copytree(work / "runs" / "b", tmp_path / "moved")
    shutil.rmtree(work / "runs")
    assert run_cli(*args, moved / "manifest.json", "--dir-name", "aug2") == 0
    assert (elsewhere / "aug" / "augmentation" / "augmentation.csv").read_bytes() == (
        elsewhere / "aug" / "aug2" / "augmentation.csv").read_bytes()


@pytest.mark.filterwarnings("ignore:classes .* absent:RuntimeWarning")
def test_cli_augment_takes_its_config_from_the_run(tiny_run, tmp_path):
    _config, out, _manifest = tiny_run
    assert run_cli("augment", "--out", tmp_path, "--manifest", out / "manifest.json", "--n-synth", "40") == 0
    header, rows = read_csv(tmp_path / "augmentation" / "augmentation.csv")
    assert header == AUG_HEADER
    assert [(r[0], r[1]) for r in rows] == [(str(s), m) for s in (11, 12) for m in harness.AUG_MODES]


def test_cli_augment_refuses_an_edited_run_config(tiny_run, tmp_path, capsys):
    config, out, manifest = tiny_run
    run = shutil.copytree(out, tmp_path / "run")
    edited = json.loads((run / "config.json").read_text())
    edited["dataset"]["sigma"] = 0.9
    (run / "config.json").write_text(json.dumps(edited))
    other = dataclasses.replace(config, dataset=dataclasses.replace(config.dataset, sigma=0.9))
    capsys.readouterr()
    assert run_cli("augment", "--out", tmp_path / "aug", "--manifest", run / "manifest.json", "--n-synth", "40") == 1
    err = capsys.readouterr().err
    assert err == f"error: config hash {config_hash(other)[:12]} differs from the run's {manifest.config_hash[:12]}\n"
    assert not (tmp_path / "aug" / "augmentation").exists()


def test_cli_theory_exit_codes(tmp_path):
    grid_path = tmp_path / "grid.json"
    grid = TheoryGridConfig(
        m_values=(3,),
        alpha_values=(0.2,),
        eps_values=(0.1,),
        eps_lambda_values=(0.2,),
        mc_trials=2000,
        num_joints=2,
        max_support=6,
        hellinger_pairs=10,
        seed=7,
    )
    grid_path.write_text(json.dumps(dataclasses.asdict(grid)))
    assert run_cli("theory", "--out", tmp_path / "runs", "--grid", grid_path) == 0
    assert (tmp_path / "runs" / "theory" / "theory_report.txt").exists()


def test_cli_errors_return_one(tmp_path, capsys):
    assert run_cli("fit-labelmodel", "--out", tmp_path, "--lfs", tmp_path / "missing.csv") == 1
    assert run_cli("report", "--dir", tmp_path / "nope") == 1
    config = tiny_config(seeds=(2,))
    manifest_path = tmp_path / "manifest.json"
    (tmp_path / "config.json").write_text(json.dumps(dataclasses.asdict(config)))
    run = {"format_version": 1, "config_hash": config_hash(config), "version": "0.1.0", "seeds": [2],
           "files": {"config": "config.json"}}
    manifest_path.write_text(json.dumps({**run, "checkpoints": {"wsgan_encoder_seed1": "ckpt.json"}}))
    capsys.readouterr()
    args = ("augment", "--out", tmp_path, "--manifest", manifest_path)
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err == "error: manifest has no encoder checkpoint wsgan_encoder_seed2\n"
    manifest_path.write_text(json.dumps({**run, "checkpoints": {"wsgan_encoder_seed2": "ckpt.json"}}))
    (tmp_path / "ckpt.json").write_text(json.dumps({"format_version": 2}))  # refused before its other keys
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'ckpt.json'}: unsupported format_version 2, expected 3\n"
    # a parameter that is NaN, ragged or not a number is refused, naming the file and the parameter
    bundle = ModelBundle(TrainingConfig(z_dim=2, hidden_dim=4), 3, 5, 2, np.random.default_rng(0))
    payload = json.loads(save_bundle(bundle, tmp_path / "ckpt.json").read_text())
    first, *rest = payload["params"]["code_head.w"]
    for bad, problem in (([float("nan"), *first[1:]], "is not finite"), (first[1:], "is not a numeric array"),
                         (["x", *first[1:]], "is not a numeric array")):
        params = {**payload["params"], "code_head.w": [bad, *rest]}
        (tmp_path / "ckpt.json").write_text(json.dumps({**payload, "params": params}))
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {tmp_path / 'ckpt.json'}: param code_head.w {problem}")
        assert err.count("\n") == 1
    assert not (tmp_path / "augmentation").exists()
    # a directory given for a file, and a file for a directory
    capsys.readouterr()
    assert run_cli("augment", "--out", tmp_path, "--manifest", tmp_path) == 1
    assert run_cli("report", "--dir", manifest_path) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    with pytest.raises(SystemExit):
        run_cli("no-such-command")


def test_cli_refused_augment_leaves_no_out_dir(tmp_path, capsys):
    config = tiny_config(seeds=(2,))
    (tmp_path / "config.json").write_text(json.dumps(dataclasses.asdict(config)))
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"format_version": 1, "config_hash": config_hash(config), "version": "0.1.0",
                                         "seeds": [2], "files": {"config": "config.json"}}))
    capsys.readouterr()
    assert run_cli("augment", "--out", tmp_path / "new", "--manifest", manifest_path) == 1
    assert capsys.readouterr().err == "error: manifest has no encoder checkpoint wsgan_encoder_seed2\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: ["a,b,c"] + lines[1:],
        lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
        lambda lines: lines[:2] + ["abc," + lines[2].split(",", 1)[1]] + lines[3:],
        lambda lines: lines[:2] + ["\udc80" + lines[2]] + lines[3:],  # the byte 0x80, not UTF-8
    ],
    ids=["bad-header", "short-row", "non-numeric", "non-utf8"],
)
def test_cli_dataset_errors_return_one(tmp_path, capsys, corrupt):
    out = tmp_path / "runs"
    assert run_cli("synth-data", "--out", out, "--classes", "3", "--samples", "20", "--seed", "4") == 0
    csv_path = out / "dataset.csv"
    text = "\n".join(corrupt(csv_path.read_text().splitlines())) + "\n"
    csv_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert run_cli("synth-lfs", "--out", out, "--dataset", csv_path, "--num-lfs", "4", "--seed", "4") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(csv_path) in err


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("lfs.csv", lambda b: b[:30] + b"\x80" + b[31:], "can't decode byte 0x80"),
        ("lfs.csv", lambda b: b.replace(b"lf_0", b"lfX0", 1), "unexpected CSV header"),
        ("lfs.csv", lambda b: b"".join(b.splitlines(keepends=True)[:11]), "CSV shape (10, 4) disagrees with sidecar"),
        ("spec.json", lambda b: b[:10] + b"\x80" + b[11:], "can't decode byte 0x80"),
    ],
    ids=["lfs-non-utf8", "lfs-bad-header", "lfs-truncated", "spec-non-utf8"],
)
def test_cli_refused_input_file_is_named(tmp_path, capsys, name, corrupt, message):
    out = tmp_path / "runs"
    assert run_cli("synth-data", "--out", out, "--classes", "3", "--samples", "20", "--seed", "4") == 0
    assert run_cli("synth-lfs", "--out", out, "--dataset", out / "dataset.csv", "--num-lfs", "4", "--seed", "4") == 0
    (out / "spec.json").write_text(json.dumps(dataclasses.asdict(DatasetSpec(class_count=3, num_samples=20))))
    path = out / name
    path.write_bytes(corrupt(path.read_bytes()))
    command = {"lfs.csv": ["fit-labelmodel", "--lfs", path], "spec.json": ["synth-data", "--spec", path]}[name]
    capsys.readouterr()
    assert run_cli(*command, "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("summary.csv", lambda text: "", "empty CSV"),
        ("summary.csv", lambda text: text[: text.rindex(",")], "malformed CSV"),
        ("per_seed.csv", lambda text: text.replace("\n11,", "\neleven,", 1), "row 0: invalid literal for int()"),
        ("per_seed.csv", lambda text: text.replace(",majority_vote,", ",majority_vote,x", 1),
         "row 0: could not convert string to float"),
    ],
    ids=["empty", "truncated", "per-seed-word-seed", "per-seed-word-metric"],
)
def test_cli_report_rejects_a_damaged_summary(tiny_run, tmp_path, capsys, name, corrupt, message):
    # a killed run can leave summary.csv empty or cut inside its last row, and an edit can put a word in per_seed.csv
    _config, out, _manifest = tiny_run
    for copied in ("per_seed.csv", "summary.csv"):
        shutil.copy(out / copied, tmp_path / copied)
    damaged = tmp_path / name
    damaged.write_text(corrupt(damaged.read_text()))
    capsys.readouterr()
    assert run_cli("report", "--dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(damaged) in err and message in err and err.count("\n") == 1


# Every JSON file the CLI reads, with the command that reads it.  The cases
# drop a required key only where the dataclass has one: DatasetSpec,
# ExperimentConfig's top level and TheoryGridConfig default every field.
_JSON_INPUTS = {
    "spec": ("spec.json", lambda f, ds, lfs: ["synth-data", "--spec", f]),
    "specs": ("specs.json", lambda f, ds, lfs: ["synth-lfs", "--dataset", ds, "--specs", f]),
    "dataset-sidecar": ("dataset.json", lambda f, ds, lfs: ["synth-lfs", "--dataset", ds]),
    "lfs-sidecar": ("lfs.json", lambda f, ds, lfs: ["fit-labelmodel", "--lfs", lfs]),
    "train-config": ("train.json", lambda f, ds, lfs: ["train", "--dataset", ds, "--lfs", lfs, "--config", f]),
    "benchmark-config": ("cfg.json", lambda f, ds, lfs: ["benchmark", "--config", f]),
    "augment-manifest": ("manifest.json", lambda f, ds, lfs: ["augment", "--manifest", f]),
    "theory-grid": ("grid.json", lambda f, ds, lfs: ["theory", "--grid", f]),
}


_DROP = object()


def _set(key, value):
    """Set (or, with _DROP, delete) a dotted key; digits index lists."""
    def mutate(obj):
        *path, last = key.split(".")
        for k in path:
            obj = obj[int(k)] if isinstance(obj, list) else obj[k]
        if value is _DROP:
            del obj[last]
        else:
            obj[last] = value
    return mutate


_JSON_CASES = [
    ("spec", "unknown", _set("colour", 1), "unknown key colour"),
    ("spec", "mistyped", _set("num_samples", "30"), "num_samples must be int"),
    ("spec", "refused", _set("sigma", 0), "sigma must be positive"),
    ("specs", "unknown", _set("0.region", 1), "unknown key [0].region"),
    ("specs", "missing", _set("0.target_class", _DROP), "missing required key [0].target_class"),
    ("specs", "mistyped", _set("0.accuracy", "high"), "[0].accuracy must be float"),
    ("dataset-sidecar", "unknown", _set("spec.colour", 1), "unknown key spec.colour"),
    ("dataset-sidecar", "missing", _set("spec", _DROP), "missing required key spec"),
    ("dataset-sidecar", "mistyped", _set("spec.sigma", "wide"), "spec.sigma must be float"),
    ("dataset-sidecar", "version", _set("format_version", 99), "unsupported format_version 99"),
    ("lfs-sidecar", "unknown", _set("extra", 1), "unknown key extra"),
    ("lfs-sidecar", "missing", _set("num_lfs", _DROP), "missing required key num_lfs"),
    ("lfs-sidecar", "mistyped", _set("class_count", "3"), "class_count must be int"),
    ("lfs-sidecar", "version", _set("format_version", 99), "unsupported format_version 99"),
    ("train-config", "unknown", _set("epoch", 1), "unknown key epoch"),
    ("train-config", "dimension", _set("class_count", 3), "unknown key class_count"),
    ("train-config", "mistyped", _set("epochs", 1.5), "epochs must be int"),
    ("train-config", "constant", _set("lr_d", 4e-4), "unknown key lr_d"),
    ("benchmark-config", "unknown", _set("seed", [7]), "unknown key seed"),
    ("benchmark-config", "mistyped", _set("seeds", 11), "seeds must be tuple"),
    ("benchmark-config", "nested-unknown", _set("training.epoch", 1), "unknown key training.epoch"),
    ("benchmark-config", "training-mistyped", _set("training.epochs", 1.5), "training.epochs must be int"),
    ("benchmark-config", "nested-mistyped", _set("lf_plan.num_lfs", "5"), "lf_plan.num_lfs must be int"),
    ("benchmark-config", "nested-refused", _set("dataset.sigma", 0), "dataset: sigma must be positive"),
    ("benchmark-config", "classifier-refused", _set("classifier.hidden_dim", 0),
     "classifier: hidden_dim and batch_size must be >= 1 and epochs >= 0"),
    ("augment-manifest", "unknown", _set("extra", 1), "unknown key extra"),
    ("augment-manifest", "missing", _set("config_hash", _DROP), "missing required key config_hash"),
    ("augment-manifest", "mistyped", _set("seeds", "11"), "seeds must be list"),
    ("augment-manifest", "unversioned", _set("format_version", _DROP), "unsupported format_version None, expected 1"),
    ("augment-manifest", "no-config", _set("files", {}), "manifest lists no config file"),
    ("theory-grid", "unknown", _set("m_value", [3]), "unknown key m_value"),
    ("theory-grid", "mistyped", _set("m_values", [3.5]), "m_values[0] must be int"),
]


@pytest.fixture(scope="module")
def valid_json_inputs(tmp_path_factory):
    """Valid contents of every JSON input, and a dataset plus label matrix to read them with."""
    root = tmp_path_factory.mktemp("inputs")
    assert run_cli("synth-data", "--out", root, "--classes", "3", "--samples", "120", "--seed", "4") == 0
    assert run_cli("synth-lfs", "--out", root, "--dataset", root / "dataset.csv", "--num-lfs", "4", "--seed", "4") == 0
    grid = TheoryGridConfig(m_values=(3,), alpha_values=(0.2,), eps_values=(0.1,), eps_lambda_values=(0.2,),
                            mc_trials=200, num_joints=1, max_support=4, hellinger_pairs=5)
    valid = {
        "spec": dataclasses.asdict(DatasetSpec(class_count=3, num_samples=120)),
        "specs": [{"target_class": 1, "accuracy": 0.8, "propensity": 0.2, "seed": 0}],
        "dataset-sidecar": json.loads((root / "dataset.json").read_text()),
        "lfs-sidecar": json.loads((root / "lfs.json").read_text()),
        "train-config": dataclasses.asdict(TrainingConfig(epochs=1)),
        "benchmark-config": dataclasses.asdict(tiny_config(seeds=(11,))),
        "augment-manifest": {"format_version": 1, "config_hash": "ab", "version": "0.1.0", "seeds": [11]},
        "theory-grid": dataclasses.asdict(grid),
    }
    return root, json.loads(json.dumps(valid))


@pytest.mark.parametrize(
    "name, mutate, message",
    [(name, mutate, message) for name, _case, mutate, message in _JSON_CASES],
    ids=[f"{name}-{case}" for name, case, *_ in _JSON_CASES],
)
def test_cli_rejects_bad_json_input_naming_file(tmp_path, capsys, valid_json_inputs, name, mutate, message):
    root, valid = valid_json_inputs
    for stem in ("dataset", "lfs"):
        for suffix in (".csv", ".json"):
            (tmp_path / f"{stem}{suffix}").write_bytes((root / f"{stem}{suffix}").read_bytes())
    file_name, command = _JSON_INPUTS[name]
    obj = json.loads(json.dumps(valid[name]))
    mutate(obj)
    path = tmp_path / file_name
    path.write_text(json.dumps(obj))
    out = tmp_path / "runs"
    capsys.readouterr()
    assert run_cli(*command(path, tmp_path / "dataset.csv", tmp_path / "lfs.csv"), "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert not out.exists()  # rejected before anything ran or was written


def test_readme_config_example_is_the_default(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("The experiment config mirrors", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(example)
    assert read_json(ExperimentConfig, path) == default_benchmark_config()


def test_cli_flag_defaults_are_the_dataclass_defaults(tmp_path):
    # an omitted flag takes the default of the class or function that owns it
    out, ref = tmp_path / "runs", tmp_path / "ref"
    assert run_cli("synth-data", "--out", out) == 0
    data = load_dataset(out / "dataset.csv")
    assert data.spec == DatasetSpec()
    assert run_cli("synth-lfs", "--out", out, "--dataset", out / "dataset.csv", "--seed", "0") == 0
    C = data.spec.class_count
    ref.mkdir()
    L = generate_synthetic_lfs(data.labels, LfPlan().sample(C, np.random.default_rng(0)), C)
    for path in save_label_matrix(L, ref / "lfs.csv"):
        assert (out / path.name).read_bytes() == path.read_bytes()
    assert run_cli("fit-labelmodel", "--out", out, "--lfs", out / "lfs.csv", "--model", "ds") == 0
    fit, report = dawid_skene_fit(L), json.loads((out / "labelmodel.json").read_text())
    assert (report["iterations"], report["log_likelihood"]) == (fit.iterations, fit.log_likelihood)


def test_cli_flags_given_override_the_json_file(tmp_path):
    # one rule for synth-data and train: the JSON file (or the defaults), then the flags given
    spec = DatasetSpec(class_count=3, num_samples=120, sigma=0.4)
    (tmp_path / "spec.json").write_text(json.dumps(dataclasses.asdict(spec)))
    out = tmp_path / "runs"
    assert run_cli("synth-data", "--out", out, "--spec", tmp_path / "spec.json", "--samples", "90", "--classes", "5") == 0
    assert load_dataset(out / "dataset.csv").spec == dataclasses.replace(spec, num_samples=90, class_count=5)
    assert run_cli("synth-lfs", "--out", out, "--dataset", out / "dataset.csv", "--num-lfs", "4") == 0
    (tmp_path / "train.json").write_text(json.dumps({"epochs": 3, "hidden_dim": 8, "z_dim": 4}))
    args = ("train", "--out", out, "--dataset", out / "dataset.csv", "--lfs", out / "lfs.csv")
    assert run_cli(*args, "--config", tmp_path / "train.json", "--epochs", "1") == 0
    assert len((out / "model_history.csv").read_text().splitlines()) == 2  # header + 1 epoch


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines() if line.startswith("wsganlab ")]
    assert {command[1] for command in commands} == set(_COMMANDS)  # an example per subcommand
    for command in commands:
        try:
            build_parser().parse_args(command[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(command)}")
