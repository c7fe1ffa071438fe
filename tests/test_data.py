"""Synthetic blob dataset: geometry, determinism, serialization, and the
strict JSON loader every config and sidecar goes through."""
import dataclasses
import json

import numpy as np
import pytest

from wsganlab.data import (
    DataError,
    Dataset,
    DatasetSpec,
    class_prototypes,
    from_json,
    load_dataset,
    nearest_prototype_labels,
    save_dataset,
    synth_dataset,
)
from wsganlab.harness import ExperimentConfig, LfPlan, RunManifest, TheoryGridConfig, default_benchmark_config
from wsganlab.labelmodel import LfSpec, _LabelMatrixSidecar
from wsganlab.metrics import ClassifierConfig
from wsganlab.wsgan import TrainingConfig


def test_spec_validation():
    DatasetSpec()
    with pytest.raises(Exception):
        DatasetSpec(class_count=1)
    with pytest.raises(Exception):
        DatasetSpec(sigma=0.0)
    with pytest.raises(Exception):
        DatasetSpec(radius=-1.0)
    with pytest.raises(Exception):
        DatasetSpec(feature_dim=1)


def test_prototypes_on_circle():
    spec = DatasetSpec(class_count=4, feature_dim=2, radius=4.0)
    protos = class_prototypes(spec)
    assert protos.shape == (4, 2)
    assert np.allclose(np.linalg.norm(protos, axis=1), 4.0)
    assert np.allclose(protos[0], [4.0, 0.0])
    assert np.allclose(protos[1], [0.0, 4.0], atol=1e-12)


def test_prototypes_higher_dim_pad_zero():
    spec = DatasetSpec(class_count=3, feature_dim=5, radius=2.0)
    protos = class_prototypes(spec)
    assert protos.shape == (3, 5)
    assert np.allclose(protos[:, 2:], 0.0)
    assert np.allclose(np.linalg.norm(protos, axis=1), 2.0)


def test_synth_dataset_shapes_and_determinism():
    spec = DatasetSpec(num_samples=500, seed=12)
    a = synth_dataset(spec)
    b = synth_dataset(spec)
    assert a.features.shape == (500, 2)
    assert a.labels.shape == (500,)
    assert (a.features == b.features).all()
    assert (a.labels == b.labels).all()
    c = synth_dataset(dataclasses.replace(spec, seed=13))
    assert (a.features != c.features).any()


def test_synth_labels_roughly_balanced_and_noise_scale():
    spec = DatasetSpec(num_samples=8000, sigma=0.6, seed=0)
    ds = synth_dataset(spec)
    counts = np.bincount(ds.labels, minlength=5)[1:]
    assert counts.min() > 8000 / 4 * 0.85
    protos = class_prototypes(spec)
    resid = ds.features - protos[ds.labels - 1]
    assert abs(resid.std() - 0.6) < 0.03


def test_nearest_prototype_assignment():
    spec = DatasetSpec(class_count=4, feature_dim=2, radius=4.0)
    protos = class_prototypes(spec)
    labels = nearest_prototype_labels(protos + 0.1, spec)
    assert labels.tolist() == [1, 2, 3, 4]
    # equidistant point resolves to the lowest class id
    assert nearest_prototype_labels(np.zeros((1, 2)), spec)[0] == 1


def test_roundtrip_bitwise(tmp_path):
    ds = synth_dataset(DatasetSpec(num_samples=120, seed=5))
    csv_path, json_path = save_dataset(ds, tmp_path / "d.csv")
    back = load_dataset(csv_path)
    assert (back.features == ds.features).all()
    assert (back.labels == ds.labels).all()
    assert back.spec == ds.spec


def test_load_rejects_bad_header(tmp_path):
    ds = synth_dataset(DatasetSpec(num_samples=10, seed=1))
    csv_path, _ = save_dataset(ds, tmp_path / "d.csv")
    lines = csv_path.read_text().splitlines()
    lines[0] = "a,b,c"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(Exception):
        load_dataset(csv_path)


@pytest.mark.parametrize("row", ["1.0", "1.0,2.0", "1.0,2.0,3,4", "abc,2.0,3", "1.0,2.0,x"])
def test_load_rejects_malformed_row_naming_path(tmp_path, row):
    ds = synth_dataset(DatasetSpec(num_samples=10, seed=1))
    csv_path, _ = save_dataset(ds, tmp_path / "d.csv")
    lines = csv_path.read_text().splitlines()
    lines[4] = row
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="d.csv"):
        load_dataset(csv_path)


# ---------------------------------------------------------------------------
# from_json


def _config_objects():
    return [
        DatasetSpec(class_count=3, radius=2.5, seed=9),
        LfSpec(target_class=2, accuracy=0.75, propensity=0.2, seed=5),
        LfPlan(num_lfs=5, accuracy_range=(0.6, 0.8)),
        TrainingConfig(mode="vector", align_weight=0.5),
        ClassifierConfig(hidden_dim=8),
        ExperimentConfig(),
        ExperimentConfig(dataset=DatasetSpec(class_count=3), seeds=(4, 5), metrics=("ari",)),
        TheoryGridConfig(m_values=(3,), alpha_values=(0.25,)),
        RunManifest(
            format_version=1, config_hash="ab", version="0.1.0", seeds=[1, 2], files={"summary": "s.csv"},
            wall_times={"infogan_seed1": 0.5}, failures=[{"seed": 1, "model": "ds", "error": "x"}],
        ),
    ]


@pytest.mark.parametrize("obj", _config_objects(), ids=lambda o: type(o).__name__)
def test_from_json_roundtrips_asdict(obj):
    payload = json.loads(json.dumps(dataclasses.asdict(obj)))
    assert from_json(type(obj), payload, "c.json") == obj


def test_from_json_builds_nested_tuples_and_null():
    raw = {"dataset": {"class_count": 3, "radius": 5}, "lf_plan": {"accuracy_range": [0.6, 0.8]},
           "training": {"epochs": 2}, "seeds": [7, 8]}
    config = from_json(ExperimentConfig, raw, "c.json")
    assert config.dataset == DatasetSpec(class_count=3, radius=5)
    assert config.dataset.radius == 5 and isinstance(config.dataset.radius, int)  # kept as written
    assert config.lf_plan.accuracy_range == (0.6, 0.8)
    assert config.seeds == (7, 8)
    assert config.training == TrainingConfig(epochs=2)
    assert from_json(ExperimentConfig, {}, "c.json") == default_benchmark_config()
    sidecar = {"format_version": 1, "class_count": 3, "num_lfs": 2, "num_samples": 5, "lf_specs": None}
    assert from_json(_LabelMatrixSidecar, sidecar, "s.json").lf_specs is None


@pytest.mark.parametrize(
    "raw, message",
    [
        ([], "the top level must be ExperimentConfig, not list"),
        ({"seed": [7], "trainig": {"epochs": 2}}, "unknown key seed, trainig"),
        ({"training": None}, "training must be TrainingConfig, not NoneType"),
        ({"seeds": 101}, "seeds must be tuple, not int"),
        ({"seeds": [101, "102"]}, "seeds[1] must be int, not str"),
        ({"dataset": {"num_samples": True}}, "dataset.num_samples must be int, not bool"),
        ({"dataset": {"radius": "4"}}, "dataset.radius must be float, not str"),
        ({"lf_plan": {"accuracy_range": [0.6]}}, "lf_plan.accuracy_range must have 2 elements, not 1"),
        ({"classifier": [1]}, "classifier must be ClassifierConfig, not list"),
    ],
)
def test_from_json_rejects_naming_file_and_path(raw, message):
    with pytest.raises(DataError) as info:
        from_json(ExperimentConfig, raw, "cfg.json")
    assert str(info.value) == f"cfg.json: {message}"


def test_from_json_leaves_dataclass_validation_to_the_class():
    with pytest.raises(ValueError, match="class_count must be >= 2"):
        from_json(DatasetSpec, {"class_count": 1}, "s.json")
