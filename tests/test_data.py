"""Synthetic blob dataset: geometry, determinism, serialization."""
import dataclasses

import numpy as np
import pytest

from wsganlab.data import (
    DataError,
    Dataset,
    DatasetSpec,
    class_prototypes,
    load_dataset,
    nearest_prototype_labels,
    save_dataset,
    synth_dataset,
)


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
