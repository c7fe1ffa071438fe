"""Synthetic Gaussian-mixture datasets with hidden evaluation labels."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "DatasetSpec",
    "Dataset",
    "synth_dataset",
    "class_prototypes",
    "nearest_prototype_labels",
    "save_dataset",
    "load_dataset",
]


class DataError(Exception):
    pass


@dataclass(frozen=True)
class DatasetSpec:
    """Isotropic Gaussian mixture: C prototypes on a circle of given radius.

    Prototypes live in the first two feature dimensions (zero elsewhere), so
    they are pairwise distinct whenever radius > 0.
    """

    class_count: int = 4
    feature_dim: int = 2
    num_samples: int = 4000
    radius: float = 4.0
    sigma: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be >= 2 (prototypes use two dims)")
        if self.num_samples < 1:
            raise ValueError("num_samples must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive so prototypes are distinct")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass
class Dataset:
    """Features plus labels; the labels are for evaluation only and must not
    leak into any training path."""

    features: np.ndarray
    labels: np.ndarray
    spec: DatasetSpec

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]


def class_prototypes(spec: DatasetSpec) -> np.ndarray:
    """(C, d) prototype means, equally spaced on the circle."""
    angles = 2.0 * np.pi * np.arange(spec.class_count) / spec.class_count
    proto = np.zeros((spec.class_count, spec.feature_dim))
    proto[:, 0] = spec.radius * np.cos(angles)
    proto[:, 1] = spec.radius * np.sin(angles)
    return proto


def synth_dataset(spec: DatasetSpec) -> Dataset:
    """Draw the dataset deterministically from its DatasetSpec seed.

    Draw order: n uniform class labels, then the (n, d) Gaussian noise block.
    """
    rng = np.random.default_rng(spec.seed)
    labels = rng.integers(1, spec.class_count + 1, size=spec.num_samples)
    noise = rng.standard_normal((spec.num_samples, spec.feature_dim))
    proto = class_prototypes(spec)
    features = proto[labels - 1] + spec.sigma * noise
    return Dataset(features=features, labels=labels.astype(np.int64), spec=spec)


def nearest_prototype_labels(features: np.ndarray, spec: DatasetSpec) -> np.ndarray:
    """Class of the nearest prototype for each row (ties to lowest class)."""
    proto = class_prototypes(spec)
    d2 = ((features[:, None, :] - proto[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1).astype(np.int64) + 1


def save_dataset(ds: Dataset, csv_path) -> tuple[Path, Path]:
    """CSV with columns x0..x{d-1},label plus a JSON sidecar holding the DatasetSpec fields."""
    csv_path = Path(csv_path)
    json_path = csv_path.with_suffix(".json")
    d = ds.features.shape[1]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["label"])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])
    with open(json_path, "w") as fh:
        json.dump({"format_version": 1, "spec": asdict(ds.spec)}, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path


def load_dataset(csv_path) -> Dataset:
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as fh:
        spec = DatasetSpec(**json.load(fh)["spec"])
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    expected = [f"x{i}" for i in range(spec.feature_dim)] + ["label"]
    if header != expected:
        raise DataError(f"dataset CSV {csv_path}: header {header} does not match sidecar spec (want {expected})")
    if len(rows) != spec.num_samples:
        raise DataError(f"dataset CSV {csv_path}: {len(rows)} rows but sidecar spec says {spec.num_samples}")
    d = spec.feature_dim
    for i, row in enumerate(rows):
        if len(row) != d + 1:
            raise DataError(f"malformed dataset CSV {csv_path}: row {i} has {len(row)} cells, the header {d + 1}")
    try:
        features = np.array([[float(v) for v in row[:d]] for row in rows])
        labels = np.array([int(row[d]) for row in rows], dtype=np.int64)
    except ValueError as exc:
        raise DataError(f"malformed dataset CSV {csv_path}: {exc}") from exc
    return Dataset(features=features, labels=labels, spec=spec)
