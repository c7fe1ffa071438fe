"""Synthetic Gaussian-mixture datasets with hidden evaluation labels."""
from __future__ import annotations

import csv
import dataclasses
import json
import types
import typing
from dataclasses import MISSING, dataclass, asdict
from pathlib import Path

import numpy as np


class DataError(Exception):
    pass


def from_json(cls, obj, source, where: str = ""):
    """Build `cls`, a dataclass or a field annotation, from the decoded JSON `obj`.

    A dataclass takes an object whose keys are all fields and which holds every
    field without a default, and builds each field from its annotation: bool,
    int, float (an integer is kept as written), str, `X | None`, a dataclass, or
    a list, tuple or dict, whose elements are checked when typed.  A mismatch
    raises DataError naming the file `source` and the field path `where`.
    """
    if isinstance(cls, types.UnionType):  # X | None
        if obj is None:
            return None
        (cls,) = set(typing.get_args(cls)) - {type(None)}
    record = dataclasses.is_dataclass(cls)
    origin, args = typing.get_origin(cls) or cls, typing.get_args(cls)
    accepted = {float: (int, float), tuple: list}.get(origin, dict if record else origin)
    if not isinstance(obj, accepted) or (isinstance(obj, bool) and origin is not bool):
        raise DataError(f"{source}: {where or 'the top level'} must be {origin.__name__}, not {type(obj).__name__}")
    if record:
        fields, prefix = dataclasses.fields(cls), f"{where}." if where else ""
        unknown = obj.keys() - {f.name for f in fields}
        missing = {f.name for f in fields if f.default is MISSING and f.default_factory is MISSING} - obj.keys()
        for problem, keys in (("unknown", unknown), ("missing required", missing)):
            if keys:
                raise DataError(f"{source}: {problem} key {', '.join(prefix + k for k in sorted(keys))}")
        hints = typing.get_type_hints(cls)
        return cls(**{key: from_json(hints[key], value, source, prefix + key) for key, value in obj.items()})
    if origin is dict and args:
        return {key: from_json(args[1], value, source, f"{where}.{key}") for key, value in obj.items()}
    if origin in (list, tuple) and args:
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(obj)
        if len(obj) != len(args):
            raise DataError(f"{source}: {where} must have {len(args)} elements, not {len(obj)}")
        obj = [from_json(t, value, source, f"{where}[{i}]") for i, (t, value) in enumerate(zip(args, obj))]
    return tuple(obj) if origin is tuple else obj


def read_json(cls, path, version: int | None = None):
    """`from_json(cls, ...)` on the contents of the JSON file at `path`.  With a
    `version`, any other `format_version` is refused before any other key is checked."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if version is not None and isinstance(obj, dict) and obj.get("format_version") != version:
        raise DataError(f"{path}: unsupported format_version {obj.get('format_version')!r}, expected {version}")
    return from_json(cls, obj, path)


def write_json(path, obj, sort_keys: bool = False) -> Path:
    """Write `obj`, a dataclass or a JSON-encodable value, indented by 2 and newline-ended."""
    path = Path(path)
    obj = asdict(obj) if dataclasses.is_dataclass(obj) else obj
    path.write_text(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")
    return path


def _fmt(value) -> str:
    """One CSV cell; floats as repr(), so a file is byte-stable and reads back exactly."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list, rows: list) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def read_csv(path) -> tuple[list, list]:
    """Header and rows of a file `write_csv` wrote.  An empty file, or a row
    whose cell count is not the header's (as a killed run may leave), raises
    DataError naming the file."""
    with open(path) as fh:
        lines = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()]
    if not lines:
        raise DataError(f"empty CSV {path}: no header")
    header, rows = lines[0], lines[1:]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"malformed CSV {path}: row {i} has {len(row)} cells, the header {len(header)}")
    return header, rows


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


@dataclass(frozen=True)
class _DatasetSidecar:
    format_version: int
    spec: DatasetSpec


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
    d = ds.features.shape[1]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["label"])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])
    return csv_path, write_json(csv_path.with_suffix(".json"), _DatasetSidecar(1, ds.spec))


def load_dataset(csv_path) -> Dataset:
    csv_path = Path(csv_path)
    spec = read_json(_DatasetSidecar, csv_path.with_suffix(".json"), version=1).spec
    header, rows = read_csv(csv_path)
    expected = [f"x{i}" for i in range(spec.feature_dim)] + ["label"]
    if header != expected:
        raise DataError(f"dataset CSV {csv_path}: header {header} does not match sidecar spec (want {expected})")
    if len(rows) != spec.num_samples:
        raise DataError(f"dataset CSV {csv_path}: {len(rows)} rows but sidecar spec says {spec.num_samples}")
    d = spec.feature_dim
    try:
        features = np.array([[float(v) for v in row[:d]] for row in rows])
        labels = np.array([int(row[d]) for row in rows], dtype=np.int64)
    except ValueError as exc:
        raise DataError(f"malformed dataset CSV {csv_path}: {exc}") from exc
    return Dataset(features=features, labels=labels, spec=spec)
