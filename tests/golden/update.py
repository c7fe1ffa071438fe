"""The golden digest of the pipeline's outputs, and the script that rewrites it.

The pipeline is a tiny benchmark (criterion 12's config) through
`run_benchmark`, then `run_augmentation` on its encoders, then a small
`run_theory_suite`.  `digest.json` records the build it ran on (numpy version,
BLAS name and version, machine) and the sha256 of every output file but
`manifest.json`, which holds wall times.  `csv/` holds copies of the CSV
outputs, for comparing cell by cell on another build.

    PYTHONPATH=src python tests/golden/update.py

rewrites both.  A change that rewrites them says what moved and why.
"""
from __future__ import annotations

import hashlib
import platform
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from wsganlab.data import DatasetSpec, write_json
from wsganlab.harness import (ExperimentConfig, LfPlan, TheoryGridConfig, run_augmentation, run_benchmark,
                              run_theory_suite)
from wsganlab.metrics import ClassifierConfig
from wsganlab.wsgan import TrainingConfig

GOLDEN = Path(__file__).resolve().parent
CONFIG = ExperimentConfig(
    dataset=DatasetSpec(class_count=3, feature_dim=2, num_samples=240, radius=3.0, sigma=0.5, seed=0),
    lf_plan=LfPlan(num_lfs=5, accuracy_range=(0.6, 0.85), propensity_range=(0.15, 0.3)),
    training=TrainingConfig(epochs=2, batch_size=16, seed=0),
    seeds=(11,),
    classifier=ClassifierConfig(hidden_dim=8, epochs=3, batch_size=32, seed=0),
)
GRID = TheoryGridConfig(mc_trials=2000, num_joints=5, hellinger_pairs=50)


def build() -> dict:
    """The numerical build the outputs depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "machine": platform.machine()}


def run_pipeline(out: Path) -> dict:
    """Run the pipeline under `out`; the sha256 of each output file but the manifest, by relative path."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a 2-epoch generator may leave a class out
        manifest = run_benchmark(CONFIG, out / "benchmark")
        run_augmentation(CONFIG, manifest, n_synth=60, out_dir=out / "augmentation")
        run_theory_suite(GRID, out / "theory")
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        hashes = run_pipeline(out)
        shutil.rmtree(GOLDEN / "csv", ignore_errors=True)
        for rel in hashes:
            if rel.endswith(".csv"):
                (GOLDEN / "csv" / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / rel, GOLDEN / "csv" / rel)
    write_json(GOLDEN / "digest.json", {"build": build(), "sha256": hashes}, sort_keys=True)
    print(f"wrote {GOLDEN / 'digest.json'}: {len(hashes)} files on {build()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
