"""Command-line front end.

Subcommands that write files put them under an output root taken from --out,
WSGANLAB_OUT or ./runs, in that order.  Exit status is nonzero on any
invariant violation (theory check failure, summary mismatch, rejected
augmentation making all rows invalid, bad inputs).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (DataError, DatasetSpec, load_dataset, read_csv, read_json, save_dataset, synth_dataset,
                   write_csv, write_json)
from .harness import (
    AUG_MODES,
    HarnessError,
    LfPlan,
    config_hash,
    default_benchmark_config,
    run_augmentation,
    run_benchmark,
    run_theory_suite,
    verify_benchmark_dir,
    ExperimentConfig,
    RunManifest,
    TheoryGridConfig,
)
from .labelmodel import (
    LfSpec,
    WeakSupError,
    dawid_skene_fit,
    generate_synthetic_lfs,
    load_label_matrix,
    majority_vote,
    save_label_matrix,
)
from .wsgan import TrainingConfig, TrainingError, save_bundle, train
from .theory import TheoryError

__all__ = ["main", "build_parser"]


def _out_root(args) -> Path:
    """The output root, not yet created: a command makes it only once its inputs pass their checks."""
    return Path(args.out or os.environ.get("WSGANLAB_OUT") or "./runs")


def _made_root(args) -> Path:
    path = _out_root(args)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsganlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wsganlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    spec = DatasetSpec()
    p = sub.add_parser("synth-data", help="sample a Gaussian-blob dataset and write CSV + sidecar")
    p.add_argument("--classes", type=int, default=spec.class_count)
    p.add_argument("--dim", type=int, default=spec.feature_dim)
    p.add_argument("--samples", type=int, default=spec.num_samples)
    p.add_argument("--radius", type=float, default=spec.radius)
    p.add_argument("--sigma", type=float, default=spec.sigma)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--spec", type=Path, help="JSON file of DatasetSpec fields; overrides the flags")
    p.add_argument("--name", default="dataset")
    p.add_argument("--out", help="output root (default $WSGANLAB_OUT or ./runs)")

    p = sub.add_parser("synth-lfs", help="apply synthetic labeling functions to a dataset")
    p.add_argument("--dataset", type=Path, required=True, help="dataset CSV produced by synth-data")
    p.add_argument("--specs", type=Path, help="JSON list of LF spec objects")
    plan = LfPlan()
    p.add_argument("--num-lfs", type=int, default=plan.num_lfs)
    p.add_argument("--accuracy-range", type=float, nargs=2, default=plan.accuracy_range)
    p.add_argument("--propensity-range", type=float, nargs=2, default=plan.propensity_range)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="lfs")
    p.add_argument("--out", help="output root")

    p = sub.add_parser("fit-labelmodel", help="fit majority vote or Dawid-Skene to a label matrix")
    p.add_argument("--lfs", type=Path, required=True, help="label-matrix CSV")
    p.add_argument("--model", choices=["mv", "ds"], default="ds")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--name", default="labelmodel")
    p.add_argument("--out", help="output root")

    p = sub.add_parser("train", help="train one model (encoder / vector / infogan)")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--lfs", type=Path, required=True)
    p.add_argument("--config", type=Path, help="JSON of TrainingConfig fields")
    p.add_argument("--mode", choices=["encoder", "vector", "infogan"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--name", default="model")
    p.add_argument("--out", help="output root")

    p = sub.add_parser("benchmark", help="run the multi-seed benchmark sweep")
    p.add_argument("--config", type=Path, help="JSON experiment config (defaults to the desk benchmark)")
    p.add_argument("--out", help="output root")
    p.add_argument("--dir-name", default="benchmark")

    p = sub.add_parser("augment", help="augmentation study on top of a benchmark run's encoders")
    p.add_argument("--manifest", type=Path, required=True, help="the benchmark run's manifest.json")
    p.add_argument("--n-synth", type=int, default=1000)
    p.add_argument("--mode", choices=list(AUG_MODES) + ["both"], default="both")
    p.add_argument("--out", help="output root")
    p.add_argument("--dir-name", default="augmentation")

    p = sub.add_parser("theory", help="run the numerical bound checks")
    p.add_argument("--grid", type=Path, help="JSON grid config")
    p.add_argument("--out", help="output root")
    p.add_argument("--dir-name", default="theory")

    p = sub.add_parser("report", help="pretty-print a benchmark summary and re-verify it")
    p.add_argument("--dir", type=Path, required=True, help="benchmark output directory")
    return parser


def _cmd_synth_data(args) -> int:
    if args.spec:
        spec = read_json(DatasetSpec, args.spec)
    else:
        spec = DatasetSpec(
            class_count=args.classes,
            feature_dim=args.dim,
            num_samples=args.samples,
            radius=args.radius,
            sigma=args.sigma,
            seed=args.seed,
        )
    data = synth_dataset(spec)
    csv_path, json_path = save_dataset(data, _made_root(args) / f"{args.name}.csv")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_synth_lfs(args) -> int:
    data = load_dataset(args.dataset)
    if args.specs:
        specs = read_json(list[LfSpec], args.specs)
    else:
        plan = LfPlan(
            num_lfs=args.num_lfs,
            accuracy_range=tuple(args.accuracy_range),
            propensity_range=tuple(args.propensity_range),
        )
        rng = np.random.default_rng(args.seed)
        specs = plan.sample(data.spec.class_count, rng)
    L = generate_synthetic_lfs(data.labels, specs, data.spec.class_count)
    csv_path, json_path = save_label_matrix(L, _made_root(args) / f"{args.name}.csv")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_fit_labelmodel(args) -> int:
    L = load_label_matrix(args.lfs)
    if args.model == "mv":
        table = majority_vote(L)
        info = {"model": "majority_vote", "class_count": L.class_count}
    else:
        result = dawid_skene_fit(L, max_iters=args.max_iters, tol=args.tol)
        table = result.posteriors
        info = {
            "model": "dawid_skene",
            "class_count": L.class_count,
            "accuracies": result.accuracies.tolist(),
            "prior": result.prior.tolist(),
            "converged": result.converged,
            "iterations": result.iterations,
            "log_likelihood": result.log_likelihood,
        }
    header = [f"p_{k}" for k in range(1, table.class_count + 1)] + ["covered"]
    rows = [list(row) + [bool(c)] for row, c in zip(table.probs, table.covered)]
    out = _made_root(args)
    csv_path = write_csv(out / f"{args.name}_posteriors.csv", header, rows)
    json_path = write_json(out / f"{args.name}.json", info)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_train(args) -> int:
    data = load_dataset(args.dataset)
    L = load_label_matrix(args.lfs)
    config = read_json(TrainingConfig, args.config) if args.config else TrainingConfig()
    overrides = {}
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    bundle, history = train(data, L, config)
    out = _made_root(args)
    ckpt = save_bundle(bundle, out / f"{args.name}_checkpoint.json")
    hist = history.save_csv(out / f"{args.name}_history.csv")
    print(f"wrote {ckpt} and {hist}")
    return 0


def _cmd_benchmark(args) -> int:
    config = read_json(ExperimentConfig, args.config) if args.config else default_benchmark_config()
    out_dir = _out_root(args) / args.dir_name
    manifest = run_benchmark(config, out_dir)
    print(f"benchmark {config_hash(config)[:12]} -> {out_dir}")
    if manifest.failures:
        for f in manifest.failures:
            print(f"FAILED run: {f}", file=sys.stderr)
        return 1
    return 0


def _cmd_augment(args) -> int:
    manifest = read_json(RunManifest, args.manifest, version=1).resolved(args.manifest.parent)
    if "config" not in manifest.files:
        raise HarnessError(f"{args.manifest}: manifest lists no config file")
    config = read_json(ExperimentConfig, manifest.files["config"])  # checked against the run's hash
    modes = list(AUG_MODES) if args.mode == "both" else [args.mode]
    out_dir = _out_root(args) / args.dir_name
    rows = run_augmentation(config, manifest, n_synth=args.n_synth, modes=modes, out_dir=out_dir)
    print(f"wrote {out_dir / 'augmentation.csv'}")
    rejected = [r for r in rows if not r[5]]
    for r in rejected:
        print(f"rejected augmentation: seed={r[0]} mode={r[1]}", file=sys.stderr)
    return 1 if len(rejected) == len(rows) and rows else 0


def _cmd_theory(args) -> int:
    grid = read_json(TheoryGridConfig, args.grid) if args.grid else TheoryGridConfig()
    out_dir = _out_root(args) / args.dir_name
    report = run_theory_suite(grid, out_dir)
    print(report.to_text())
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    header, raw_rows = read_csv(Path(args.dir) / "summary.csv")
    widths = [max(len(h), *(len(r[i]) for r in raw_rows)) if raw_rows else len(h) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in raw_rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    mismatches = verify_benchmark_dir(args.dir)
    if mismatches:
        for m in mismatches:
            print(f"summary mismatch: {m}", file=sys.stderr)
        return 1
    print("summary verified against per-seed rows")
    return 0


_COMMANDS = {
    "synth-data": _cmd_synth_data,
    "synth-lfs": _cmd_synth_lfs,
    "fit-labelmodel": _cmd_fit_labelmodel,
    "train": _cmd_train,
    "benchmark": _cmd_benchmark,
    "augment": _cmd_augment,
    "theory": _cmd_theory,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, WeakSupError, TrainingError, TheoryError, HarnessError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
