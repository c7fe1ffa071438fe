"""wsganlab benchmark: one workload per process, run from the repository root.

    python3 bench/run.py --workload harness_sweep --seed 1 --seconds 50 --trace 0

Workloads: labelmodel_large, harness_sweep (see workloads.py and
BENCHMARK.json).  The package is imported from ./src, never from an installed
copy.  Set-up (a fresh-interpreter import of wsganlab.cli plus building the
workload inputs) is repeated and its median reported.  Then whole units of
the workload run back to back until the next one would overrun --seconds;
timings are medians over units.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced units, prints the per-layer metrics of BENCHMARK.json (per traced
unit), writes every span to .bench_out/, and checks that traced and untraced
units produce identical outputs.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Scratch files go under
.bench_out/ and are removed at exit.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed before numpy loads; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NOTES = Path(__file__).resolve().parent / "notes.json"
SETUP_REPS = 3
MIN_UNITS = 2  # a median needs more than one; a traced run needs one of each kind
IMPORT_CODE = "import time; t = time.perf_counter(); import wsganlab.cli; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Import time of wsganlab.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(units, setup_times, attempted, failed) -> dict:
    results = [u["result"] for u in units]
    return {
        "setup_s": median(setup_times),
        "wall_s": median(u["wall"] for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": 1.0 - failed / attempted,
        "ds_fit_s": median(r["ds_fit_s"] for r in results),
        "ds_covered_accuracy": median(r["ds_covered_accuracy"] for r in results),
        "weighted_pl_accuracy": median(r["weighted_pl_accuracy"] for r in results),
    }


def s_per_epoch(units) -> dict:
    """Median seconds per training epoch by mode; 0 where a workload trains none."""
    out = {}
    for mode in ("infogan", "vector", "encoder"):
        values = [u["result"]["s_per_epoch"][mode] for u in units if mode in u["result"].get("s_per_epoch", {})]
        out[mode] = median(values) if values else 0.0
    return out


def per_layer(names, tracer, plain, traced) -> dict:
    table = tracer.layer_table()
    counters = dict(tracer.counters)
    n = len(traced)
    results = [u["result"] for u in traced]
    batches = counters.get("wsgan.batches", 0)
    accepted = sum(r.get("aug_accepted", 0) for r in results)
    tried = sum(r.get("aug_attempted", 0) for r in results)
    special = {
        "wsgan.align_batch_ratio": spans.layer_value("wsgan.alignment_loss.calls", table, counters) / batches
        if batches else 0.0,
        "harness.aug_accept_ratio": accepted / tried if tried else 0.0,
        "harness.files_written": sum(r.get("files_written", 0) for r in results) / n,
        "harness.bytes_written": sum(r.get("bytes_written", 0) for r in results) / n,
        "bench.trace_overhead_s": median(u["wall"] for u in traced) - median(u["wall"] for u in plain),
    }
    for mode, per_epoch in s_per_epoch(plain).items():
        special[f"wsgan.{mode}_s_per_epoch"] = per_epoch
    return {name: special[name] if name in special else spans.layer_value(name, table, counters) / n
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wsganlab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'wsganlab'}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import wsganlab

    if Path(wsganlab.__file__).resolve().parent != (SRC / "wsganlab").resolve():
        print(f"error: imported wsganlab from {wsganlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup, unit = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        inputs = setup(args.seed)
        setup_times.append(t_import + time.perf_counter() - t0)

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = spans.Tracer()
    units, failures = [], []
    attempted = failed = 0
    try:
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(units) % 2 == 1
            ctx = workloads.Context(scratch / f"unit{len(units)}")
            ctx.workdir.mkdir()
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = unit(inputs, ctx)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.restore()
            shutil.rmtree(ctx.workdir)
            units.append({"traced": traced, "wall": wall, "result": result})
            attempted += ctx.attempted
            failed += ctx.failed
            failures += ctx.failures
            if len(units) >= MIN_UNITS and time.perf_counter() - t_start + wall > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # same inputs, same outputs: across units, and with tracing on or off
    for u in units[1:]:
        attempted += 1
        if u["result"]["digest"] != units[0]["result"]["digest"]:
            failed += 1
            failures.append("outputs differ between units" + (" (traced vs untraced)" if args.trace else ""))

    plain = [u for u in units if not u["traced"]]
    traced_units = [u for u in units if u["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  units {len(plain)} untraced + {len(traced_units)} traced")
    print("unit walls " + " ".join(f"{u['wall']:.3f}{'T' if u['traced'] else ''}" for u in units))
    print("machine " + json.dumps(machine_facts()))
    for line in failures:
        print(f"FAILED {line}")
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(wanted, tracer, plain, traced_units)
        trace_file = tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        print(f"spans {len(tracer.start)} written to {trace_file.relative_to(ROOT)}")
        predictions = json.loads(NOTES.read_text())["layer_predictions"]
        for layer, text in predictions.items():
            print(f"layer {layer}: {text}")
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end(plain, setup_times, attempted, failed)
        for mode, per_epoch in s_per_epoch(plain).items():
            if per_epoch:
                print(f"  {mode}_s_per_epoch {per_epoch:.4f} s (reported, not gated)")
        mv_accuracy = median(u["result"]["mv_covered_accuracy"] for u in plain)
        print(f"  mv_covered_accuracy {mv_accuracy:.4f} fraction (reported, not gated)")
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    for name in wanted:
        print(f"  {name} {metrics[name]:.6g} {units_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]} for name in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
