"""Mutation check of the test suite: plant one known bug at a time in a copy
of the tree and report which test, if any, catches it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py M1 M10     # the named ones

Each mutant is (name, file, old text, new text), and its old text must occur
exactly once in its file.  For each mutant the tree is copied to a temporary
directory and patched there, and the tests outside `test_acceptance.py` run
with `-x`; the acceptance tests run only when those all pass.  One line per
mutant says `killed` with the first failing test, or `SURVIVED`.  The exit
status is 1 when a mutant survives.  The file name keeps it out of pytest's
collection, so it is not part of the tier-1 run.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the alignment step gets another row's votes
    ("M1", "src/wsganlab/wsgan.py", "alignment_loss(bundle, x[cov], votes[cov], epoch)",
     "alignment_loss(bundle, x[cov], votes[np.roll(cov, 1)], epoch)"),
    # the alignment loss steps an optimizer that holds no parameters
    ("M2", "src/wsganlab/wsgan.py", "schedule.append((align, bundle.align_params(), 8e-5))",
     "schedule.append((align, [], 8e-5))"),
    # inference weighs every vote 0.5 in place of the learned weights
    ("M3", "src/wsganlab/wsgan.py", "weights = bundle.lf_weights(bundle.features(Tensor(x[covered]))).data",
     "weights = bundle.lf_weights(bundle.features(Tensor(x[covered]))).data * 0.0 + 0.5"),
    # inference gives LF j of m the weight learned for LF m - 1 - j
    ("M5", "src/wsganlab/wsgan.py", "weights = bundle.lf_weights(bundle.features(Tensor(x[covered]))).data",
     "weights = bundle.lf_weights(bundle.features(Tensor(x[covered]))).data[..., ::-1]"),
    # augmentation appends its pseudolabels in another order than its points
    ("M8", "src/wsganlab/wsgan.py", "labels=np.concatenate([base_labels, new_labels]),",
     "labels=np.concatenate([base_labels, np.random.default_rng(0).permutation(new_labels)]),"),
    # the benchmark's wsgan_encoder row trains in vector mode
    ("M10", "src/wsganlab/harness.py", '("wsgan_encoder", "encoder")', '("wsgan_encoder", "vector")'),
    # train steps on a loss it never checks
    ("train-finite", "src/wsganlab/wsgan.py", "if not math.isfinite(float(loss.data)):", "if False:"),
    # the LF weights see trunk features that carry gradient into the trunk
    ("align-detach", "src/wsganlab/wsgan.py", "weights = bundle.lf_weights(ad.detach(feats))",
     "weights = bundle.lf_weights(feats)"),
    # the worker pool returns its results last job first
    ("map-order", "src/wsganlab/harness.py", "            results.append(result)",
     "            results.insert(0, result)"),
    # Dawid-Skene keeps its uniform class prior through EM
    ("ds-prior", "src/wsganlab/labelmodel.py", "prior = posteriors.mean(axis=0)", "prior = np.full(C, 1.0 / C)"),
    # the end classifier's test set is drawn from the training data's stream
    ("test-stream", "src/wsganlab/harness.py", "_STREAM_TEST = 5", "_STREAM_TEST = _STREAM_DATA"),
    # a failed training leaves no record in the manifest
    ("bench-failures", "src/wsganlab/harness.py",
     'manifest.failures.append({"seed": seed, "model": model, "error": error})', "pass"),
    # the CLI builds each config from its JSON file or its defaults and drops the flags given
    ("cli-flags", "src/wsganlab/cli.py", "return dataclasses.replace(config, **_given(args, *flags))", "return config"),
    # the end classifier takes a config that trains nothing
    ("classifier-check", "src/wsganlab/metrics.py",
     "if self.hidden_dim < 1 or self.epochs < 0 or self.batch_size < 1:", "if False:"),
]

_SKIP = shutil.ignore_patterns(".git", "runs", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out",
                               ".benchmarks")


def _first_failure(tree: Path, *args: str) -> str | None:
    """The first failing test of a pytest run in `tree`, None when all pass."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *args]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode == 0:
        return None
    lines = [line for line in out.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return lines[0].split(" - ")[0].split(" ", 1)[1] if lines else f"pytest exit {out.returncode}"


def run(name: str, path: str, old: str, new: str) -> str | None:
    """The test that kills the mutant, or None when it survives."""
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: old text occurs {text.count(old)} times in {path}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        (tree / path).write_text(text.replace(old, new))
        return (_first_failure(tree, "tests", "--ignore=tests/test_acceptance.py")
                or _first_failure(tree, "tests/test_acceptance.py"))


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    survived = 0
    for mutant in chosen:
        killer = run(*mutant)
        survived += killer is None
        print(f"{mutant[0]:<15} {'killed by ' + killer if killer else 'SURVIVED'}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
