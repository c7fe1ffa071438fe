"""Span tracing for the benchmark, kept entirely outside the package.

A `Tracer` wraps public functions of the wsganlab modules at every attribute a
caller looks them up by (module globals, names imported with ``from ... import``,
class attributes, and function tables such as ``nn._ACTIVATIONS``).  Each call
records one span: name, start, end and the index of its parent span.  Spans
stay in compact in-memory arrays until the run ends; `layer_table` then turns
them into call counts, inclusive times and self times (a span's duration minus
the time its child spans cover).  `restore` puts every original back, so the
same process can run untraced work afterwards.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

_AUTODIFF_OPS = (
    "add", "sub", "mul", "scale", "matmul", "affine", "relu", "sigmoid", "tanh",
    "exp", "log", "clip", "softmax", "log_softmax", "mean", "total", "concat", "detach",
)


def _np(values: array, dtype) -> np.ndarray:
    # copy, so the array is not left exporting its buffer (which blocks appends)
    return np.frombuffer(values, dtype=dtype).copy()


def _file_bytes(result) -> int:
    paths = result if isinstance(result, tuple) else (result,)
    return sum(Path(p).stat().st_size for p in paths)


def _after_save(counter):
    def hook(tracer, args, result):
        tracer.add(counter, _file_bytes(result))
    return hook


def _after_train(tracer, args, result):
    dataset, _L, config = args[:3]
    n = len(dataset.features)
    tracer.add("wsgan.batches", config.epochs * math.ceil(n / config.batch_size))


def _after_ds(tracer, args, result):
    tracer.add("labelmodel.dawid_skene_fit.iterations", result.iterations)


def _after_theory(tracer, args, result):
    tracer.add("theory.entries", len(result.entries))
    tracer.add("theory.failed_entries", len(result.failures()))


def _after_benchmark(tracer, args, result):
    tracer.add("harness.failures", len(result.failures))


# (span name, wsganlab module, attribute, hook run on the result)
TARGETS = (
    [(f"autodiff.ops.{op}", "autodiff", op, None) for op in _AUTODIFF_OPS]
    + [
        ("autodiff.backward", "autodiff", "backward", None),
        ("autodiff.adam_step", "autodiff", "Adam.step", None),
        ("nn.mlp", "nn", "MLP.__call__", None),
        ("wsgan.train", "wsgan", "train", _after_train),
        ("wsgan.alignment_loss", "wsgan", "alignment_loss", None),
        ("wsgan.pseudolabel_table", "wsgan", "pseudolabel_table", None),
        ("wsgan.generate_samples", "wsgan", "generate_samples", None),
        ("wsgan.augment_dataset", "wsgan", "augment_dataset", None),
        ("wsgan.save_bundle", "wsgan", "save_bundle", _after_save("wsgan.save_bundle.bytes")),
        ("wsgan.load_bundle", "wsgan", "load_bundle", None),
        ("labelmodel.dawid_skene_fit", "labelmodel", "dawid_skene_fit", _after_ds),
        ("labelmodel.majority_vote", "labelmodel", "majority_vote", None),
        ("labelmodel.weighted_softmax_posterior", "labelmodel", "weighted_softmax_posterior", None),
        ("labelmodel.generate_synthetic_lfs", "labelmodel", "generate_synthetic_lfs", None),
        ("labelmodel.save_label_matrix", "labelmodel", "save_label_matrix",
         _after_save("labelmodel.save_label_matrix.bytes")),
        ("labelmodel.load_label_matrix", "labelmodel", "load_label_matrix", None),
        ("data.synth_dataset", "data", "synth_dataset", None),
        ("data.save_dataset", "data", "save_dataset", _after_save("data.save_dataset.bytes")),
        ("metrics.train_eval_classifier", "metrics", "train_eval_classifier", None),
        ("metrics.weighted_map", "metrics", "weighted_map", None),
        ("metrics.frechet_gaussian_distance", "metrics", "frechet_gaussian_distance", None),
        ("metrics.adjusted_rand_index", "metrics", "adjusted_rand_index", None),
        # the theory suite's entry point lives in harness; it is the theory layer's boundary
        ("theory.run_theory_suite", "harness", "run_theory_suite", _after_theory),
        ("theory.verify_rcgan_tv_chain", "theory", "verify_rcgan_tv_chain", None),
        ("harness.run_benchmark", "harness", "run_benchmark", _after_benchmark),
        ("harness.run_augmentation", "harness", "run_augmentation", None),
        ("harness.verify_benchmark_dir", "harness", "verify_benchmark_dir", None),
    ]
)


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _wrap(self, name: str, fn, hook):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "wsganlab" or n.startswith("wsganlab.")]
        for name, module_name, attr, hook in self.targets:
            owner = importlib.import_module(f"wsganlab.{module_name}")
            if "." in attr:  # a method: patch the class attribute every instance looks up
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], hook))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._set(value, k, wrapped)
        return self

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def layer_table(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = _np(self.name_id, np.int32)
        parents = _np(self.parent, np.int32)
        dur = _np(self.end, np.float64) - _np(self.start, np.float64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {self.names[i]: (int(calls[i]), float(total[i]), float(own[i])) for i in range(k) if calls[i]}

    def dump(self, path) -> Path:
        """Write every span and counter to one .npz file."""
        path = Path(path)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(self.counters)),
            name_id=_np(self.name_id, np.int32),
            parent=_np(self.parent, np.int32),
            start=_np(self.start, np.float64),
            end=_np(self.end, np.float64),
        )
        return path


def layer_value(metric: str, table: dict, counters: dict) -> float:
    """A per-layer metric by its name: ``<span>.calls``, ``<span>.self_s`` and
    ``<span>.s`` sum over spans named ``<span>`` or ``<span>.*``; any other
    name is a counter."""
    for suffix, column in ((".calls", 0), (".self_s", 2), (".s", 1)):
        if metric.endswith(suffix):
            base = metric[: -len(suffix)]
            return float(sum(row[column] for name, row in table.items() if name == base or name.startswith(base + ".")))
    return float(counters.get(metric, 0.0))
