"""Every name the benchmark's span tracer wraps must exist in the package.

`bench/spans.py` patches package functions by name from outside the package,
so a renamed or deleted target would otherwise only show up when
`bench/run.py --trace 1` runs.  This installs a tracer over the loaded
package, checks that each target was wrapped, and restores the originals.
"""
import importlib
import sys
from pathlib import Path

import wsganlab  # noqa: F401  (loads every module the tracer patches)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402


def _lookup(module_name: str, attr: str):
    owner = importlib.import_module(f"wsganlab.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__.get(meth)
    return getattr(owner, attr, None)


def test_every_trace_target_resolves():
    originals = {name: _lookup(module, attr) for name, module, attr, _hook in spans.TARGETS}
    assert [name for name, fn in originals.items() if fn is None] == []
    tracer = spans.Tracer()
    try:
        tracer.install()
        unwrapped = [
            name
            for name, module, attr, _hook in spans.TARGETS
            if getattr(_lookup(module, attr), "__wrapped__", None) is not originals[name]
        ]
    finally:
        tracer.restore()
    assert unwrapped == []
    assert [name for name, module, attr, _hook in spans.TARGETS if _lookup(module, attr) is not originals[name]] == []
