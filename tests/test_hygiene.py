"""Source hygiene: every name a package module imports is used in it, every
name it exports has a user outside the tests, every indented JSON file is
written by `data.write_json`, and the package runs on numpy alone.

`__init__.py` is exempt from both name checks because its imports are the
package's re-exports.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wsganlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

sys.path.insert(0, str(ROOT / "bench"))
import spans  # noqa: E402


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_detector():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nfrom __future__ import annotations\nnp.zeros(a)\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def json_file_writes(source: str) -> list[str]:
    """`json.dump` calls, and `json.dumps` calls given an `indent`, with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            name = node.func.attr
            if name == "dump" or (name == "dumps" and any(k.arg == "indent" for k in node.keywords)):
                found.append(f"json.{name} (line {node.lineno})")
    return found


def test_json_file_write_detector():
    source = ("import json\njson.dump(obj, fh)\njson.dumps(obj)\njson.loads(text)\n"
              "json.dumps(obj, sort_keys=True, separators=(',', ':'))\njson.dumps(obj, indent=2)\n")
    assert json_file_writes(source) == ["json.dump (line 2)", "json.dumps (line 6)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "data.py"], ids=lambda p: p.name)
def test_json_files_go_through_write_json(path):
    # the compact one-line checkpoint and config_hash's canonical text are not files of that format
    assert json_file_writes(path.read_text()) == []


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _own_loads(tree) -> set[str]:
    """Names a module loads outside the top-level statement that defines them."""
    used = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        else:
            defined = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        used |= {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} - defined
    return used


def _package_uses(tree, init_exports: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) pairs a file imports from the package or reads as `module.name`.

    A name imported from the package root is credited to the module it is
    re-exported from; attribute reads count only on names bound to a package
    module, so `np.exp` is not a use of `autodiff.exp`.
    """
    uses, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").split(".")[0] == "wsganlab":
                module = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                if module:
                    uses.add((module, alias.name))
                elif alias.name in init_exports:
                    uses.add((init_exports[alias.name], alias.name))
                else:  # a submodule
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wsganlab.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.add((aliases[node.value.id], node.attr))
    return uses


def unused_exports(modules: dict[str, str], init: str, users: list[str], targets, readme: str) -> list[str]:
    """`module.name` for each `__all__` name of `modules` (name -> source) with no user.

    A user is an import or `module.name` read in another package module or in
    one of the `users` sources, a (module, attribute) pair in `targets`, a load
    in its own module outside its own definition, or a backticked README mention.
    """
    init_exports = {}
    for node in ast.parse(init).body:
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            init_exports.update({alias.name: node.module for alias in node.names})
    trees = {name: ast.parse(source) for name, source in modules.items()}
    credited = {(module, attr.split(".")[0]) for module, attr in targets}
    for tree in list(trees.values()) + [ast.parse(source) for source in users]:
        credited |= _package_uses(tree, init_exports)
    mentioned = {word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"\w+", span)}
    missing = []
    for module, tree in trees.items():
        own = {(module, name) for name in _own_loads(tree)}
        for name in _exports(tree):
            if (module, name) not in credited | own and name not in mentioned:
                missing.append(f"{module}.{name}")
    return missing


def test_unused_export_detector():
    modules = {
        "autodiff": "__all__ = ['exp', 'log', 'Adam', 'helper', 'lonely', 'shown', 'dead']\n"
        "def helper(): pass\ndef exp(): pass\ndef log(): pass\nclass Adam: pass\n"
        "def lonely(): return lonely()\ndef shown(): pass\ndef dead(): pass\n"
        "def unexported(): return helper()\n",
        "nn": "from . import autodiff as ad\n__all__ = ['Net']\nclass Net: pass\nad.log\n",
    }
    init = "from .autodiff import dead, exp\nfrom .nn import Net\n"
    users = ["import numpy as np\nfrom wsganlab import Net\nnp.exp\nnp.lonely\n"]
    readme = "the `wsganlab.autodiff.shown` op, ```bash\nlonely\n```\n"
    got = unused_exports(modules, init, users, [("autodiff", "Adam.step")], readme)
    assert got == ["autodiff.exp", "autodiff.lonely", "autodiff.dead"]


def test_every_export_has_a_user():
    modules = {p.stem: p.read_text() for p in MODULES}
    users = [p.read_text() for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    targets = [(module, attr) for _name, module, attr, _hook in spans.TARGETS]
    init, readme = (SRC / "__init__.py").read_text(), (ROOT / "README.md").read_text()
    assert unused_exports(modules, init, users, targets, readme) == []


def test_cli_import_leaves_scipy_out():
    # scipy is no dependency, and the worker-pool modules load only when a run starts a pool
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    heavy = ("scipy", "multiprocessing", "concurrent")
    code = f"import sys, wsganlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
