"""Source hygiene: every name a package module imports is used in it, every
public name it defines has a user outside the tests, no module imports or reads
another module's underscore name, every indented JSON file is written by
`data.write_json`, every dataclass field has a reader and is not read only by
its own `__post_init__` check, the package runs on numpy alone, the package
root binds only `__version__` and the modules, every name a demo imports from
the package exists, and only `harness` names the run manifest.

A module's public names are the functions, classes and assigned names at its
top level without a leading underscore; there are no `__all__` lists.
`__init__.py` is exempt from the name checks because its submodule imports
bind names that it never loads.
"""
import ast
import importlib
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
    """The functions, classes and assigned names at a module's top level
    without a leading underscore, in definition order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


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
    """`module.name` for each public name of `modules` (name -> source) with no user.

    A public name is a top-level function, class or assigned name without a
    leading underscore (`_exports`); an underscore name is private to its
    module, which `private_uses` checks.  A user is an import or `module.name`
    read in another package module or in one of the `users` sources, a
    (module, attribute) pair in `targets`, a load in its own module outside its
    own definition, or a backticked README mention.
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
        "autodiff": "def helper(): pass\ndef exp(): pass\ndef log(): pass\nclass Adam: pass\n"
        "def lonely(): return lonely()\ndef shown(): pass\ndef dead(): pass\n"
        "def _unexported(): return helper()\n",
        "nn": "from . import autodiff as ad\nclass Net: pass\nad.log\n",
    }
    init = "from .autodiff import dead, exp\nfrom .nn import Net\n"
    users = ["import numpy as np\nfrom wsganlab import Net\nnp.exp\nnp.lonely\n"]
    readme = "the `wsganlab.autodiff.shown` op, ```bash\nlonely\n```\n"
    got = unused_exports(modules, init, users, [("autodiff", "Adam.step")], readme)
    assert got == ["autodiff.exp", "autodiff.lonely", "autodiff.dead"]
    # a public constant is a name like any other; underscore names and imports are not public
    modules["nn"] += "LIMIT = 3\nWIDTH: int = 2\n_SCALE = 4\nprint(WIDTH)\n"
    got = unused_exports(modules, init, users, [("autodiff", "Adam.step")], readme)
    assert got == ["autodiff.exp", "autodiff.lonely", "autodiff.dead", "nn.LIMIT"]


def test_every_export_has_a_user():
    modules = {p.stem: p.read_text() for p in MODULES}
    users = [p.read_text() for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    targets = [(module, attr) for _name, module, attr, _hook in spans.TARGETS]
    init, readme = (SRC / "__init__.py").read_text(), (ROOT / "README.md").read_text()
    assert unused_exports(modules, init, users, targets, readme) == []


def private_uses(modules: dict[str, str]) -> list[str]:
    """`user: module.name` for each underscore name of another package module
    that a module of `modules` (name -> source) imports or reads as
    `module.name`.  Dunders such as `__version__` are exempt."""
    found = []
    for user, source in modules.items():
        for module, name in sorted(_package_uses(ast.parse(source), {})):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{user}: {module}.{name}")
    return found


def test_private_use_detector():
    modules = {
        "wsgan": "from . import __version__, autodiff as ad\nfrom .labelmodel import _scatter, crisp_labels\n"
        "ad._node\nad.exp\n_local = crisp_labels\n",
        "labelmodel": "def _scatter(): pass\n_scatter()\n",
    }
    assert private_uses(modules) == ["wsgan: autodiff._node", "wsgan: labelmodel._scatter"]


def test_no_module_uses_another_modules_private_names():
    assert private_uses({p.stem: p.read_text() for p in MODULES}) == []


def test_init_binds_only_version_and_modules():
    _docstring, version, *imports = ast.parse((SRC / "__init__.py").read_text()).body
    assert ast.unparse(version).startswith("__version__ = ")
    assert all(isinstance(s, ast.ImportFrom) and s.level == 1 and s.module is None for s in imports)
    submodules = {alias.asname or alias.name for s in imports for alias in s.names}
    assert submodules <= {p.stem for p in MODULES}
    # `import wsganlab` loads every module the benchmark tracer patches
    assert {module for _name, module, _attr, _hook in spans.TARGETS} <= submodules


def test_only_harness_names_the_run_manifest():
    # a benchmark run is read through `harness.open_run`, so no other module knows the manifest's format
    naming = [p.name for p in sorted(SRC.glob("*.py")) if re.search(r"\bRunManifest\b", p.read_text())]
    assert naming == ["harness.py"]


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wsganlab":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []


def _attribute_reads(node) -> list[str]:
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]


def _dataclass_fields(tree):
    """(class, its field names) for each dataclass defined in `tree`."""
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [s.target for s in cls.body if isinstance(s, ast.AnnAssign)]
            yield cls, [f.id for f in fields if isinstance(f, ast.Name)]


def post_init_only_fields(modules: dict[str, str]) -> list[str]:
    """`module.Class.field` for each dataclass field that `modules` (name -> source)
    read in that class's `__post_init__` and nowhere else.

    A read is an attribute load of the field's name on any object, so a field
    shares its reads with every attribute of the same name.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = [attr for tree in trees.values() for attr in _attribute_reads(tree)]
    found = []
    for module, tree in trees.items():
        for cls, fields in _dataclass_fields(tree):
            post_init = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"]
            checked = [attr for fn in post_init for attr in _attribute_reads(fn)]
            for name in fields:
                if name in checked and reads.count(name) == checked.count(name):
                    found.append(f"{module}.{cls.name}.{name}")
    return found


def test_post_init_only_field_detector():
    modules = {
        "theory": "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Inputs:\n    used: int = 1\n    dead: int = 2\n    unread: int = 3\n"
        "    def __post_init__(self):\n        assert self.used > 0 and self.dead > 0\n"
        "class Plain:\n    alone: int = 2\n    def __post_init__(self):\n        assert self.alone > 0\n",
        "harness": "def bound(inputs):\n    return inputs.used\n",
    }
    assert post_init_only_fields(modules) == ["theory.Inputs.dead"]


def test_no_field_is_only_validated():
    assert post_init_only_fields({p.stem: p.read_text() for p in MODULES}) == []


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    """`module.Class.field` for each dataclass field of `modules` (name -> source)
    that no attribute load in `modules` or in the `readers` sources reads.

    A class with a `format_version` field is a file format, which needs every
    field whether or not one is read, so it is exempt.  As in
    `post_init_only_fields`, a read of any attribute of the same name counts.
    """
    reads = {attr for source in [*modules.values(), *readers] for attr in _attribute_reads(ast.parse(source))}
    found = []
    for module, source in modules.items():
        for cls, fields in _dataclass_fields(ast.parse(source)):
            if "format_version" not in fields:
                found += [f"{module}.{cls.name}.{name}" for name in fields if name not in reads]
    return found


def test_unread_field_detector():
    modules = {
        "wsgan": "from dataclasses import dataclass\n"
        "@dataclass\nclass Result:\n    labels: list\n    echo: int\n    shown: int\n"
        "    def describe(self):\n        return self.shown\n"
        "@dataclass(frozen=True)\nclass _Checkpoint:\n    format_version: int\n    params: dict\n"
        "class Plain:\n    alone: int = 2\n",
        "harness": "def run(result):\n    result.echo = 1\n    return len(result)\n",
    }
    users = ["from wsganlab.wsgan import Result\nprint(Result([], 0, 0).labels)\n"]
    assert unread_fields(modules, users) == ["wsgan.Result.echo"]


def test_every_field_has_a_reader():
    modules = {p.stem: p.read_text() for p in MODULES}
    readers = [p.read_text() for d in ("bench", "demos", "tests") for p in sorted((ROOT / d).glob("*.py"))]
    assert unread_fields(modules, readers) == []


def test_cli_import_leaves_scipy_out():
    # scipy is no dependency, and the worker-pool modules load only when a run starts a pool
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    heavy = ("scipy", "multiprocessing", "concurrent")
    code = f"import sys, wsganlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
