"""The import contract of the ``dlpeval`` package, each check in a fresh
interpreter so that no earlier import in the test session hides a load;
and README's library example, run as written."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def python(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter on ``src``."""
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


LOADED = "json.dumps(sorted(m for m in sys.modules if m.startswith('dlpeval')))"


def test_ingest_only_import_loads_no_other_layer():
    loaded = python("import json, sys, dlpeval\n"
                    "from dlpeval import GraphKind, ingest_csv\n"
                    f"print({LOADED})")
    assert loaded == ["dlpeval", "dlpeval.core", "dlpeval.errors"]


def test_exports_resolve_to_their_defining_objects():
    result = python(
        "import importlib, json, dlpeval\n"
        "same = all(getattr(dlpeval, name) is getattr(importlib.import_module("
        "f'dlpeval.{module}'), name) for module, names in dlpeval._EXPORTS.items() "
        "for name in names)\n"
        "scope = {}\n"
        "exec('from dlpeval import *', scope)\n"
        "try:\n"
        "    dlpeval.nope\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'same': same, 'all': dlpeval.__all__, 'dir': dir(dlpeval),\n"
        "                  'star': sorted(n for n in scope if n != '__builtins__'),\n"
        "                  'missing': missing}))")
    assert result["same"]
    assert len(result["all"]) == len(set(result["all"]))
    assert set(result["all"]) <= set(result["dir"])
    assert len(result["dir"]) == len(set(result["dir"]))
    assert "__all__" in result["dir"]
    assert result["star"] == sorted(result["all"])
    assert "nope" in result["missing"]


def test_cli_loads_every_traced_layer():
    # the benchmark's tracer wraps the layer functions it finds in sys.modules
    # after importing dlpeval.cli; a layer missing there would read 0
    tree = ast.parse((ROOT / "benchmark" / "trace_child.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    loaded = python(f"import json, sys, dlpeval.cli\nprint({LOADED})")
    assert {f"dlpeval.{layer}" for layer in layers} <= set(loaded)


def _calls(node: ast.AST, scope: tuple = ()):
    """Each call under ``node`` with the names of the classes and functions
    around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Call):
            yield inner, child
        yield from _calls(child, inner)


def test_numpy_parses_text_in_one_place():
    # every CSV reader hands its text to numpy through core._Text
    where = [(path.stem, ".".join(scope))
             for path in sorted((ROOT / "src" / "dlpeval").glob("*.py"))
             for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8")))
             if ast.unparse(call.func) in ("np.loadtxt", "numpy.loadtxt")]
    assert set(where) == {("core", "_Text.loadtxt")}


def test_readme_library_block_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n.*?```python\n(.*?)```", readme, re.S).group(1)
    rng = np.random.default_rng(5)
    src = rng.integers(0, 200, 3000)
    dst = (src + rng.integers(1, 200, 3000)) % 200  # no self-loops
    rows = (f"n{u},n{v},{t}" for u, v, t in zip(src, dst, np.arange(3000) // 3))
    (tmp_path / "interactions.csv").write_text(
        "source,destination,timestamp\n" + "\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    aucs = {name: float(auc) for name, auc in (line.split() for line in printed[-3:])}
    assert list(aucs) == ["HE", "OE", "IE"]
    assert all(0.0 <= auc <= 1.0 for auc in aucs.values())
