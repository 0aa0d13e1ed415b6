"""The names the benchmark reads of the program.

perfbench/ wraps genregraph functions by name for its traced runs and
imports others for its workloads, so a renamed or removed one breaks the
benchmark. These checks parse perfbench/ and change nothing in it.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_layers():
    """tracer.LAYERS, read from its source without importing the tracer."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no LAYERS")


def genregraph_imports():
    """(file, module, name) of every `from genregraph... import name` in perfbench/."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "genregraph":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def test_every_traced_function_resolves():
    missing = [
        f"{layer}.{fn}"
        for layer, fns in traced_layers().items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"genregraph.{layer}"), fn, None))
    ]
    assert not missing


def test_every_name_the_workloads_import_resolves():
    imports = genregraph_imports()
    assert "workloads.py" in {path for path, _, _ in imports}
    missing = [
        (path, module, name)
        for path, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_the_cli_loads_every_traced_module(fresh_python):
    # the tracer imports genregraph.cli and then wraps each layer's functions
    # in sys.modules, so cli must load every module LAYERS names
    layers = sorted(traced_layers())
    done = fresh_python(
        "import sys\n"
        "import genregraph.cli\n"
        f"print([layer for layer in {layers!r} if 'genregraph.' + layer not in sys.modules])"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
