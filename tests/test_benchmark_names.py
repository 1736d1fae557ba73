"""The benchmark calls the package through module aliases (``B.envelope_curve``);
every name it reaches that way must exist, or the benchmark only finds out
when its operations fail."""
import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_workloads_call_existing_names():
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("reluflow.") and alias.asname
    }
    assert {"B", "C", "E", "F", "MC", "P"} <= set(modules)
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert used
    missing = sorted(
        f"{modules[alias]}.{attr}"
        for alias, attr in used
        if not hasattr(importlib.import_module(modules[alias]), attr)
    )
    assert not missing, f"perfbench/workloads.py calls names that are gone: {missing}"
