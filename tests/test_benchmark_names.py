"""The benchmark calls the package through module aliases (``B.envelope_curve``)
and its tracer reads traced calls' arguments by name; every name it reaches
either way must exist, or the benchmark only finds out when its operations
fail. The demos, which only run by hand, are held to the same."""
import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from reluflow import cli

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


TRACING = WORKLOADS.with_name("tracing.py")


def test_tracer_probes_read_parameters_of_the_functions_they_trace():
    """Each probe reads the traced call's bound arguments by name
    (``a["t_end"]``); a renamed parameter would fail only traced runs."""
    tree = ast.parse(TRACING.read_text())
    probes = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "PROBES" for t in node.targets)
    )
    checked = 0
    for key, probe_name in zip(table.keys, table.values):
        module, function = (elt.value for elt in key.elts)
        probe = probes[probe_name.id]
        arg = probe.args.args[0].arg
        read = {
            node.slice.value
            for node in ast.walk(probe)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == arg
            and isinstance(node.slice, ast.Constant)
        }
        assert read, f"{probe.name} reads no argument"
        fn = getattr(importlib.import_module(f"reluflow.{module}"), function)
        params = set(inspect.signature(fn).parameters)
        assert read <= params, (
            f"{probe.name} reads {sorted(read - params)}, not parameters of "
            f"reluflow.{module}.{function}"
        )
        checked += 1
    assert checked == len(table.keys) >= 10


DEMOS = WORKLOADS.parents[1] / "demos"


def test_demos_import_existing_names():
    """A demo runs only by hand, so a public name it imports that is gone
    would otherwise go unnoticed; parsing costs no run time."""
    checked = 0
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reluflow"):
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"{path.name} imports names that are gone: {missing}"
                checked += len(node.names)
    assert checked


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_dynamics_workload_runs_one_shallow_and_one_deep_problem(monkeypatch):
    """The names above can all exist while a result attribute the workload
    reads (``.states``, ``.magnitudes``, ``.passed``, ``.lowers``) is gone,
    which would show only as failed benchmark operations. So run the
    workload's own per-problem step on the first m = 0 and the first m = 2
    problem of its default bank."""
    workloads = _load_workloads(monkeypatch)
    dynamics = workloads.Dynamics()
    bank = dynamics.setup(WORKLOADS.parents[1], None)
    for m in (0, 2):
        i = next(i for i, pb in enumerate(bank) if pb.m == m)
        res = workloads.PassResult()
        assert dynamics._one(i, bank[i], res) == [], f"m={m}"
        assert res.outputs


def test_grid_workload_passes_a_command_line_the_cli_parses(monkeypatch, tmp_path):
    """The grid workload builds a `reluflow run` command line; a flag it
    passes that the parser no longer takes would fail every grid operation.
    So build that command line, with and without a seed, and parse it
    without running the grid."""
    workloads = _load_workloads(monkeypatch)
    argvs = []

    def record(argv):
        argvs.append(argv)
        return 0

    monkeypatch.setattr(cli, "main", record)
    grid = workloads.Grid()
    for seed in (None, 7):
        work, _ = grid.run_pass(grid.setup(WORKLOADS.parents[1], seed), tmp_path, lambda: None)
        assert work() == (0, None)
    assert len(argvs) == 2
    for argv, seed in zip(argvs, (None, 7)):
        args = cli._parser().parse_args(argv)
        assert (args.command, args.seed) == ("run", seed)
        assert len(args.config) == len(list(WORKLOADS.parents[1].glob("configs/*.cfg")))
