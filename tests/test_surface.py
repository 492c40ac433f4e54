"""Public-surface tests: every public function and method in the package has
a caller inside the package, and the benchmark's tracer still finds the
names it rebinds.

A function counts as used when its name appears in ``src/palmvein`` as a name
or an attribute outside its own definition; a method only as an attribute
(``obj.method``), so a top-level function of the same name does not hide it.
Imports and ``__all__`` entries do not count, so re-exporting a function is
not a use of it.
"""

import ast
import importlib.util
from pathlib import Path

import palmvein
import palmvein.optim as optim
import palmvein.triplet as triplet
from palmvein.triplet import MarginSchedule, TripletHyper
from test_triplet import make_dataset, tiny_fe

PACKAGE = Path(palmvein.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "pvsbench" / "tracing.py"


def _public_defs(tree: ast.Module):
    """(qualified name, node, is_method) for top-level functions and class
    methods whose names do not start with ``_``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def test_every_public_function_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used: dict[tuple[str, bool], list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.setdefault((node.id, False), []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.setdefault((node.attr, True), []).append((module, node.lineno))

    uncalled = []
    for module, tree in trees.items():
        for qualname, node, is_method in _public_defs(tree):
            name = qualname.rpartition(".")[2]
            uses = used.get((name, True), []) + ([] if is_method else used.get((name, False), []))
            outside = [(m, line) for m, line in uses
                       if not (m == module and node.lineno <= line <= node.end_lineno)]
            if not outside:
                uncalled.append(f"{module}:{node.lineno} {qualname}")
    assert not uncalled, f"public names with no caller in the package: {uncalled}"


def test_tracer_rebinds_the_training_loop_and_restores_it(rng):
    # pvsbench's per-layer trace times optim.adam_step and counts frozen
    # steps from the .phase of train_triplet's log
    spec = importlib.util.spec_from_file_location("pvsbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = optim.adam_step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert optim.adam_step is not original
        triplet.train_triplet(tiny_fe(), make_dataset(rng), MarginSchedule(total_steps=2),
                              TripletHyper(batch_size=4, subset_size=4))
    finally:
        tracer.uninstall()
    assert optim.adam_step is original
    assert tracer.counts["optim.adam.steps"] == 2
    assert tracer.counts["triplet.steps.frozen"] == 2
