"""Static checks on the package source."""

import ast
from pathlib import Path

import qcbplab

# Both are ignored and stay only while perfbench/workloads.py passes them;
# ROADMAP item 1b, which changes the benchmark, removes them from this list.
UNUSED_ALLOWED = {
    "families.separation_certificate._n_max",
    "mlp.train.seed",
}


def _unused_parameters(path: Path) -> set[str]:
    unused = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # lambdas may ignore their argument on purpose
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        named = {
            n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)
        }
        for arg in params:
            if arg is not None and arg.arg != "self" and arg.arg not in named:
                unused.add(f"{path.stem}.{node.name}.{arg.arg}")
    return unused


def test_every_parameter_is_used():
    found = set()
    for path in sorted(Path(qcbplab.__file__).parent.glob("*.py")):
        found |= _unused_parameters(path)
    assert found == UNUSED_ALLOWED
