"""Static checks on the package source."""

import ast
from pathlib import Path

import qcbplab

SOURCES = sorted(Path(qcbplab.__file__).parent.glob("*.py"))

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
    for path in SOURCES:
        found |= _unused_parameters(path)
    assert found == UNUSED_ALLOWED


# Names only their owner modules may use: the encoded member r(n, j) + TAIL_OFFSET
# of family 2 is stated in halting alone, and only halting reads its gap.
NAME_OWNERS = {
    "TAIL_OFFSET": {"halting"},
    "limit_gap_sq_ints": {"families", "halting"},
    "embed": {"qcbp", "families"},
    "isqrt": {"rationals"},  # every root in src/ is one of rationals' own
    "sqrt_upper_ints": {"rationals", "qcbp"},  # qcbp takes it only for the dual bound
}


def _names(path: Path) -> set[str]:
    """Every identifier the module names, defines, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_the_encoded_member_is_named_by_its_owners_only():
    names = {path.stem: _names(path) for path in SOURCES}
    found = {name: {stem for stem, named in names.items() if name in named} for name in NAME_OWNERS}
    assert found == NAME_OWNERS


def _unused_imports(path: Path) -> set[str]:
    """Names bound by imports outside any def or class that the module never names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack += ast.iter_child_nodes(node)
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {f"{path.stem}.{name}" for name in bound - named}


def test_every_import_is_used():
    found = set()
    for path in SOURCES:
        found |= _unused_imports(path)
    assert found == set()


def _half_powers(path: Path) -> set[str]:
    """Lines that raise to the constant power 0.5, by ``**`` or ``pow``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow" and len(node.args) >= 2:
            exponent = node.args[1]
        else:
            continue
        if isinstance(exponent, ast.Constant) and exponent.value == 0.5:
            found.add(f"{path.stem}:{node.lineno}")
    return found


def test_no_root_is_a_half_power():
    """A float ``x ** 0.5`` is C ``pow``, which need not round as ``sqrt`` does;
    a printed root of an exact value comes from ``rationals.float_sqrt_ints``."""
    found = set()
    for path in SOURCES:
        found |= _half_powers(path)
    assert found == set()
