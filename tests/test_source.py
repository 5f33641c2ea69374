"""Static checks on the package source."""

import ast
from pathlib import Path

import qcbplab
from qcbplab import _kernels

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
    "scaled_integers": {"rationals", "qcbp"},  # qcbp scales an instance in _realified only
    # only training and the kernel's array steps, which must not warn where its
    # Python-float loops cannot, silence numpy: the solver's batch loop does no
    # numpy arithmetic, and float_norm cannot warn, so no caller guards it
    "errstate": {"mlp", "_kernels"},
    # numpy computes in the kernel's grid scan and array steps and in the
    # network alone (and in cmd_nn's one format call), so the exact
    # subcommands and the solver's set-up start without it
    "np": {"_kernels", "mlp", "cli"},
    "numpy": {"_kernels", "mlp", "cli"},
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


def _calls(path: Path, names: set[str]) -> list[str]:
    """``module.def:name`` for each call of a bare name in ``names``, by its enclosing def."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) in names:
                found.append(f"{owner}:{child.func.id}")
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_generated_source_is_compiled_in_one_place():
    """Every generated primal-dual loop goes through ``_kernels._compiled``, whose
    one caller is the one loop builder ``_kernels._pd_loop``: one ``compile`` and
    one ``exec`` in the package."""
    found = sorted(call for path in SOURCES for call in _calls(path, {"exec", "compile"}))
    assert found == ["_kernels._compiled:compile", "_kernels._compiled:exec"]
    assert [call for path in SOURCES for call in _calls(path, {"_compiled"})] == ["_kernels._pd_loop:_compiled"]


def test_real_loops_take_no_root_of_a_square():
    """The real loops read |w| from w's sign: a one-row loop's source holds no
    ``sqrt(``, and a loop of two rows or more one, its dual norm's."""
    for n in range(2, 6):
        assert _kernels._pd_source(2, 2 * n, True).count("sqrt(") == 0
        for m in (2, 3):
            source = _kernels._pd_source(2 * m, 2 * n, True)
            assert source.count("sqrt(") == 1
            assert f"sqrt({' + '.join(f'v{i} * v{i}' for i in range(m))})" in source


# the certified solver's own functions: the batch loop, its exact set-up and
# certificates, polishing and its least-squares routine
SOLVER = {
    "solve_numeric",
    "_realified",
    "_certify_primal",
    "_dual_lower_bound",
    "_polish_primal",
    "_polish_dual",
    "_lstsq",
    "_reflect",
    "_dot",
}


def _blas_uses(node) -> list[str]:
    """Each ``@``, and each name or attribute ``dot``, ``matmul`` or ``linalg``, under ``node``."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult):
            found.append("@")
        name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
        if name in {"dot", "matmul", "linalg"}:
            found.append(name)
    return found


def test_the_solver_names_no_blas_or_lapack_entry_point():
    """No function of the certified solver multiplies through numpy, whose BLAS
    and LAPACK kernels the CPU picks, so a ``solve`` byte does not depend on the CPU."""
    tree = ast.parse((Path(qcbplab.__file__).parent / "qcbp.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert SOLVER <= defs.keys()
    assert {name: _blas_uses(defs[name]) for name in SOLVER} == {name: [] for name in SOLVER}
    # the check sees each kind of use
    probe = ast.parse("a @ b; a.dot(b); np.matmul(a, b); np.linalg.lstsq(a, b); c @= d")
    assert sorted(_blas_uses(probe)) == ["@", "@", "dot", "linalg", "matmul"]
