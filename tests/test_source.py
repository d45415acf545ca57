"""Source-level checks on the qgue package."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import qgue

# Removing a name from qgue is a behaviour change: edit this list on purpose.
PUBLIC_NAMES = [
    "GenusRow", "MonomialMap", "ONE", "Partition", "PointResult", "PoleError",
    "QPolynomial", "SUITE_NAMES", "Scalar", "SchurVector",
    "ShapeError", "SizeError", "SuiteResult", "XPoly", "ZERO", "apply_M0", "apply_M2",
    "binomial_family", "det", "evaluate_at", "family_expand", "functional_L",
    "gaussian_moment", "gaussian_op", "generalized_binomial", "genus_table",
    "has_discrepancies", "hermite", "hermite_expand", "hermite_norm",
    "hermite_squared_moment", "hook_moment_closed_form",
    "hook_partition", "integrate_power_sum", "integrate_schur", "integrate_symmetric",
    "level_density_moment", "m_q", "normalization", "p2m_closed_form",
    "pairing_genus_counts", "partitions", "power_sum_monomials", "power_sum_vector",
    "q_binomial", "q_derivative", "q_factorial", "q_integer", "qhz_lhs", "qhz_rhs",
    "render_json", "report_to_json", "schur_monomials", "series_coefficient",
    "shadow_hermite", "sigma_at_zero", "sigma_closed_form",
    "summary_table", "theorem5_lhs", "theorem5_rhs", "truncated_in_shadow_basis",
    "truncated_shadow", "vandermonde", "verify_suite",
]


def _trees():
    paths = sorted(Path(qgue.__file__).parent.glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_modules_parse_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10, and syntax new in a
    # later version (except*, PEP 695 generics) would fail to import there
    found = []
    for path in sorted(Path(qgue.__file__).parent.glob("*.py")):
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            found.append(f"{path.name}:{exc.lineno} {exc.msg}")
    assert not found, f"syntax newer than Python 3.10 in src/qgue: {found}"


def test_no_runtime_asserts():
    # `python -O` strips assert statements, so a runtime check must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/qgue: {found}"


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module]
    return []


def test_no_benchmark_imports():
    # the benchmark harness measures the package, so the package must not need it
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        for name in _imported_modules(node)
        if name.split(".")[0] == "perfbench"
    ]
    assert not found, f"imports of perfbench in src/qgue: {found}"


def test_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares no dependencies, so an import of an installed
    # third-party package (numpy, sympy) would pass here and fail elsewhere
    allowed = sys.stdlib_module_names | {"qgue"}
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        for name in _imported_modules(node)
        if name.split(".")[0] not in allowed
    ]
    assert not found, f"imports outside qgue and the standard library: {found}"


def _tracer_tables():
    """EXTRA and CLASSES of perfbench/tracer.py, read with ast: the package does not import it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tables = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("EXTRA", "CLASSES"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_tracer_names_exist():
    # the layer tracer wraps these names by string, so renaming one breaks
    # perfbench/check.py and every --trace 1 run; this fails in seconds
    tables = _tracer_tables()
    assert sorted(tables) == ["CLASSES", "EXTRA"]
    missing = [
        f"{layer}.{name}"
        for table in tables.values()
        for layer, names in table.items()
        for name in names
        if not hasattr(importlib.import_module(f"qgue.{layer}"), name)
    ]
    assert not missing, f"names the tracer wraps that qgue does not define: {missing}"


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(qgue).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)


def test_public_names_are_qgue_own():
    # a class or function of another library exported under a second name only
    # renames it; callers import the original
    foreign = [
        f"{name} from {value.__module__}"
        for name, value in vars(qgue).items()
        if not name.startswith("_")
        and callable(value)
        and not value.__module__.startswith("qgue.")
    ]
    assert not foreign, f"public names defined outside qgue: {foreign}"


def test_cli_start_up_imports_no_introspection():
    # dataclasses pulls in inspect, dis and tokenize, about 10 ms of every cold
    # qgue process; a fresh interpreter keeps pytest's own imports out of the count
    code = "import sys, qgue.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(qgue.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_all_entry_is_defined():
    missing = []
    for path in sorted(Path(qgue.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"qgue.{path.stem}" if path.stem != "__init__" else "qgue")
        missing += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not missing, f"__all__ entries that are not defined: {missing}"


def test_values_are_written_only_in_init():
    # values are shared freely, across threads too, so no method but
    # __init__ may assign to an attribute of self
    found = [
        f"{path.name}:{node.lineno} {cls.name}.{method.name} sets self.{node.attr}"
        for path, tree in _trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name != "__init__"
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ]
    assert not found, f"late writes to self in src/qgue: {found}"


def _class_names(cls):
    """Names a class body binds: its methods and its assigned attributes."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_dense_polynomials_share_one_implementation():
    classes = {
        node.name: node
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    # each subclass names its own zero and one; otherwise only these may be restated
    shared = _class_names(classes["_Dense"]) - {"__slots__", "_zero", "_one"}
    overrides = {"QPolynomial": {"__init__", "__eq__", "__hash__"}, "XPoly": set()}
    for name, allowed in overrides.items():
        restated = (_class_names(classes[name]) & shared) - allowed
        assert not restated, f"{name} restates _Dense: {sorted(restated)}"
    xpoly = _class_names(classes["XPoly"]) - {"__slots__", "_zero", "_one"}
    allowed = {"x_power", "is_monic", "__mul__", "__str__", "__repr__"}
    assert xpoly <= allowed


def _squares_in_a_loop(func):
    """Whether a loop in func squares a name: v = v * v or v *= v."""
    for loop in ast.walk(func):
        if not isinstance(loop, (ast.While, ast.For)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
                target, value = node.targets[0], node.value
                operands = (target, value.left, value.right)
            elif isinstance(node, ast.AugAssign):
                value, operands = node, (node.target, node.value)
            else:
                continue
            if isinstance(value.op, ast.Mult) and all(isinstance(o, ast.Name) for o in operands):
                if len({o.id for o in operands}) == 1:
                    return True
    return False


def test_one_square_and_multiply_loop():
    found = [
        f"{path.name}:{func.lineno} {func.name}"
        for path, tree in _trees()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and _squares_in_a_loop(func)
    ]
    assert [entry.split()[-1] for entry in found] == ["_power"], found


def _exported():
    """Each module's tree with its __all__ names, and the union of those names."""
    out = []
    for path, tree in _trees():
        stem = path.stem
        module = importlib.import_module("qgue" if stem == "__init__" else f"qgue.{stem}")
        out.append((path, tree, set(getattr(module, "__all__", ()))))
    return out, set().union(*(names for _, _, names in out))


def _dotted(node):
    """"a.b.c" for a Name or an Attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_no_public_pass_through_wrappers():
    # a public function whose whole body is `return g(its own arguments)`, for
    # another public function g (or a method of a public class), only renames
    # g; callers pass g itself.  For a module-level private g the public name
    # is the only one, so g's body belongs in it
    modules, public = _exported()
    found = []
    for path, tree, names in modules:
        private = {
            func.name
            for func in tree.body
            if isinstance(func, ast.FunctionDef) and func.name.startswith("_")
        }
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef) or func.name not in names:
                continue
            body = func.body[1:] if ast.get_docstring(func) is not None else func.body
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if not isinstance(call, ast.Call) or call.keywords:
                continue
            target = _dotted(call.func)
            params = [a.arg for a in func.args.args]
            args = [a.id if isinstance(a, ast.Name) else None for a in call.args]
            renamed = (public - {func.name}) | private
            if target and target.split(".")[0] in renamed and args == params:
                found.append(f"{path.name}:{func.lineno} {func.name} -> {target}")
    assert not found, f"public pass-through wrappers: {found}"


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_one_json_writer():
    # reports and CLI output share one layout, so one function calls json.dumps
    found = [
        f"{path.name}:{func.lineno} {func.name}"
        for path, tree in _trees()
        for func in _functions(tree)
        if any(
            isinstance(node, ast.Call) and _dotted(node.func) == "json.dumps"
            for node in ast.walk(func)
        )
    ]
    assert len(found) == 1, f"functions that call json.dumps: {found}"


def test_one_squared_q_binomial():
    # the hook term [m-1 over f]_{q^2} M_q(2m-1) is written once, in qxpoly._hook_term,
    # so one call passes squared=True: a second copy of the product would add one
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _dotted(node.func) == "q_binomial"
        and any(
            isinstance(arg, ast.Constant) and arg.value is True
            for arg in [*node.args[2:], *(k.value for k in node.keywords if k.arg == "squared")]
        )
    ]
    assert len(found) == 1, f"calls of q_binomial with squared=True: {found}"


def test_cli_errors_are_printed_only_by_main():
    # a command raises and main prints the one error line and returns 2
    tree = next(tree for path, tree in _trees() if path.name == "cli.py")
    found = [
        f"cli.py:{node.lineno} {func.name}"
        for func in _functions(tree)
        if func.name != "main"
        for node in ast.walk(func)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("error:")
    ]
    assert not found, f"error lines written outside main: {found}"


def _loaded_names(nodes):
    """Names the nodes read: each loaded Name, and each attribute read off one."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _module_bindings(tree):
    """(name, statement) for each name a module's top level defines or assigns."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_private_name_is_used():
    # a module-level private name that no module reads is dead code; a
    # function that only calls itself counts as unread
    trees = _trees()
    imported = {
        alias.name
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = []
    for path, tree in trees:
        for name, stmt in _module_bindings(tree):
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            elsewhere = [node for _, other in trees for node in other.body if node is not stmt]
            if name not in imported and name not in _loaded_names(elsewhere):
                found.append(f"{path.name}:{stmt.lineno} {name}")
    assert not found, f"module-level private names no module reads: {found}"


def test_every_import_is_used():
    # an import that its module neither reads nor re-exports is dead code
    found = []
    for path, tree in _trees():
        exported = set()
        for name, stmt in _module_bindings(tree):
            if name == "__all__":
                exported = set(ast.literal_eval(stmt.value))
        read = _loaded_names([tree]) | exported
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert not found, f"imports their module neither reads nor exports: {found}"
