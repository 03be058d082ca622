"""Each shared job has one copy in the package: one module writes CSV files,
one module defines the at-rest velocity threshold, one module writes out
numpy's NaN rule for a float minimum or maximum, and one constructor builds
every built-in control-affine model."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "safefilter"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _imports_csv(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            return True
    return False


def _defines(tree, name: str) -> bool:
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return True
    return False


def test_one_module_imports_csv():
    found = [name for name, tree in _modules() if _imports_csv(tree)]
    assert len(found) == 1, found


def test_one_module_defines_the_rest_threshold():
    found = [name for name, tree in _modules() if _defines(tree, "_REST_EPS")]
    assert len(found) == 1, found


def _is_nan_wins(node) -> bool:
    """``a if a < b or a != a else b`` (or with ``>``): numpy's NaN rule for
    minimum or maximum written out on floats."""
    if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.BoolOp)
            and isinstance(node.test.op, ast.Or)):
        return False
    ops = [(type(c.ops[0]), ast.dump(c.left), ast.dump(c.comparators[0]))
           for c in node.test.values if isinstance(c, ast.Compare) and len(c.ops) == 1]
    return (any(op in (ast.Lt, ast.Gt) for op, _, _ in ops)
            and any(op is ast.NotEq and left == right for op, left, right in ops))


def test_one_module_writes_out_the_nan_min_max_rule():
    found = [name for name, tree in _modules() if any(map(_is_nan_wins, ast.walk(tree)))]
    assert found == ["intervals.py"], found


def _definitions_calling(tree, name: str) -> list[str]:
    """The top-level functions and classes of ``tree`` that call ``name``
    (``<module>`` for a call outside them)."""
    return [getattr(stmt, "name", "<module>") for stmt in tree.body
            if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name
                   for n in ast.walk(stmt))]


def test_one_module_builds_system_models():
    found = {name: calls for name, tree in _modules()
             if (calls := _definitions_calling(tree, "SystemModel"))}
    assert found == {"dynamics.py": ["_control_affine_model", "make_linear_model"]}, found


def test_one_function_converts_inputs_to_float_vectors():
    """``_float_vector`` is the package's one spelling of
    ``np.atleast_1d(np.asarray(a, dtype=np.float64))``."""
    spelled = "np.atleast_1d(np.asarray("
    found = {name: count for name, _ in _modules()
             if (count := (SRC / name).read_text().count(spelled))}
    docs = [ast.get_docstring(node) for _, tree in _modules() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_float_vector"]
    assert len(docs) == 1 and spelled in docs[0], docs
    assert sum(found.values()) == 1, found


_CONVERSIONS = {"array", "asarray", "asanyarray", "atleast_1d", "_float_vector"}


def test_builtin_steps_and_drifts_take_float_arrays_as_given():
    """The five built-in ``step_fn``s and four drifts convert none of their
    arguments: the entry points in front of them have."""
    tree = ast.parse((SRC / "dynamics.py").read_text())
    checked = 0
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in ("step_fn", "drift")):
            continue
        checked += 1
        params = {a.arg for a in fn.args.args}
        converted = [ast.unparse(node) for node in ast.walk(fn) if isinstance(node, ast.Call)
                     and getattr(node.func, "attr", getattr(node.func, "id", None)) in _CONVERSIONS
                     and any(isinstance(a, ast.Name) and a.id in params for a in node.args)]
        assert not converted, (fn.name, fn.lineno, converted)
    assert checked == 9
