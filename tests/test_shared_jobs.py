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
