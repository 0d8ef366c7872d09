"""Every module-level function and class of ``src/hardylab``, and every
method that is not a dunder, has a caller in ``src/`` or ``perfbench/``:
code that only the tests reach belongs in ``tests/``.  A reference is a
``Name``, an ``Attribute`` or an import alias anywhere outside the
definition itself; names are matched by their text, not resolved."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hardylab"

# Definitions that a ROADMAP item will call, by that item.
ALLOWED = {
    "verify.tent": "item 3 (the weak form of the PDI)",
    "instance.weak_pdi_residual": "item 3 (the weak form of the PDI)",
    "verify.from_expr": "item 8 (test functions as expressions)",
    "report.parse_json": "item 10 (witness replay)",
}


def _definitions():
    """(qualified name, bare name, file, first line, last line) of every
    module-level function and class, and every non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        qualified = f"{path.stem}.{node.name}.{item.name}"
                        yield qualified, item.name, path, item.lineno, item.end_lineno


def _references():
    """Each referenced name, with the (file, line) of every reference."""
    refs = {}
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_definition_in_src_has_a_caller_outside_tests():
    refs = _references()
    unreached = sorted(
        qualified
        for qualified, name, path, first, last in _definitions()
        if all(p == path and first <= line <= last for p, line in refs.get(name, ()))
    )
    assert unreached == sorted(ALLOWED), (
        "give each name a caller in src/ or perfbench/, move it into tests/, "
        "or, once its ROADMAP item calls it, drop it from ALLOWED"
    )
