"""Every module-level function and class of ``src/hardylab``, and every
method that is not a dunder, has a caller in ``src/`` or ``perfbench/``:
code that only the tests reach belongs in ``tests/``.  A reference is a
``Name``, an ``Attribute`` or an import alias anywhere outside the
definition itself; names are matched by their text, not resolved.  A method
that shares its name with a field or stored attribute of a class in
``src/`` is referenced only by a call ``.name(...)``, since reading the
field looks the same as naming the method.  Every name a module of
``src/hardylab`` imports is read in that module.  Every parameter with
a default is passed, by position or keyword, by some call in ``src/`` or
``perfbench/``: a default that no caller overrides is a constant.  And
every annotated field of a class in ``src/hardylab`` is read, as
``.name`` in load context, somewhere in ``src/`` or ``perfbench/``: a field
that nothing reads is work without a consumer."""

import ast
import math
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
    """(qualified name, bare name, file, first line, last line, is method) of
    every module-level function and class, and every non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node.lineno, node.end_lineno, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        qualified = f"{path.stem}.{node.name}.{item.name}"
                        yield qualified, item.name, path, item.lineno, item.end_lineno, True


def _field_names():
    """Names of the annotated class fields and ``self.name`` attributes
    assigned anywhere in ``src/hardylab``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                names.update(
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
            elif (
                isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                names.add(node.attr)
    return names


def _caller_sources():
    return sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")])


def _references():
    """Each referenced name, and separately each name called as
    ``.name(...)``, with the (file, line) of every reference."""
    refs, calls = {}, {}
    for path in _caller_sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.setdefault(node.func.attr, []).append((path, node.lineno))
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
    return refs, calls


def test_every_definition_in_src_has_a_caller_outside_tests():
    (refs, calls), fields = _references(), _field_names()
    unreached = sorted(
        qualified
        for qualified, name, path, first, last, method in _definitions()
        if all(
            p == path and first <= line <= last
            for p, line in (calls if method and name in fields else refs).get(name, ())
        )
    )
    assert unreached == sorted(ALLOWED), (
        "give each name a caller in src/ or perfbench/, move it into tests/, "
        "or, once its ROADMAP item calls it, drop it from ALLOWED"
    )


def _traced_sites():
    """(module stem, name) of every site ``perfbench/tracing.py`` wraps: the
    tracer replaces these module attributes, so an import it wraps is a
    reference even where the module itself does not read it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SITES"]:
            sites = ast.literal_eval(node.value)
            return {(module.rsplit(".", 1)[-1], name) for module, names in sites.items() for name in names}
    raise AssertionError("perfbench/tracing.py defines no SITES")


def test_every_import_in_src_is_read():
    sites = _traced_sites()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            (alias.asname or alias.name.split(".", 1)[0], node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # a name listed in __all__ is exported, which reads it
        read.update(
            elt.value for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            for elt in node.value.elts
        )
        unread += [
            f"{path.stem}.{name} (line {line})" for name, line in imported
            if name not in read and (path.stem, name) not in sites
        ]
    assert unread == [], "delete the imports that nothing in their module reads"


# Defaulted parameters that a ROADMAP item will pass, by that item.
UNSET_ALLOWED = {
    "quadrature.integrate(singular_splits)": "item 6 (roots as singular splits)",
    "report.make_record(quadrature_stats)": "item 10 (real quadrature_stats)",
    "verify.tent(height)": "item 3 (the weak form of the PDI)",
}


def _defaulted_parameters():
    """(qualified parameter, function name, position or None, keyword or
    None) of every parameter with a default of every function in
    ``src/hardylab``; a method's position does not count ``self``."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first_defaulted = len(positional) - len(args.defaults)
            offset = 1 if node in methods else 0
            for index, arg in enumerate(positional[first_defaulted:], first_defaulted):
                keyword = arg.arg if arg in args.args else None
                yield f"{path.stem}.{node.name}({arg.arg})", node.name, index - offset, keyword
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{path.stem}.{node.name}({arg.arg})", node.name, None, arg.arg


def _passed_arguments():
    """Function name -> (most positional arguments, keywords passed) over
    every call in ``src/`` and ``perfbench/``, ``"**"`` among the keywords
    for a call that unpacks a mapping.  Names are matched by their text.  A
    call of a class name calls ``__init__``; a call ``table[key](...)``
    calls every function of a dict of names assigned to ``table``; a call
    of a name assigned ``f if cond else g`` calls both ``f`` and ``g``."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in _caller_sources()]
    classes, tables, choices = set(), {}, {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ClassDef):
            classes.add(node.name)
        elif isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            value = node.value
            if isinstance(value, ast.Dict) and value.values and all(isinstance(v, ast.Name) for v in value.values):
                tables[node.targets[0].id] = [v.id for v in value.values]
            elif isinstance(value, ast.IfExp) and all(isinstance(v, ast.Name) for v in (value.body, value.orelse)):
                choices[node.targets[0].id] = [value.body.id, value.orelse.id]
    passed = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            callees = choices.get(func.id, [func.id])
        elif isinstance(func, ast.Attribute):
            callees = [func.attr]
        elif isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
            callees = tables.get(func.value.id, [])
        else:
            continue
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        for callee in callees:
            entry = passed.setdefault("__init__" if callee in classes else callee, [0, set()])
            entry[0] = max(entry[0], math.inf if starred else len(node.args))
            entry[1].update(k.arg or "**" for k in node.keywords)
    return passed


def test_every_defaulted_parameter_in_src_is_passed_outside_tests():
    passed = _passed_arguments()
    unset = []
    for qualified, name, index, keyword in _defaulted_parameters():
        count, keywords = passed.get(name, (0, set()))
        if not (index is not None and index < count or keyword in keywords or "**" in keywords):
            unset.append(qualified)
    assert sorted(unset) == sorted(UNSET_ALLOWED), (
        "pass each parameter from src/ or perfbench/, or drop it and its default, "
        "or, once its ROADMAP item passes it, drop it from UNSET_ALLOWED"
    )


# Classes whose fields are read without naming them, and how.
FIELD_READ_ALLOWED = {
    "report.RunRecord": "emit_json serializes every field at once, by vars(record)",
}


def _fields():
    """(class, field) of every annotated field of a class in ``src/hardylab``,
    the class qualified by its module."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{path.stem}.{node.name}", item.target.id


def test_every_field_in_src_is_read():
    read = {
        node.attr for path in _caller_sources() for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [(cls, name) for cls, name in _fields() if name not in read]
    assert [f"{cls}.{name}" for cls, name in unread if cls not in FIELD_READ_ALLOWED] == [], (
        "read each field in src/ or perfbench/, or delete it"
    )
    assert {cls for cls, _ in unread} >= set(FIELD_READ_ALLOWED), (
        "drop a class from FIELD_READ_ALLOWED once every field of it is read by name"
    )
