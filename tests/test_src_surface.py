"""Every function and class defined in the package is used by the program:
named by package code outside its own definition, exported by
`__init__.py`, or named by the benchmark or the tools. Helpers only tests
call belong in the test suite (`oracle_ops.py` holds the engine's)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stroketok"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def references(tree):
    """(name, ids of the enclosing defs) for every Name, Attribute and
    imported name."""
    out = []

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        elif isinstance(node, ast.alias):
            out.append((node.name, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return out


def test_every_definition_in_the_package_is_used_by_the_program():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    trees = {p.name: parse(p) for p in modules}
    package_refs = [ref for tree in trees.values() for ref in references(tree)]
    outside = {
        alias.asname or alias.name
        for node in ast.walk(parse(PACKAGE / "__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for folder in ("perfbench", "tools"):
        for p in sorted((ROOT / folder).glob("*.py")):
            outside.update(name for name, _ in references(parse(p)))

    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in outside or any(
                ref == name and id(node) not in enclosing for ref, enclosing in package_refs
            ):
                continue
            unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, "defined in src/ but not used by the program: " + ", ".join(unused)
