"""Every function and class defined in the package is used by the program:
named by package code outside its own definition, exported by
`__init__.py`, or named by the benchmark or the tools. Helpers only tests
call belong in the test suite (`oracle_ops.py` holds the engine's). And
every parameter default is a mode the program selects: some call in the
program sets that parameter to another value, unless the function is
exported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stroketok"
# the program: the package, the benchmark and the tools
PROGRAM = (PACKAGE, ROOT / "perfbench", ROOT / "tools")


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


def exported_names():
    """The names `__init__.py` imports from the package's modules."""
    return {
        alias.name
        for node in ast.walk(parse(PACKAGE / "__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_definition_in_the_package_is_used_by_the_program():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    trees = {p.name: parse(p) for p in modules}
    package_refs = [ref for tree in trees.values() for ref in references(tree)]
    outside = exported_names()
    for folder in PROGRAM[1:]:
        for p in sorted(folder.glob("*.py")):
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


def program_calls():
    """Every call in the program's files, keyed by the name it calls: the
    function's own name through any `import ... as` alias, or the class's
    name for a call that constructs one."""
    trees = [parse(p) for folder in PROGRAM for p in sorted(folder.glob("*.py"))]
    aliases = {
        alias.asname: alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                calls.setdefault(aliases.get(name, name), []).append(node)
    return calls


def sets(call, index, name):
    """Whether `call` passes the parameter at positional `index` (None for
    keyword-only) called `name`; a `*args` or `**kwargs` may pass any."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    head = call.args[: index + 1]
    return len(head) > index or any(isinstance(arg, ast.Starred) for arg in head)


def test_every_parameter_default_in_the_package_is_set_by_some_call():
    calls = program_calls()
    exported = exported_names()
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        classes = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a method's call sites pass no `self`; a class call runs __init__
            owner = classes.get(id(node))
            name = owner if owner and node.name == "__init__" else node.name
            if name in exported:
                continue
            positional = node.args.posonlyargs + node.args.args
            if owner and positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            with_default = [
                (i, a.arg) for i, a in enumerate(positional)
                if i >= len(positional) - len(node.args.defaults)
            ] + [
                (None, a.arg)
                for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None
            ]
            for index, arg in with_default:
                if not any(sets(call, index, arg) for call in calls.get(name, [])):
                    unset.append(f"{path.name}:{node.lineno} {node.name}({arg})")
    assert not unset, "defaults no program call overrides: " + ", ".join(unset)
