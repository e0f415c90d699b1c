"""Every function and class defined in the package is used by the program:
named by package code outside its own definition, exported by
`__init__.py`, or named by the benchmark or the tools. Helpers only tests
call belong in the test suite (`oracle_ops.py` holds the engine's). And
every parameter default is a mode the program selects: some call in the
program sets that parameter to another value, unless the function is
exported.

Settings are held to the same rule. Every optional flag of every
subcommand is passed by the benchmark or the tools, and every config key
is set by one of their configs, unless a table below states why it stays;
an entry of those tables that is now set, or names nothing, fails too."""

import argparse
import ast
import sys
import types
from pathlib import Path

from stroketok import cli, config

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stroketok"
# the program: the package, the benchmark and the tools
PROGRAM = (PACKAGE, ROOT / "perfbench", ROOT / "tools")

# (subcommand, flag) -> why it stays although no program call passes it
EXEMPT_FLAGS = {
    ("render", "--res"): "sets the picture a person asks for; no stage reads what "
    "render writes",
    ("render", "--stroke-px"): "sets the picture a person asks for; no stage reads what "
    "render writes",
}
# config key -> why it stays although no program config sets it
EXEMPT_KEYS = {
    "rvq_depth": "the paper's RVQ depth d: every token header carries it, and the "
    "benchmark reads it",
    "alpha": "the alpha of the three-term objective that codec_loss documents",
    "seed": "the trainers' one source of randomness",
}


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


def optional_flags() -> set[tuple[str, str]]:
    """(subcommand, flag) for every optional flag of every subcommand."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (command, flag)
        for command, p in sub.choices.items()
        for action in p._actions
        if not action.required and not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }


def own_nodes(stmt):
    """The nodes of a statement outside the statements nested in it."""
    todo = [stmt]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, ast.stmt))


def strings(nodes) -> set[str]:
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def passed_flags() -> set[tuple[str, str]]:
    """(subcommand, flag) for every "--flag" literal in the benchmark and
    the tools, paired with each subcommand named in the innermost statement
    that holds it: the call `["generate", ..., "--top-k", 5]`, or a loop
    over flag tuples whose body calls "generate"."""
    commands = {command for command, _ in optional_flags()}
    passed = set()
    for folder in PROGRAM[1:]:
        for path in sorted(folder.glob("*.py")):
            for stmt in ast.walk(parse(path)):
                if isinstance(stmt, ast.stmt):
                    flags = {s for s in strings(own_nodes(stmt)) if s.startswith("--")}
                    for command in strings(ast.walk(stmt)) & commands:
                        passed.update((command, flag) for flag in flags)
    return passed


def program_module(path: Path) -> types.ModuleType:
    """The benchmark or tool module at `path`, compiled in memory so that
    nothing is written beside it (its dataclasses look it up by name)."""
    module = types.ModuleType(f"{path.parent.name}_{path.stem}")
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def set_keys() -> set[str]:
    """The keys the program's configs set: the benchmark's workloads and
    the manifest tool's tiny pipeline."""
    workloads = program_module(ROOT / "perfbench" / "workloads.py")
    manifest = program_module(ROOT / "tools" / "artifact_manifest.py")
    texts = [w.config_text() for w in workloads.WORKLOADS.values()] + [manifest.TINY_CONFIG]
    return {key for text in texts for key in config.parse_config_text(text)}


def test_every_optional_flag_is_passed_by_the_program():
    unpassed = optional_flags() - passed_flags() - EXEMPT_FLAGS.keys()
    assert not unpassed, "flags no program call passes: " + ", ".join(
        f"{command} {flag}" for command, flag in sorted(unpassed)
    )


def test_every_config_key_is_set_by_a_program_config():
    unset = config._TARGETS.keys() - set_keys() - EXEMPT_KEYS.keys()
    assert not unset, "config keys no program config sets: " + ", ".join(sorted(unset))


def test_every_exemption_names_an_unset_setting():
    flags, passed = optional_flags(), passed_flags()
    stale = [f"{command} {flag}" for command, flag in EXEMPT_FLAGS
             if (command, flag) not in flags or (command, flag) in passed]
    keys = set_keys()
    stale += [key for key in EXEMPT_KEYS if key not in config._TARGETS or key in keys]
    assert not stale, "exempt, but set by the program or gone: " + ", ".join(stale)
