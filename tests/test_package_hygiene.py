"""Static checks on the package source: no unused imports, no dangling
exports, no keyword-only option that no program caller sets."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eigennet"
PROGRAM = (PACKAGE.parent, PACKAGE.parents[1] / "perfbench")


def imported_names(tree):
    """Names bound by the module's imports, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def top_level_names(tree):
    """Names the module binds at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def exported_names(tree):
    """The string entries of the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def test_modules_use_their_imports_and_define_their_exports():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "__init__.py":
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            problems += [
                f"{path.name}: imports {name} but never uses it"
                for name in sorted(imported_names(tree) - used)
            ]
        defined = top_level_names(tree)
        problems += [
            f"{path.name}: __all__ lists {name}, which it does not define"
            for name in exported_names(tree)
            if name not in defined
        ]
    assert not problems, "\n".join(problems)


def public_keyword_options(tree):
    """(function, parameter) for each keyword-only parameter of the module's
    public functions."""
    return [
        (node.name, arg.arg)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in node.args.kwonlyargs
    ]


def keywords_passed(paths):
    """(callee name, keyword) for each keyword argument of a call in the files."""
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                passed.update((name, kw.arg) for kw in node.keywords)
    return passed


def test_every_keyword_option_has_a_program_caller():
    # an option that only tests set is a constant, and one whose value the
    # callee can work out is no argument at all
    passed = keywords_passed(p for root in PROGRAM for p in sorted(root.rglob("*.py")))
    unset = [
        f"{path.name}: {function}(*, {arg}) is never passed by a program caller"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, arg in public_keyword_options(ast.parse(path.read_text()))
        if (function, arg) not in passed
    ]
    assert not unset, "\n".join(unset)


def test_readme_tour_runs():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0].split("```", 1)[0], namespace)
    assert {"dpm", "dla", "exact"} <= namespace.keys()
