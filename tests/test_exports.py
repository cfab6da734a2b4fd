"""The package exports only what the package or its benchmark uses, and
its exported classes have no public method or property that only the
tests read.

Both checks scan names: a method passes when any attribute of its name
is read in ``src/`` or ``bench/`` outside its own class body.  So a method
whose name other objects share escapes the scan: a ``dim`` property of
``SimplicialComplex`` that only the tests read would pass, because cells
have ``.dim``.
"""

import ast
import functools
import inspect
import pathlib

import polygonspaces

ROOT = pathlib.Path(__file__).resolve().parent.parent

# exported names with no caller outside the tests, each with its reason
TEST_ONLY = {
    "up_covers": "a code's one-set extensions: how a census of the code "
    "tree reaches each code's children",
    "minimal_code": "the bottom of the order on codes: where a census of "
    "the code tree starts and where every saturated chain begins",
}


# public methods and properties of exported classes with no reader outside
# the tests and their own class, each as "Class.name" with its reason
TEST_ONLY_METHODS: dict[str, str] = {}


def exported_names() -> list[str]:
    tree = ast.parse((ROOT / "src/polygonspaces/__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


@functools.cache
def source_trees() -> tuple[ast.Module, ...]:
    """The package's modules and the benchmark, leaving out the package's
    ``__init__`` and test files."""
    files = [
        path
        for path in sorted((ROOT / "src/polygonspaces").glob("*.py"))
        + sorted((ROOT / "bench").glob("*.py"))
        if path.name != "__init__.py" and not path.name.startswith("test_")
    ]
    return tuple(ast.parse(path.read_text()) for path in files)


def names_used_outside_tests() -> set[str]:
    """Every name and attribute read outside the tests."""
    used = set()
    for tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def attributes_read_outside(class_name: str) -> set[str]:
    """Every attribute read outside the tests and outside the body of
    every class called ``class_name``."""
    used = set()
    for tree in source_trees():
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                continue
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    return used


def public_methods(cls: type) -> list[str]:
    """The public functions and properties defined in a class's own
    body, names that start with an underscore left out."""
    tree = ast.parse(inspect.getsource(cls))
    body = tree.body[0].body
    return [
        node.name
        for node in body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
    ]


def test_every_export_has_a_caller_outside_the_tests() -> None:
    names = exported_names()
    assert all(hasattr(polygonspaces, name) for name in names)
    used = names_used_outside_tests()
    uncalled = {name for name in names if name not in used}
    assert uncalled == set(TEST_ONLY)


def test_every_public_method_has_a_caller_outside_the_tests() -> None:
    classes = [
        getattr(polygonspaces, name)
        for name in exported_names()
        if inspect.isclass(getattr(polygonspaces, name))
    ]
    uncalled = set()
    for cls in classes:
        used = attributes_read_outside(cls.__name__)
        uncalled.update(
            f"{cls.__name__}.{name}"
            for name in public_methods(cls)
            if name not in used
        )
    assert uncalled == set(TEST_ONLY_METHODS)
