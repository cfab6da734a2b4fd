"""The package exports only what the package or its benchmark uses."""

import ast
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


def exported_names() -> list[str]:
    tree = ast.parse((ROOT / "src/polygonspaces/__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used_outside_tests() -> set[str]:
    """Every name and attribute read in the package's modules and in the
    benchmark, leaving out the package's ``__init__`` and test files."""
    files = [
        path
        for path in sorted((ROOT / "src/polygonspaces").glob("*.py"))
        + sorted((ROOT / "bench").glob("*.py"))
        if path.name != "__init__.py" and not path.name.startswith("test_")
    ]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_outside_the_tests() -> None:
    names = exported_names()
    assert all(hasattr(polygonspaces, name) for name in names)
    used = names_used_outside_tests()
    uncalled = {name for name in names if name not in used}
    assert uncalled == set(TEST_ONLY)
