"""The package's public names, and no unused imports or definitions outside
`__all__` that nothing in the package refers to."""

import ast
import re
from pathlib import Path

import graphcover
from graphcover import instances

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(graphcover.__file__).resolve().parent


def _readme_library_names():
    """Backticked names in the bullet list of README's Library section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.search(r"^- .*?(?=\n\n)", section, re.M | re.S).group(0)
    return re.findall(r"`([A-Za-z_]\w*)`", bullets)


def test_all_matches_the_readme_library_section():
    names = _readme_library_names()
    assert len(names) == len(set(names))
    assert sorted(graphcover.__all__) == sorted(names)


#: The README's name for each field reader of `instances.DIRECTIVES`.
_FIELD_NAMES = {
    instances._count: "count",
    instances.read_int: "integer",
    instances._number: "number",
    instances._number_or_inf: "number or inf",
    instances._members: "integer list",
}


def _readme_directive_rows():
    """(directive, kinds, field names, field count of the example line) for
    each row of the directive table in README's File formats section."""
    section = (ROOT / "README.md").read_text().split("\n## File formats\n", 1)[1]
    rows = re.findall(r"^\| `(\w+)((?: [\w.]+)*)` \| ([^|]+) \| ([^|]+) \|$", section, re.M)
    return [
        (head, tuple(kinds.split(", ")), tuple(fields.split(", ")), len(line.split()))
        for head, line, kinds, fields in rows
    ]


def test_directive_list_matches_the_readme_file_formats_section():
    table = [
        (head, kinds, tuple(_FIELD_NAMES[read] for read in readers), len(readers))
        for head, taken in instances.DIRECTIVES.items()
        for kinds, (readers, *_) in taken.items()
    ]
    assert _readme_directive_rows() == table


def test_every_public_name_resolves():
    for name in graphcover.__all__:
        assert getattr(graphcover, name) is not None, name


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_the_package():
    """Also over the test files, where a deleted test can leave its imports."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {
        f"{path.parent.name}/{path.name}": _unused_imports(path)
        for path in paths
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _unreferenced_definitions(selected):
    """Sorted (module, name) of the module-level functions and classes whose
    names `selected` accepts and that nothing in the package refers to."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds) and not node.name.startswith("__")
        and selected(node.name)
    }
    assert defined
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(item for item in defined if item[1] not in referenced)


def test_every_private_definition_is_referenced_in_the_package():
    assert _unreferenced_definitions(lambda name: name.startswith("_")) == []


def test_every_unexported_public_definition_is_referenced_in_the_package():
    """A public name left out of `__all__` must still serve the package."""
    exported = set(graphcover.__all__)
    unreferenced = _unreferenced_definitions(
        lambda name: not name.startswith("_") and name not in exported
    )
    assert unreferenced == []
