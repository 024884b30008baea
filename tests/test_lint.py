"""Source checks that need no linter: every name a module imports is used."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "homobounds").glob("*.py"))


def _unused_imports(path: pathlib.Path) -> list:
    """The names `path` imports but neither reads, lists in __all__, nor marks `# noqa: F401` on their line."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_the_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n__all__ = ['loads']\nprint(os.sep)\n")
    assert _unused_imports(module) == ["m.py:3: dumps"]
