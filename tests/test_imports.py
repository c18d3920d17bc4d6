import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "vertereg").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses, apart from ``from __future__``
    imports and the names listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_sees_an_unused_import_and_the_exemptions():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom math import inf, pi as PI\n"
              "from .geom import umeyama\n__all__ = ['umeyama']\nprint(sys.argv, PI)\n")
    assert unused_imports(source) == ["line 4: inf", "line 2: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
