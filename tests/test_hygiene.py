"""Source hygiene checks that need no linter: every import is used."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(REPO / "src").rglob("*.py"), *(REPO / "tests").rglob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read in the module.  A name
    listed in `__all__` counts as read (a re-export)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detects_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(d)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: system", "line 3: c"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
