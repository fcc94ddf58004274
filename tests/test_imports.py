"""Every module-level import in the package is used by its module.

No linter runs on this code base, so a deletion that leaves an import
behind is caught here, with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

import ppmalign

MODULES = sorted(Path(ppmalign.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads.

    A name listed in ``__all__`` counts as read: that is how a package
    re-exports it.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    src = "import io\nimport math\nfrom os import path as p, sep\n__all__ = ['sep']\nmath.pi\n"
    assert unused_imports(src) == ["line 1: io", "line 3: p"]
