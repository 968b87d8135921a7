"""Every name a package module imports is used there or exported, and every
private name it defines is read there."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "d21alpha"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" binds c
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _unread_private_names(tree: ast.Module) -> list[str]:
    """Private module-level names, functions and methods that the module never reads.

    A name is read where it is loaded as a name (``_x``) or as an attribute
    (``self._x``, ``Owner._x``).
    """
    defined = {}
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((name, node.lineno) for name in names
                           if name.startswith("_") and not name.startswith("__"))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return [f"line {line}: {name}" for name, line in defined.items()
            if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert _unread_private_names(ast.parse(path.read_text())) == []


def test_an_unread_private_name_is_caught():
    tree = ast.parse(
        "_UNIT = 1\n"
        "_READ = 2\n"
        "def _helper(): return _READ\n"
        "class C:\n"
        "    def _used(self): return self._used\n"
        "    def _dead(self): pass\n"
    )
    assert _unread_private_names(tree) == [
        "line 1: _UNIT", "line 3: _helper", "line 6: _dead",
    ]
