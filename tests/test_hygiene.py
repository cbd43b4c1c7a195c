"""Every imported name is used: an AST scan of src/, scripts/ and tests/.

Package ``__init__.py`` files are skipped (their imports are re-exports), and
so is ``from __future__ import ...``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """'line L: name' for each imported name that no expression reads."""
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
    # a quoted annotation such as u: "ScalarField2D" uses the names inside it
    for node in ast.walk(tree):
        quoted = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
            names = ast.walk(ast.parse(quoted.value, mode="eval"))
            used.update(n.id for n in names if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_flags_unused_names():
    source = (
        "from __future__ import annotations\nimport os.path\nfrom .grid import Field\n"
        "from .pde import PdeSolution, solve\ndef f(u: 'Field') -> None:\n    solve()\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: PdeSolution"]


def test_every_import_is_used():
    files = [p for d in ("src", "scripts", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    found = {
        str(p.relative_to(ROOT)): bad
        for p in files
        if p.name != "__init__.py" and (bad := unused_imports(p.read_text()))
    }
    assert found == {}
