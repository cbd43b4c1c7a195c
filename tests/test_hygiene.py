"""AST scans: every imported name is used, no private name in src/ is left
unread, no comment or docstring in src/ names a private name that is gone, and
no code in src/ but ``fieldio.fmt`` spells the ``.17g`` float format.

The import scan covers src/, scripts/ and tests/.  Package ``__init__.py``
files are skipped (their imports are re-exports), and so is
``from __future__ import ...``.  The private-name scan flags a module-level
``_name`` of src/ that no src/ file reads, such as a kernel left behind when
its callers moved to a shared copy.  The prose scan flags a ``_name`` in a
comment or docstring of src/ that no src/ file defines, such as a helper
that was deleted while the text describing it stayed.  The format scan keeps
one path for writing floats: the numpy kernel of ``fieldio``, with ``fmt`` as
its fallback for the cells it leaves to ``%``.
"""

import ast
import io
import re
import tokenize
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'file: name' for each module-level _name (not __dunder__) that no source reads."""
    defined, read = [], set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path, name) for name in names if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{path}: {name}" for path, name in defined if name not in read]


def test_scan_flags_unread_private_names():
    sources = {
        "a.py": "_TABLE = (1, 2)\n_left = 0\n__all__ = []\ndef _helper():\n    return _TABLE\n"
                "def _base_point():\n    pass\nclass _Frame:\n    pass\n",
        "b.py": "from .a import _helper\nx = _helper()\n",
    }
    assert unread_private_names(sources) == ["a.py: _left", "a.py: _base_point", "a.py: _Frame"]


def test_every_private_name_in_src_is_read():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert unread_private_names({str(p.relative_to(ROOT)): p.read_text() for p in files}) == []


def prose_private_names(source: str) -> set[str]:
    """The _names that the comments and docstrings of a source mention."""
    texts = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    texts += [doc for node in ast.walk(ast.parse(source))
              if isinstance(node, nodes) and (doc := ast.get_docstring(node))]
    return {m for text in texts for m in re.findall(r"(?<!\w)_[A-Za-z]\w*", text)}


def defined_names(source: str) -> set[str]:
    """Names a source binds: functions, classes, arguments, imports and assignment targets."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_scan_flags_prose_naming_deleted_names():
    source = (
        '"""Wraps _solve; see also _gone."""\n'
        "def _solve(x_1):\n    # u_x and __init__ are no private names; _stale is\n"
        "    self._cache = x_1\n    return x_1  # like _cache\n"
    )
    assert prose_private_names(source) == {"_solve", "_gone", "_stale", "_cache"}
    assert prose_private_names(source) - defined_names(source) == {"_gone", "_stale"}


def test_prose_in_src_names_only_defined_private_names():
    files = sorted((ROOT / "src").rglob("*.py"))
    sources = [p.read_text() for p in files]
    # a module, private ones included, is defined by its file
    defined = set().union(*map(defined_names, sources), (p.stem for p in files))
    assert set().union(*map(prose_private_names, sources)) - defined == set()


def float_format_spellings(source: str, allowed: str = "") -> list[int]:
    """Lines of string constants (f-string format specs included) that contain
    '.17g', outside docstrings and outside the module-level function `allowed`."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            skip.add(id(body[0].value))  # a docstring, or a bare string statement
        if isinstance(node, ast.FunctionDef) and node.name == allowed and node in tree.body:
            skip.update(id(inner) for inner in ast.walk(node))
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and ".17g" in node.value and id(node) not in skip})


def test_scan_flags_float_format_spellings():
    source = (
        '"""Writes x as \'%.17g\' % x would."""\n'
        'def fmt(x):\n    return format(x, ".17g")\n'
        'def row(x, y):\n    """Not \'%.17g %.17g\'."""\n    return "%.17g %.17g" % (x, y)\n'
        'def cell(x):\n    return f"{x:.17g}"\n'
    )
    assert float_format_spellings(source, allowed="fmt") == [6, 8]
    assert float_format_spellings(source) == [3, 6, 8]


def test_only_fieldio_fmt_spells_the_float_format():
    found = {
        str(p.relative_to(ROOT)): lines
        for p in sorted((ROOT / "src").rglob("*.py"))
        if (lines := float_format_spellings(p.read_text(), "fmt" if p.name == "fieldio.py" else ""))
    }
    assert found == {}
