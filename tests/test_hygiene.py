"""AST scans: every imported name is used, no private name in src/ is left
unread, no comment or docstring in src/ names a private name that is gone,
no code in src/ but ``fieldio.fmt`` spells the ``.17g`` float format, and no
module of src/ but ``fieldio`` calls ``json.dump`` or ``json.dumps``.

The import scan covers src/, scripts/ and tests/.  Package ``__init__.py``
files are skipped (their imports are re-exports), and so is
``from __future__ import ...``.  The private-name scan flags a module-level
``_name`` of src/ that no src/ file reads, such as a kernel left behind when
its callers moved to a shared copy.  The prose scan flags a ``_name`` in a
comment or docstring of src/ that no src/ file defines, such as a helper
that was deleted while the text describing it stayed.  The format scan keeps
one path for writing floats: the numpy kernel of ``fieldio``, with ``fmt`` as
its fallback for the cells it leaves to ``%``.  The JSON scan keeps one JSON
writer, ``fieldio.write_json``, whose ``Records`` path must stay byte-identical
to ``json.dumps``.  The finite-difference scans keep the solver's discrete
calculus in ``pde``: no other module of src/ or scripts/ calls
``np.gradient``, and no code but ``pde._Level.apply`` takes one name sliced
``2:`` and ``:-2`` along one axis in one expression, the idiom of central and
second differences.  The operator scan keeps one operator type: no code of
src/ but ``pde._levels`` and ``pde._iterate`` calls ``_Level``.  The report
scan keeps the report keys in the result types: ``cli`` reads a
``VerifyReport`` only through ``summary()``, ``passes()`` and ``points``, and
a ``PdeSolution`` only through ``summary()`` and its grids f, u and v.
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


def json_dump_calls(source: str) -> list[int]:
    """Lines that read json.dump or json.dumps, or import either from json."""
    dumps = {"dump", "dumps"}
    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if (
        isinstance(node, ast.Attribute) and node.attr in dumps
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ) or (
        isinstance(node, ast.ImportFrom) and node.module == "json"
        and any(alias.name in dumps for alias in node.names)
    )})


def test_scan_flags_json_dump_calls():
    source = (
        "import json\nfrom json import dumps as d, loads\n"
        "def save(obj, f):\n    json.dump(obj, f)\n    return json.dumps(obj), json.loads('1')\n"
        "text = 'json.dumps(x)'\n"
    )
    assert json_dump_calls(source) == [2, 4, 5]


def test_only_fieldio_writes_json():
    found = {
        str(p.relative_to(ROOT)): lines
        for p in sorted((ROOT / "src").rglob("*.py"))
        if p.name != "fieldio.py" and (lines := json_dump_calls(p.read_text()))
    }
    assert found == {}


def gradient_calls(source: str) -> list[int]:
    """Lines that read np.gradient or numpy.gradient, or import gradient from numpy."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if (
        isinstance(node, ast.Attribute) and node.attr == "gradient"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ) or (
        isinstance(node, ast.ImportFrom) and node.module == "numpy"
        and any(alias.name == "gradient" for alias in node.names)
    )})


def slice_axes(node: ast.Subscript, lower, upper) -> set[int]:
    """The axes that a subscript slices lower:upper, with constant ends and no step."""
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]

    def end(e):
        try:
            return None if e is None else ast.literal_eval(e)
        except ValueError:
            return e  # not a constant: equal to no int
    return {axis for axis, s in enumerate(index) if isinstance(s, ast.Slice) and s.step is None
            and end(s.lower) == lower and end(s.upper) == upper}


def difference_stencils(source: str, allowed: str = "") -> list[int]:
    """Lines of an arithmetic expression whose operands slice one name 2: and :-2
    along one axis, outside the functions and methods named `allowed`."""
    tree = ast.parse(source)
    skip = {id(inner) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == allowed for inner in ast.walk(node)}

    def operands(node):
        if isinstance(node, ast.BinOp):
            return operands(node.left) + operands(node.right)
        if isinstance(node, ast.UnaryOp):
            return operands(node.operand)
        return [node] if isinstance(node, ast.Subscript) else []

    def central(node) -> bool:
        subs = operands(node)
        return any(ast.unparse(a.value) == ast.unparse(b.value)
                   and slice_axes(a, 2, None) & slice_axes(b, None, -2) for a in subs for b in subs)

    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and id(node) not in skip and central(node)})


def test_scan_flags_finite_differences():
    source = (
        "import numpy as np\nfrom numpy import gradient, diff\n"
        "def d(f, h):\n    return (f[2:] - f[:-2]) / (2 * h), np.gradient(f, h), numpy.gradient(f)\n"
        "def lap(e):\n    return (e.v[1:-1, :-2] - 2.0 * e.v[1:-1, 1:-1]\n            + e.v[1:-1, 2:])\n"
        "def apply(e):\n    return e[2:] - 2.0 * e[1:-1] + e[:-2]\n"
        "def ok(f, g):\n    return f[1:] - f[:-1], f[2:] - g[:-2], f[2:, 1:-1] - f[1:-1, :-2], f[2::2] - f[:-2]\n"
    )
    assert gradient_calls(source) == [2, 4]
    assert difference_stencils(source, allowed="apply") == [4, 6]
    assert difference_stencils(source) == [4, 6, 9]


def test_finite_differences_live_in_pde():
    found = {}
    for p in [p for d in ("src", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]:
        source = p.read_text()
        if p.name == "pde.py":
            lines = difference_stencils(source, allowed="apply")
        else:
            lines = difference_stencils(source) + gradient_calls(source)
        if lines:
            found[str(p.relative_to(ROOT))] = lines
    assert found == {}


def level_constructions(source: str, allowed: tuple[str, ...] = ()) -> list[int]:
    """Lines that call _Level, by name or as an attribute, outside the
    module-level functions named in allowed."""
    tree = ast.parse(source)
    skip = {id(inner) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in allowed for inner in ast.walk(node)}
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in skip
                   and "_Level" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))})


def test_scan_flags_level_constructions():
    source = (
        "from . import pde\nfrom .pde import _Level\n"
        "def _levels(c, b):\n    return [_Level(c, b, 1.0, 1.0)]\n"
        "def frozen(c):\n    return _Level(c, 0.0, 1.0, 1.0)\n"
        "class _Drift:\n    def _levels(self):\n        return pde._Level(1.0, 0.0, 1.0, 1.0)\n"
        "lv = _Level\nop = _Levels(1.0)\n"
    )
    assert level_constructions(source, allowed=("_levels",)) == [6, 9]
    assert level_constructions(source) == [4, 6, 9]


def test_only_levels_and_iterate_build_operators():
    found = {
        str(p.relative_to(ROOT)): lines
        for p in sorted((ROOT / "src").rglob("*.py"))
        if (lines := level_constructions(p.read_text(), ("_levels", "_iterate") if p.name == "pde.py" else ()))
    }
    assert found == {}


# What cli may read of the result of each library call: the report keys come from summary().
CLI_RESULTS = {"verify_fields": {"summary", "passes", "points"}, "solve_dirichlet": {"summary", "f", "u", "v"}}


def result_reads(source: str, allowed: dict[str, set[str]]) -> list[int]:
    """Lines that read a name bound, in the same function, to a call of a key of
    allowed, other than as name.attr with attr in that key's set."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = node.value.func
                attrs = allowed.get(getattr(func, "id", None) or getattr(func, "attr", None))
                bound.update((t.id, attrs) for t in node.targets if attrs and isinstance(t, ast.Name))
        through = {id(node.value) for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.attr in bound.get(node.value.id, ())}
        found.update(node.lineno for node in ast.walk(fn) if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load) and node.id in bound and id(node) not in through)
    return sorted(found)


def test_scan_flags_result_reads():
    source = (
        "def verify(args):\n    report = verify_fields(p, u, v, 9)\n    ok = report.passes(**b)\n"
        "    print(report.max_omega_residual, report.summary())\n    write(report, report.points)\n"
        "def solve(cfg):\n    sol = pde.solve_dirichlet(p, d, phi)\n"
        "    write(sol.f, sol.u, sol.v, sol.summary(), report.frames)\n    return sol.iterations\n"
    )
    assert result_reads(source, CLI_RESULTS) == [4, 5, 9]


def test_cli_reads_results_only_through_summary():
    assert result_reads((ROOT / "src" / "slfold" / "cli.py").read_text(), CLI_RESULTS) == []
