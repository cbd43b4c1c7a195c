"""Deterministic CSV / legacy-ASCII VTK / JSON writers and readers.

Floats are written as ``'%.17g' % x`` writes them (17 significant digits), so
a written file re-read reproduces every value bit for bit; all orderings are
fixed (node-major in x, then y).

Every table of floats goes through one numpy kernel, ``_table_bytes``, a block
of about ``_BLOCK_CELLS`` cells at a time.  Its cells come from ``_float17._cells``:
for a finite x = f 2^e (``np.frexp``), a Dekker two-product of f with a
double-double 2^e 10^p, from a table built on first use for the exponents
met, gives the 17-digit integer and the decimal exponent of x, correctly
rounded (the error is below 1e-14 of a unit in the last digit).  Four-digit
groups of ASCII come from a lookup table.  Each cell is laid out in four
64-bit words with fixed places for the sign, the ``0.000`` prefix, the
digits, the point and the exponent, and NUL bytes wherever a place is empty
(trailing zeros included), and one ``bytes.translate`` per block deletes the
NULs.  ``fmt`` writes the non-finite cells and the cells whose scaled value
lies within 1e-7 of a rounding tie.  ``_float17`` is imported by the first
table written, so a command that writes none does not compile it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .embedding import SurfaceSamples
from .grid import GridDomain, ScalarField2D


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_field_csv(field: ScalarField2D, path: str | Path, name: str = "value") -> None:
    dom = field.domain
    nodes = (np.repeat(dom.xs(), dom.ny), np.tile(dom.ys(), dom.nx), field.values.ravel())
    write_rows_csv(("x", "y", name), nodes, path)


def read_xyv_rows(path: str | Path) -> np.ndarray:
    """The x,y,value rows after a CSV's header line, as an (N, 3) array; ValueError otherwise."""
    text = Path(path).read_text().strip().splitlines()
    if not text or "," not in text[0]:
        raise ValueError(f"{path}: not an x,y,value CSV")
    rows = [line.split(",") for line in text[1:]]
    if any(len(r) != 3 for r in rows):
        raise ValueError(f"{path}: every row must be x,y,value")
    return np.array([float(t) for r in rows for t in r]).reshape(-1, 3)


def read_field_csv(path: str | Path) -> ScalarField2D:
    """Read what write_field_csv writes: x,y,value rows over a uniform grid, x outer, y inner.

    Rows in any other order, a missing node, or nodes spaced unevenly by more
    than 1e-9 of the axis span raise ValueError.
    """
    xs, ys, vals = read_xyv_rows(path).T
    ux, uy = np.unique(xs), np.unique(ys)
    nx, ny = ux.size, uy.size
    if not vals.size or nx * ny != vals.size or not (
        np.array_equal(xs, np.repeat(ux, ny)) and np.array_equal(ys, np.tile(uy, nx))
    ):
        raise ValueError(f"{path}: rows do not form a full node-major tensor grid (x outer, y inner)")
    for name, nodes in (("x", ux), ("y", uy)):
        span = nodes[-1] - nodes[0]
        if np.max(np.abs(nodes - np.linspace(nodes[0], nodes[-1], nodes.size))) > 1e-9 * span:
            raise ValueError(f"{path}: {name} nodes are not uniform to 1e-9 of their span")
    dom = GridDomain(float(ux[0]), float(ux[-1]), float(uy[0]), float(uy[-1]), nx, ny)
    return ScalarField2D(dom, vals.reshape(nx, ny))


def write_field_vtk(field: ScalarField2D, path: str | Path, name: str = "value") -> None:
    dom = field.domain
    count = dom.nx * dom.ny
    head = (
        f"# vtk DataFile Version 3.0\n{name}\nASCII\nDATASET STRUCTURED_GRID\n"
        f"DIMENSIONS {dom.nx} {dom.ny} 1\nPOINTS {count} double\n"
    )
    # VTK structured order: x varies fastest
    nodes = (np.tile(dom.xs(), dom.ny), np.repeat(dom.ys(), dom.nx), np.zeros(count))
    data = f"POINT_DATA {count}\nSCALARS {name} double 1\nLOOKUP_TABLE default\n"
    _write(path, head, _table_bytes(nodes, " "), data, _table_bytes([field.values.T.ravel()], " "))


def write_samples_csv(cloud: SurfaceSamples, path: str | Path) -> None:
    zs = [f"{part}_z{k}" for k in range(1, cloud.z.shape[1] + 1) for part in ("re", "im")]
    table = np.hstack([cloud.base, cloud.z.view(float)])
    write_rows_csv(["x", "y", "u", "v", "w", "theta", *zs], [table], path)


# --- point-cloud projections -------------------------------------------------

def parse_projection(spec: str, n: int) -> list[tuple[str, int]]:
    """Parse 're:z3,im:z3,re:z1' into [(part, index)] with 1-based indices."""
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 3:
        raise ValueError(f"projection needs exactly 3 coordinates, got {len(parts)}")
    out: list[tuple[str, int]] = []
    for p in parts:
        try:
            kind, zname = p.split(":")
            if kind not in ("re", "im") or not zname.startswith("z"):
                raise ValueError
            idx = int(zname[1:])
        except ValueError:
            raise ValueError(f"bad projection coordinate {p!r}; expected like re:z1")
        if not (1 <= idx <= n):
            raise ValueError(f"projection coordinate {p!r} out of range for n = {n}")
        out.append((kind, idx))
    return out


def write_points_vtk(cloud: SurfaceSamples, proj: list[tuple[str, int]], path: str | Path) -> None:
    z = cloud.z
    cols = [z[:, idx - 1].real if kind == "re" else z[:, idx - 1].imag for kind, idx in proj]
    count = len(z)
    head = f"# vtk DataFile Version 3.0\nembedded samples\nASCII\nDATASET POLYDATA\nPOINTS {count} double\n"
    # "1 k" per vertex: small integers are written as integers
    vertices = (np.ones(count), np.arange(count, dtype=float))
    _write(path, head, _table_bytes(cols, " "), f"VERTICES {count} {2 * count}\n",
           _table_bytes(vertices, " "))


def write_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_rows_csv(header: Iterable[str], columns: Sequence[np.ndarray], path: str | Path) -> None:
    """A header line, then one row per entry of the equal-length columns.

    A column is a 1-d array of floats (written as fmt() writes them) or of
    bytes (dtype 'S', written as they are), or a 2-d float array of several
    adjacent columns.
    """
    _write(path, ",".join(header) + "\n", _table_bytes(columns, ","))


def _write(path: str | Path, *pieces: str | Iterable[bytes]) -> None:
    """Write text pieces and the byte blocks of _table_bytes, in order."""
    with open(path, "wb") as out:
        for piece in pieces:
            if isinstance(piece, str):
                out.write(piece.encode())
            else:
                out.writelines(piece)


# --- the float table kernel ----------------------------------------------------

_BLOCK_CELLS = 3072


def _table_bytes(columns: Sequence[np.ndarray], sep: str) -> Iterator[bytes]:
    """The rows of equal-length columns as bytes, a block of whole rows at a time.

    Cells are joined by sep and each row ends in a newline.  Columns are as
    write_rows_csv takes them; adjacent float columns are formatted together.
    """
    groups: list[np.ndarray] = []
    for col in map(np.asarray, columns):
        if col.dtype.kind == "S":
            groups.append(col)
        elif groups and groups[-1].dtype.kind == "f":
            groups[-1] = np.column_stack([groups[-1], col])
        else:
            col = col.astype(float, copy=False)
            groups.append(col if col.ndim == 2 else col[:, None])
    from ._float17 import _cells  # see the module docstring

    rows = len(groups[0]) if groups else 0
    width = sum(g.shape[1] if g.ndim == 2 else 1 for g in groups)
    step = max(1, _BLOCK_CELLS // max(width, 1))  # rows per block
    sep_byte = ord(sep)
    for start in range(0, rows, step):
        parts = []
        for group in groups:
            block = group[start : start + step]
            if block.dtype.kind == "S":
                part = np.full((len(block), block.itemsize + 1), sep_byte, np.uint8)
                part[:, :-1] = block.view(np.uint8).reshape(len(block), -1)
            else:
                part = _cells(block.ravel(), sep_byte).view(np.uint8).reshape(len(block), -1)
            parts.append(part)
        parts[-1][:, -1] = ord("\n")
        table = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        yield table.tobytes().translate(None, b"\0")
