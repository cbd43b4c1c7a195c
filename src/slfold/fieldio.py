"""Deterministic CSV / legacy-ASCII VTK / JSON writers and readers.

Floats are formatted with 17 significant digits so a written file re-read
reproduces every value bit for bit; all orderings are fixed (node-major in
x, then y).
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
    xs, ys = field.domain.xs().tolist(), field.domain.ys().tolist()
    rows = ((x, y, val) for x, col in zip(xs, field.values.tolist()) for y, val in zip(ys, col))
    write_rows_csv(("x", "y", name), rows, path)


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
    xs, ys = dom.xs(), dom.ys()
    lines = [
        "# vtk DataFile Version 3.0",
        name,
        "ASCII",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {dom.nx} {dom.ny} 1",
        f"POINTS {dom.nx * dom.ny} double",
    ]
    # VTK structured order: x varies fastest
    nodes = np.column_stack([np.tile(xs, dom.ny), np.repeat(ys, dom.nx)])
    lines += ("%.17g %.17g 0" % tuple(row) for row in _float_rows(nodes))
    lines += [
        f"POINT_DATA {dom.nx * dom.ny}",
        f"SCALARS {name} double 1",
        "LOOKUP_TABLE default",
    ]
    lines += map(fmt, field.values.T.ravel().tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def write_samples_csv(cloud: SurfaceSamples, path: str | Path) -> None:
    zs = [f"{part}_z{k}" for k in range(1, cloud.z.shape[1] + 1) for part in ("re", "im")]
    table = np.hstack([cloud.base, cloud.z.view(float)])
    write_rows_csv(["x", "y", "u", "v", "w", "theta", *zs], _float_rows(table), path)


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
    lines = [
        "# vtk DataFile Version 3.0",
        "embedded samples",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {count} double",
    ]
    lines += ("%.17g %.17g %.17g" % tuple(row) for row in _float_rows(np.column_stack(cols)))
    lines.append(f"VERTICES {count} {2 * count}")
    lines += (f"1 {k}" for k in range(count))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _float_rows(table: np.ndarray, block: int = 4096) -> Iterator[list[float]]:
    """Rows of a 2-d float array as lists of Python floats, converted a block at a time."""
    for start in range(0, len(table), block):
        yield from table[start : start + block].tolist()


def write_rows_csv(header: Iterable[str], rows: Iterable[Sequence], path: str | Path) -> None:
    """Strings as they are, numbers as fmt() writes them; the first row fixes each column's kind."""
    lines = [",".join(header)]
    template = None
    for row in rows:
        if template is None:
            template = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in row)
        lines.append(template % tuple(row))
    Path(path).write_text("\n".join(lines) + "\n")
