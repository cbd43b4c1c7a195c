"""Deterministic CSV / legacy-ASCII VTK / JSON writers and readers.

Floats are formatted with 17 significant digits so a written file re-read
reproduces every value bit for bit; all orderings are fixed (node-major in
x, then y).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddedSample
from .grid import GridDomain, ScalarField2D


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_field_csv(field: ScalarField2D, path: str | Path, name: str = "value") -> None:
    xs, ys = field.domain.xs().tolist(), field.domain.ys().tolist()
    rows = ((x, y, val) for x, col in zip(xs, field.values.tolist()) for y, val in zip(ys, col))
    write_rows_csv(("x", "y", name), rows, path)


def read_field_csv(path: str | Path) -> ScalarField2D:
    text = Path(path).read_text().strip().splitlines()
    if not text or "," not in text[0]:
        raise ValueError(f"{path}: not a field CSV")
    rows = [line.split(",") for line in text[1:]]
    xs = np.array([float(r[0]) for r in rows])
    ys = np.array([float(r[1]) for r in rows])
    vals = np.array([float(r[2]) for r in rows])
    ux = np.unique(xs)
    uy = np.unique(ys)
    nx, ny = ux.size, uy.size
    if nx * ny != vals.size:
        raise ValueError(f"{path}: rows do not form a full tensor grid")
    dom = GridDomain(float(ux[0]), float(ux[-1]), float(uy[0]), float(uy[-1]), nx, ny)
    grid = vals.reshape(nx, ny)  # node-major in x matches the writer
    return ScalarField2D(dom, grid)


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
    for j in range(dom.ny):
        for i in range(dom.nx):
            lines.append(f"{fmt(xs[i])} {fmt(ys[j])} 0")
    lines += [
        f"POINT_DATA {dom.nx * dom.ny}",
        f"SCALARS {name} double 1",
        "LOOKUP_TABLE default",
    ]
    for j in range(dom.ny):
        for i in range(dom.nx):
            lines.append(fmt(field.values[i, j]))
    Path(path).write_text("\n".join(lines) + "\n")


def sample_header(n: int) -> list[str]:
    cols = ["x", "y", "u", "v", "w", "theta"]
    for k in range(1, n + 1):
        cols += [f"re_z{k}", f"im_z{k}"]
    return cols


def sample_row(sample: EmbeddedSample) -> list[float]:
    row = [sample.x, sample.y, sample.u, sample.v, sample.w, sample.theta_total]
    for zk in sample.z:
        row += [zk.real, zk.imag]
    return row


def write_samples_csv(samples: Sequence[EmbeddedSample], n: int, path: str | Path) -> None:
    write_rows_csv(sample_header(n), map(sample_row, samples), path)


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


def project_sample(sample: EmbeddedSample, proj: list[tuple[str, int]]) -> tuple[float, float, float]:
    vals = []
    for kind, idx in proj:
        zk = sample.z[idx - 1]
        vals.append(zk.real if kind == "re" else zk.imag)
    return tuple(vals)  # type: ignore[return-value]


def write_points_vtk(
    samples: Sequence[EmbeddedSample], proj: list[tuple[str, int]], path: str | Path
) -> None:
    lines = [
        "# vtk DataFile Version 3.0",
        "embedded samples",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {len(samples)} double",
    ]
    for s in samples:
        px, py, pz = project_sample(s, proj)
        lines.append(f"{fmt(px)} {fmt(py)} {fmt(pz)}")
    lines.append(f"VERTICES {len(samples)} {2 * len(samples)}")
    for k in range(len(samples)):
        lines.append(f"1 {k}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_rows_csv(header: Iterable[str], rows: Iterable[Sequence], path: str | Path) -> None:
    """Strings as they are, numbers as fmt() writes them; the first row fixes each column's kind."""
    lines = [",".join(header)]
    template = None
    for row in rows:
        if template is None:
            template = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in row)
        lines.append(template % tuple(row))
    Path(path).write_text("\n".join(lines) + "\n")
