"""Rectangular grids, gridded scalar fields, and boundary traversals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainMismatchError


@dataclass(frozen=True)
class GridDomain:
    """Axis-aligned rectangle [x0, x1] x [y0, y1] with nx * ny nodes."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("domain bounds must satisfy x0 < x1 and y0 < y1")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("need at least 3 nodes per direction")
        if not np.all(np.isfinite((self.x0, self.x1, self.y0, self.y1, self.hx, self.hy))):
            raise ValueError("domain bounds and node spacings must be finite")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny)

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def boundary_indices(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of the closed counterclockwise boundary traversal.

    Starts at (0, 0) -> bottom edge -> right edge -> top edge -> left edge,
    without repeating the starting node.  Length is 2*(nx + ny) - 4.
    """
    edges = (  # (i, j) per edge: bottom, right, top, left
        (np.arange(nx), np.zeros(nx, dtype=int)),
        (np.full(ny - 1, nx - 1), np.arange(1, ny)),
        (np.arange(nx - 2, -1, -1), np.full(nx - 1, ny - 1)),
        (np.zeros(ny - 2, dtype=int), np.arange(ny - 2, 0, -1)),
    )
    return tuple(np.concatenate(column) for column in zip(*edges))


@dataclass(frozen=True, eq=False)
class ScalarField2D:
    """Nodal values on a GridDomain; values[i, j] sits at (xs[i], ys[j])."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.nx, self.domain.ny):
            raise ValueError(
                f"values shape {vals.shape} != grid ({self.domain.nx}, {self.domain.ny})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, domain: GridDomain, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ScalarField2D":
        xg, yg = np.meshgrid(domain.xs(), domain.ys(), indexing="ij")
        return cls(domain, np.asarray(fn(xg, yg), dtype=float))

    def interp(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bilinear interpolation, elementwise, at interior-or-boundary points."""
        d = self.domain
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        ix = np.clip(np.floor((x - d.x0) / d.hx), 0, d.nx - 2).astype(int)
        jy = np.clip(np.floor((y - d.y0) / d.hy), 0, d.ny - 2).astype(int)
        # ix * hx + x0 is xs()[ix] bit for bit: linspace computes i * step + start
        t = (x - (ix * d.hx + d.x0)) / d.hx
        u = (y - (jy * d.hy + d.y0)) / d.hy
        v = self.values
        return (
            (1 - t) * (1 - u) * v[ix, jy]
            + t * (1 - u) * v[ix + 1, jy]
            + (1 - t) * u * v[ix, jy + 1]
            + t * u * v[ix + 1, jy + 1]
        )


def require_same_domain(*fields: ScalarField2D) -> GridDomain:
    dom = fields[0].domain
    for f in fields[1:]:
        if f.domain != dom:
            raise DomainMismatchError("fields do not share a grid domain")
    return dom


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Dirichlet values on the closed counterclockwise boundary traversal."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        expected = 2 * (self.domain.nx + self.domain.ny) - 4
        if vals.size != expected:
            raise ValueError(f"boundary traversal needs {expected} values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("boundary values must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, domain: GridDomain, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "BoundaryData":
        ii, jj = boundary_indices(domain.nx, domain.ny)
        xs, ys = domain.xs(), domain.ys()
        return cls(domain, np.asarray(fn(xs[ii], ys[jj]), dtype=float))

    def apply_to(self, arr: np.ndarray) -> None:
        ii, jj = boundary_indices(self.domain.nx, self.domain.ny)
        arr[ii, jj] = self.values

    def extract_from(self, arr: np.ndarray) -> np.ndarray:
        ii, jj = boundary_indices(self.domain.nx, self.domain.ny)
        return arr[ii, jj]
