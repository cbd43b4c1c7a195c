"""Lift of reduced planar data (x, y, u, v) to points of N in C^n.

A point of the submanifold is z = (r_1 e^{i t_1}, ..., r_{n-1} e^{i t_{n-1}},
x + iu) with r_j = sqrt(w + a_j), where w solves P(w) = v^2 + y^2 on the
distinguished branch and the angle sum Theta = t_1 + ... + t_{n-1} is pinned
by i^{n-3} z_1 ... z_{n-1} = v + iy.  Individual angles are gauge; the torus
action moves them freely at fixed Theta.

The radicands w + a_j are read as t + d_j (branch), never negative.  lift_point
lifts one point and is the reference; lift_nodes lifts arrays of nodes for
sample_fields and calibration.verify_fields.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .branch import ReductionParams, _branch_t
from .errors import SingularPointError
from .grid import ScalarField2D, require_same_domain

# Exact powers of i, indexed mod 4.
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def unit_power_i(k: int) -> complex:
    """i**k as an exact table lookup."""
    return _I_POW[k % 4]


def total_phase(params: ReductionParams, v: float, y: float) -> float:
    """Theta in (-pi, pi] with e^{i Theta} = i^{3-n} (v + iy)/|v + iy|."""
    if v == 0.0 and y == 0.0:
        raise SingularPointError("total phase undefined at v = y = 0")
    return cmath.phase(unit_power_i(3 - params.n) * complex(v, y))


@dataclass(frozen=True, eq=False)
class EmbeddedSample:
    """One lifted point with its reduced coordinates and torus angles."""

    z: np.ndarray
    x: float
    y: float
    u: float
    v: float
    w: float
    theta_total: float
    torus_angles: tuple[float, ...]

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def base(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.u, self.v)


def lift_point(
    params: ReductionParams,
    x: float,
    y: float,
    u: float,
    v: float,
    torus_angles: Sequence[float] | None = None,
) -> EmbeddedSample:
    """Lift reduced data to a point of N.

    torus_angles supplies (t_1, ..., t_{n-2}); the last angle is chosen so
    the angle sum equals Theta.  At v = y = 0 the lift exists only in the
    nonsingular regime (one radius vanishes and the phase drops out).
    """
    n = params.n
    angles = tuple(float(t) for t in (torus_angles if torus_angles is not None else [0.0] * (n - 2)))
    if len(angles) != n - 2:
        raise ValueError(f"need n-2 = {n - 2} torus angles, got {len(angles)}")
    if v == 0.0 and y == 0.0:
        if params.min_multiplicity > 1:
            raise SingularPointError("orbit collapses at v = y = 0 for degenerate min(a_j)")
        theta_sum = 0.0  # product of the z_j vanishes; the phase is immaterial
    else:
        theta_sum = total_phase(params, v, y)
    t, _ = _branch_t(params, v * v + y * y)
    radii = np.sqrt(_radicands(params, t))
    z = np.append(radii * np.exp(1j * np.array(angles + (theta_sum - sum(angles),))), complex(x, u))
    return EmbeddedSample(z=z, x=float(x), y=float(y), u=float(u), v=float(v),
                          w=float(params.w0 + t), theta_total=theta_sum, torus_angles=angles)


def _radicands(params: ReductionParams, t):
    """w + a_j = t + d_j along a new last axis, at branch shifts t >= 0."""
    return np.asarray(t)[..., None] + np.array(params.shifts)


def lift_nodes(
    params: ReductionParams, v: np.ndarray, y: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(Theta, w, radicands w + a_j, singular mask) of lift_point at every node of (v, y).

    t holds the nodes' branch shifts w(v^2 + y^2) - w0.  The mask marks the
    nodes where lift_point raises SingularPointError: v = y = 0 with min(a_j)
    attained more than once, so no orbit to lift.  Theta is 0 on every v = y = 0
    node; no node is skipped.
    """
    base = np.empty(len(v), dtype=complex)
    base.real, base.imag = v, y  # as complex(v, y); v + 1j*y can flip the sign of a zero
    rotated = unit_power_i(3 - params.n) * base
    # math.atan2 is total_phase's cmath.phase bit for bit; np.angle can differ in the last bit
    theta = np.array([math.atan2(b, a) for a, b in zip(rotated.real.tolist(), rotated.imag.tolist())])
    collapsed = (v == 0.0) & (y == 0.0)
    theta[collapsed] = 0.0  # product of the z_j vanishes; the phase is immaterial
    return theta, params.w0 + t, _radicands(params, t), collapsed & (params.min_multiplicity > 1)


def moment_residual(params: ReductionParams, sample: EmbeddedSample) -> np.ndarray:
    """(|z_j|^2 - |z_{n-1}|^2) - (a_j - a_{n-1}) for j = 1, ..., n-2."""
    n = params.n
    mags = np.abs(sample.z[: n - 1]) ** 2
    return (mags[: n - 2] - mags[n - 2]) - (np.array(params.a[: n - 2]) - params.a[n - 2])


def product_residual(params: ReductionParams, sample: EmbeddedSample) -> float:
    """|i^{n-3} z_1 ... z_{n-1} - (v + iy)|, the defining-relation defect."""
    prod = unit_power_i(params.n - 3) * np.prod(sample.z[: params.n - 1])
    return abs(prod - complex(sample.v, sample.y))


@dataclass(frozen=True, eq=False)
class SurfaceSamples:
    """Lifted samples over a solution grid as columns, plus the skipped singular nodes.

    Row k of base holds (x, y, u, v, w, Theta) and row k of z the point in C^n.
    """

    base: np.ndarray  # shape (N, 6)
    z: np.ndarray     # shape (N, n), complex
    skipped_nodes: list[tuple[int, int]]


def sample_fields(
    params: ReductionParams, u: "ScalarField2D", v: "ScalarField2D", torus_resolution: int
) -> SurfaceSamples:
    """Tensor sampling: every grid node times a uniform torus lattice.

    The branch is solved once per node and shared by its torus orbit.  Nodes
    with (v, y) = (0, 0) in the singular regime are skipped and recorded
    rather than raised; ordering is node-major (i outer, j inner) then
    torus-index-major, the lattice angles (t_1, ..., t_{n-2}) running as
    itertools.product over multiples of 2 pi / torus_resolution.
    """
    if torus_resolution < 1:
        raise ValueError("torus_resolution must be >= 1")
    n = params.n
    dom = require_same_domain(u, v)
    x, y = (g.ravel() for g in np.meshgrid(dom.xs(), dom.ys(), indexing="ij"))
    vv = v.values.ravel()
    theta, w, radicand, singular = lift_nodes(params, vv, y, _branch_t(params, vv * vv + y * y)[0])
    keep = ~singular
    skipped = [divmod(k, dom.ny) for k in np.flatnonzero(~keep).tolist()]

    indices = itertools.product(range(torus_resolution), repeat=n - 2)
    lattice = 2.0 * np.pi / torus_resolution * np.array(list(indices), dtype=float)
    base = np.column_stack([x, y, u.values.ravel(), vv, w, theta])[keep]
    base, radii = (np.repeat(t, len(lattice), axis=0) for t in (base, np.sqrt(radicand[keep])))
    angles = np.tile(lattice, (int(keep.sum()), 1))
    # the angle sum runs left to right, as sum() adds the angles in lift_point
    phases = np.column_stack([angles, base[:, 5] - angles.cumsum(axis=1)[:, -1]])
    z = np.empty((len(base), n), dtype=complex)
    z[:, : n - 1] = radii * np.exp(1j * phases)
    z[:, n - 1].real = base[:, 0]  # not x + 1j*u, which can flip the sign of a zero
    z[:, n - 1].imag = base[:, 2]
    return SurfaceSamples(base=base, z=z, skipped_nodes=skipped)
