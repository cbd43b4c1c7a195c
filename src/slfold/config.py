"""Run configuration: a TOML file read with the standard library's tomllib.

Sections are ``[params]`` (required), and ``[domain]``, ``[boundary]``,
``[solver]``, ``[outputs]`` and ``[embedding]`` (optional; only ``solve``
needs ``[domain]`` and ``[boundary]``).  Boundary data comes from a registry
(affine, bilinear, inline values, or a CSV of x,y,value rows along the
boundary traversal) so no expression parser is needed.
"""

from __future__ import annotations

import re
import tomllib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .branch import ReductionParams
from .errors import ConfigError
from .families import AffineSolution, affine_potential
from .fieldio import read_xyv_rows
from .grid import BoundaryData, GridDomain, boundary_indices
from .pde import SolverConfig


def parse_config_text(text: str) -> dict:
    """Parse TOML into nested dicts; a syntax error becomes a located ConfigError."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        msg = str(exc)
    at = re.search(r" \(at line (\d+), column (\d+)\)$", msg)
    if at is None:  # "(at end of document)": the error is on the last line
        raise ConfigError(msg.removesuffix(" (at end of document)"), line=len(text.splitlines()))
    raise ConfigError(msg[: at.start()], line=int(at[1]), column=int(at[2]))


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary source: closed-form registry entry, inline values, or CSV."""

    kind: str
    coefficients: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    path: str = ""

    def resolve(self, domain: GridDomain) -> BoundaryData:
        if self.kind == "affine":
            return BoundaryData.from_function(domain, affine_potential(AffineSolution(*self.coefficients)))
        if self.kind == "bilinear":
            c0, c1, c2, c3 = self.coefficients
            return BoundaryData.from_function(
                domain, lambda x, y: c0 + c1 * x + c2 * y + c3 * x * y
            )
        if self.kind == "inline":
            return BoundaryData(domain, np.array(self.values))
        if self.kind == "csv":
            table = read_xyv_rows(self.path)
            # row k must sit at traversal node k, within 1e-12 of the span
            ii, jj = boundary_indices(domain.nx, domain.ny)
            nodes = np.column_stack([domain.xs()[ii], domain.ys()[jj]])
            span = np.array([domain.x1 - domain.x0, domain.y1 - domain.y0])
            if len(table) != len(ii) or np.any(np.abs(table[:, :2] - nodes) > 1e-12 * span):
                raise ConfigError(f"{self.path}: rows are not the boundary traversal of {domain}")
            return BoundaryData(domain, table[:, 2])
        raise ConfigError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class OutputSpec:
    kind: str    # field | embedding | report
    format: str  # csv | vtk | json
    path: str


@dataclass(frozen=True)
class RunConfig:
    params: ReductionParams
    domain: GridDomain | None  # None without a [domain] section
    boundary: BoundarySpec | None  # None without a [boundary] section
    solver: SolverConfig
    outputs: tuple[OutputSpec, ...]
    torus_resolution: int
    projection: str


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in [{where}]")
    return section[key]


def _section(data: dict, name: str) -> dict:
    """The table [name]; {} when it is absent."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"[{name}] must be a table, got {section!r}")
    return section


def _integer(key: str, value) -> int:
    """An integer key's value; an integral float such as 1e4 is accepted."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    """A float key's value: an integer or a float, never a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _numbers(key: str, value) -> tuple[float, ...]:
    """A float list's value, each entry checked by _number."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_number(key, v) for v in value)


# The formats the CLI writes for each output kind.
_OUTPUT_FORMATS = {"field": ("csv", "vtk"), "embedding": ("csv", "vtk"), "report": ("json",)}


def config_from_dict(data: dict) -> RunConfig:
    """Validate parsed config data; a bad section, key or value raises ConfigError."""
    try:
        return _run_config(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _boundary(bsec: dict) -> BoundarySpec:
    """The [boundary] section, validated for its kind."""
    boundary = BoundarySpec(
        kind=str(bsec.get("kind", "bilinear")),
        coefficients=_numbers("coefficients", bsec.get("coefficients", [])),
        values=_numbers("values", bsec.get("values", [])),
        path=str(bsec.get("path", "")),
    )
    if boundary.kind == "affine" and len(boundary.coefficients) != 3:
        raise ConfigError("boundary kind 'affine' needs 3 coefficients")
    if boundary.kind == "bilinear" and len(boundary.coefficients) != 4:
        raise ConfigError("boundary kind 'bilinear' needs 4 coefficients")
    if boundary.kind not in ("affine", "bilinear", "inline", "csv"):
        raise ConfigError(f"unknown boundary kind {boundary.kind!r}")
    return boundary


def _domain(dsec: dict) -> GridDomain:
    """The [domain] section: all six keys are required."""
    return GridDomain(
        *(_number(key, _require(dsec, key, "domain")) for key in ("x0", "x1", "y0", "y1")),
        _integer("nx", _require(dsec, "nx", "domain")),
        _integer("ny", _require(dsec, "ny", "domain")),
    )


def _run_config(data: dict) -> RunConfig:
    psec = _section(data, "params")
    a = _numbers("a", _require(psec, "a", "params"))
    if not a:
        raise ConfigError("params.a must be a nonempty list")
    n = _integer("n", psec.get("n", len(a) + 1))
    params = ReductionParams(n, a)

    domain = _domain(_section(data, "domain")) if "domain" in data else None

    boundary = _boundary(_section(data, "boundary")) if "boundary" in data else None

    ssec = _section(data, "solver")
    # SolverConfig holds the defaults of the keys left out
    converters = {"tolerance": _number, "max_iterations": _integer, "ellipticity_floor": _number}
    solver = SolverConfig(**{key: convert(key, ssec[key]) for key, convert in converters.items() if key in ssec})

    entries = _section(data, "outputs").get("entries", [])
    if not isinstance(entries, list):
        raise ConfigError(f"entries must be a list of kind:format:path strings, got {entries!r}")
    outputs = []
    for ent in entries:
        bits = str(ent).split(":")
        if len(bits) != 3 or bits[1] not in _OUTPUT_FORMATS.get(bits[0], ()):
            raise ConfigError(
                f"bad output entry {ent!r}; expected kind:format:path with field:csv|vtk, "
                "embedding:csv|vtk or report:json"
            )
        outputs.append(OutputSpec(kind=bits[0], format=bits[1], path=bits[2]))

    esec = _section(data, "embedding")
    torus_resolution = _integer("torus_resolution", esec.get("torus_resolution", 1))
    if torus_resolution < 1:
        raise ConfigError(f"torus_resolution must be >= 1, got {torus_resolution}")
    return RunConfig(
        params=params,
        domain=domain,
        boundary=boundary,
        solver=solver,
        outputs=tuple(outputs),
        torus_resolution=torus_resolution,
        projection=str(esec.get("projection", f"re:z{n},im:z{n},re:z1")),
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return config_from_dict(parse_config_text(text))
