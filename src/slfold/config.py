"""Run configuration: a small TOML-style file with dotted sections.

Supported syntax: ``[section]`` / ``[a.b]`` headers, ``key = value`` pairs,
``#`` comments; values are strings, numbers, booleans, or flat lists.
Boundary data comes from a registry (affine, bilinear, inline values, or a
CSV of traversal values) so no expression parser is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .branch import ReductionParams
from .errors import ConfigError
from .grid import BoundaryData, GridDomain
from .pde import SolverConfig


def _parse_scalar(tok: str, line_no: int):
    tok = tok.strip()
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return tok[1:-1]
    if tok in ("true", "false"):
        return tok == "true"
    try:
        if any(c in tok for c in ".eE") and not tok.lstrip("+-").isdigit():
            return float(tok)
        return int(tok)
    except ValueError:
        raise ConfigError(f"cannot parse value {tok!r}", line=line_no)


def parse_config_text(text: str) -> dict:
    """Parse into a nested dict keyed by section path components."""
    root: dict = {}
    section = root
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=line_no,
                                  column=len(raw.rstrip()))
            path = line[1:-1].strip()
            if not path:
                raise ConfigError("empty section name", line=line_no)
            section = root
            for part in path.split("."):
                section = section.setdefault(part.strip(), {})
                if not isinstance(section, dict):
                    raise ConfigError(f"section {path!r} collides with a key", line=line_no)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=line_no, column=1)
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if not key:
            raise ConfigError("empty key", line=line_no, column=1)
        if rhs.startswith("["):
            if not rhs.endswith("]"):
                raise ConfigError("unterminated list", line=line_no, column=len(raw))
            inner = rhs[1:-1].strip()
            value = [] if not inner else [_parse_scalar(t, line_no) for t in inner.split(",")]
        else:
            value = _parse_scalar(rhs, line_no)
        section[key] = value
    return root


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary source: closed-form registry entry, inline values, or CSV."""

    kind: str
    coefficients: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    path: str = ""

    def resolve(self, domain: GridDomain) -> BoundaryData:
        if self.kind == "affine":
            al, be, ga = self.coefficients
            return BoundaryData.from_function(
                domain, lambda x, y: al * x * y + ga * x + be * y
            )
        if self.kind == "bilinear":
            c0, c1, c2, c3 = self.coefficients
            return BoundaryData.from_function(
                domain, lambda x, y: c0 + c1 * x + c2 * y + c3 * x * y
            )
        if self.kind == "inline":
            return BoundaryData(domain, np.array(self.values))
        if self.kind == "csv":
            rows = Path(self.path).read_text().strip().splitlines()
            vals = [float(r.split(",")[-1]) for r in rows[1:]]
            return BoundaryData(domain, np.array(vals))
        raise ConfigError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class OutputSpec:
    kind: str    # field | embedding | report
    format: str  # csv | vtk | json
    path: str


@dataclass(frozen=True)
class RunConfig:
    params: ReductionParams
    domain: GridDomain
    boundary: BoundarySpec
    solver: SolverConfig
    outputs: tuple[OutputSpec, ...] = ()
    torus_resolution: int = 1
    projection: str = "re:z1,im:z1,re:z2"


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in [{where}]")
    return section[key]


def config_from_dict(data: dict) -> RunConfig:
    psec = data.get("params")
    if not isinstance(psec, dict):
        raise ConfigError("missing [params] section")
    a = _require(psec, "a", "params")
    if not isinstance(a, list) or not a:
        raise ConfigError("params.a must be a nonempty list")
    a = tuple(float(v) for v in a)
    n = int(psec.get("n", len(a) + 1))
    try:
        params = ReductionParams(n, a)
    except ValueError as exc:
        raise ConfigError(str(exc))

    dsec = data.get("domain")
    if not isinstance(dsec, dict):
        raise ConfigError("missing [domain] section")
    try:
        domain = GridDomain(
            float(_require(dsec, "x0", "domain")),
            float(_require(dsec, "x1", "domain")),
            float(_require(dsec, "y0", "domain")),
            float(_require(dsec, "y1", "domain")),
            int(_require(dsec, "nx", "domain")),
            int(_require(dsec, "ny", "domain")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    bsec = data.get("boundary", {})
    kind = bsec.get("kind", "bilinear")
    boundary = BoundarySpec(
        kind=str(kind),
        coefficients=tuple(float(v) for v in bsec.get("coefficients", [])),
        values=tuple(float(v) for v in bsec.get("values", [])),
        path=str(bsec.get("path", "")),
    )
    if boundary.kind == "affine" and len(boundary.coefficients) != 3:
        raise ConfigError("boundary kind 'affine' needs 3 coefficients")
    if boundary.kind == "bilinear" and len(boundary.coefficients) != 4:
        raise ConfigError("boundary kind 'bilinear' needs 4 coefficients")
    if boundary.kind not in ("affine", "bilinear", "inline", "csv"):
        raise ConfigError(f"unknown boundary kind {boundary.kind!r}")

    ssec = data.get("solver", {})
    try:
        solver = SolverConfig(
            tolerance=float(ssec.get("tolerance", 1e-10)),
            max_iterations=int(ssec.get("max_iterations", 10_000)),
            ellipticity_floor=float(ssec.get("ellipticity_floor", 1e-10)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    osec = data.get("outputs", {})
    entries = osec.get("entries", []) if isinstance(osec, dict) else []
    outputs = []
    for ent in entries:
        bits = str(ent).split(":")
        if len(bits) != 3 or bits[0] not in ("field", "embedding", "report") or bits[1] not in ("csv", "vtk", "json"):
            raise ConfigError(f"bad output entry {ent!r}; expected kind:format:path")
        outputs.append(OutputSpec(kind=bits[0], format=bits[1], path=bits[2]))

    esec = data.get("embedding", {})
    torus_resolution = int(esec.get("torus_resolution", 1)) if isinstance(esec, dict) else 1
    projection = str(esec.get("projection", f"re:z{n},im:z{n},re:z1")) if isinstance(esec, dict) else f"re:z{n},im:z{n},re:z1"

    return RunConfig(
        params=params,
        domain=domain,
        boundary=boundary,
        solver=solver,
        outputs=tuple(outputs),
        torus_resolution=torus_resolution,
        projection=projection,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return config_from_dict(parse_config_text(text))
