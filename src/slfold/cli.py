"""Command-line interface.

Subcommands: solve, verify, example, embed, wind.
Exit codes: 0 ok, 1 usage/config, 2 no convergence, 3 singular parameters,
4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .calibration import POINT_COLUMNS, verify_fields
from .config import RunConfig, load_config
from .embedding import sample_fields
from .errors import (
    ConfigError,
    DegeneracyEncounteredError,
    NoConvergenceError,
    SingularParametersError,
    SlfoldError,
)
from .families import AffineSolution, HLConfig, affine_uv, hl_triples, joyce_check
from .fieldio import (
    Records,
    fmt,
    parse_projection,
    read_field_csv,
    write_field_csv,
    write_field_vtk,
    write_json,
    write_points_vtk,
    write_rows_csv,
    write_samples_csv,
)
from .grid import GridDomain, ScalarField2D
from .pde import solve_dirichlet
from .winding import _MIN_SAMPLES, angle_increments, difference_trace, winding_number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slfold", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the Dirichlet problem from a config file")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=".", help="directory for output artifacts")

    p_verify = sub.add_parser("verify", help="check solution fields against the calibration budgets")
    p_verify.add_argument("--config", required=True, help="config file supplying [params]")
    p_verify.add_argument("--u", required=True)
    p_verify.add_argument("--v", required=True)
    p_verify.add_argument("--report", default="", help="path for the JSON report")
    p_verify.add_argument("--budget-first-order", type=float, default=1e-8)
    p_verify.add_argument("--budget-omega", type=float, default=1e-6)
    p_verify.add_argument("--budget-im-omega", type=float, default=1e-6)
    p_verify.add_argument("--budget-gamma", type=float, default=1e-6)
    p_verify.add_argument("--max-frames", type=int, help="cap on the frames (default: every interior node)")

    p_ex = sub.add_parser("example", help="emit an explicit solution family as CSV")
    p_ex.add_argument("family", choices=["affine", "hl", "joyce"])
    p_ex.add_argument("--alpha", type=float, default=1.0)
    p_ex.add_argument("--beta", type=float, default=0.0)
    p_ex.add_argument("--gamma", type=float, default=0.0)
    p_ex.add_argument("--a", default="", help="levels, comma separated (hl: last must be 0; joyce: one value)")
    p_ex.add_argument("--b", type=float, default=0.0)
    p_ex.add_argument("--domain", default="-1,1,-1,1")
    p_ex.add_argument("--nx", type=int, default=5)
    p_ex.add_argument("--ny", type=int, default=5)
    p_ex.add_argument("--s-max", type=float, default=100.0)
    p_ex.add_argument("--s-count", type=int, default=1000)
    p_ex.add_argument("--out", default="", help="CSV output path")

    p_embed = sub.add_parser("embed", help="lift solution fields to a point cloud")
    p_embed.add_argument("--config", required=True)
    p_embed.add_argument("--u", required=True)
    p_embed.add_argument("--v", required=True)
    p_embed.add_argument("--torus-res", type=int, help="default: [embedding] torus_resolution")
    p_embed.add_argument("--project", default="", help="three of re:zK/im:zK, comma separated")
    p_embed.add_argument("--vtk", action="store_true", help="also write a VTK point cloud")
    p_embed.add_argument("--out", default=".", help="directory for output artifacts")

    p_wind = sub.add_parser("wind", help="winding number of a solution-difference map on a circle")
    p_wind.add_argument("--config", default="", help="optional; a [domain] in it must match the fields")
    p_wind.add_argument("--u1", required=True)
    p_wind.add_argument("--v1", required=True)
    p_wind.add_argument("--u2", required=True)
    p_wind.add_argument("--v2", required=True)
    p_wind.add_argument("--center", required=True, help="x,y")
    p_wind.add_argument("--radius", type=float, required=True)
    p_wind.add_argument("--samples", type=int, default=256)
    p_wind.add_argument("--out", default="", help="trace CSV path")
    return parser


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    for section in ("domain", "boundary"):
        if getattr(cfg, section) is None:
            raise ConfigError(f"solve needs a [{section}] section")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    phi = cfg.boundary.resolve(cfg.domain)
    try:
        sol = solve_dirichlet(cfg.params, cfg.domain, phi, cfg.solver)
    except NoConvergenceError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 2
    report = {
        "converged": True,
        "iterations": sol.iterations,
        "newton_steps": sol.newton_steps,
        "rejected_steps": sol.rejected_steps,
        "final_residual": sol.final_residual,
        "ellipticity_margin": sol.ellipticity_margin,
        "ellipticity_bound": sol.ellipticity_bound,
        "grid": {"nx": cfg.domain.nx, "ny": cfg.domain.ny},
        "params": {"n": cfg.params.n, "a": list(cfg.params.a)},
        "tolerance": cfg.solver.tolerance,
    }
    cloud = None  # lifted once, however many embedding entries there are
    for spec in cfg.outputs:
        target = out / spec.path
        if spec.kind == "field":
            writer = write_field_csv if spec.format == "csv" else write_field_vtk
            suffix = ".csv" if spec.format == "csv" else ".vtk"
            for name, fld in (("f", sol.f), ("u", sol.u), ("v", sol.v)):
                writer(fld, target.parent / f"{target.name}_{name}{suffix}", name=name)
        elif spec.kind == "report":
            write_json(report, target)
        else:  # embedding
            if cloud is None:
                cloud = sample_fields(cfg.params, sol.u, sol.v, cfg.torus_resolution)
            if spec.format == "vtk":
                write_points_vtk(cloud, parse_projection(cfg.projection, cfg.params.n), target)
            else:
                write_samples_csv(cloud, target)
    if not cfg.outputs:
        for name, fld in (("f", sol.f), ("u", sol.u), ("v", sol.v)):
            write_field_csv(fld, out / f"{name}.csv", name=name)
        write_json(report, out / "report.json")
    print(
        f"solved: iterations={sol.iterations} residual={sol.final_residual:.3e} "
        f"ellipticity_margin={sol.ellipticity_margin:.6g}"
    )
    return 0


def cmd_verify(args) -> int:
    if args.max_frames is not None and args.max_frames < 1:
        raise ConfigError(f"--max-frames must be >= 1, got {args.max_frames}")
    cfg = load_config(args.config)
    u, v = _read_fields(cfg, args.u, args.v)
    report = verify_fields(cfg.params, u, v, args.max_frames or u.values.size)
    budgets = {
        "first_order": args.budget_first_order,
        "omega": args.budget_omega,
        "im_omega": args.budget_im_omega,
        "gamma": args.budget_gamma,
    }
    passed = report.passes(**budgets)
    if args.report:
        write_json(
            {
                "passed": passed,
                "frames": report.frames,
                "skipped_frames": report.skipped_frames,
                "skipped_by_reason": report.skipped_by_reason,
                "max_first_order_residual": report.max_first_order_residual,
                "max_omega_residual": report.max_omega_residual,
                "argmax_omega": report.argmax_omega,
                "max_im_omega_residual": report.max_im_omega_residual,
                "argmax_im_omega": report.argmax_im_omega,
                "max_gamma_deviation": report.max_gamma_deviation,
                "max_fit_residual": report.max_fit_residual,
                "points": Records(POINT_COLUMNS, report.points),
                "budgets": budgets,
            },
            args.report,
        )
    print(
        f"verify: first_order={report.max_first_order_residual:.3e} "
        f"omega={report.max_omega_residual:.3e} im_omega={report.max_im_omega_residual:.3e} "
        f"gamma={report.max_gamma_deviation:.3e} fit={report.max_fit_residual:.3e} "
        f"-> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 4


def _read_fields(cfg: RunConfig | None, *paths: str) -> list[ScalarField2D]:
    """Read field CSVs; a [domain] in cfg must be the grid of each of them.

    The nodes must be equal and the bounds within 1e-12 of the domain's span;
    a mismatch is a ConfigError.
    """
    fields = [read_field_csv(path) for path in paths]
    dom = cfg.domain if cfg else None
    if dom is None:
        return fields
    for path, fld in zip(paths, fields):
        got = fld.domain
        if not (
            (got.nx, got.ny) == (dom.nx, dom.ny)
            and max(abs(got.x0 - dom.x0), abs(got.x1 - dom.x1)) <= 1e-12 * (dom.x1 - dom.x0)
            and max(abs(got.y0 - dom.y0), abs(got.y1 - dom.y1)) <= 1e-12 * (dom.y1 - dom.y0)
        ):
            raise ConfigError(f"[domain] {dom} is not the grid of {path}: {got}")
    return fields


def _parse_domain(spec: str, nx: int, ny: int) -> GridDomain:
    try:
        x0, x1, y0, y1 = (float(t) for t in spec.split(","))
    except ValueError:
        raise ConfigError(f"bad --domain {spec!r}; expected x0,x1,y0,y1")
    return GridDomain(x0, x1, y0, y1, nx, ny)


def cmd_example(args) -> int:
    if args.family == "affine":
        dom = _parse_domain(args.domain, args.nx, args.ny)
        x, y = np.meshgrid(dom.xs(), dom.ys(), indexing="ij")
        uv = affine_uv(AffineSolution(args.alpha, args.beta, args.gamma), x, y)
        columns = [c.ravel() for c in (x, y, *uv)]
        out = args.out or "affine.csv"
        write_rows_csv(("x", "y", "u", "v"), columns, out)
        print(f"wrote {x.size} rows to {out}")
        return 0

    if args.family == "hl":
        if not args.a:
            raise ConfigError("hl needs --a with the full level vector (last entry 0)")
        levels = tuple(float(t) for t in args.a.split(","))
        if levels[-1] != 0.0:
            raise ConfigError("hl convention: the last level must be exactly 0")
        cfg = HLConfig.from_head(levels[:-1], args.b)
        dom = _parse_domain(args.domain, args.nx, args.ny)
        x, y = np.meshgrid(dom.xs(), dom.ys(), indexing="ij")
        cols = hl_triples(cfg, x, y)
        columns = [c.ravel() for c in (x, y, *cols[:4])] + [cols.status.ravel().astype("S")]
        out = args.out or "hl.csv"
        write_rows_csv(("x", "y", "u", "v", "w", "alpha", "status"), columns, out)
        print(f"wrote {x.size} rows to {out}")
        return 0

    # joyce
    if not args.a or "," in args.a:
        raise ConfigError(f"joyce needs --a with one nonzero value, got {args.a!r}")
    if args.s_count < 1:
        raise ConfigError(f"--s-count must be >= 1, got {args.s_count}")
    a = float(args.a)
    s_grid = np.linspace(0.0, args.s_max, args.s_count)
    check = joyce_check(a, s_grid)
    if args.out:
        columns = (s_grid, check.coefficient, check.closed_form)
        write_rows_csv(("s", "coefficient", "closed_form"), columns, args.out)
    print(f"max_deviation={fmt(check.deviation)}")
    return 0


def cmd_embed(args) -> int:
    cfg = load_config(args.config)
    u, v = _read_fields(cfg, args.u, args.v)
    torus_res = cfg.torus_resolution if args.torus_res is None else args.torus_res
    if torus_res < 1:
        raise ConfigError(f"torus resolution must be >= 1, got {torus_res}")
    proj_spec = args.project or cfg.projection
    proj = parse_projection(proj_spec, cfg.params.n)
    cloud = sample_fields(cfg.params, u, v, torus_res)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_samples_csv(cloud, out / "points.csv")
    if args.vtk:
        write_points_vtk(cloud, proj, out / "points.vtk")
    write_json(
        {
            "samples": len(cloud.z),
            "skipped_nodes": [list(t) for t in cloud.skipped_nodes],
            "torus_resolution": torus_res,
            "projection": proj_spec,
        },
        out / "skip_report.json",
    )
    print(f"embedded {len(cloud.z)} samples ({len(cloud.skipped_nodes)} nodes skipped)")
    return 0


def cmd_wind(args) -> int:
    try:
        cx, cy = (float(t) for t in args.center.split(","))
    except ValueError:
        raise ConfigError(f"bad --center {args.center!r}; expected x,y")
    if not (np.isfinite(args.radius) and args.radius > 0.0):
        raise ConfigError(f"--radius must be finite and > 0, got {args.radius}")
    if args.samples < _MIN_SAMPLES:
        raise ConfigError(f"--samples must be >= {_MIN_SAMPLES}, got {args.samples}")
    cfg = load_config(args.config) if args.config else None
    u1, v1, u2, v2 = _read_fields(cfg, args.u1, args.v1, args.u2, args.v2)
    trace = difference_trace(u1, v1, u2, v2, (cx, cy), args.radius, args.samples)
    steps = angle_increments(trace)
    wind = winding_number(trace)
    if args.out:
        columns = (trace.points, trace.values, np.cumsum(steps))
        write_rows_csv(("x", "y", "f1", "f2", "cumulative_angle"), columns, args.out)
    print(f"winding={wind}")
    return 0


_DISPATCH = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "example": cmd_example,
    "embed": cmd_embed,
    "wind": cmd_wind,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SingularParametersError as exc:
        print(f"singular parameters: {exc}", file=sys.stderr)
        return 3
    except (NoConvergenceError, DegeneracyEncounteredError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, SlfoldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
