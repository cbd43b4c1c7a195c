"""Seeded inputs, command sequences and output checks of the four workloads.

Inputs are written by this module with plain Python formatting (17
significant digits, node-major in x then y, as the field CSV reader
expects), never through ``slfold.fieldio``, so set-up time does not depend
on the layer under test.  Each workload returns a list of ``Command``; a
command carries the argv for ``slfold.cli.main``, its expected exit code,
and a check that reads the command's outputs back and returns
``(problems, counters)``.  Counters are exact work counts read from those
outputs (report files, row counts, file sizes), not estimates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Check = Callable[["Command", str], "tuple[list[str], dict[str, float]]"]


@dataclass
class Command:
    """One CLI invocation of a workload sequence."""

    tag: str            # solve | verify | embed | hl | joyce | wind
    argv: list[str]
    expect: int         # expected exit code
    outputs: Path       # file or directory the command writes
    check: Check
    reads: tuple[Path, ...] = ()   # field CSVs the command reads
    label: str = ""

    def __post_init__(self):
        self.label = self.label or self.tag


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator, Path, Path], list[Command]]


# --- writers -----------------------------------------------------------------

def g17(x: float) -> str:
    return format(float(x), ".17g")


def write_field(path: Path, xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> None:
    ycells = [g17(y) for y in ys]
    lines = ["x,y,value"]
    for i, x in enumerate(xs):
        xc = g17(x)
        row = values[i]
        lines.extend(f"{xc},{ycells[j]},{g17(row[j])}" for j in range(len(ys)))
    path.write_text("\n".join(lines) + "\n")


def boundary_traversal(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Counterclockwise (i, j) traversal from (0, 0), start not repeated.

    This is the order of the ``csv`` boundary kind in the config format.
    """
    ii = ([*range(nx)] + [nx - 1] * (ny - 1) + [*range(nx - 2, -1, -1)] + [0] * (ny - 2))
    jj = ([0] * nx + [*range(1, ny)] + [ny - 1] * (nx - 1) + [*range(ny - 2, 0, -1)])
    return np.array(ii), np.array(jj)


NO_BOUNDARY = '[boundary]\nkind = "affine"\ncoefficients = [0.0, 0.0, 0.0]\n'


def config_text(n: int, a, nodes: int, extra: str = NO_BOUNDARY) -> str:
    """Config on [-1, 1]^2; commands other than solve use only [params]/[domain]."""
    levels = ", ".join(g17(v) for v in a)
    return (
        f"[params]\nn = {n}\na = [{levels}]\n\n"
        f"[domain]\nx0 = -1.0\nx1 = 1.0\ny0 = -1.0\ny1 = 1.0\n"
        f"nx = {nodes}\nny = {nodes}\n\n{extra}"
    )


def grid(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(-1.0, 1.0, nodes), np.linspace(-1.0, 1.0, nodes)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=object)


def field_values(path: Path, nodes: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 2].reshape(nodes, nodes)


def data_rows(path: Path) -> int:
    """Data rows of a CSV (header excluded), points of a VTK file, else 0."""
    with path.open() as fh:
        if path.suffix == ".csv":
            return sum(1 for _ in fh) - 1
        if path.suffix == ".vtk":
            return next(int(line.split()[1]) for line in fh if line.startswith("POINTS "))
    return 0


def written(paths) -> dict[str, float]:
    files = [p for p in paths if p.is_file()]
    return {
        "rows_written": sum(data_rows(p) for p in files),
        "bytes_written": sum(p.stat().st_size for p in files),
    }


def files_under(out: Path) -> list[Path]:
    return sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]


def poly(a, w: np.ndarray) -> np.ndarray:
    p = np.ones_like(w)
    for aj in a:
        p = p * (w + aj)
    return p


# --- solve-ladder --------------------------------------------------------------
# The only workload with `pde` work: about 86 % of a solve is red-black SOR
# sweeps, and the sweep count grows with the grid (about 440 -> 2360 -> 4320
# from 17^2 to 65^2), so a solver with near-linear cost shows here and nowhere
# else.  The nested n=3 grids give the successive-difference ratio of
# criterion 5; the n=5 solve with spread levels adds a stiffer coefficient.
# Grids stop at 65^2 so a sequence takes about a second and a run holds many
# (see the sizing note in run.py).

LADDER = (17, 33, 65)
LADDER_TOL = 1e-10
N5_LEVELS = (3.0, 1.0, -0.5, -2.0)
N5_NODES = 65


def _ladder_boundary(rng: np.random.Generator):
    """x^2 plus a small smooth seeded perturbation, defined on the plane."""
    kx, ky = rng.integers(1, 4, size=2)
    c = rng.uniform(-0.05, 0.05, size=2)
    ph = rng.uniform(0.0, 2.0 * np.pi, size=2)

    def phi(x, y):
        wave = np.cos(kx * np.pi * x / 2 + ph[0]) * np.cos(ky * np.pi * y / 2 + ph[1])
        return x * x + c[0] * wave + c[1] * x * y
    return phi


def _solve_check(tol: float) -> Check:
    def check(cmd: Command, stdout: str):
        report = json.loads((cmd.outputs / "report.json").read_text())
        problems = []
        if not report.get("converged") or report["final_residual"] > tol:
            problems.append(f"residual {report.get('final_residual')} above tolerance {tol}")
        nx, ny = report["grid"]["nx"], report["grid"]["ny"]
        counts = {
            "solves": 1,
            "sweeps": report["iterations"],
            "node_sweeps": report["iterations"] * (nx - 2) * (ny - 2),
            **written(files_under(cmd.outputs)),
        }
        return problems, counts
    return check


def _ratio_check(outs: list[Path]) -> Check:
    base = _solve_check(LADDER_TOL)

    def check(cmd: Command, stdout: str):
        problems, counts = base(cmd, stdout)
        f = [field_values(o / "f.csv", m) for o, m in zip(outs, LADDER)]
        d1 = float(np.abs(f[0] - f[1][::2, ::2]).max())
        d2 = float(np.abs(f[1] - f[2][::2, ::2]).max())
        ratio = d1 / d2
        if not 3.0 <= ratio <= 5.0:
            problems.append(f"successive-difference ratio {ratio:.3f} outside [3, 5]")
        return problems, counts
    return check


def build_solve_ladder(rng: np.random.Generator, inputs: Path, out: Path) -> list[Command]:
    phi = _ladder_boundary(rng)
    runs = [(3, (1.0, -1.0), m) for m in LADDER] + [(5, N5_LEVELS, N5_NODES)]
    outs = [out / f"n{n}_{m}" for n, _, m in runs]
    cmds = []
    for (n, a, m), o in zip(runs, outs):
        xs, ys = grid(m)
        ii, jj = boundary_traversal(m, m)
        bx, by = xs[ii], ys[jj]
        vals = phi(bx, by)
        csv = inputs / f"boundary_n{n}_{m}.csv"
        csv.write_text("x,y,value\n" + "".join(
            f"{g17(x)},{g17(y)},{g17(v)}\n" for x, y, v in zip(bx, by, vals)))
        cfg = inputs / f"ladder_n{n}_{m}.toml"
        cfg.write_text(config_text(
            n, a, m,
            extra=f'[boundary]\nkind = "csv"\npath = "{csv.as_posix()}"\n\n'
                  f"[solver]\ntolerance = {LADDER_TOL}\n"))
        check = _ratio_check(outs[:3]) if (n, m) == (3, LADDER[-1]) else _solve_check(LADDER_TOL)
        cmds.append(Command("solve", ["solve", "--config", str(cfg), "--out", str(o)], 0, o,
                            check=check, label=f"solve n={n} {m}^2"))
    return cmds


# --- embed-cloud ---------------------------------------------------------------
# Lift plus writers, nothing else: no `pde` or `calibration` work.  The
# branch is re-solved for every torus angle (36x per node here), and the
# per-value CSV/VTK formatting takes about half of the time.  The largest
# memory user of the four workloads (39,204 samples held in memory).

EMBED_NODES = 33
EMBED_RES = 6
EMBED_LEVELS = (1.0, 0.25, -1.0)
EMBED_CHECK_ROWS = 500


def _embed_check(a, nodes: int, res: int, u: np.ndarray, v: np.ndarray, seed: int) -> Check:
    n = len(a) + 1
    expected = nodes * nodes * res ** (n - 2)

    def check(cmd: Command, stdout: str):
        problems = []
        skip = json.loads((cmd.outputs / "skip_report.json").read_text())
        csv, vtk = cmd.outputs / "points.csv", cmd.outputs / "points.vtk"
        if skip["samples"] != expected or skip["skipped_nodes"]:
            problems.append(f"samples {skip['samples']} (expected {expected}), "
                            f"skipped nodes {len(skip['skipped_nodes'])}")
        lines = csv.read_text().splitlines()
        if len(lines) - 1 != expected:
            problems.append(f"points.csv has {len(lines) - 1} rows, expected {expected}")
        if data_rows(vtk) != skip["samples"]:
            problems.append(f"points.vtk has {data_rows(vtk)} points, expected {skip['samples']}")
        pick = np.random.default_rng(seed).choice(min(expected, len(lines) - 1),
                                                  EMBED_CHECK_ROWS, replace=False)
        rows = np.array([lines[k + 1].split(",") for k in pick], dtype=float)
        z = rows[:, 6::2] + 1j * rows[:, 7::2]
        node = pick // res ** (n - 2)
        base = np.stack([u.ravel()[node], v.ravel()[node]], axis=1)
        mags = np.abs(z[:, : n - 1]) ** 2
        moment = (mags[:, : n - 2] - mags[:, n - 2:n - 1]) - (np.array(a[: n - 2]) - a[n - 2])
        prod = (1j ** (n - 3)) * np.prod(z[:, : n - 1], axis=1) - (rows[:, 3] + 1j * rows[:, 1])
        worst = max(float(np.abs(moment).max()), float(np.abs(prod).max()),
                    float(np.abs(rows[:, 2:4] - base).max()))
        if not worst <= 1e-10:
            problems.append(f"moment/product/base defect {worst:.3e} above 1e-10")
        counts = {"samples": skip["samples"], "skipped_nodes": len(skip["skipped_nodes"]),
                  **written(files_under(cmd.outputs))}
        return problems, counts
    return check


def build_embed_cloud(rng: np.random.Generator, inputs: Path, out: Path) -> list[Command]:
    alpha, beta, gamma = rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5), rng.uniform(0.3, 0.9)
    xs, ys = grid(EMBED_NODES)
    u = alpha * xs[:, None] + beta + 0.0 * ys[None, :]
    v = alpha * ys[None, :] + gamma + 0.0 * xs[:, None]
    up, vp, cfg = inputs / "embed_u.csv", inputs / "embed_v.csv", inputs / "embed.toml"
    write_field(up, xs, ys, u)
    write_field(vp, xs, ys, v)
    cfg.write_text(config_text(len(EMBED_LEVELS) + 1, EMBED_LEVELS, EMBED_NODES))
    o = out / "cloud"
    argv = ["embed", "--config", str(cfg), "--u", str(up), "--v", str(vp),
            "--torus-res", str(EMBED_RES), "--vtk", "--out", str(o)]
    check = _embed_check(EMBED_LEVELS, EMBED_NODES, EMBED_RES, u, v, int(rng.integers(1 << 31)))
    return [Command("embed", argv, 0, o, reads=(up, vp), check=check)]


# --- verify-frames -------------------------------------------------------------
# The only `calibration` traffic (2,209 frames per pair).  One level near 1e3
# spreads the levels so the scalar branch Newton takes about 24 iterations
# instead of about 6.  The exact affine pair must PASS (exit 0) and the
# perturbed pair FAIL (exit 4); both check every interior frame, so the two
# paths do equal work.  Solver output is not used: it carries O(h^2)
# truncation error and fails the default budgets, which are meant to certify
# exact solutions.

VERIFY_NODES = 49
VERIFY_PERTURB = 1e-3


def _verify_check(frames: int, passed: bool) -> Check:
    def check(cmd: Command, stdout: str):
        report = json.loads(cmd.outputs.read_text())
        problems = []
        if report["passed"] is not passed:
            problems.append(f"verify passed={report['passed']}, expected {passed}")
        if report["frames"] != frames or report["skipped_frames"]:
            problems.append(f"frames {report['frames']} (expected {frames}), "
                            f"skipped {report['skipped_frames']}")
        counts = {"frames": report["frames"], "frame_errors": report["skipped_frames"],
                  **written([cmd.outputs])}
        return problems, counts
    return check


def build_verify_frames(rng: np.random.Generator, inputs: Path, out: Path) -> list[Command]:
    levels = (float(rng.uniform(900.0, 1100.0)), 2.0, 0.5, -1.0)
    alpha, beta, gamma = rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5), rng.uniform(0.3, 0.9)
    kx, ky = rng.integers(1, 4, size=2)
    xs, ys = grid(VERIFY_NODES)
    u = alpha * xs[:, None] + beta + 0.0 * ys[None, :]
    v = alpha * ys[None, :] + gamma + 0.0 * xs[:, None]
    bump = VERIFY_PERTURB * np.sin(kx * np.pi * xs)[:, None] * np.cos(ky * np.pi * ys)[None, :]
    cfg = inputs / "verify.toml"
    cfg.write_text(config_text(len(levels) + 1, levels, VERIFY_NODES))
    interior = (VERIFY_NODES - 2) ** 2
    cmds = []
    for label, uu, vv, code in (("exact", u, v, 0), ("perturbed", u + bump, v - bump, 4)):
        up, vp = inputs / f"verify_{label}_u.csv", inputs / f"verify_{label}_v.csv"
        write_field(up, xs, ys, uu)
        write_field(vp, xs, ys, vv)
        report = out / f"verify_{label}.json"
        argv = ["verify", "--config", str(cfg), "--u", str(up), "--v", str(vp),
                "--max-frames", str(interior), "--report", str(report)]
        cmds.append(Command("verify", argv, code, report, reads=(up, vp),
                            check=_verify_check(interior, code == 0), label=f"verify {label}"))
    return cmds


# --- families-wind -------------------------------------------------------------
# The only callers of the scalar P/P' evaluations (eval_p, eval_p_prime) and
# of ScalarField2D.interp: an array-first branch core must not slow this
# scalar traffic down.

HL_NODES = 64
JOYCE_COUNT = 25_000
WIND_NODES = 65
WIND_SAMPLES = 5_000


def _hl_check(level: float, b: float) -> Check:
    def check(cmd: Command, stdout: str):
        header, rows = read_table(cmd.outputs)
        status = rows[:, header.index("status")]
        ok = status == "ok"
        num = rows[ok][:, :6].astype(float)
        x, y, u, v, w, _ = num.T
        scale = 1.0 + v * v + y * y
        defects = (np.abs(w - (x * x + u * u + b)) / (1.0 + np.abs(w)),
                   np.abs(v * u + x * y) / (1.0 + np.abs(x * y)),
                   np.abs(poly((level, 0.0), w) - (v * v + y * y)) / scale)
        worst = max(float(d.max()) for d in defects)
        problems = []
        if not ok.all():
            problems.append(f"{int((~ok).sum())} HL rows not ok")
        if not worst <= 1e-9 or not np.all(v * x - u * y > 0.0):
            problems.append(f"HL constraint defect {worst:.3e} or orientation violated")
        counts = {"hl_points": len(status), "hl_skipped": int((~ok).sum()),
                  **written([cmd.outputs])}
        return problems, counts
    return check


def _joyce_check(a: float) -> Check:
    def check(cmd: Command, stdout: str):
        dev = float(stdout.strip().rsplit("max_deviation=", 1)[-1])
        data = np.loadtxt(cmd.outputs, delimiter=",", skiprows=1)
        closed = 2.0 * np.sqrt(data[:, 0] + a * a)
        worst = float(np.abs(data[:, 1] - closed).max())
        problems = []
        if not (dev <= 1e-10 and worst <= 1e-10 and len(data) == JOYCE_COUNT):
            problems.append(f"joyce deviation {dev:.3e}, CSV deviation {worst:.3e}, "
                            f"rows {len(data)}")
        return problems, {"joyce_s_values": len(data), **written([cmd.outputs])}
    return check


def _wind_check(expected: int) -> Check:
    def check(cmd: Command, stdout: str):
        wind = int(stdout.strip().rsplit("winding=", 1)[-1])
        data = np.loadtxt(cmd.outputs, delimiter=",", skiprows=1)
        turn = float(data[-1, 4]) / (2.0 * np.pi)
        problems = []
        if wind != expected or abs(turn - expected) > 1e-6:
            problems.append(f"winding {wind} / turn {turn:.9f}, expected {expected}")
        return problems, {"loop_samples": len(data), **written([cmd.outputs])}
    return check


def build_families_wind(rng: np.random.Generator, inputs: Path, out: Path) -> list[Command]:
    level, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 0.3))
    lo = float(rng.uniform(0.15, 0.3))
    hl_out = out / "hl.csv"
    hl = Command("hl", ["example", "hl", "--a", f"{g17(level)},0", "--b", g17(b),
                        "--domain", f"{g17(lo)},{g17(lo + 1.2)},{g17(lo)},{g17(lo + 1.2)}",
                        "--nx", str(HL_NODES), "--ny", str(HL_NODES), "--out", str(hl_out)],
                 0, hl_out, check=_hl_check(level, b), label="example hl")

    ja = float(rng.uniform(0.5, 2.0))
    joyce_out = out / "joyce.csv"
    joyce = Command("joyce", ["example", "joyce", "--a", g17(ja), "--s-max", "100",
                              "--s-count", str(JOYCE_COUNT), "--out", str(joyce_out)],
                    0, joyce_out, check=_joyce_check(ja), label="example joyce")

    # Two affine solutions; their difference (da (x - x0), da (y - y0)) has
    # its single zero at (x0, y0) and winds sign(det J) = sign(da^2) = +1
    # times around it.
    xs, ys = grid(WIND_NODES)
    pairs = [(rng.uniform(0.6, 1.0), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
             (rng.uniform(1.2, 1.6), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))]
    paths = []
    for k, (al, be, ga) in enumerate(pairs, start=1):
        up, vp = inputs / f"wind_u{k}.csv", inputs / f"wind_v{k}.csv"
        write_field(up, xs, ys, al * xs[:, None] + be + 0.0 * ys[None, :])
        write_field(vp, xs, ys, al * ys[None, :] + ga + 0.0 * xs[:, None])
        paths += [up, vp]
    da = pairs[0][0] - pairs[1][0]
    cx, cy = -(pairs[0][1] - pairs[1][1]) / da, -(pairs[0][2] - pairs[1][2]) / da
    radius = 0.9 * (1.0 - max(abs(cx), abs(cy)))
    cfg = inputs / "wind.toml"
    cfg.write_text(config_text(3, (1.0, -1.0), WIND_NODES))
    wind_out = out / "wind.csv"
    wind = Command("wind", ["wind", "--config", str(cfg), "--u1", str(paths[0]),
                            "--v1", str(paths[1]), "--u2", str(paths[2]), "--v2", str(paths[3]),
                            f"--center={g17(cx)},{g17(cy)}", "--radius", g17(radius),
                            "--samples", str(WIND_SAMPLES), "--out", str(wind_out)],
                   0, wind_out, reads=tuple(paths), check=_wind_check(1), label="wind")
    return [hl, joyce, wind]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-ladder", "nested 17^2/33^2/65^2 solves at n=3 plus a 65^2 n=5 solve with "
                 "spread levels: the only pde (red-black SOR) traffic", build_solve_ladder),
        Workload("embed-cloud", "embed --vtk of 33^2 affine fields at n=4, torus-res 6: lift and "
                 "CSV/VTK writers only, the largest memory user", build_embed_cloud),
        Workload("verify-frames", "verify every interior frame of 49^2 n=5 fields, one passing and "
                 "one failing pair: the only calibration traffic", build_verify_frames),
        Workload("families-wind", "HL subfamily on 64^2, Joyce check on 25k s-values, 5k-sample "
                 "winding loop: the scalar P/P' and interp callers", build_families_wind),
    )
}
