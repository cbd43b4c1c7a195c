import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slfold import branch, families
from slfold.cli import main
from slfold.embedding import lift_point
from slfold.errors import NonpositiveAlphaError
from slfold.families import AffineSolution, affine_fields
from slfold.fieldio import read_field_csv, write_field_csv
from slfold.grid import BoundaryData, GridDomain, ScalarField2D, boundary_indices
from slfold.pde import solve_dirichlet

CONFIG = """
[params]
n = 3
a = [1.0, -1.0]

[domain]
x0 = -1.0
x1 = 1.0
y0 = -1.0
y1 = 1.0
nx = 17
ny = 17

[boundary]
kind = "affine"
coefficients = [1.5, 0.5, -0.5]

[solver]
tolerance = 1e-10

[outputs]
entries = ["field:csv:fields", "report:json:report.json"]
"""

DOMAIN_SECTION = "[domain]\nx0 = -1.0\nx1 = 1.0\ny0 = -1.0\ny1 = 1.0\nnx = 17\nny = 17\n"
assert DOMAIN_SECTION in CONFIG


def config_on(dom, text=CONFIG):
    """The config text with its [domain] section set to dom."""
    return text.replace(DOMAIN_SECTION, (
        f"[domain]\nx0 = {dom.x0}\nx1 = {dom.x1}\ny0 = {dom.y0}\ny1 = {dom.y1}\n"
        f"nx = {dom.nx}\nny = {dom.ny}\n"
    ))


SINGULAR_CONFIG = CONFIG.replace("a = [1.0, -1.0]", "a = [1.0, 1.0, 2.0]").replace("n = 3", "n = 4")


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text(CONFIG)
    return path


def write_affine_fields(tmp_path, alpha, beta, gamma, dom=None, tag=""):
    dom = dom or GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 17)
    u, v = affine_fields(AffineSolution(alpha, beta, gamma), dom)
    up, vp = tmp_path / f"u{tag}.csv", tmp_path / f"v{tag}.csv"
    write_field_csv(u, up, name="u")
    write_field_csv(v, vp, name="v")
    return up, vp


# --- solve -------------------------------------------------------------------------

def test_solve_affine_boundary(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["final_residual"] <= 1e-10
    assert report["ellipticity_margin"] > 0
    f = read_field_csv(out / "fields_f.csv")
    assert f.domain.nx == 17


def test_solve_report_counts_newton_and_rejected_steps(tmp_path):
    # iterations counts V-cycles, newton_steps the accepted steps and
    # rejected_steps those retried with a larger shift
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 17)
    phi = BoundaryData.from_function(dom, lambda x, y: x**2 + 0.3 * y)
    path = tmp_path / "run.toml"
    path.write_text(CONFIG.replace('kind = "affine"\ncoefficients = [1.5, 0.5, -0.5]',
                                   f'kind = "inline"\nvalues = [{", ".join(map(repr, phi.values.tolist()))}]'))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    sol = solve_dirichlet(branch.params_from_levels((1.0, -1.0)), dom, phi)
    assert (report["iterations"], report["newton_steps"], report["rejected_steps"]) == (
        sol.iterations, sol.newton_steps, sol.rejected_steps)
    assert sol.newton_steps == 4 and sol.rejected_steps == 0


def test_solve_is_deterministic(tmp_path, cfg_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("fields_f.csv", "fields_u.csv", "fields_v.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_singular_params_exit3(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text(SINGULAR_CONFIG)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


@given(st.integers(3, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_solve_exits_3_when_min_a_is_attained_twice(n, data):
    low = data.draw(st.floats(-5.0, 5.0))
    repeats = data.draw(st.integers(2, n - 1))
    others = data.draw(st.lists(st.floats(-5.0, 5.0).filter(lambda t: t > low),
                                min_size=n - 1 - repeats, max_size=n - 1 - repeats))
    levels = data.draw(st.permutations([low] * repeats + others))
    text = CONFIG.replace("a = [1.0, -1.0]", f"a = [{', '.join(map(repr, levels))}]")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "run.toml"
        path.write_text(text.replace("n = 3", f"n = {n}"))
        assert main(["solve", "--config", str(path), "--out", str(pathlib.Path(tmp) / "o")]) == 3


def singular_config(dom, floor=1e-10):
    """Levels a = (0, 0) on dom, inline boundary x^2 - y^2/2 + 0.3xy, the given floor."""
    values = BoundaryData.from_function(dom, lambda x, y: x**2 - y**2 / 2 + 0.3 * x * y).values
    return (config_on(dom).replace("a = [1.0, -1.0]", "a = [0.0, 0.0]")
            .replace('kind = "affine"\ncoefficients = [1.5, 0.5, -0.5]',
                     f'kind = "inline"\nvalues = [{", ".join(map(repr, values.tolist()))}]')
            .replace("tolerance = 1e-10", f"tolerance = 1e-10\nellipticity_floor = {floor!r}"))


def test_solve_singular_levels_off_y_zero(tmp_path, capsys):
    path = tmp_path / "run.toml"
    path.write_text(singular_config(GridDomain(-1.0, 1.0, 0.2, 1.4, 17, 17)))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["ellipticity_bound"] == 0.4 <= report["ellipticity_margin"]
    assert capsys.readouterr().out.startswith("solved: iterations=")


@pytest.mark.parametrize("dom, floor", [
    (GridDomain(-1.0, 1.0, -1.0, 1.0, 33, 33), 1e-10),
    (GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 18), 1e-10),  # no node at y = 0
    (GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 17), 0.0),
    (GridDomain(-1.0, 1.0, -1.4, -0.2, 17, 17), 1.0),  # below y = 0: the bound 0.4 < floor
])
def test_solve_singular_levels_refused_exit3(tmp_path, capsys, dom, floor):
    path = tmp_path / "run.toml"
    path.write_text(singular_config(dom, floor))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "singular parameters: min(a_j) has multiplicity > 1" in capsys.readouterr().err


def test_solve_nan_ellipticity_floor_exit1(tmp_path, capsys):
    path = tmp_path / "run.toml"
    path.write_text(singular_config(GridDomain(-1.0, 1.0, 0.2, 1.4, 17, 17), float("nan")))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "ellipticity_floor must not be nan" in capsys.readouterr().err


def test_solve_branch_out_of_steps_exit2(tmp_path, cfg_path, monkeypatch, capsys):
    monkeypatch.setattr(branch, "_MAX_NEWTON", 1)
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "no convergence after 1 iterations" in capsys.readouterr().err


def test_solve_malformed_config_exit1(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("[params\nwhat")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_solve_missing_config_exit1(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "none.toml")]) == 1


@pytest.mark.parametrize("section", ["boundary", "solver", "outputs", "embedding"])
def test_solve_non_table_section_exit1(tmp_path, section):
    path = tmp_path / "scalar.toml"
    tables = [t for t in CONFIG.split("\n\n") if not t.startswith(f"[{section}]")]
    path.write_text(f"{section} = 1\n" + "\n\n".join(tables))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_solve_embedding_vtk_entry_writes_vtk(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text(CONFIG.replace('"field:csv:fields", "report:json:report.json"',
                                   '"embedding:vtk:cloud.vtk", "embedding:csv:cloud.csv"'))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    vtk = (out / "cloud.vtk").read_text().splitlines()
    assert vtk[:5] == ["# vtk DataFile Version 3.0", "embedded samples", "ASCII",
                       "DATASET POLYDATA", "POINTS 289 double"]
    # the default projection re:z3,im:z3,re:z1 picks columns of the CSV
    rows = np.loadtxt(out / "cloud.csv", delimiter=",", skiprows=1)
    points = np.array([[float(t) for t in line.split()] for line in vtk[5:5 + 289]])
    assert np.array_equal(points, rows[:, [10, 11, 6]])


@pytest.mark.parametrize("entry", ["report:csv:rep.csv", "field:json:f"])
def test_solve_output_format_not_written_exit1(tmp_path, entry):
    path = tmp_path / "run.toml"
    path.write_text(CONFIG.replace('"report:json:report.json"', f'"{entry}"'))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()


def test_solve_no_convergence_exit2(tmp_path):
    path = tmp_path / "tight.toml"
    values = ", ".join(str(float(k % 7)) for k in range(2 * (17 + 17) - 4))
    path.write_text(
        f"""
[params]
a = [1.0, -1.0]

[domain]
x0 = -1.0
x1 = 1.0
y0 = -1.0
y1 = 1.0
nx = 17
ny = 17

[boundary]
kind = "inline"
values = [{values}]

[solver]
tolerance = 1e-12
max_iterations = 2
"""
    )
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_usage_error_exit1():
    assert main(["solve"]) == 1          # missing --config
    assert main(["frobnicate"]) == 1     # unknown subcommand
    assert main(["--help"]) == 0


# --- verify ------------------------------------------------------------------------

def test_verify_affine_fields_pass(tmp_path, cfg_path):
    up, vp = write_affine_fields(tmp_path, 1.5, 0.5, -0.5)
    report = tmp_path / "verify.json"
    code = main([
        "verify", "--config", str(cfg_path), "--u", str(up), "--v", str(vp),
        "--report", str(report),
    ])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert data["max_first_order_residual"] <= 1e-10
    assert data["frames"] > 0


def test_verify_swap_pair_fails_exit4(tmp_path, cfg_path):
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 17)
    u = ScalarField2D.from_function(dom, lambda x, y: y + 0 * x)
    v = ScalarField2D.from_function(dom, lambda x, y: x + 0 * y)
    up, vp = tmp_path / "u.csv", tmp_path / "v.csv"
    write_field_csv(u, up, name="u")
    write_field_csv(v, vp, name="v")
    report = tmp_path / "verify.json"
    code = main([
        "verify", "--config", str(cfg_path), "--u", str(up), "--v", str(vp),
        "--report", str(report),
    ])
    assert code == 4
    data = json.loads(report.read_text())
    assert data["max_first_order_residual"] > 1e-3
    assert data["max_omega_residual"] > 1e-3


def test_verify_missing_file_exit1(tmp_path, cfg_path):
    assert main([
        "verify", "--config", str(cfg_path),
        "--u", str(tmp_path / "missing.csv"), "--v", str(tmp_path / "missing2.csv"),
    ]) == 1


def test_verify_domain_mismatch_exit1(tmp_path, cfg_path):
    up, _ = write_affine_fields(tmp_path, 1.0, 0.0, 0.0)
    other = GridDomain(-1.0, 1.0, -1.0, 1.0, 9, 9)
    _, vp = write_affine_fields(tmp_path, 1.0, 0.0, 0.0, dom=other, tag="small")
    assert main(["verify", "--config", str(cfg_path), "--u", str(up), "--v", str(vp)]) == 1


def _verify_grid(tmp_path, levels, nx, ny, u_values, v_values, max_frames=200):
    """Run verify on fields over [-1, 1]^2 at the given levels; (exit code, report)."""
    cfg = tmp_path / "levels.toml"
    cfg.write_text(
        CONFIG.replace("n = 3", f"n = {len(levels) + 1}")
        .replace("a = [1.0, -1.0]", f"a = {list(levels)}")
        .replace("nx = 17", f"nx = {nx}")
        .replace("ny = 17", f"ny = {ny}")
    )
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nx, ny)
    up, vp, report = tmp_path / "u.csv", tmp_path / "v.csv", tmp_path / "verify.json"
    write_field_csv(ScalarField2D(dom, u_values), up, name="u")
    write_field_csv(ScalarField2D(dom, v_values), vp, name="v")
    code = main([
        "verify", "--config", str(cfg), "--u", str(up), "--v", str(vp),
        "--max-frames", str(max_frames), "--report", str(report),
    ])
    return code, json.loads(report.read_text()) if report.exists() else None


def test_verify_without_checked_frames_fails_exit4(tmp_path, capsys):
    # v = y = 0 on the only interior row: every frame has a vanishing radius
    code, report = _verify_grid(tmp_path, (1.0, 0.25, -1.0), 9, 3,
                                np.full((9, 3), 0.3), np.zeros((9, 3)))
    assert code == 4
    assert "-> FAIL" in capsys.readouterr().out
    assert report["passed"] is False
    assert (report["frames"], report["skipped_frames"]) == (0, 7)
    assert report["skipped_by_reason"]["ZeroRadiusError"] == 7


def test_verify_skip_reasons_by_error_type(tmp_path):
    # min(a_j) twice: v = y = 0 collapses the orbit; the third level at 1e18
    # stops the branch Newton within 1e-15 of w0 at v = 1e-9, a zero radius
    v = np.zeros((5, 3))
    v[2, 1], v[3, 1] = 1e-9, 1.0
    code, report = _verify_grid(tmp_path, (0.0, 0.0, 1e18), 5, 3, np.zeros((5, 3)), v)
    assert code in (0, 4)
    assert (report["frames"], report["skipped_frames"]) == (1, 2)
    assert report["skipped_by_reason"] == {
        "SingularPointError": 1,
        "ZeroRadiusError": 1,
        "DegenerateBranchError": 0,
        "RankDeficientError": 0,
    }


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_max_frames_below_one_exit1(tmp_path, cfg_path, capsys, value):
    up, vp = write_affine_fields(tmp_path, 1.5, 0.5, -0.5)
    code = main(["verify", "--config", str(cfg_path), "--u", str(up), "--v", str(vp),
                 "--max-frames", value])
    assert code == 1
    assert f"config error: --max-frames must be >= 1, got {value}" in capsys.readouterr().err


def test_verify_checks_every_interior_frame_by_default(tmp_path, cfg_path):
    # 17^2: 225 interior nodes; a cap of 200 takes every second one in each direction
    up, vp = write_affine_fields(tmp_path, 1.5, 0.5, -0.5)
    frames = {}
    for cap in ([], ["--max-frames", "200"]):
        report = tmp_path / "verify.json"
        assert main(["verify", "--config", str(cfg_path), "--u", str(up), "--v", str(vp),
                     "--report", str(report), *cap]) == 0
        frames[len(cap)] = json.loads(report.read_text())["frames"]
    assert frames == {0: 225, 2: 64}


# sha256 of the report bytes, recorded with the writer that built one dict per
# point; the rounding-level residuals come from LAPACK's SVD, so another LAPACK
# build may need these recorded again with that writer
VERIFY_REPORT_SHA256 = {
    0: "63402a2744411438cf2b5e705dbe15718f823e3424ab60647e27af4f46d44b63",
    4: "88a35d65fea7a12e29abf7dd68031cc1f87f094bb17814c2c3ef8aa52a702b8a",
}


@pytest.mark.parametrize("perturbation, code", [(None, 0), (0.01, 4)])
def test_verify_report_bytes_golden(tmp_path, perturbation, code):
    # the affine pair at 9^2, n = 4, and the same pair with u + 0.01 x y
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 9, 9)
    u, v = affine_fields(AffineSolution(1.5, 0.5, -0.5), dom)
    if perturbation is not None:
        x, y = np.meshgrid(dom.xs(), dom.ys(), indexing="ij")
        u = ScalarField2D(dom, u.values + perturbation * x * y)
    write_field_csv(u, tmp_path / "u.csv", name="u")
    write_field_csv(v, tmp_path / "v.csv", name="v")
    (tmp_path / "cfg.toml").write_text("[params]\nn = 4\na = [1.0, 0.25, -1.0]\n")
    report = tmp_path / "verify.json"
    assert main(["verify", "--config", str(tmp_path / "cfg.toml"), "--u", str(tmp_path / "u.csv"),
                 "--v", str(tmp_path / "v.csv"), "--report", str(report)]) == code
    data = report.read_bytes()
    assert data.decode() == json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(data).hexdigest() == VERIFY_REPORT_SHA256[code]


# --- example -----------------------------------------------------------------------

def test_example_affine_rows(tmp_path):
    out = tmp_path / "affine.csv"
    code = main([
        "example", "affine", "--alpha", "1", "--beta", "2", "--gamma", "-1",
        "--domain=-1,1,-1,1", "--nx", "5", "--ny", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,u,v"
    assert len(lines) == 26


@pytest.mark.parametrize("argv", [
    ["affine", "--domain=-1,inf,-1,1"],  # a bound that is not finite
    ["hl", "--a", "1,0", "--domain=-1e308,1e308,0.5,1"],  # a width that overflows to inf
], ids=["infinite-bound", "overflowing-width"])
def test_example_refuses_a_domain_that_is_not_finite(tmp_path, capsys, argv):
    out = tmp_path / "rows.csv"
    assert main(["example", *argv, "--out", str(out)]) == 1
    assert "error: domain bounds and node spacings must be finite" in capsys.readouterr().err
    assert not out.exists()


# Written by the per-node affine_uv loop the command used before it built columns.
AFFINE_GOLDEN = """\
x,y,u,v
-1.1000000000000001,-0.29999999999999999,-2.0700000000000003,-0.10999999999999999
-1.1000000000000001,0.89999999999999991,-2.0700000000000003,0.72999999999999987
-1.1000000000000001,2.1000000000000001,-2.0700000000000003,1.5700000000000001
-0.10000000000000009,-0.29999999999999999,-1.3700000000000001,-0.10999999999999999
-0.10000000000000009,0.89999999999999991,-1.3700000000000001,0.72999999999999987
-0.10000000000000009,2.1000000000000001,-1.3700000000000001,1.5700000000000001
0.90000000000000002,-0.29999999999999999,-0.67000000000000004,-0.10999999999999999
0.90000000000000002,0.89999999999999991,-0.67000000000000004,0.72999999999999987
0.90000000000000002,2.1000000000000001,-0.67000000000000004,1.5700000000000001
"""


def test_example_affine_golden_bytes(tmp_path):
    out = tmp_path / "affine.csv"
    code = main([
        "example", "affine", "--alpha", "0.7", "--beta", "-1.3", "--gamma", "0.1",
        "--domain=-1.1,0.9,-0.3,2.1", "--nx", "3", "--ny", "3", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text() == AFFINE_GOLDEN


# Written by the monotone Newton: at (+-1, +-1) the root is alpha = sqrt(2) - 1.
HL_GOLDEN = """\
x,y,u,v,w,alpha,status
-1,-1,0.64359425290558259,-1.5537739740300374,1.4142135623730949,0.41421356237309498,ok
-1,0,0,0,0,0,skipped_y0
-1,1,-0.64359425290558259,-1.5537739740300374,1.4142135623730949,0.41421356237309498,ok
0,-1,0.78615137775742328,0,0.61803398874989479,0.61803398874989479,ok
0,0,0,0,0,0,skipped_y0
0,1,-0.78615137775742328,0,0.61803398874989479,0.61803398874989479,ok
1,-1,0.64359425290558259,1.5537739740300374,1.4142135623730949,0.41421356237309498,ok
1,0,0,0,0,0,skipped_y0
1,1,-0.64359425290558259,1.5537739740300374,1.4142135623730949,0.41421356237309498,ok
"""

JOYCE_GOLDEN = """\
s,coefficient,closed_form
0,1.3999999999999999,1.3999999999999999
0.33333333333333331,1.8147543451754933,1.8147543451754933
0.66666666666666663,2.1509687739868903,2.1509687739868903
1,2.4413111231467406,2.4413111231467406
"""

WIND_GOLDEN = """\
x,y,f1,f2,cumulative_angle
0.27500000000000002,0.125,0.12,0.20000000000000001,0.47886059102746664
0.15784271247461906,0.40784271247461901,0.026274169979695228,0.42627416997969519,0.90759333408880316
-0.12499999999999997,0.52500000000000002,-0.19999999999999998,0.52000000000000002,1.3258176636680323
-0.40784271247461901,0.40784271247461906,-0.42627416997969519,0.42627416997969525,1.7440419932472615
-0.52500000000000002,0.12500000000000006,-0.52000000000000002,0.20000000000000007,2.1727747363085981
-0.40784271247461906,-0.15784271247461901,-0.42627416997969525,-0.0262741699796952,2.6516353273360647
-0.12500000000000008,-0.27500000000000002,-0.20000000000000007,-0.12,4.4674103172578246
0.15784271247461895,-0.15784271247461906,0.026274169979695144,-0.026274169979695228,6.2831853071795871
"""


def test_example_hl_golden_bytes_with_skipped_rows(tmp_path):
    out = tmp_path / "hl.csv"
    assert main(["example", "hl", "--a", "1,0", "--b", "0", "--domain=-1,1,-1,1",
                 "--nx", "3", "--ny", "3", "--out", str(out)]) == 0
    assert out.read_text() == HL_GOLDEN
    # 1 + 1/alpha = (1 + alpha)(2 + alpha) at x = y = 1
    alpha = float(HL_GOLDEN.splitlines()[-1].split(",")[5])
    assert abs(alpha - 0.41421356237309503) <= np.spacing(0.41421356237309503)


def test_example_joyce_golden_bytes(tmp_path, capsys):
    out = tmp_path / "joyce.csv"
    assert main(["example", "joyce", "--a", "0.7", "--s-max", "1", "--s-count", "4",
                 "--out", str(out)]) == 0
    assert out.read_text() == JOYCE_GOLDEN
    assert capsys.readouterr().out == "max_deviation=0\n"


def test_wind_trace_golden_bytes(tmp_path):
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 9, 9)
    u1, v1 = write_affine_fields(tmp_path, 1.0, 0.0, 0.0, dom=dom, tag="1")
    u2, v2 = write_affine_fields(tmp_path, 0.2, 0.1, -0.1, dom=dom, tag="2")
    out = tmp_path / "wind.csv"
    assert main(["wind", "--u1", str(u1), "--v1", str(v1), "--u2", str(u2), "--v2", str(v2),
                 "--center=-0.125,0.125", "--radius", "0.4", "--samples", "8", "--out", str(out)]) == 0
    assert out.read_text() == WIND_GOLDEN


def test_example_hl_rows_satisfy_invariants(tmp_path):
    out = tmp_path / "hl.csv"
    code = main([
        "example", "hl", "--a", "1,0", "--b", "0",
        "--domain", "0.2,1.4,0.2,1.4", "--nx", "4", "--ny", "4", "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert all(row[-1] == "ok" for row in rows)
    for row in rows:
        x, y, u, v, w, alpha = (float(t) for t in row[:-1])
        assert abs(w - (x * x + u * u)) <= 1e-10
        assert abs(v * u + x * y) <= 1e-10
        assert v * x - u * y > 0


def test_example_hl_flags_y_zero_rows(tmp_path):
    out = tmp_path / "hl.csv"
    code = main([
        "example", "hl", "--a", "1,0", "--b", "0",
        "--domain=-1,1,-1,1", "--nx", "3", "--ny", "3", "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    statuses = {row[-1] for row in rows}
    assert "skipped_y0" in statuses and "ok" in statuses


def test_example_hl_rows_are_hl_triple_x_outer(tmp_path):
    out = tmp_path / "hl.csv"
    assert main(["example", "hl", "--a", "1,0.5,0", "--b", "0.2", "--domain=-0.9,1.1,-0.4,1.4",
                 "--nx", "3", "--ny", "4", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    cfg = families.HLConfig.from_head((1.0, 0.5), 0.2)
    dom = GridDomain(-0.9, 1.1, -0.4, 1.4, 3, 4)
    nodes = [(x, y) for x in dom.xs().tolist() for y in dom.ys().tolist()]
    assert [(float(r[0]), float(r[1])) for r in rows] == nodes
    for row, (x, y) in zip(rows, nodes):
        assert row[-1] == "ok"
        t = families.hl_triple(cfg, x, y)
        assert [float(c) for c in row[2:6]] == [t.u, t.v, t.w, t.alpha]


def test_example_hl_writes_degenerate_rows(tmp_path):
    # head level -4: every node with y != 0 has one root on the branch w >= w0 = 4
    out = tmp_path / "hl.csv"
    argv = ["example", "hl", "--a=-4,0", "--b", "0", "--domain=-1.5,1.5,-1.5,1.5", "--nx", "5", "--ny", "4",
            "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 20
    assert {row[-1] for row in rows} == {"ok"}
    assert all(float(row[4]) >= 4.0 for row in rows)
    # b = 5 puts alpha = w(y^2) - b below 0 at x = 0, the only degenerate nodes
    argv[argv.index("--b") + 1] = "5"
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    degenerate = [row for row in rows if row[-1] == "degenerate"]
    assert {row[-1] for row in rows} == {"ok", "degenerate"}
    assert {float(row[0]) for row in degenerate} == {0.0} and len(degenerate) == 4
    assert all(row[2:6] == ["0", "0", "0", "0"] for row in degenerate)


def test_example_hl_negative_heads_stay_on_the_branch(tmp_path):
    # the bracket search this kernel replaced wrote 20 ok rows here, 12 of them with w < w0 = 3.9233
    out = tmp_path / "hl.csv"
    assert main(["example", "hl", "--a=-0.7703,-2.3912,-3.9233,0", "--b=-0.088", "--nx", "9", "--ny", "9",
                 "--domain=-1.5,1.5,-1.5,1.5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    status = [row[-1] for row in rows]
    assert (status.count("ok"), status.count("skipped_y0")) == (72, 9)
    params = branch.params_from_levels((-0.7703, -2.3912, -3.9233, 0.0))
    for row in rows:
        if row[-1] == "ok":
            x, y, u, v, w, alpha = (float(c) for c in row[:6])
            assert w >= params.w0 and min(w + aj for aj in params.a) >= 0.0
            assert abs(lift_point(params, x, y, u, v).w - w) <= 1e-12 * abs(w)


def test_example_hl_root_search_out_of_steps_exit2(tmp_path, monkeypatch, capsys):
    # one Newton step is not enough at any of these nodes
    monkeypatch.setattr(families, "_MAX_NEWTON", 1)
    assert main(["example", "hl", "--a", "1,0", "--b", "0", "--domain", "0.2,1.4,0.2,1.4",
                 "--nx", "3", "--ny", "3", "--out", str(tmp_path / "hl.csv")]) == 2
    assert "solver failure: no convergence after 1 iterations" in capsys.readouterr().err


def test_example_hl_flags_underflowing_nodes(tmp_path):
    # x^2 y^2 underflows to 0 at the first node; the rest is solved
    out = tmp_path / "hl.csv"
    assert main(["example", "hl", "--a", "0,0", "--b", "0", "--domain", "4.8e-92,1,4.8e-92,1",
                 "--nx", "3", "--ny", "3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [row[-1] for row in rows].count("underflow") == 1
    assert rows[0][2:] == ["0", "0", "0", "0", "underflow"]
    assert [row[-1] for row in rows if float(row[0]) >= 0.5 and float(row[1]) >= 0.5] == ["ok"] * 4
    with pytest.raises(NonpositiveAlphaError):
        families.hl_triple(families.HLConfig.from_head((0.0,), 0.0), 4.8e-92, 4.8e-92)


def test_example_hl_requires_trailing_zero():
    assert main(["example", "hl", "--a", "1,0.5", "--b", "0"]) == 1


def test_example_joyce_deviation(tmp_path, capsys):
    code = main(["example", "joyce", "--a", "1", "--s-max", "100", "--s-count", "200"])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("max_deviation=")
    assert float(printed.split("=")[1]) <= 1e-10


def test_example_joyce_rejects_several_levels(capsys):
    assert main(["example", "joyce", "--a", "1,7,9"]) == 1
    assert "one nonzero value" in capsys.readouterr().err


def test_example_joyce_rejects_an_empty_s_grid(tmp_path, capsys):
    out = tmp_path / "joyce.csv"
    assert main(["example", "joyce", "--a", "1", "--s-count", "0", "--out", str(out)]) == 1
    assert "--s-count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# --- embed -------------------------------------------------------------------------

def test_embed_point_cloud(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text(CONFIG.replace("nx = 17", "nx = 3").replace("ny = 17", "ny = 3"))
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 3, 3)
    up, vp = write_affine_fields(tmp_path, 1.0, 0.2, 0.4, dom=dom)
    out = tmp_path / "cloud"
    code = main([
        "embed", "--config", str(cfg), "--u", str(up), "--v", str(vp),
        "--torus-res", "8", "--project", "re:z3,im:z3,re:z1", "--vtk",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "points.csv").read_text().strip().splitlines()
    assert len(lines) - 1 <= 72
    skip = json.loads((out / "skip_report.json").read_text())
    assert skip["samples"] == len(lines) - 1
    vtk = (out / "points.vtk").read_text()
    assert "DATASET POLYDATA" in vtk


def test_embed_bad_projection_exit1(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text(CONFIG)
    up, vp = write_affine_fields(tmp_path, 1.0, 0.0, 0.5)
    assert main([
        "embed", "--config", str(cfg), "--u", str(up), "--v", str(vp),
        "--project", "re:z9,im:z1,re:z1", "--out", str(tmp_path / "c"),
    ]) == 1


DOM5 = GridDomain(-1.0, 1.0, -1.0, 1.0, 5, 5)


def embed_res_config(tmp_path, torus_resolution):
    """An n = 4 config on DOM5 with the given [embedding] torus_resolution."""
    text = config_on(DOM5).replace("n = 3", "n = 4").replace("a = [1.0, -1.0]", "a = [1.0, 0.25, -1.0]")
    cfg = tmp_path / "run.toml"
    cfg.write_text(text + f"\n[embedding]\ntorus_resolution = {torus_resolution}\n")
    return cfg


@pytest.mark.parametrize("flag, res", [([], 4), (["--torus-res", "2"], 2), (["--torus-res", "1"], 1)])
def test_embed_torus_resolution_from_config_unless_flag_given(tmp_path, flag, res):
    cfg = embed_res_config(tmp_path, 4)
    up, vp = write_affine_fields(tmp_path, 1.0, 0.2, 0.4, dom=DOM5)
    out = tmp_path / "cloud"
    assert main(["embed", "--config", str(cfg), "--u", str(up), "--v", str(vp), *flag,
                 "--out", str(out)]) == 0
    skip = json.loads((out / "skip_report.json").read_text())
    assert (skip["torus_resolution"], skip["samples"]) == (res, 25 * res**2)


@pytest.mark.parametrize("flag, config_res", [(["--torus-res", "0"], 4), (["--torus-res", "-1"], 4), ([], 0)])
def test_embed_torus_resolution_below_one_exit1(tmp_path, capsys, flag, config_res):
    cfg = embed_res_config(tmp_path, config_res)
    up, vp = write_affine_fields(tmp_path, 1.0, 0.2, 0.4, dom=DOM5)
    out = tmp_path / "cloud"
    assert main(["embed", "--config", str(cfg), "--u", str(up), "--v", str(vp), *flag,
                 "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, code", [("none", 0), ("written on [-2, 2]^2", 1), ("rows reversed", 1)])
def test_solve_refuses_a_boundary_csv_off_the_traversal(tmp_path, capsys, edit, code):
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 17)
    ii, jj = boundary_indices(dom.nx, dom.ny)
    scale = 2.0 if edit.startswith("written") else 1.0
    xs, ys = (scale * dom.xs()[ii]).tolist(), (scale * dom.ys()[jj]).tolist()
    rows = [f"{x!r},{y!r},{x * y + 0.5 * x!r}\n" for x, y in zip(xs, ys)]
    csv = tmp_path / "phi.csv"
    csv.write_text("x,y,value\n" + "".join(rows[::-1] if edit == "rows reversed" else rows))
    cfg = tmp_path / "run.toml"
    cfg.write_text(CONFIG.replace('kind = "affine"\ncoefficients = [1.5, 0.5, -0.5]',
                                  f'kind = "csv"\npath = "{csv.as_posix()}"'))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    assert ("rows are not the boundary traversal" in capsys.readouterr().err) == (code == 1)


# --- wind --------------------------------------------------------------------------

def test_wind_command(tmp_path, capsys):
    dom = GridDomain(-2.0, 2.0, -2.0, 2.0, 33, 33)
    cfg = tmp_path / "run.toml"
    cfg.write_text(config_on(dom))
    u1, v1 = write_affine_fields(tmp_path, 1.0, 0.0, 0.0, dom=dom, tag="1")
    u2, v2 = write_affine_fields(tmp_path, 0.2, 0.1, -0.1, dom=dom, tag="2")
    trace = tmp_path / "trace.csv"
    code = main([
        "wind", "--config", str(cfg),
        "--u1", str(u1), "--v1", str(v1), "--u2", str(u2), "--v2", str(v2),
        "--center=-0.125,0.125", "--radius", "0.4", "--samples", "64",
        "--out", str(trace),
    ])
    assert code == 0
    assert "winding=1" in capsys.readouterr().out
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "x,y,f1,f2,cumulative_angle"
    assert len(lines) == 65
    # cumulative angle ends at 2 pi
    assert float(lines[-1].split(",")[-1]) == pytest.approx(2 * np.pi, rel=1e-9)


def test_wind_zero_on_loop_exit1(tmp_path):
    dom = GridDomain(-2.0, 2.0, -2.0, 2.0, 33, 33)
    cfg = tmp_path / "run.toml"
    cfg.write_text(config_on(dom))
    u1, v1 = write_affine_fields(tmp_path, 1.0, 0.0, 0.0, dom=dom, tag="1")
    assert main([
        "wind", "--config", str(cfg),
        "--u1", str(u1), "--v1", str(v1), "--u2", str(u1), "--v2", str(v1),
        "--center", "0,0", "--radius", "0.4",
    ]) == 1


@pytest.mark.parametrize(
    "flag, value, message",
    [("--radius", "0", "--radius must be finite and > 0, got 0.0"),
     ("--radius", "-0.2", "--radius must be finite and > 0, got -0.2"),
     ("--radius", "nan", "--radius must be finite and > 0, got nan"),
     ("--samples", "-5", "--samples must be >= 8, got -5"),
     ("--samples", "7", "--samples must be >= 8, got 7")],
)
def test_wind_refuses_an_impossible_circle_exit1(tmp_path, capsys, flag, value, message):
    argv = _field_argv(tmp_path, "wind", None)
    if flag == "--radius":
        argv[argv.index("--radius") + 1] = value
    else:
        argv += [flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_wind_checks_its_circle_before_reading_fields(tmp_path, capsys):
    # the field paths do not exist: the radius is refused before any of them is read
    missing = [str(tmp_path / f"{name}.csv") for name in ("u1", "v1", "u2", "v2")]
    assert main(["wind", "--u1", missing[0], "--v1", missing[1], "--u2", missing[2], "--v2", missing[3],
                 "--center", "0,0", "--radius=-0.2"]) == 1
    assert capsys.readouterr().err == "config error: --radius must be finite and > 0, got -0.2\n"


# --- configs without [boundary] ------------------------------------------------------

NO_BOUNDARY_CONFIG = CONFIG.replace('[boundary]\nkind = "affine"\ncoefficients = [1.5, 0.5, -0.5]\n', "")


def test_commands_without_boundary_section(tmp_path, capsys):
    assert "[boundary]" not in NO_BOUNDARY_CONFIG
    cfg = tmp_path / "run.toml"
    cfg.write_text(NO_BOUNDARY_CONFIG)
    up, vp = write_affine_fields(tmp_path, 1.5, 0.5, -0.5)
    assert main(["verify", "--config", str(cfg), "--u", str(up), "--v", str(vp)]) == 0
    assert main(["embed", "--config", str(cfg), "--u", str(up), "--v", str(vp),
                 "--out", str(tmp_path / "cloud")]) == 0
    dom = GridDomain(-2.0, 2.0, -2.0, 2.0, 33, 33)
    cfg.write_text(config_on(dom, NO_BOUNDARY_CONFIG))
    u1, v1 = write_affine_fields(tmp_path, 1.0, 0.0, 0.0, dom=dom, tag="1")
    u2, v2 = write_affine_fields(tmp_path, 0.2, 0.1, -0.1, dom=dom, tag="2")
    assert main(["wind", "--config", str(cfg), "--u1", str(u1), "--v1", str(v1),
                 "--u2", str(u2), "--v2", str(v2), "--center=-0.125,0.125", "--radius", "0.4"]) == 0
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error: solve needs a [boundary] section" in capsys.readouterr().err


# --- [domain] against the field files -------------------------------------------------

def _field_argv(tmp_path, command, cfg):
    """argv of verify, embed or wind on affine fields over [-1, 1]^2 at 17^2."""
    up, vp = write_affine_fields(tmp_path, 1.0, 0.0, 0.5)
    if command == "wind":
        u2, v2 = write_affine_fields(tmp_path, 0.2, 0.1, -0.1, tag="2")
        argv = ["wind", "--u1", str(up), "--v1", str(vp), "--u2", str(u2), "--v2", str(v2),
                "--center=-0.125,0.125", "--radius", "0.4"]
    else:
        argv = [command, "--u", str(up), "--v", str(vp)]
        if command == "embed":
            argv += ["--out", str(tmp_path / "cloud")]
    if cfg is not None:
        argv += ["--config", str(cfg)]
    return argv


FIELD_COMMANDS = ["verify", "embed", "wind"]


@pytest.mark.parametrize("command", FIELD_COMMANDS)
@pytest.mark.parametrize(
    "edit",
    [("ny = 17", "ny = 9"), ("y1 = 1.0", "y1 = 1.00000000001")],  # nodes; bounds 5e-12 of the span off
    ids=["nodes", "bounds"],
)
def test_field_commands_refuse_a_domain_unlike_the_fields(tmp_path, capsys, command, edit):
    cfg = tmp_path / "run.toml"
    cfg.write_text(CONFIG.replace(*edit))
    assert main(_field_argv(tmp_path, command, cfg)) == 1
    assert "config error: [domain]" in capsys.readouterr().err


@pytest.mark.parametrize("command", FIELD_COMMANDS)
def test_field_commands_accept_bounds_within_rounding(tmp_path, command):
    cfg = tmp_path / "run.toml"
    cfg.write_text(CONFIG.replace("y1 = 1.0", "y1 = 1.000000000001"))  # 5e-13 of the span
    assert main(_field_argv(tmp_path, command, cfg)) == 0


@pytest.mark.parametrize("command", FIELD_COMMANDS)
def test_field_commands_without_domain_section(tmp_path, command):
    cfg = tmp_path / "run.toml"
    cfg.write_text(CONFIG.replace(DOMAIN_SECTION, ""))
    assert main(_field_argv(tmp_path, command, cfg)) == 0


def test_wind_without_config(tmp_path, capsys):
    assert main(_field_argv(tmp_path, "wind", None)) == 0
    assert "winding=0" in capsys.readouterr().out


def test_solve_refuses_an_infinite_domain_bound_exit1(tmp_path, capsys):
    cfg = tmp_path / "run.toml"
    cfg.write_text(CONFIG.replace("x1 = 1.0", "x1 = inf"))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error: domain bounds and node spacings must be finite" in capsys.readouterr().err


def test_solve_without_domain_section_exit1(tmp_path, capsys):
    cfg = tmp_path / "run.toml"
    cfg.write_text(CONFIG.replace(DOMAIN_SECTION, ""))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error: solve needs a [domain] section" in capsys.readouterr().err


# --- field io ----------------------------------------------------------------------

def test_field_csv_round_trip_exact(tmp_path, rng):
    dom = GridDomain(-1.3, 0.7, 0.1, 2.9, 7, 5)
    field = ScalarField2D(dom, rng.normal(size=(7, 5)))
    path = tmp_path / "f.csv"
    write_field_csv(field, path)
    back = read_field_csv(path)
    assert back.domain == dom
    assert np.array_equal(back.values, field.values)
