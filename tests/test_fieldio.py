"""Golden bytes of the field and sample CSV and VTK writers.

The expected text pins the format: header, node-major row order, and 17
significant digits, so that every value re-reads bit for bit.
"""

import pytest

from slfold.branch import params_from_levels
from slfold.embedding import sample_fields
from slfold.fieldio import (
    parse_projection,
    read_field_csv,
    write_field_csv,
    write_field_vtk,
    write_points_vtk,
    write_samples_csv,
)
from slfold.grid import GridDomain, ScalarField2D

FIELD_CSV = (
    "x,y,u\n"
    "-1,0,-0.33333333333333331\n"
    "-1,0.14999999999999999,-0.18333333333333332\n"
    "-1,0.29999999999999999,-0.033333333333333326\n"
    "0,0,0\n"
    "0,0.14999999999999999,0.14999999999999999\n"
    "0,0.29999999999999999,0.29999999999999999\n"
    "1,0,0.33333333333333331\n"
    "1,0.14999999999999999,0.48333333333333328\n"
    "1,0.29999999999999999,0.6333333333333333\n"
)

SAMPLES_CSV = (
    "x,y,u,v,w,theta,re_z1,im_z1,re_z2,im_z2,re_z3,im_z3\n"
    "-1,0,-0.33333333333333331,1,1.4142135623730949,0,1.5537739740300374,0,0.64359425290558259,0,-1,-0.33333333333333331\n"
    "-1,0.14999999999999999,-0.18333333333333332,1.075,1.475847214314544,0.13863973713415806,1.5734825116011122,0,0.68319793329391587,0.095329944180546411,-1,-0.18333333333333332\n"
    "-1,0.29999999999999999,-0.033333333333333326,1.1499999999999999,1.5532224567009068,0.25518239062081838,1.5978806140325086,0,0.71970333071241799,0.18774869496845686,-1,-0.033333333333333326\n"
    "0,0,0,0,1,0,1.4142135623730951,0,0,0,0,0\n"
    "0,0.14999999999999999,0.14999999999999999,0.074999999999999997,1.0139649895336624,1.1071487177940904,1.4191423429429699,0,0.052848821242601721,0.10569764248520341,0,0.14999999999999999\n"
    "0,0.29999999999999999,0.29999999999999999,0.14999999999999999,1.0547511554864493,1.1071487177940904,1.4334403215643299,0,0.1046433519020194,0.20928670380403874,0,0.29999999999999999\n"
    "1,0,0.33333333333333331,-1,1.4142135623730949,3.1415926535897931,1.5537739740300374,0,-0.64359425290558259,7.8817564177045388e-17,1,0.33333333333333331\n"
    "1,0.14999999999999999,0.48333333333333328,-0.92500000000000004,1.3704470073665744,2.9808299129639586,1.5396256062324289,0,-0.6007954117258022,0.097426282982562479,1,0.48333333333333328\n"
    "1,0.29999999999999999,0.6333333333333333,-0.84999999999999998,1.3462912017836259,2.8023000391357487,1.5317608174201436,0,-0.5549169232776211,0.19585303174504268,1,0.6333333333333333\n"
)


# im:z2, re:z3, im:z1 at torus resolution 2; "-0" pins the sign of a zero
POINTS_VTK = (
    "# vtk DataFile Version 3.0\n"
    "embedded samples\n"
    "ASCII\n"
    "DATASET POLYDATA\n"
    "POINTS 18 double\n"
    "0 -1 0\n"
    "-7.8817564177045388e-17 -1 1.902824323894348e-16\n"
    "0.095329944180546411 -1 0\n"
    "-0.095329944180546522 -1 1.92696032134664e-16\n"
    "0.18774869496845686 -1 0\n"
    "-0.18774869496845695 -1 1.9568393793945189e-16\n"
    "0 0 0\n"
    "-0 0 1.7319121124709868e-16\n"
    "0.10569764248520341 0 0\n"
    "-0.10569764248520341 0 1.7379481278195834e-16\n"
    "0.20928670380403874 0 0\n"
    "-0.20928670380403874 0 1.7554581015725092e-16\n"
    "7.8817564177045388e-17 1 0\n"
    "0 1 1.902824323894348e-16\n"
    "0.097426282982562479 1 0\n"
    "-0.097426282982562382 1 1.8854975705578473e-16\n"
    "0.19585303174504268 1 0\n"
    "-0.19585303174504262 1 1.8758659821129121e-16\n"
    "VERTICES 18 36\n"
    + "".join(f"1 {k}\n" for k in range(18))
)

FIELD_VTK = (
    "# vtk DataFile Version 3.0\n"
    "v\n"
    "ASCII\n"
    "DATASET STRUCTURED_GRID\n"
    "DIMENSIONS 3 3 1\n"
    "POINTS 9 double\n"
    "-1 0 0\n"
    "0 0 0\n"
    "1 0 0\n"
    "-1 0.14999999999999999 0\n"
    "0 0.14999999999999999 0\n"
    "1 0.14999999999999999 0\n"
    "-1 0.29999999999999999 0\n"
    "0 0.29999999999999999 0\n"
    "1 0.29999999999999999 0\n"
    "POINT_DATA 9\n"
    "SCALARS v double 1\n"
    "LOOKUP_TABLE default\n"
    "1\n"
    "0\n"
    "-1\n"
    "1.075\n"
    "0.074999999999999997\n"
    "-0.92500000000000004\n"
    "1.1499999999999999\n"
    "0.14999999999999999\n"
    "-0.84999999999999998\n"
)


def _fields():
    # ys = linspace(0, 0.3, 3) exercises 17-digit output; node (1, 0) has v = y = 0
    dom = GridDomain(-1.0, 1.0, 0.0, 0.3, 3, 3)
    u = ScalarField2D.from_function(dom, lambda x, y: x / 3 + y)
    v = ScalarField2D.from_function(dom, lambda x, y: 0.5 * y - x)
    return u, v


def test_write_field_csv_golden(tmp_path):
    u, _ = _fields()
    write_field_csv(u, tmp_path / "u.csv", name="u")
    assert (tmp_path / "u.csv").read_text() == FIELD_CSV


def test_write_samples_csv_golden(tmp_path):
    u, v = _fields()
    cloud = sample_fields(params_from_levels((1.0, -1.0)), u, v, 1)
    write_samples_csv(cloud, tmp_path / "points.csv")
    assert (tmp_path / "points.csv").read_text() == SAMPLES_CSV


def test_write_points_vtk_golden(tmp_path):
    u, v = _fields()
    cloud = sample_fields(params_from_levels((1.0, -1.0)), u, v, 2)
    write_points_vtk(cloud, parse_projection("im:z2,re:z3,im:z1", 3), tmp_path / "p.vtk")
    assert (tmp_path / "p.vtk").read_text() == POINTS_VTK


def test_write_field_vtk_golden(tmp_path):
    _, v = _fields()
    write_field_vtk(v, tmp_path / "v.vtk", name="v")
    assert (tmp_path / "v.vtk").read_text() == FIELD_VTK


def test_read_field_csv_rejects_y_major_rows(tmp_path):
    # a complete 3 x 4 grid with x running fastest: right row count, wrong order
    xs, ys = (0.0, 0.5, 1.0), (0.0, 1 / 3, 2 / 3, 1.0)
    rows = [f"{x!r},{y!r},{10 * x + 3 * y!r}" for y in ys for x in xs]
    (tmp_path / "f.csv").write_text("x,y,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="node-major"):
        read_field_csv(tmp_path / "f.csv")


def test_read_field_csv_rejects_uneven_nodes(tmp_path):
    rows = [f"{x!r},{y!r},{x + y!r}" for x in (0.0, 0.1, 1.0) for y in (0.0, 0.5, 1.0)]
    (tmp_path / "f.csv").write_text("x,y,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="x nodes are not uniform"):
        read_field_csv(tmp_path / "f.csv")


@pytest.mark.parametrize("text", ["x,y,value\n0,0,1\n0,1\n", "x,y,value\n"])
def test_read_field_csv_rejects_short_or_missing_rows(tmp_path, text):
    (tmp_path / "f.csv").write_text(text)
    with pytest.raises(ValueError):
        read_field_csv(tmp_path / "f.csv")
