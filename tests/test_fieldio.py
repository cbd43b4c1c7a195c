"""Golden bytes of the field and sample CSV and VTK writers, the float
formatting kernel against '%.17g', JSON Records against json.dumps, and the
field CSV reader on malformed files.

The expected text pins the format: header, node-major row order, and 17
significant digits, so that every value re-reads bit for bit.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slfold import fieldio
from slfold.branch import params_from_levels
from slfold.embedding import sample_fields
from slfold.fieldio import (
    Records,
    parse_projection,
    read_field_csv,
    write_field_csv,
    write_field_vtk,
    write_json,
    write_points_vtk,
    write_rows_csv,
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


def test_read_field_csv_rejects_rows_of_two_and_four_cells(tmp_path):
    # six cells make two rows of three, but neither row has three
    (tmp_path / "f.csv").write_text("x,y,value\n1,2\n3,4,5,6\n")
    with pytest.raises(ValueError, match="every row must be x,y,value"):
        read_field_csv(tmp_path / "f.csv")


@pytest.mark.parametrize("text", [FIELD_CSV.replace("\n", "\r\n"), FIELD_CSV.rstrip("\n")])
def test_read_field_csv_accepts_crlf_and_no_final_newline(tmp_path, text):
    (tmp_path / "f.csv").write_bytes(text.encode())
    (tmp_path / "lf.csv").write_text(FIELD_CSV)
    got, want = read_field_csv(tmp_path / "f.csv"), read_field_csv(tmp_path / "lf.csv")
    assert got.domain == want.domain
    assert got.values.tobytes() == want.values.tobytes()


# --- JSON Records against json.dumps -------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _assert_records_dump(tmp_path, columns, rows, others):
    obj = {"a": 1, **others, "points": Records(columns, rows), "zz": [0.5]}
    write_json(obj, tmp_path / "r.json")
    want = {**obj, "points": [dict(zip(columns, r)) for r in rows.tolist()]}
    assert (tmp_path / "r.json").read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


@st.composite
def _records(draw):
    columns = draw(st.lists(st.text(max_size=3), min_size=1, max_size=7, unique=True))
    width = len(columns)
    rows = draw(st.lists(st.lists(st.floats(), min_size=width, max_size=width), max_size=12))
    others = draw(st.dictionaries(st.text(max_size=8).filter(lambda k: k != "points"), _JSON_VALUES,
                                  max_size=4))
    return columns, np.array(rows, dtype=float).reshape(-1, width), others


@settings(max_examples=100, deadline=None)
@given(_records())
@example((["x", "%s", "b"], np.array([[math.nan, math.inf, -math.inf], [-0.0, 5e-324, 2.2e-308]]), {}))
@example((["y", "x"], np.empty((0, 2)), {"points_": None, "pointa": {"points": None}}))
def test_records_write_as_the_dict_list_json_dumps_writes(tmp_path_factory, case):
    _assert_records_dump(tmp_path_factory.mktemp("json"), *case)


@pytest.mark.parametrize("rows", [0, 1, 1000])
def test_records_of_raw_bit_patterns_write_as_json_dumps_writes(tmp_path, rows):
    bits = np.random.default_rng(rows).integers(0, 2**64, (rows, 6), dtype=np.uint64)
    columns = ("x", "y", "omega", "im_omega", "gamma", "fit_residual")
    _assert_records_dump(tmp_path, columns, bits.view(float), {"budgets": {"omega": 1e-6}, "frames": rows})


# --- the float kernel against '%.17g' ------------------------------------------------

def _kernel_lines(x: np.ndarray) -> list[str]:
    return b"".join(fieldio._table_bytes([np.asarray(x, dtype=float)], ",")).decode().splitlines()


def _assert_matches_percent(x) -> None:
    got = _kernel_lines(x)
    want = ["%.17g" % v for v in np.asarray(x, dtype=float).tolist()]
    assert len(got) == len(want)
    assert [(w, g) for w, g in zip(want, got) if w != g] == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_matches_percent_on_raw_bit_patterns(bits):
    # every 64-bit pattern: NaNs, infinities, subnormals and both zeros included
    _assert_matches_percent(np.array(bits, dtype=np.uint64).view(float))


def _edge_values() -> np.ndarray:
    values = [0.0, 5e-324, 1e16, 1e17, 1e20, 1 + 2**-17, 1 + 3 * 2**-17]
    values += [2.0**k for k in range(-1074, 1024)]
    for k in range(-320, 309):
        v = float(f"1e{k}")
        values += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    values += [float(2**53 + k) for k in range(-8, 9)]  # odd offsets round to even ones
    values += [float(10**17 + k) for k in range(-64, 65, 4)]
    values += [math.nan, math.inf]
    values += np.linspace(-1.0, 1.0, 65).tolist()
    edge = np.array(values)
    return np.concatenate([edge, -edge])


def test_kernel_matches_percent_on_edge_values():
    _assert_matches_percent(_edge_values())


def test_kernel_edge_values_include_ties_and_exponent_switches():
    # 1 + 2^-17 is an exact 17-digit tie, rounded to even by '%'
    assert _kernel_lines([1 + 2**-17, 1e16, 1e17, 1e-4, 1e-5, 5e-324, -0.0]) == [
        "1.0000076293945312", "10000000000000000", "1e+17", "0.0001", "1.0000000000000001e-05",
        "4.9406564584124654e-324", "-0",
    ]


def _template_rows_csv(header, rows, path):
    """The row-template writer the CSV tables used before the kernel, kept as the reference."""
    lines = [",".join(header)]
    template = None
    for row in rows:
        if template is None:
            template = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in row)
        lines.append(template % tuple(row))
    path.write_text("\n".join(lines) + "\n")


def _compare_with_template(tmp_path, header, columns):
    cells = [c.astype(str).tolist() if c.dtype.kind == "S" else c.tolist() for c in columns]
    _template_rows_csv(header, zip(*cells), tmp_path / "template.csv")
    write_rows_csv(header, columns, tmp_path / "kernel.csv")
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "template.csv").read_bytes()


BLOCK_OF_5 = fieldio._BLOCK_CELLS // 5  # rows per block of a table of 5 columns


@pytest.mark.parametrize("rows", [0, 1, 3, BLOCK_OF_5, 2 * BLOCK_OF_5 + 7])
def test_mixed_tables_match_the_row_template_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    status = np.array(["ok", "skipped_y0", "degenerate", "underflow"], dtype="S")[rng.integers(0, 4, rows)]
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300])
    columns = [
        rng.normal(size=rows),
        status,
        rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, rows),
        specials[rng.integers(0, len(specials), rows)],
        status[::-1].copy(),
    ]
    _compare_with_template(tmp_path, ("a", "status", "b", "c", "again"), columns)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.floats(width=64), st.sampled_from(["ok", "degenerate", "x"]), st.floats()),
             max_size=20)
)
def test_mixed_rows_match_the_row_template_writer(tmp_path_factory, rows):
    a, labels, b = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    columns = [np.array(a, dtype=float), np.array(labels, dtype="S"), np.array(b, dtype=float)]
    _compare_with_template(tmp_path_factory.mktemp("rows"), ("a", "label", "b"), columns)


def test_a_two_dimensional_column_is_several_adjacent_columns(tmp_path):
    table = np.arange(12.0).reshape(4, 3) / 7
    write_rows_csv("pqr", [table], tmp_path / "block.csv")
    write_rows_csv("pqr", list(table.T), tmp_path / "columns.csv")
    assert (tmp_path / "block.csv").read_text() == (tmp_path / "columns.csv").read_text()
