import numpy as np
import pytest

from slfold.config import BoundarySpec, config_from_dict, load_config, parse_config_text
from slfold.errors import ConfigError
from slfold.grid import BoundaryData, GridDomain, boundary_indices

BASE = """
[params]
n = 3
a = [1.0, -1.0]

[domain]
x0 = -1.0
x1 = 1.0
y0 = -1.0
y1 = 1.0
nx = 9
ny = 9

[boundary]
kind = "affine"
coefficients = [2.0, 1.0, -1.0]

[solver]
tolerance = 1e-10
max_iterations = 500

[outputs]
entries = ["field:csv:fields", "report:json:report.json"]

[embedding]
torus_resolution = 4
projection = "re:z3,im:z3,re:z1"
"""


def test_parse_round_trip():
    data = parse_config_text(BASE)
    assert data["params"]["a"] == [1.0, -1.0]
    assert data["solver"]["tolerance"] == 1e-10
    assert data["solver"]["max_iterations"] == 500
    assert data["outputs"]["entries"][0] == "field:csv:fields"


def test_parse_comments_and_dotted_sections():
    data = parse_config_text("""
# leading comment
[a.b]
key = 3  # trailing comment
flag = true
name = "hello"
empty = []
""")
    assert data["a"]["b"] == {"key": 3, "flag": True, "name": "hello", "empty": []}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[params\nn = 3")
    assert exc.value.line == 1
    with pytest.raises(ConfigError) as exc:
        parse_config_text("\n\njust words\n")
    assert exc.value.line == 3
    with pytest.raises(ConfigError) as exc:
        parse_config_text("x = [1, 2\n")
    assert exc.value.line == 1
    with pytest.raises(ConfigError):
        parse_config_text("x = @nope")


def test_parse_strings_keep_hash_and_comma():
    data = parse_config_text('path = "runs/#3/phi.csv"  # comment\nentries = ["field:csv:a,b"]\n')
    assert data == {"path": "runs/#3/phi.csv", "entries": ["field:csv:a,b"]}


def test_parse_multiline_array():
    assert parse_config_text("a = [\n 1.0,\n -1.0,\n]\n") == {"a": [1.0, -1.0]}


def test_parse_duplicate_key_is_located():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[solver]\ntolerance = 1e-10\ntolerance = 1e-8\n")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("n = 3", "n = 3.7", "n"),
        ("nx = 9", "nx = 33.9", "nx"),
        ("ny = 9", "ny = false", "ny"),
        ("max_iterations = 500", "max_iterations = 2.5", "max_iterations"),
        ("torus_resolution = 4", "torus_resolution = true", "torus_resolution"),
        ("torus_resolution = 4", 'torus_resolution = "4"', "torus_resolution"),
    ],
)
def test_config_rejects_non_integral_integer_keys(old, new, key):
    with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
        config_from_dict(parse_config_text(BASE.replace(old, new)))


def test_config_accepts_integral_float_for_integer_key():
    cfg = config_from_dict(parse_config_text(BASE.replace("max_iterations = 500", "max_iterations = 1e4")))
    assert cfg.solver.max_iterations == 10_000 and type(cfg.solver.max_iterations) is int


def test_config_rejects_non_table_section():
    for section in ("boundary", "solver", "outputs", "embedding"):
        data = parse_config_text(BASE)
        data[section] = 1
        with pytest.raises(ConfigError, match=rf"^\[{section}\] must be a table"):
            config_from_dict(data)


def test_config_from_dict_full():
    cfg = config_from_dict(parse_config_text(BASE))
    assert cfg.params.n == 3 and cfg.params.a == (1.0, -1.0)
    assert cfg.domain == GridDomain(-1.0, 1.0, -1.0, 1.0, 9, 9)
    assert cfg.solver.max_iterations == 500
    assert cfg.torus_resolution == 4
    assert [o.kind for o in cfg.outputs] == ["field", "report"]


def test_config_ignores_retired_solver_keys():
    # sor_factor and coefficient_damping tuned the old SOR loop; old files still load
    text = BASE.replace("max_iterations = 500", "max_iterations = 500\nsor_factor = 2.5\ncoefficient_damping = 0.7")
    assert config_from_dict(parse_config_text(text)).solver == config_from_dict(parse_config_text(BASE)).solver


def test_config_missing_sections():
    with pytest.raises(ConfigError):
        config_from_dict({})
    # only [params] is required; solve itself asks for [domain] and [boundary]
    cfg = config_from_dict({"params": {"a": [1.0, -1.0]}})
    assert cfg.domain is None and cfg.boundary is None


def test_config_rejects_bad_values():
    data = parse_config_text(BASE)
    data["params"]["a"] = [1.0, -1.0, 2.0]  # wrong count for n = 3
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = parse_config_text(BASE)
    data["boundary"]["kind"] = "mystery"
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = parse_config_text(BASE)
    data["outputs"]["entries"] = ["field:parquet:oops"]
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = parse_config_text(BASE)
    data["boundary"]["coefficients"] = [1.0]
    with pytest.raises(ConfigError):
        config_from_dict(data)
    # TOML values of a type no key takes: a date, nested arrays
    data = parse_config_text(BASE.replace("tolerance = 1e-10", "tolerance = 1979-05-27"))
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = parse_config_text(BASE)
    data["params"]["a"] = [[1.0], [-1.0]]
    with pytest.raises(ConfigError):
        config_from_dict(data)
    # booleans and values of the wrong type, each rejected with the key named
    for old, new, key in [
        ("tolerance = 1e-10", "tolerance = true", "tolerance"),
        ("a = [1.0, -1.0]", "a = [true, false]", "a"),
        ("x0 = -1.0", "x0 = 1979-05-27", "x0"),
        ("x1 = 1.0", 'x1 = "1.0"', "x1"),
        ("coefficients = [2.0, 1.0, -1.0]", "coefficients = 1", "coefficients"),
        ("coefficients = [2.0, 1.0, -1.0]", "coefficients = [2.0, true, -1.0]", "coefficients"),
        ('entries = ["field:csv:fields", "report:json:report.json"]', "entries = 1", "entries"),
    ]:
        with pytest.raises(ConfigError, match=f"^{key} must be a"):
            config_from_dict(parse_config_text(BASE.replace(old, new)))


@pytest.mark.parametrize("entry", ["report:csv:rep.csv", "report:vtk:rep", "field:json:f", "embedding:json:e"])
def test_config_rejects_output_formats_not_written(entry):
    text = BASE.replace('"report:json:report.json"', f'"{entry}"')
    with pytest.raises(ConfigError, match="bad output entry"):
        config_from_dict(parse_config_text(text))


def test_config_accepts_every_written_output_format():
    entries = '"field:csv:a", "field:vtk:b", "embedding:csv:c", "embedding:vtk:d", "report:json:e"'
    text = BASE.replace('"field:csv:fields", "report:json:report.json"', entries)
    cfg = config_from_dict(parse_config_text(text))
    assert [(o.kind, o.format) for o in cfg.outputs] == [
        ("field", "csv"), ("field", "vtk"), ("embedding", "csv"), ("embedding", "vtk"), ("report", "json"),
    ]


def test_boundary_registry():
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 5, 5)
    affine = BoundarySpec(kind="affine", coefficients=(2.0, 1.0, -1.0)).resolve(dom)
    oracle = BoundaryData.from_function(dom, lambda x, y: 2 * x * y - x + y)
    assert np.array_equal(affine.values, oracle.values)

    bil = BoundarySpec(kind="bilinear", coefficients=(1.0, 0.0, 2.0, 0.5)).resolve(dom)
    oracle2 = BoundaryData.from_function(dom, lambda x, y: 1 + 2 * y + 0.5 * x * y)
    assert np.array_equal(bil.values, oracle2.values)

    inline = BoundarySpec(kind="inline", values=tuple(range(16))).resolve(dom)
    assert inline.values[3] == 3.0


def write_boundary_csv(path, dom, values, xs=None, ys=None):
    """x,y,value rows at the traversal nodes of dom, or at the given xs, ys."""
    ii, jj = boundary_indices(dom.nx, dom.ny)
    xs = dom.xs()[ii] if xs is None else xs
    ys = dom.ys()[jj] if ys is None else ys
    rows = ["x,y,value"] + [f"{x!r},{y!r},{v!r}" for x, y, v in zip(xs.tolist(), ys.tolist(), values)]
    path.write_text("\n".join(rows) + "\n")


def test_boundary_csv_source(tmp_path):
    dom = GridDomain(0.0, 1.0, 0.0, 1.0, 4, 4)
    path = tmp_path / "phi.csv"
    write_boundary_csv(path, dom, [float(k) for k in range(12)])
    phi = BoundarySpec(kind="csv", path=str(path)).resolve(dom)
    assert phi.values[-1] == 11.0


def test_boundary_csv_accepts_nodes_within_rounding(tmp_path):
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 5, 4)
    ii, jj = boundary_indices(dom.nx, dom.ny)
    path = tmp_path / "phi.csv"
    values = np.linspace(-1.0, 2.0, len(ii)).tolist()
    write_boundary_csv(path, dom, values, dom.xs()[ii] + 1e-13, dom.ys()[jj] - 1e-13)
    phi = BoundarySpec(kind="csv", path=str(path)).resolve(dom)
    assert phi.values.tolist() == values


@pytest.mark.parametrize("edit", ["other bounds", "reversed rows", "value column only", "one row short"])
def test_boundary_csv_rows_must_be_the_traversal(tmp_path, edit):
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 5, 4)
    ii, jj = boundary_indices(dom.nx, dom.ny)
    xs, ys = dom.xs()[ii], dom.ys()[jj]
    values = np.arange(len(ii), dtype=float).tolist()
    path = tmp_path / "phi.csv"
    if edit == "other bounds":
        write_boundary_csv(path, dom, values, 2.0 * xs, 2.0 * ys)
    elif edit == "reversed rows":
        write_boundary_csv(path, dom, values[::-1], xs[::-1], ys[::-1])
    elif edit == "value column only":
        path.write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    else:
        write_boundary_csv(path, dom, values[:-1], xs[:-1], ys[:-1])
    # a file that is not x,y,value rows is refused as field CSVs are, by ValueError
    with pytest.raises(ValueError if edit == "value column only" else ConfigError):
        BoundarySpec(kind="csv", path=str(path)).resolve(dom)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.toml")
