"""Table layout and the CSV/JSON table writers."""

import json

import numpy as np
import pytest

from ngstate import densmat as dm
from ngstate import gridio
from ngstate.errors import NonFiniteValue
from ngstate.statemap import ReducedState


def _rows(a, b, *fields):
    """Rows (a[i], b[k], field[i][k], ...) for every i and k, b fastest, with
    -0.0 folded into 0: the layout the writers print, built value by value."""
    return [[v + 0.0 for v in (x, y, *(float(f[i][k]) for f in fields))]
            for i, x in enumerate(a) for k, y in enumerate(b)]


def _expected_csv(header, rows):  # one '%' a row
    line = ",".join(["%.9g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line % tuple(r) for r in rows)


def _expected_json(header, rows):
    rounded = [[float("%.9g" % v) for v in row] for row in rows]
    return json.dumps({"header": list(header), "rows": rounded}, sort_keys=True) + "\n"


def test_tensor_table_layout():
    st = ReducedState.from_nx(1.0, 1.0)
    surf = dm.d_surface(st, np.linspace(0, 2, 3), np.linspace(0, 1, 2))
    table = gridio.tensor_table(surf.u, surf.v, surf.ln_d_norm, -surf.ln_d_norm)
    assert isinstance(table, gridio.TensorTable) and len(table) == 6
    assert table.fields.shape == (3, 2, 2)
    rows = _rows(table.a, table.b, *np.moveaxis(table.fields, -1, 0))
    assert [r[:2] for r in rows] == [  # row-major: the second axis fastest
        [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, 0.0], [2.0, 1.0]]
    np.testing.assert_array_equal([r[2] for r in rows], surf.ln_d_norm.ravel() + 0.0)
    np.testing.assert_array_equal([r[3] for r in rows], -surf.ln_d_norm.ravel() + 0.0)


@pytest.mark.parametrize("a, b, field", [
    ([0.0, 1.0], [0.0, 0.5], np.zeros((3, 2))),
    ([0.0, 1.0], [0.0, 0.5], [7.0, 8.0]),
    ([0.0, 1.0], [0.0, 0.5], 3.0),
    ([0.0, 1.0], [0.0, 0.5], [[7.0], [8.0]]),
    ([[0.0, 1.0]], [0.0, 0.5], np.zeros((1, 2))),
    ([0.0, 1.0], 0.5, np.zeros((2, 1))),
], ids=["too-many-a-rows", "broadcast-along-a", "scalar", "broadcast-along-b",
        "2-D-axis", "0-D-axis"])
def test_tensor_table_refuses_fields_off_the_grid(a, b, field):
    with pytest.raises(ValueError):
        gridio.tensor_table(a, b, field)
    with pytest.raises(ValueError):  # also beside a field of the right shape
        gridio.tensor_table(a, b, np.zeros((2, 2)), field)


def test_writers_format_each_value_once(tmp_path):
    # -0.0 in an axis and in a field, a subnormal, a big and an integral float
    a, b, field = [0.1, -0.0], [2.0, 12345678912.0], [[1e-320, -0.0], [-1.5e-7, 7.0]]
    table = gridio.tensor_table(a, b, field)
    header = ("a", "b", "c")
    gridio.write_csv(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_text() == (
        "a,b,c\n0.1,2,9.99988867e-321\n0.1,1.23456789e+10,0\n"
        "0,2,-1.5e-07\n0,1.23456789e+10,7\n")
    gridio.write_json_rows(tmp_path / "t.json", header, table)
    rounded = [[float(gridio.format_number(v)) for v in row] for row in _rows(a, b, field)]
    expected = json.dumps({"header": list(header), "rows": rounded}, sort_keys=True) + "\n"
    assert (tmp_path / "t.json").read_text() == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("write", [gridio.write_csv, gridio.write_json_rows])
def test_writers_refuse_non_finite(tmp_path, write, bad):
    # one bad value in the a axis sits in 3 rows, in the b axis in 2
    path = tmp_path / "t.txt"
    for where, cells in (("a", 3), ("b", 2), ("field", 1)):
        a, b, field = np.array([0.0, 1.0]), np.array([0.5, 2.0, 3.0]), np.ones((2, 3))
        {"a": a, "b": b, "field": field[1]}[where][-1] = bad
        with pytest.raises(NonFiniteValue, match=f"^{cells} non-finite values"):
            write(path, ("a", "b", "c"), gridio.tensor_table(a, b, field))
        assert not path.exists()
    for header in (("a", "b"), ("a", "b", "c", "d")):
        with pytest.raises(ValueError):
            write(path, header, gridio.tensor_table([0.0], [1.0], [[2.0]]))
        assert not path.exists()


def test_writers_match_per_row_text_across_block_seams(tmp_path, monkeypatch):
    monkeypatch.setattr(gridio, "_BLOCK_ROWS", 7)
    for n_a, n_b, n_fields in [
        (3, 15, 1),    # b longer than a block: one a-row's chunks of 7, 7 and 1 b
        (11, 2, 2),    # three whole a-rows a block, and a short last block
        (23, 1, 1),    # a one-value b axis, seven a-rows a block
        (5, 7, 1),     # b exactly one block long
        (1, 3, 3),     # one a-row
    ]:
        _check_block_seams(tmp_path, n_a, n_b, n_fields)


def _check_block_seams(tmp_path, n_a, n_b, n_fields):
    rng = np.random.default_rng(n_a * n_b)

    def draw(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, shape)

    a, b, fields = draw(n_a), draw(n_b), draw(n_fields, n_a, n_b)
    a[::4], fields[0, ::3] = np.round(a[::4]), np.round(fields[0, ::3])  # integral floats
    edges = [-0.0, 1e-320, 1e300, -1e300, 7.0]  # at the ends, next to the seams
    a[-len(edges[:n_a]):] = edges[:n_a]
    b[:len(edges[:n_b])] = edges[:n_b]
    fields[-1].flat[-len(edges[:fields[-1].size]):] = edges[:fields[-1].size]
    table = gridio.tensor_table(a, b, *fields)
    header = ("a", "b", *(f"f{k}" for k in range(n_fields)))
    rows = _rows(a.tolist(), b.tolist(), *fields.tolist())

    per = max(1, 7 // n_b)  # whole a-rows a block, unless b is longer than one
    assert [block.count("\n") for block in gridio._blocks(header, table)] == (
        [min(7, n_b - j) for _ in range(n_a) for j in range(0, n_b, 7)] if n_b > 7 else
        [n_b * min(per, n_a - i) for i in range(0, n_a, per)])

    gridio.write_csv(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_text() == _expected_csv(header, rows)
    gridio.write_json_rows(tmp_path / "t.json", header, table)
    assert (tmp_path / "t.json").read_text() == _expected_json(header, rows)

    fields[-1].flat[-1] = np.nan
    for write, path in ((gridio.write_csv, tmp_path / "n.csv"),
                        (gridio.write_json_rows, tmp_path / "n.json")):
        with pytest.raises(NonFiniteValue):
            write(path, header, gridio.tensor_table(a, b, *fields))
        assert not path.exists()

