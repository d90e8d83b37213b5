"""Table layout and the CSV/JSON table writers."""

import json

import numpy as np
import pytest

from ngstate import densmat as dm
from ngstate import gridio
from ngstate.errors import NonFiniteValue
from ngstate.statemap import ReducedState


def test_tensor_table_layout():
    st = ReducedState.from_nx(1.0, 1.0)
    surf = dm.d_surface(st, np.linspace(0, 2, 3), np.linspace(0, 1, 2))
    table = gridio.tensor_table(surf.u, surf.v, surf.ln_d_norm, -surf.ln_d_norm)
    assert table.shape == (6, 4)
    assert table[:, :2].tolist() == [  # row-major: the second axis fastest
        [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, 0.0], [2.0, 1.0]]
    np.testing.assert_array_equal(table[:, 2], surf.ln_d_norm.ravel())
    np.testing.assert_array_equal(table[:, 3], -surf.ln_d_norm.ravel())
    with pytest.raises(ValueError):
        gridio.tensor_table([0.0, 1.0], [0.0, 0.5], np.zeros((3, 2)))


def test_writers_format_each_value_once(tmp_path):
    table = [[0.1, -0.0, 1e-320], [2.0, 12345678912.0, -1.5e-7]]
    gridio.write_csv(tmp_path / "t.csv", ("a", "b", "c"), table)
    assert (tmp_path / "t.csv").read_text() == (
        "a,b,c\n0.1,0,9.99988867e-321\n2,1.23456789e+10,-1.5e-07\n")
    gridio.write_json_rows(tmp_path / "t.json", ("a", "b", "c"), table)
    rounded = [[float(gridio.format_number(v)) for v in row] for row in table]
    expected = json.dumps({"header": ["a", "b", "c"], "rows": rounded},
                          sort_keys=True) + "\n"
    assert (tmp_path / "t.json").read_text() == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("write", [gridio.write_csv, gridio.write_json_rows])
def test_writers_refuse_non_finite(tmp_path, write, bad):
    path = tmp_path / "t.txt"
    with pytest.raises(NonFiniteValue):
        write(path, ("a", "b"), [[0.0, 1.0], [bad, 2.0]])
    assert not path.exists()
    with pytest.raises(ValueError):
        write(path, ("a", "b"), [[0.0, 1.0, 2.0]])


def test_writers_match_per_row_text_across_block_seams(tmp_path):
    # 2 full blocks and a short one; edge values sit on each seam
    n_rows = 2 * gridio._BLOCK_ROWS + 7
    rng = np.random.default_rng(3)
    table = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-12, 12, (n_rows, 3))
    table[::5, 1] = np.round(table[::5, 1])              # integral floats
    edges = [-0.0, 1e-320, 1e300, -1e300, 7.0, -0.0]
    for seam in (gridio._BLOCK_ROWS, 2 * gridio._BLOCK_ROWS, n_rows):
        table[seam - 2:seam] = np.reshape(edges, (2, 3))
    folded = [[v + 0.0 for v in row] for row in table.tolist()]  # -0.0 prints as 0
    header = ("a", "b", "c")

    gridio.write_csv(tmp_path / "t.csv", header, table)
    expected = "a,b,c\n" + "".join("%.9g,%.9g,%.9g\n" % tuple(r) for r in folded)
    assert (tmp_path / "t.csv").read_text() == expected

    gridio.write_json_rows(tmp_path / "t.json", header, table)
    rounded = [[float("%.9g" % v) for v in row] for row in folded]
    assert (tmp_path / "t.json").read_text() == json.dumps(
        {"header": list(header), "rows": rounded}, sort_keys=True) + "\n"

    table[-1, 0] = np.nan
    for write, path in ((gridio.write_csv, tmp_path / "n.csv"),
                        (gridio.write_json_rows, tmp_path / "n.json")):
        with pytest.raises(NonFiniteValue):
            write(path, header, table)
        assert not path.exists()
