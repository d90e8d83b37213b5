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
