"""Plain-text artifact writers: CSV tables and a flat JSON metadata sidecar.

A table is a TensorTable, two axes and fields on their grid.  Each value is
rendered once as '%.9g', so runs give byte-identical files; a table holding
NaN or inf is refused (NonFiniteValue), not written.  CSV has a header row,
commas and LF line ends; metadata is one flat JSON object of a run's settings.
"""

import json

import numpy as np

from .errors import NonFiniteValue

_BLOCK_ROWS = 4096  # most rows in a block: whole a-rows, or one a-row's chunk of b


def format_number(value):
    """Nine-significant-digit text for floats; integers and strings stay exact."""
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value) + 0.0, ".9g")  # +0.0 folds -0.0 into 0


class TensorTable:
    """Rows (a[i], b[k], fields[i, k, 0], ...) for every i and k, b fastest."""

    def __init__(self, a, b, fields):  # fields: (a.size, b.size, field count)
        self.a, self.b, self.fields = a, b, fields

    def __len__(self):
        return self.a.size * self.b.size


def tensor_table(a, b, *fields):
    """The TensorTable of 1-D axes a, b and fields of shape (a.size, b.size)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    values = np.asarray(fields, dtype=float)  # an uneven set raises ValueError
    if a.ndim != 1 or b.ndim != 1 or values.shape != (len(fields), a.size, b.size):
        raise ValueError(f"axes {a.shape}, {b.shape}, fields {values.shape}: not a grid")
    return TensorTable(a, b, np.moveaxis(values, 0, -1))


def _blocks(header, table):
    """The table's '%.9g' text, a string a block, checked before any is made."""
    a, b, fields = table.a + 0.0, table.b + 0.0, table.fields + 0.0  # folds -0.0 into 0
    if len(header) != 2 + fields.shape[2]:
        raise ValueError(f"expected {len(header)} columns, got {2 + fields.shape[2]}")
    bad = [np.count_nonzero(~np.isfinite(x)) for x in (a, b, fields)]
    if bad := bad[0] * b.size + bad[1] * a.size + bad[2]:  # cells in the rows
        raise NonFiniteValue(f"{bad} non-finite values in a table of "
                             f"{len(table)} rows; not written")
    # one '%' per axis and per block (a call per value would dominate): a-texts
    # go before b's row rests ",b,%.9g...\n", and a block's '%' fills the fields
    b_rows = ((",%.9g" + ",%%.9g" * fields.shape[2] + "\n") * b.size
              % tuple(b.tolist())).splitlines(True)
    per = max(1, _BLOCK_ROWS // max(b.size, 1))  # a-rows in a block

    def block(i, j):  # a-rows i:i + per, b values j:j + _BLOCK_ROWS
        rows, a_part = b_rows[j:j + _BLOCK_ROWS], a[i:i + per]
        a_text = "%.9g\n" * a_part.size % tuple(a_part.tolist())
        template = "".join([p + p.join(rows) for p in a_text.split()])
        return template % tuple(fields[i:i + per, j:j + _BLOCK_ROWS].ravel().tolist())
    return (block(i, j) for i in range(0, a.size, per) for j in range(0, b.size, _BLOCK_ROWS))


def write_csv(path, header, rows):
    blocks = _blocks(header, rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def write_json_rows(path, header, rows):
    """The same table as write_csv, as {"header": [...], "rows": [...]}
    with each value the float its '%.9g' text reads back as."""
    blocks = _blocks(header, rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write('{"header": %s, "rows": [' % json.dumps(list(header)))
        for k, block in enumerate(blocks):  # one parse and one dumps a block
            values = np.array(block.replace(",", " ").split(), dtype=float)
            text = json.dumps(values.reshape(-1, len(header)).tolist())
            fh.write((", " if k else "") + text[1:-1])
        fh.write("]}\n")


def _flat_value(value):  # a sequence becomes one comma-joined string
    if isinstance(value, (list, tuple)):
        return ",".join(format_number(v) for v in value)
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    raise TypeError(f"unsupported metadata value type: {type(value).__name__}")


def write_metadata(path, config):
    flat = {str(k): _flat_value(v) for k, v in config.items()}
    with open(path, "w", encoding="ascii", newline="") as fh:
        json.dump(flat, fh, indent=2, sort_keys=True)
        fh.write("\n")
