"""Plain-text artifact writers: CSV tables and a flat JSON metadata sidecar.

A table is a 2-D float array; tensor_table lays one out from two axes and
fields on their grid.  Numbers are rendered with nine significant digits
('%.9g') so repeated runs produce byte-identical files regardless of
platform math-library quirks upstream of the rounding; a table holding
NaN or inf is refused (NonFiniteValue) and not written.
CSV files carry one header row, comma separators, and LF line endings.
Metadata is one flat JSON object (sorted keys, two-space indent): every
resolved configuration value of a run, enough to reproduce the data.
"""

import json

import numpy as np

from .errors import NonFiniteValue

_BLOCK_ROWS = 4096  # rows turned into Python floats at a time


def format_number(value):
    """Nine-significant-digit text for floats; integers stay exact."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value) + 0.0, ".9g")  # +0.0 folds -0.0 into 0


def tensor_table(a, b, *fields):
    """Rows (a[i], b[k], field[i, k], ...) for every i and k, b fastest;
    each field has shape (a.size, b.size)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    table = np.empty((a.size, b.size, 2 + len(fields)))
    table[..., 0], table[..., 1] = a[:, None], b
    for col, field in enumerate(fields, 2):
        table[..., col] = field
    return table.reshape(a.size * b.size, -1)


def _blocks(header, rows):
    """The table's '%.9g' text, one string per _BLOCK_ROWS rows; the table
    is checked before any is made."""
    table = np.asarray(rows, dtype=float) + 0.0  # +0.0 folds -0.0 into 0
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"expected {len(header)} columns, got shape {table.shape}")
    if bad := np.count_nonzero(~np.isfinite(table)):
        raise NonFiniteValue(f"{bad} non-finite values in a table of "
                             f"{len(table)} rows; not written")
    line = ",".join(["%.9g"] * len(header)) + "\n"
    # one '%' per block: the interpreter's per-row call cost dominates
    return ((line * len(block)) % tuple(block.ravel().tolist())
            for block in (table[start:start + _BLOCK_ROWS]
                          for start in range(0, len(table), _BLOCK_ROWS)))


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


def _flat_value(value):
    # sequences become comma-joined strings to keep the object flat
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
