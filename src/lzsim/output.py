"""Tabular artifacts: CSV/JSON serialization.

Both formats carry the full resolved run configuration as metadata so any
artifact can be reproduced exactly from its own header.  Serialization is
deterministic: a repeated run differs only in the wall-time field.
"""

import csv
import json
import sys
from dataclasses import dataclass, field

import numpy as np

# rows formatted by one '%' template; a block of 512 rows of 9 cells is about 100 kB of text
_BLOCK_ROWS = 512


@dataclass(frozen=True, eq=False)
class OutputTable:
    """Header, numeric rows of matching arity, and a string metadata map.

    rows may be a 2-D array or a sequence of rows; either way the table holds
    them as one (rows, columns) float array.
    """

    header: tuple
    rows: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "header", tuple(str(h) for h in self.header))
        width = len(self.header)
        rows = self.rows
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2 or rows.shape[1] != width:
                raise ValueError(f"rows have shape {rows.shape}, header has {width} fields")
        else:
            rows = list(rows)
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise ValueError(f"row {i} has {len(row)} fields, header has {width}")
        rows = np.array(rows, dtype=float).reshape(len(rows), width)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)


def write_csv(table: OutputTable, stream) -> None:
    """Metadata as '# key = value' comment lines, then header and rows.

    Rows go out in blocks of _BLOCK_ROWS, each one '%' template of
    '%.17g,...' rows applied to the block's cells: the bytes of one template
    per row (17 significant digits round-trip a double exactly), with one
    format call per block.
    """
    for key, value in table.metadata.items():
        stream.write(f"# {key} = {value}\n")
    csv.writer(stream, lineterminator="\n").writerow(table.header)
    row_template = ",".join(["%.17g"] * len(table.header)) + "\n"
    block_template = row_template * _BLOCK_ROWS
    rows = table.rows
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        template = block_template if len(block) == _BLOCK_ROWS else row_template * len(block)
        stream.write(template % tuple(block.ravel().tolist()))


def write_json(table: OutputTable, stream) -> None:
    """Single object {header, rows, metadata}; non-finite values become null."""
    rows = table.rows.tolist()
    for i, j in np.argwhere(~np.isfinite(table.rows)).tolist():
        rows[i][j] = None
    payload = {"header": list(table.header), "rows": rows, "metadata": dict(table.metadata)}
    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


def write_table(table: OutputTable, path, fmt: str) -> None:
    """Write to a file path, or to stdout when path is None or '-'."""
    writer = {"csv": write_csv, "json": write_json}[fmt]
    if path is None or path == "-":
        writer(table, sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer(table, handle)
