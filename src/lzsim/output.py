"""Tabular artifacts: CSV/JSON serialization.

Both formats carry the full resolved run configuration as metadata so any
artifact can be reproduced exactly from its own header.  Serialization is
deterministic: a repeated run differs only in the wall-time field.
"""

import csv
import json
import math
import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class OutputTable:
    """Header, numeric rows of matching arity, and a string metadata map."""

    header: tuple
    rows: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "header", tuple(str(h) for h in self.header))
        object.__setattr__(self, "rows", tuple(tuple(float(v) for v in r) for r in self.rows))
        width = len(self.header)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} fields, header has {width}")


def _format_cell(value: float) -> str:
    # 17 significant digits: enough to round-trip a double exactly
    return format(value, ".17g")


def write_csv(table: OutputTable, stream) -> None:
    """Metadata as '# key = value' comment lines, then header and rows."""
    for key, value in table.metadata.items():
        stream.write(f"# {key} = {value}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(table.header)
    for row in table.rows:
        writer.writerow(_format_cell(v) for v in row)


def write_json(table: OutputTable, stream) -> None:
    """Single object {header, rows, metadata}; non-finite values become null."""
    payload = {
        "header": list(table.header),
        "rows": [[v if math.isfinite(v) else None for v in row] for row in table.rows],
        "metadata": dict(table.metadata),
    }
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

