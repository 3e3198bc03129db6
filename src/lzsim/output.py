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
        object.__setattr__(self, "rows", tuple(tuple(map(float, r)) for r in self.rows))
        width = len(self.header)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} fields, header has {width}")


def write_csv(table: OutputTable, stream) -> None:
    """Metadata as '# key = value' comment lines, then header and rows.

    Each row is one '%.17g,...' template applied to its tuple (17 significant
    digits round-trip a double exactly); rows are streamed, not joined.
    """
    for key, value in table.metadata.items():
        stream.write(f"# {key} = {value}\n")
    csv.writer(stream, lineterminator="\n").writerow(table.header)
    template = ",".join(["%.17g"] * len(table.header)) + "\n"
    stream.writelines(template % row for row in table.rows)


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

